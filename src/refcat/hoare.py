"""Hoare logic over a finite state space: predicates over a one-object
transformer monoid, the command closure, and the strongest
postconditions and weakest preconditions to check lifts against."""

from __future__ import annotations

from .fincat import FunctorData, StructuralError, tagged_category
from .fixtures import _then
from .refsys import RefinementSystem

# The most transformers a Hoare spec's commands may generate.
CLOSURE_BOUND = 64


class HoareSpec:
    """A finite state space with named commands.

    `generators` maps command names to total functions on states (as
    dicts state -> state).  `predicates` defaults to all subsets; a
    listed sublattice restricts the refinement side.  The transformer
    monoid is closed by construction, bounded by `CLOSURE_BOUND`.
    """

    __slots__ = ("states", "generators", "predicates")

    def __init__(self, states, generators, predicates=None):
        self.states: tuple[str, ...] = states
        self.generators: dict[str, dict[str, str]] = generators
        self.predicates: tuple[tuple[str, ...], ...] | None = predicates


def _transformer_monoid(spec: HoareSpec) -> tuple[list[str], list[tuple[int, ...]]]:
    """Close the generators under composition.

    Elements are function tables (tuples over state indices); names are
    `id`, the generator names, then `left;gen` in discovery order."""
    n = len(spec.states)
    if len(set(spec.states)) != n:
        raise StructuralError("duplicate state names")
    sidx = {s: i for i, s in enumerate(spec.states)}
    names: list[str] = ["id"]
    funcs: list[tuple[int, ...]] = [tuple(range(n))]
    index: dict[tuple[int, ...], int] = {funcs[0]: 0}
    gens: list[tuple[str, tuple[int, ...]]] = []
    for gname in sorted(spec.generators):
        table = spec.generators[gname]
        if set(table) != set(spec.states):
            raise StructuralError(f"command {gname} is not total on the states")
        func = tuple(sidx[table[s]] for s in spec.states)
        gens.append((gname, func))
        if func not in index:
            index[func] = len(funcs)
            names.append(gname)
            funcs.append(func)
    frontier = list(range(1, len(funcs)))
    while frontier:
        fresh: list[int] = []
        for i in frontier:
            for gname, g in gens:
                comp = tuple(g[x] for x in funcs[i])
                if comp not in index:
                    if len(funcs) >= CLOSURE_BOUND:
                        raise StructuralError(
                            f"transformer monoid exceeds the closure bound {CLOSURE_BOUND}"
                        )
                    index[comp] = len(funcs)
                    names.append(f"{names[i]};{gname}")
                    funcs.append(comp)
                    fresh.append(index[comp])
        frontier = fresh
    return names, funcs


def _predicate_list(spec: HoareSpec) -> list[frozenset[int]]:
    sidx = {s: i for i, s in enumerate(spec.states)}
    if spec.predicates is None:
        n = len(spec.states)
        return [
            frozenset(i for i in range(n) if mask >> i & 1)
            for mask in range(1 << n)
        ]
    preds = []
    for p in spec.predicates:
        if not set(p) <= set(spec.states):
            raise StructuralError(f"predicate {p} mentions unknown states")
        preds.append(frozenset(sidx[s] for s in p))
    if len(set(preds)) != len(preds):
        raise StructuralError("duplicate predicates listed")
    return preds


def _predicate_name(spec: HoareSpec, pred: frozenset[int]) -> str:
    return "{" + ",".join(s for i, s in enumerate(spec.states) if i in pred) + "}"


def build_hoare(spec: HoareSpec) -> RefinementSystem:
    """Predicates over the transformer monoid.

    T has one object carrying the closed command monoid; D has the
    predicates, with exactly one morphism (P, c) -> Q when c maps P into
    Q.  The projection forgets the predicates.  The resulting system is
    thin, a fibration, and an opfibration.  Every composite is a function
    composite, so the system is lawful as built and is not swept."""
    names, funcs = _transformer_monoid(spec)
    T = tagged_category(
        "W",
        ("W",),
        [(0, 0, f) for f in funcs],
        names,
        [(0, 0, funcs[0])],
        _then,
    )
    preds = _predicate_list(spec)
    pnames = [_predicate_name(spec, p) for p in preds]
    tags = [  # (P, Q, f): the command f maps P into Q
        (Pi, Qi, f)
        for Pi, P in enumerate(preds)
        for Qi, Q in enumerate(preds)
        for f in funcs
        if frozenset(f[x] for x in P) <= Q
    ]
    commands = [T.mor_index[0, 0, f] for _P, _Q, f in tags]
    D = tagged_category(
        "Pred",
        pnames,
        tags,
        [f"{names[c]}:{pnames[P]}>{pnames[Q]}" for c, (P, Q, _f) in zip(commands, tags)],
        [(P, P, funcs[0]) for P in range(len(preds))],
        _then,
    )
    t = FunctorData("hoare", D, T, (0,) * len(preds), tuple(commands))
    return RefinementSystem("hoare", t)


def _resolve_command(spec: HoareSpec, c) -> tuple[int, ...]:
    sidx = {s: i for i, s in enumerate(spec.states)}
    if isinstance(c, dict):
        return tuple(sidx[c[s]] for s in spec.states)
    names, funcs = _transformer_monoid(spec)
    try:
        return funcs[names.index(c)]
    except ValueError:
        raise StructuralError(f"unknown command {c!r}") from None


def hoare_sp(spec: HoareSpec, c, P) -> frozenset[str]:
    """Strongest postcondition: the image of P under the command.

    `c` is a command name from the closure (or an explicit state map),
    `P` an iterable of state names."""
    func = _resolve_command(spec, c)
    sidx = {s: i for i, s in enumerate(spec.states)}
    return frozenset(spec.states[func[sidx[s]]] for s in P)


def hoare_wp(spec: HoareSpec, c, Q) -> frozenset[str]:
    """Weakest precondition: the preimage of Q under the command."""
    func = _resolve_command(spec, c)
    target = {s for s in Q}
    return frozenset(
        s for i, s in enumerate(spec.states) if spec.states[func[i]] in target
    )


def default_hoare_spec() -> HoareSpec:
    """Two states with a swap and a reset; the closed monoid has four
    commands and the predicate lattice has four elements."""
    return HoareSpec(
        states=("s0", "s1"),
        generators={
            "swap": {"s0": "s1", "s1": "s0"},
            "set0": {"s0": "s0", "s1": "s0"},
        },
    )
