"""Concrete refinement systems to verify things on.

Four families: Hoare logic over a finite state space (predicates over a
one-object transformer monoid), truncated linear contexts over a finite
multicategory whose rules compose only through identities (multisets of
formulas over the skeleton of finite sets), monotone lattice maps as
posetal monoidal systems (with every element a monoid via idempotent
meet, and a Galois connection lifted to a full adjunction of systems),
and a seeded random generator for property tests.

All builders are deterministic: element orders come from the input data,
never from hashing.  Every category but the point is a
`fincat.tagged_category`: its morphisms are tags (dom, cod, ...) and a
composite is the morphism carrying the combined tag, so no builder
writes a composition table.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from .fincat import (
    SIZE_GUARD,
    FinCategory,
    FunctorData,
    NatTransData,
    SizeGuardExceeded,
    StructuralError,
    ValidationReport,
    _backtrack,
    compose_functors,
    identity_functor,
    product,
    tagged_category,
)
from .refsys import (
    MonoidalRefinementSystem,
    MonoidalStructure,
    MonoidObject,
    RefinementSystem,
    RefSysAdjunction,
    RefSysMorphism,
)


def _raise_if_invalid(report: ValidationReport) -> None:
    if not report.ok:
        first = report.violations[0]
        raise StructuralError(f"{report.subject}: {first.law}: {first.detail}")


def _then(f: tuple, g: tuple) -> tuple:
    """The tag of f;g for maps tagged (dom, cod, image tuple): g after f."""
    return (f[0], g[1], tuple(g[2][x] for x in f[2]))


# ---------------------------------------------------------------------------
# Hoare logic over a finite state space


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
    thin, a fibration, and an opfibration."""
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
    sys = RefinementSystem("hoare", t)
    _raise_if_invalid(sys.validate())
    return sys


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


# ---------------------------------------------------------------------------
# Truncated linear contexts over a multicategory


class MultiMorphism(NamedTuple):
    """A rule with a multiset of source formulas and one target formula.
    Sources are canonicalized: sorted by formula declaration order."""

    name: str
    source: tuple[str, ...]
    target: str


class TensorDecl:
    """A declared tensor A (x) B with its left-introduction bijection:
    `table` maps each rule consuming both A and B to the rule consuming
    A (x) B instead, and must be a bijection between those two rule sets."""

    __slots__ = ("left", "right", "tensor", "table")

    def __init__(self, left: str, right: str, tensor: str, table: dict[str, str]):
        self.left = left
        self.right = right
        self.tensor = tensor
        self.table = table


class MulticategorySpec:
    """Formulas and rules, with the identity rule of each formula named in
    `identities`.

    Rules compose only through identities: no non-identity rule consumes
    a formula that a non-identity rule produces (`validate_multicategory`).
    So a family of identities under a rule composes to that rule, a rule
    under an identity to that rule, and there is no other composite.
    """

    __slots__ = ("formulas", "multimorphisms", "identities", "tensors")

    def __init__(self, formulas, multimorphisms, identities, tensors=()):
        self.formulas: tuple[str, ...] = formulas
        self.multimorphisms: tuple[MultiMorphism, ...] = multimorphisms
        self.identities: dict[str, str] = identities
        self.tensors: tuple[TensorDecl, ...] = tensors


def validate_multicategory(mc: MulticategorySpec) -> ValidationReport:
    report = ValidationReport(subject="multicategory")
    if len(set(mc.formulas)) != len(mc.formulas):
        report.add("naming", "duplicate formulas")
        return report
    rules = {mm.name: mm for mm in mc.multimorphisms}
    if len(rules) != len(mc.multimorphisms):
        report.add("naming", "duplicate multimorphism names")
        return report
    order = {f: i for i, f in enumerate(mc.formulas)}
    for mm in mc.multimorphisms:
        if mm.target not in mc.formulas or not set(mm.source) <= set(mc.formulas):
            report.add("typing", f"{mm.name} mentions unknown formulas")
            return report
        if tuple(sorted(mm.source, key=order.get)) != mm.source:
            report.add(
                "canonical form",
                f"{mm.name} source is not sorted in formula order",
            )
    for X in mc.formulas:
        if X not in mc.identities:
            report.add("identities", f"no identity declared for {X}")
            continue
        one = rules.get(mc.identities[X])
        if one is None or one.source != (X,) or one.target != X:
            report.add("identities", f"identity of {X} has the wrong type")
    if report.violations:
        return report

    # Rules compose only through identities.
    ids = {mc.identities[X] for X in mc.formulas}
    proper = [mm for mm in mc.multimorphisms if mm.name not in ids]
    producer: dict[str, str] = {}
    for mm in proper:
        producer.setdefault(mm.target, mm.name)
    for mm in proper:
        for f in dict.fromkeys(mm.source):
            if f in producer:
                report.add(
                    "composition",
                    f"{mm.name} consumes {f}, which {producer[f]} produces",
                )

    for decl in mc.tensors:
        for f in (decl.left, decl.right, decl.tensor):
            if f not in mc.formulas:
                report.add("tensor declaration", f"unknown formula {f}")
                return report
        need = 2 if decl.left == decl.right else 1
        domain = [
            mm.name
            for mm in mc.multimorphisms
            if mm.source.count(decl.left) >= need and decl.right in mm.source
        ]
        codomain = [
            mm.name for mm in mc.multimorphisms if decl.tensor in mm.source
        ]
        if sorted(decl.table) != sorted(domain):
            report.add(
                "tensor bijection",
                f"table domain is not the rules consuming ({decl.left},{decl.right})",
            )
            continue
        if sorted(set(decl.table.values())) != sorted(codomain) or len(
            set(decl.table.values())
        ) != len(decl.table):
            report.add(
                "tensor bijection",
                f"table is not a bijection onto the rules consuming {decl.tensor}",
            )
            continue
        for src_name, dst_name in decl.table.items():
            src, dst = rules[src_name], rules[dst_name]
            reduced = list(src.source)
            reduced.remove(decl.left)
            reduced.remove(decl.right)
            reduced.append(decl.tensor)
            if dst.target != src.target or dst.source != tuple(
                sorted(reduced, key=order.get)
            ):
                report.add(
                    "tensor bijection",
                    f"{src_name} -> {dst_name} does not replace "
                    f"({decl.left},{decl.right}) by {decl.tensor}",
                )
    return report


def fin_skeleton(K: int) -> FinCategory:
    """The skeleton of finite sets up to size K: objects 0..K, morphisms
    all functions u : m -> n, tagged (m, n, u) with u written as its
    image tuple.  There are sum n^m of them over m, n <= K, counted
    before any is listed: 5,705 at K=5 and 82,207 at K=6, past
    SIZE_GUARD."""
    estimate = sum(n**m for m in range(K + 1) for n in range(K + 1))
    if estimate > SIZE_GUARD:
        raise SizeGuardExceeded(f"Fin<={K} has too many morphisms", estimate, SIZE_GUARD)
    tags = [
        (m, n, u)
        for m in range(K + 1)
        for n in range(K + 1)
        for u in itertools.product(range(n), repeat=m)
    ]
    return tagged_category(
        f"Fin<={K}",
        [str(n) for n in range(K + 1)],
        tags,
        [f"{m}>{n}[{','.join(map(str, u))}]" for m, n, u in tags],
        [(m, m, tuple(range(m))) for m in range(K + 1)],
        _then,
    )


def _rule_maps(by_type, prefixes, delta, gamma):
    """The maps u from the positions of delta to those of gamma that carry
    a family of rules, each with the rules at every position j of gamma
    for the formulas u sends to j, in `itertools.product` order.

    u is searched by `_backtrack`, one position of delta at a time: step
    i sends delta[i] to j and carries the fibres so far, and j is a
    candidate only while its fibre stays in `prefixes`, the prefixes
    (with their target) of the rule sources.  delta is sorted, so a fibre
    grows in sorted order and is a prefix of what it becomes; a full map
    is kept when every fibre, an empty one too, is a rule source."""
    empty = ((),) * len(gamma)

    def step(i: int, path):
        fibres = path[i - 1][1] if i else empty
        for j, tgt in enumerate(gamma):
            fibre = fibres[j] + (delta[i],)
            if (fibre, tgt) in prefixes:
                yield j, fibres[:j] + (fibre,) + fibres[j + 1 :]

    for path in _backtrack(len(delta), step, lambda _i, _path: True):
        fibres = path[-1][1] if path else empty
        choice = [by_type.get(key) for key in zip(fibres, gamma)]
        if None not in choice:
            yield tuple(j for j, _ in path), choice


def build_linctx(mc: MulticategorySpec, K: int) -> RefinementSystem:
    """Contexts of at most K formulas over the finite-set skeleton.

    A morphism Delta -> Gamma is a function u between the positions
    together with one rule per Gamma-position, consuming the formulas u
    sends there.  Rules compose only through identities
    (`validate_multicategory`), so a composite keeps, at each position,
    the outer rule unless it is an identity, and then the one inner rule
    under it.  The projection keeps u and the context sizes.  All
    category laws are re-validated after construction.
    """
    _raise_if_invalid(validate_multicategory(mc))
    for mm in mc.multimorphisms:
        if len(mm.source) > K:
            raise StructuralError(
                f"multimorphism {mm.name} needs a context of size {len(mm.source)} > K={K}"
            )
    T = fin_skeleton(K)
    u_index = T.mor_index
    fidx = {f: i for i, f in enumerate(mc.formulas)}
    contexts: list[tuple[int, ...]] = []
    for size in range(K + 1):
        contexts.extend(
            itertools.combinations_with_replacement(range(len(mc.formulas)), size)
        )
    ctx_index = {c: i for i, c in enumerate(contexts)}
    ctx_names = tuple(
        "[" + ",".join(mc.formulas[f] for f in ctx) + "]" for ctx in contexts
    )

    # rules indexed by (source, target), in declaration order; a source is
    # sorted in formula order (`validate_multicategory`), as a fibre is
    by_type: dict[tuple[tuple[int, ...], int], list[int]] = {}
    for k, mm in enumerate(mc.multimorphisms):
        key = (tuple(fidx[f] for f in mm.source), fidx[mm.target])
        by_type.setdefault(key, []).append(k)

    # (Delta, Gamma, u, one rule per position of Gamma)
    tags: list[tuple[int, int, tuple[int, ...], tuple[int, ...]]] = []
    prefixes = {(src[:i], tgt) for (src, tgt) in by_type for i in range(len(src) + 1)}
    for di, delta in enumerate(contexts):
        for gi, gamma in enumerate(contexts):
            for u, choice in _rule_maps(by_type, prefixes, delta, gamma):
                tags += [(di, gi, u, fam) for fam in itertools.product(*choice)]
    sizes = tuple(len(c) for c in contexts)
    u_of = [u_index[(sizes[di], sizes[gi], u)] for (di, gi, u, _) in tags]
    rule_names = [mm.name for mm in mc.multimorphisms]
    id_rule = [rule_names.index(mc.identities[f]) for f in mc.formulas]
    ids = set(id_rule)

    def combine(f, g):
        di, _, u, fam = f
        _, ti, v, gam = g
        out_fam = list(gam)
        for j2, k in enumerate(v):
            if gam[k] in ids:
                out_fam[k] = fam[j2]
        return (di, ti, tuple(v[x] for x in u), tuple(out_fam))

    D = tagged_category(
        "Ctx",
        ctx_names,
        tags,
        [
            f"{T.mor_names[k]}|{','.join(rule_names[r] for r in fam)}"
            for k, (_, _, _, fam) in zip(u_of, tags)
        ],
        [
            (di, di, tuple(range(len(delta))), tuple(id_rule[f] for f in delta))
            for di, delta in enumerate(contexts)
        ],
        combine,
    )
    t = FunctorData("size", D, T, sizes, tuple(u_of))
    sys = RefinementSystem("linctx", t)
    _raise_if_invalid(sys.validate())
    sys.memo(("linctx data",), lambda: (mc, K, ctx_index, u_index))
    return sys


def linctx_data(sys: RefinementSystem):
    """(mc, K, ctx_index, u_index) of a `build_linctx` system, else None."""
    return sys.memo(("linctx data",), lambda: None)


def default_linear_spec() -> MulticategorySpec:
    """Four formulas, six rules: identities, pairing into the tensor, and
    a closed constant.  The tensor bijection sends pairing to the tensor
    identity."""
    return MulticategorySpec(
        formulas=("A", "B", "A*B", "C"),
        multimorphisms=(
            MultiMorphism("1A", ("A",), "A"),
            MultiMorphism("1B", ("B",), "B"),
            MultiMorphism("1T", ("A*B",), "A*B"),
            MultiMorphism("1C", ("C",), "C"),
            MultiMorphism("pair", ("A", "B"), "A*B"),
            MultiMorphism("k", (), "C"),
        ),
        identities={"A": "1A", "B": "1B", "A*B": "1T", "C": "1C"},
        tensors=(TensorDecl("A", "B", "A*B", {"pair": "1T"}),),
    )


# ---------------------------------------------------------------------------
# Lattice maps as posetal monoidal systems


class LatticeSpec(NamedTuple):
    """A finite meet-semilattice with top, as elements and the full order
    relation (pairs (x, y) with x <= y, reflexive and transitive)."""

    name: str
    elements: tuple[str, ...]
    leq: frozenset[tuple[str, str]]


def powerset_lattice(atoms: tuple[str, ...]) -> LatticeSpec:
    elems = []
    sets = []
    for mask in range(1 << len(atoms)):
        members = tuple(a for i, a in enumerate(atoms) if mask >> i & 1)
        sets.append(frozenset(members))
        elems.append("{" + ",".join(members) + "}")
    leq = frozenset(
        (elems[i], elems[j])
        for i in range(len(elems))
        for j in range(len(elems))
        if sets[i] <= sets[j]
    )
    return LatticeSpec(f"P({','.join(atoms)})", tuple(elems), leq)


def chain_lattice(n: int) -> LatticeSpec:
    elems = tuple(f"c{i}" for i in range(n))
    leq = frozenset((elems[i], elems[j]) for i in range(n) for j in range(i, n))
    return LatticeSpec(f"chain{n}", elems, leq)


def _lattice_tables(spec: LatticeSpec):
    """Index the order, compute binary meets and the top element.
    Rejects non-posets and posets without meets or top."""
    idx = {e: i for i, e in enumerate(spec.elements)}
    n = len(spec.elements)
    leq = [[False] * n for _ in range(n)]
    for x, y in spec.leq:
        leq[idx[x]][idx[y]] = True
    for i in range(n):
        if not leq[i][i]:
            raise StructuralError(f"{spec.name}: order not reflexive at {spec.elements[i]}")
        for j in range(n):
            if leq[i][j] and leq[j][i] and i != j:
                raise StructuralError(f"{spec.name}: order not antisymmetric")
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    raise StructuralError(f"{spec.name}: order not transitive")
    meet = {}
    for i in range(n):
        for j in range(n):
            lower = [k for k in range(n) if leq[k][i] and leq[k][j]]
            best = [k for k in lower if all(leq[m][k] for m in lower)]
            if len(best) != 1:
                raise StructuralError(
                    f"{spec.name}: no meet of {spec.elements[i]} and {spec.elements[j]}"
                )
            meet[(i, j)] = best[0]
    tops = [i for i in range(n) if all(leq[j][i] for j in range(n))]
    if len(tops) != 1:
        raise StructuralError(f"{spec.name}: no top element")
    return idx, leq, meet, tops[0]


def _lattice_category(spec: LatticeSpec):
    """The order as a category: a morphism tagged (i, j) for each i <= j."""
    idx, leq, meet, top = _lattice_tables(spec)
    n = len(spec.elements)
    tags = [(i, j) for i in range(n) for j in range(n) if leq[i][j]]
    cat = tagged_category(
        spec.name,
        spec.elements,
        tags,
        [f"{spec.elements[i]}<={spec.elements[j]}" for i, j in tags],
        [(i, i) for i in range(n)],
        lambda f, g: (f[0], g[1]),
    )
    return cat, idx, meet, top


def _meet_monoid(cat: FinCategory, meet, top) -> MonoidalStructure:
    """Meet as a tensor: a <= b and c <= d give a meet c <= b meet d."""
    dom, cod, mindex = cat.mor_dom, cat.mor_cod, cat.mor_index
    return MonoidalStructure(
        product(cat, cat),
        top,
        lambda a, b: meet[a, b],
        lambda f, g: mindex[meet[dom[f], dom[g]], meet[cod[f], cod[g]]],
    )


class LatticeSystem:
    """A monotone meet-preserving map as a monoidal refinement system,
    with every element carrying its idempotent-meet monoid structure.
    The indexes map element names to the objects of the refinement and
    base categories; their morphisms are tagged by order pairs (i, j)."""

    __slots__ = ("mrs", "monoids", "src", "tgt", "ref_index", "base_index")

    def __init__(self, mrs, monoids, src, tgt, ref_index, base_index):
        self.mrs: MonoidalRefinementSystem = mrs
        self.monoids: tuple[MonoidObject, ...] = monoids
        self.src, self.tgt = src, tgt
        self.ref_index, self.base_index = ref_index, base_index

    @property
    def sys(self) -> RefinementSystem:
        return self.mrs.sys


def build_lattice(src: LatticeSpec, tgt: LatticeSpec, t_map: dict[str, str]) -> LatticeSystem:
    """A lattice map as a refinement system with meet as tensor.

    The map must be monotone and preserve binary meets and the top
    element, so the projection is strict monoidal.  Residuals, where the
    target lattice has them, are found by search, and every element is a
    monoid object through its idempotent meet."""
    D, didx, dmeet, dtop = _lattice_category(src)
    T, tidx, tmeet, ttop = _lattice_category(tgt)
    if sorted(t_map) != sorted(src.elements):
        raise StructuralError("t_map is not total on the source lattice")
    obj_map = []
    for e in src.elements:
        if t_map[e] not in tidx:
            raise StructuralError(f"t_map sends {e} outside the target lattice")
        obj_map.append(tidx[t_map[e]])
    t = _poset_functor(f"{src.name}->{tgt.name}", D, T, obj_map, "t_map")
    for (i, j), m in dmeet.items():
        if tmeet[(obj_map[i], obj_map[j])] != obj_map[m]:
            raise StructuralError(
                f"t_map does not preserve the meet of {src.elements[i]} "
                f"and {src.elements[j]}"
            )
    if obj_map[dtop] != ttop:
        raise StructuralError("t_map does not preserve the top element")
    sys = RefinementSystem(f"{src.name}/{tgt.name}", t)
    mrs = MonoidalRefinementSystem(sys, _meet_monoid(D, dmeet, dtop), _meet_monoid(T, tmeet, ttop))
    _raise_if_invalid(mrs.validate())
    tmors = T.mor_index
    monoids = tuple(
        MonoidObject(
            mrs,
            W,
            tmors[(W, W)],
            tmors[(ttop, W)] if W == ttop else None,
        )
        for W in range(T.n_objects)
    )
    for mo in monoids:
        _raise_if_invalid(mo.validate())
    return LatticeSystem(mrs, monoids, src, tgt, didx, tidx)


def collapse_lattice_fixture() -> LatticeSystem:
    """The two-atom powerset collapsed onto a three-chain: counts atoms,
    except that the first atom is invisible."""
    return build_lattice(
        powerset_lattice(("a", "b")),
        chain_lattice(3),
        {"{}": "c0", "{a}": "c0", "{b}": "c1", "{a,b}": "c2"},
    )


def identity_lattice_fixture(atoms: tuple[str, ...] = ("a", "b")) -> LatticeSystem:
    """A powerset over itself: every hypothesis holds strictly."""
    spec = powerset_lattice(atoms)
    return build_lattice(spec, spec, {e: e for e in spec.elements})


def _poset_functor(name: str, src: FinCategory, tgt: FinCategory, obj_map, what: str = "") -> FunctorData:
    """The functor between orders (`_lattice_category`) that maps objects
    by obj_map, so each i <= j to obj_map[i] <= obj_map[j]; raises, naming
    the map as `what` (else `name`), where that is no order pair."""
    mor_map = []
    for i, j in src.mor_tags:
        f = tgt.mor_index.get((obj_map[i], obj_map[j]))
        if f is None:
            raise StructuralError(
                f"{what or name} is not monotone at {src.objects[i]} <= {src.objects[j]}"
            )
        mor_map.append(f)
    return FunctorData(name, src, tgt, tuple(obj_map), tuple(mor_map))


def galois_fixture() -> RefSysAdjunction:
    """A Galois connection between the collapse system and the identity
    two-chain system, lifted to an adjunction of refinement systems.

    The left adjoint truncates (zero stays low, everything else goes
    high); the right adjoint picks the largest element sent low or high.
    Units and counits are the order witnesses."""
    s = collapse_lattice_fixture()
    e = build_lattice(chain_lattice(2), chain_lattice(2), {"c0": "c0", "c1": "c1"})
    sD, sT = s.sys.D, s.sys.T
    eD, eT = e.sys.D, e.sys.T

    f_t_obj = [e.base_index[x] for x in ("c0", "c1", "c1")]
    F_T = _poset_functor("F_T", sT, eT, f_t_obj)
    f_d_obj = [f_t_obj[s.sys.shape(P)] for P in range(sD.n_objects)]
    F_D = _poset_functor("F_D", sD, eD, f_d_obj)

    g_t_obj = [s.base_index[x] for x in ("c0", "c2")]
    G_T = _poset_functor("G_T", eT, sT, g_t_obj)
    g_d_obj = [s.ref_index[x] for x in ("{a}", "{a,b}")]
    G_D = _poset_functor("G_D", eD, sD, g_d_obj)

    left = RefSysMorphism("F", s.sys, e.sys, F_D, F_T)
    right = RefSysMorphism("G", e.sys, s.sys, G_D, G_T)

    unit_ref = NatTransData(
        "eta",
        identity_functor(sD),
        compose_functors(F_D, G_D),
        tuple(sD.mor_index[P, g_d_obj[f_d_obj[P]]] for P in range(sD.n_objects)),
    )
    counit_ref = NatTransData(
        "eps",
        compose_functors(G_D, F_D),
        identity_functor(eD),
        tuple(eD.mor_index[f_d_obj[g_d_obj[R]], R] for R in range(eD.n_objects)),
    )
    unit_base = NatTransData(
        "eta0",
        identity_functor(sT),
        compose_functors(F_T, G_T),
        tuple(sT.mor_index[X, g_t_obj[f_t_obj[X]]] for X in range(sT.n_objects)),
    )
    counit_base = NatTransData(
        "eps0",
        compose_functors(G_T, F_T),
        identity_functor(eT),
        tuple(eT.mor_index[f_t_obj[g_t_obj[Y]], Y] for Y in range(eT.n_objects)),
    )
    return RefSysAdjunction(
        name="galois",
        left=left,
        right=right,
        unit_ref=unit_ref,
        counit_ref=counit_ref,
        unit_base=unit_base,
        counit_base=counit_base,
    )


# ---------------------------------------------------------------------------
# Seeded random systems


class RandomBounds(NamedTuple):
    """Bounds for the generator; the defaults keep every derived
    construction exhaustively checkable."""

    t_objects: int = 3
    d_objects: int = 6
    hom: int = 3
    carrier: int = 3
    generators: int = 3
    retries: int = 80


def _close_concrete(name: str, objects: list[str], ids, seeds, hom_bound, combine) -> FinCategory | None:
    """Close a set of concrete arrows under composition.

    Arrows are tags (dom, cod, data): ids[a] is the identity of object a,
    and combine(f, g) is the tag of f;g, associative by construction.
    Identities are added first, so arrow a is the identity of object a.
    Returns the category of the arrows, arrow i named `{name.lower()}{i}`,
    or None when a hom-set overflows the bound."""
    arrows: list[tuple[int, int, tuple]] = []
    index: dict[tuple[int, int, tuple], int] = {}
    hom_count: dict[tuple[int, int], int] = {}

    def add(tag):
        if tag in index:
            return None
        if hom_count.get(tag[:2], 0) >= hom_bound:
            return False
        index[tag] = len(arrows)
        arrows.append(tag)
        hom_count[tag[:2]] = hom_count.get(tag[:2], 0) + 1
        return index[tag]

    for tag in (*ids, *seeds):
        if add(tag) is False:
            return None
    frontier = list(range(len(arrows)))
    while frontier:
        fresh = []
        snapshot = len(arrows)
        for i in frontier:
            for j in range(snapshot):
                for f, g in ((arrows[i], arrows[j]), (arrows[j], arrows[i])):
                    if f[1] != g[0]:
                        continue
                    got = add(combine(f, g))
                    if got is False:
                        return None
                    if got is not None:
                        fresh.append(got)
        frontier = fresh
    mor_names = [f"{name.lower()}{i}" for i in range(len(arrows))]
    return tagged_category(name, objects, arrows, mor_names, ids, combine)


def _try_random(rng: random.Random, bounds: RandomBounds):
    nt = rng.randint(1, bounds.t_objects)
    t_car = [rng.randint(1, bounds.carrier) for _ in range(nt)]
    seeds = []
    for _ in range(rng.randint(0, bounds.generators)):
        a, b = rng.randrange(nt), rng.randrange(nt)
        seeds.append((a, b, tuple(rng.randrange(t_car[b]) for _ in range(t_car[a]))))
    t_ids = [(a, a, tuple(range(k))) for a, k in enumerate(t_car)]
    T = _close_concrete("T", [f"X{a}" for a in range(nt)], t_ids, seeds, bounds.hom, _then)
    if T is None:
        return None

    nd = rng.randint(1, bounds.d_objects)
    shape = [rng.randrange(nt) for _ in range(nd)]
    d_car = [rng.randint(1, bounds.carrier) for _ in range(nd)]
    d_seeds = []
    for _ in range(rng.randint(0, bounds.generators)):
        P, Q = rng.randrange(nd), rng.randrange(nd)
        over = T.hom(shape[P], shape[Q])
        if not over:
            continue
        u = over[rng.randrange(len(over))]
        e = tuple(rng.randrange(d_car[Q]) for _ in range(d_car[P]))
        d_seeds.append((P, Q, (u, e)))

    # arrows carry their base morphism; composition pairs the base
    # composite with the function composite, so laws hold by construction
    def combine_d(f, g):
        (u, e), (u2, e2) = f[2], g[2]
        return (f[0], g[1], (T.compose(u, u2), tuple(e2[x] for x in e)))

    d_ids = [(P, P, (T.id_of(shape[P]), tuple(range(d_car[P])))) for P in range(nd)]
    D = _close_concrete("D", [f"P{P}" for P in range(nd)], d_ids, d_seeds, bounds.hom, combine_d)
    if D is None:
        return None
    t = FunctorData("proj", D, T, tuple(shape), tuple(data[0] for (_, _, data) in D.mor_tags))
    return RefinementSystem("random", t)


def random_refsys(seed: int, bounds: RandomBounds | None = None) -> RefinementSystem:
    """A small random refinement system, deterministic in the seed.

    Both categories are built as concrete categories (objects carry
    finite sets, morphisms carry functions) closed under composition, so
    associativity is inherited; the projection forgets the extra data.
    Samples whose hom-sets overflow the bounds are rejected and redrawn."""
    bounds = bounds or RandomBounds()
    rng = random.Random(seed)
    for _ in range(bounds.retries):
        sys = _try_random(rng, bounds)
        if sys is None:
            continue
        report = sys.validate()
        if report.ok:
            return sys
    raise StructuralError(
        f"no valid system within {bounds.retries} draws for seed {seed}"
    )


def bang_system(cat: FinCategory) -> RefinementSystem:
    """A category over the point: refinements of a single shape.

    Slices of the result are the category again and judgments are plain
    hom-sets, so presheaf-level facts can be compared against their
    unrefined counterparts."""
    pt = FinCategory("pt", ("*",), (("id*", 0, 0),), (0,), {(0, 0): 0})
    t = FunctorData(
        f"!{cat.name}",
        cat,
        pt,
        (0,) * cat.n_objects,
        (0,) * cat.n_morphisms,
    )
    return RefinementSystem(f"bang({cat.name})", t)
