"""Presheaves of sets over finite categories, with pushforward along functors.

A presheaf assigns a finite set of named elements to every object and a
function *backwards* along every morphism.  Pullback along a functor is
precomposition; pushforward is a pointwise colimit computed by saturating
the zig-zag relation with a union-find over int nodes.  The natural-family
enumerator at the bottom is shared by every higher construction in the
package (derivation bijections, curried residuals, dualizers).
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, Sequence

from .fincat import (
    FinCategory,
    FunctorData,
    ProductCategory,
    StructuralError,
    Table,
    ValidationReport,
    _backtrack,
)


class Presheaf:
    """Contravariant set-valued functor on a finite category.

    `elements[a]` names the elements at object a, and `action[f]` maps
    element indices at cod(f) to element indices at dom(f).  `payloads`,
    when present, carries opaque per-element data (the derivations of a
    representation, the natural families of a dual); it never takes part
    in equality or validation.  `payloads` is a tuple; `elements` is a
    tuple or a `Table` of names filled on first read.

    The action comes from a source: a table with one row per morphism,
    or a function f |-> row, which is asked only for morphisms into a
    nonempty element set (every other row is empty).  Either way
    `action` is a `Table`: each row is read from its source on first
    use and checked there for arity and range, so a presheaf built on
    its support does work only where it is nonempty, and a bad row
    raises when it is read.  The check names the presheaf as it was
    built and holds no reference to it, so a presheaf whose source does
    not read the presheaf itself is no reference cycle and is freed as
    soon as it is dropped; `represent.pos_rep`, whose rows read its own
    positions, is kept for the system's life anyway.  The family
    searches, the iso search and `validate_psh_derivation` read a row
    only where a naturality constraint can fail on it: a constraint
    into a one-element set holds whatever the rows are (`_checks`), so
    a row read by nothing else is never filled, nor checked.
    """

    def __init__(
        self,
        name: str,
        base: FinCategory,
        elements: Sequence[tuple[str, ...]],
        action: Sequence[tuple[int, ...]] | Callable[[int], tuple[int, ...]],
        payloads: Sequence[tuple[object, ...]] | None = None,
        support: tuple[int, ...] | None = None,
    ):
        self.name = name
        self.base = base
        self.elements = elements
        self.payloads = payloads
        self._support = support
        self._positions: dict[int, dict[object, int]] = {}
        if len(elements) != base.n_objects:
            raise StructuralError(f"presheaf {name}: element table has wrong length")
        if callable(action):
            fill, cod = action, base.mor_cod
            source = lambda f: fill(f) if elements[cod[f]] else ()
        elif len(action) != base.n_morphisms:
            raise StructuralError(f"presheaf {name}: action table has wrong length")
        else:
            source = action.__getitem__
        self.action = Table(base.n_morphisms, lambda f: _checked(name, base, elements, f, source(f)))

    def size(self, a: int) -> int:
        return len(self.elements[a])

    def total_elements(self) -> int:
        return sum(len(e) for e in self.elements)

    def support(self) -> tuple[int, ...]:
        """The objects with a nonempty element set, in index order: the
        `support` given when it was built, or else read once from the
        payloads (one per element) or the element sets."""
        if self._support is None:
            sets = self.elements if self.payloads is None else self.payloads
            self._support = tuple(a for a, e in enumerate(sets) if e)
        return self._support

    def position(self, a: int) -> dict[object, int]:
        """Payload -> element index at a, built on first use; a presheaf
        without payloads raises a StructuralError naming it."""
        got = self._positions.get(a)
        if got is None:
            if self.payloads is None:
                raise StructuralError(f"{self.name} has no payloads")
            got = self._positions[a] = {p: k for k, p in enumerate(self.payloads[a])}
        return got

    def apply(self, f: int, x: int) -> int:
        return self.action[f][x]

    def __repr__(self) -> str:
        return f"Presheaf({self.name} over {self.base.name}, {self.total_elements()} elements)"


def _checked(name: str, base: FinCategory, elements, f: int, row: tuple[int, ...]) -> tuple[int, ...]:
    """The row of f in the presheaf `name`, once its arity and range are
    checked.  A module function, so a presheaf's action table holds no
    reference back to the presheaf."""
    if len(row) != len(elements[base.mor_cod[f]]):
        raise StructuralError(f"presheaf {name}: action at {base.mor_names[f]} has wrong arity")
    n = len(elements[base.mor_dom[f]])
    for v in row:
        if not (0 <= v < n):
            raise StructuralError(f"presheaf {name}: action at {base.mor_names[f]} hits a bad index")
    return row


def validate_presheaf(phi: Presheaf) -> ValidationReport:
    """Identity and contravariant composition laws, checked exhaustively."""
    report = ValidationReport(f"presheaf {phi.name}")
    base = phi.base
    for a in range(base.n_objects):
        e = base.id_of(a)
        if phi.action[e] != tuple(range(phi.size(a))):
            report.add("identity-action", f"action of id_{base.objects[a]} is not the identity")
    for f, g in base.composable_pairs():
        c = base.cod(g)
        if not phi.elements[c]:
            continue
        fg = base.compose(f, g)
        for x in range(phi.size(c)):
            if phi.apply(fg, x) != phi.apply(f, phi.apply(g, x)):
                report.add(
                    "contravariance",
                    f"action of {base.mor_names[f]};{base.mor_names[g]} disagrees at element {x}",
                )
                break
    return report


def representable(cat: FinCategory, b: int) -> Presheaf:
    """The presheaf a |-> hom(a, b) with action by precomposition, each
    morphism carried as its payload.  Built on its support, the domains
    of the morphisms into b: an element set is named, and an action row
    computed, when it is first read."""
    grouped: dict[int, list[int]] = {}
    for m in cat.mor_in(b):
        grouped.setdefault(cat.dom(m), []).append(m)
    homs: list[tuple[int, ...]] = [()] * cat.n_objects
    support = sorted(grouped)
    for a in support:
        homs[a] = tuple(grouped[a])
    names = cat.mor_names
    where = functools.cache(lambda a: {m: k for k, m in enumerate(homs[a])})
    return Presheaf(
        f"y({cat.objects[b]})",
        cat,
        Table(cat.n_objects, lambda a: tuple(names[m] for m in homs[a])),
        lambda f: tuple(where(cat.dom(f))[cat.compose(f, g)] for g in homs[cat.cod(f)]),
        tuple(homs),
        tuple(support),
    )


def pull_psh(F: FunctorData, psi: Presheaf) -> Presheaf:
    """Precompose psi with F; elements keep their names.  The support is
    the preimage of psi's support (`F.preimage`, read from an index for a
    slice action), element sets and payloads are filled there only, and a
    row is read from psi only for a morphism into the support, on first
    use."""
    if psi.base is not F.target:
        raise StructuralError(f"pull_psh: {psi.name} does not live over the target of {F.name}")
    support = F.preimage(psi.support())
    at, n = F.object_map, F.source.n_objects
    elements: list[tuple[str, ...]] = [()] * n
    payloads: list[tuple[object, ...]] | None = None if psi.payloads is None else [()] * n
    for a in support:
        elements[a] = psi.elements[at[a]]
        if payloads is not None:
            payloads[a] = psi.payloads[at[a]]
    return Presheaf(
        f"pull[{F.name}]({psi.name})",
        F.source,
        tuple(elements),
        lambda f: psi.action[F.mor(f)],
        None if payloads is None else tuple(payloads),
        support,
    )


class PushResult:
    """Pushforward presheaf plus the coend bookkeeping.

    `reps` lists one canonical generating node per element, per base
    object: a node is (source object a, morphism h: b -> F(a), element x
    of phi(a)), and its element lives at b = dom(h).  `unit` gives the
    canonical derivation component phi(a) -> pushed(F(a)): x |-> class
    of (a, id, x).
    """

    __slots__ = ("presheaf", "reps", "unit")

    def __init__(
        self,
        presheaf: Presheaf,
        reps: tuple[tuple[tuple[int, int, int], ...], ...],
        unit: tuple[tuple[int, ...], ...],
    ):
        self.presheaf = presheaf
        self.reps = reps
        self.unit = unit


def push_psh_full(F: FunctorData, phi: Presheaf) -> PushResult:
    """Pushforward along F: the generating nodes (a, h : b -> F a, x) for a
    in the support of phi, glued along every source morphism into the
    support.  Nodes are ints, laid out by (a, position of h in
    B.mor_in(F a), x), so the least id of a class is its least node and
    the union-find runs on a flat parent list; the node tuples are made
    once, for `reps` and the rows.  A row of the pushed presheaf is
    computed, and checked to be well defined on classes, when it is first
    read."""
    if phi.base is not F.source:
        raise StructuralError(f"push_psh: {phi.name} does not live over the source of {F.name}")
    A, B = F.source, F.target
    support = phi.support()
    # Node (a, h, x) is start[a] + k * |phi(a)| + x, for h the k-th
    # morphism into F a.
    start: dict[int, int] = {}
    nodes: list[tuple[int, int, int]] = []
    nodes_at: dict[int, list[int]] = {}
    for a in support:
        start[a] = len(nodes)
        n = phi.size(a)
        for h in B.mor_in(F.obj(a)):
            nodes_at.setdefault(B.dom(h), []).extend(range(len(nodes), len(nodes) + n))
            nodes += ((a, h, x) for x in range(n))
    parent = list(range(len(nodes)))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    positions: dict[int, dict[int, int]] = {}

    def position(b: int) -> dict[int, int]:
        """h |-> its position in B.mor_in(b)."""
        got = positions.get(b)
        if got is None:
            got = positions[b] = {h: k for k, h in enumerate(B.mor_in(b))}
        return got

    # The support must be a sieve: a morphism into it starts in it, else
    # a StructuralError names phi.  Each union keeps the lesser root, so
    # a root is the least node of its class.
    for a2 in support:
        n2, pos2 = phi.size(a2), position(F.obj(a2))
        for u in A.mor_in(a2):
            a = A.dom(u)
            if a not in start:
                raise _not_a_sieve(phi, u)
            fu, act, n = F.mor(u), phi.action[u], phi.size(a)
            for k, h in enumerate(B.mor_in(F.obj(a))):
                at2 = start[a2] + pos2[B.compose(h, fu)] * n2
                at = start[a] + k * n
                for x2 in range(n2):
                    r1, r2 = find(at2 + x2), find(at + act[x2])
                    if r1 < r2:
                        parent[r2] = r1
                    elif r2 < r1:
                        parent[r1] = r2
    cls = [0] * len(nodes)
    roots_at: dict[int, list[int]] = {}
    reps_at: list[tuple[tuple[int, int, int], ...]] = [()] * B.n_objects
    elements: list[tuple[str, ...]] = [()] * B.n_objects
    for b, at in nodes_at.items():
        roots = roots_at[b] = sorted({find(n) for n in at})
        index = {r: i for i, r in enumerate(roots)}
        for n in at:
            cls[n] = index[parent[n]]
        reps = reps_at[b] = tuple(map(nodes.__getitem__, roots))
        elements[b] = tuple(f"{B.mor_names[h]}.{phi.elements[a][x]}" for (a, h, x) in reps)

    def node(a: int, h: int, x: int) -> int:
        return start[a] + position(F.obj(a))[h] * phi.size(a) + x

    def moved(k: int, n: int) -> int:
        """The class of the node n = (a, h, x) moved along k: (a, k;h, x)."""
        a, h, x = nodes[n]
        return cls[node(a, B.compose(k, h), x)]

    def row(k: int) -> tuple[int, ...]:
        b = B.cod(k)
        out = tuple(moved(k, r) for r in roots_at[b])
        # Well-definedness: every member of a class must land in the same class.
        for n in nodes_at[b]:
            if moved(k, n) != out[cls[n]]:
                raise StructuralError(
                    f"push_psh: action of {B.mor_names[k]} is not well defined on classes"
                )
        return out

    pushed = Presheaf(
        f"push[{F.name}]({phi.name})", B, tuple(elements), row, support=tuple(sorted(nodes_at))
    )
    unit: list[tuple[int, ...]] = [()] * A.n_objects
    for a in support:
        at = node(a, B.id_of(F.obj(a)), 0)
        unit[a] = tuple(cls[at : at + phi.size(a)])
    return PushResult(pushed, tuple(reps_at), tuple(unit))


def push_psh(F: FunctorData, phi: Presheaf) -> Presheaf:
    return push_psh_full(F, phi).presheaf


def push_transpose(
    pr: PushResult,
    F: FunctorData,
    psi: Presheaf,
    theta: tuple[tuple[int, ...], ...],
) -> PshDerivation:
    """Factor a derivation theta : phi =>_F psi through the pushforward.

    Returns the unique vertical kappa : push_F(phi) => psi with
    unit ; kappa = theta, computed on canonical class representatives and
    then verified: kappa must be natural and must reproduce theta exactly,
    otherwise theta was not natural to begin with."""
    comps: list[tuple[int, ...]] = [()] * psi.base.n_objects
    for b in itertools.compress(range(len(pr.reps)), pr.reps):
        comps[b] = tuple(psi.apply(h, theta[a][x]) for (a, h, x) in pr.reps[b])
    kappa = PshDerivation("transpose", pr.presheaf, psi, None, tuple(comps))
    rep = validate_psh_derivation(kappa)
    if not rep.ok:
        raise StructuralError(f"push_transpose: {rep.violations[0]}")
    for a in itertools.compress(range(len(pr.unit)), pr.unit):
        for x, cls in enumerate(pr.unit[a]):
            if comps[F.obj(a)][cls] != theta[a][x]:
                raise StructuralError(
                    "push_transpose: factoring does not reproduce the derivation"
                )
    return kappa


def opcartesian_factoring_check(
    pr: PushResult,
    F: FunctorData,
    phi: Presheaf,
    test_codomains: Iterable[Presheaf],
) -> tuple[bool, str | None]:
    """Brute-force universal property of the canonical derivation
    phi =>_F push_F(phi): for each test codomain omega over the target base,
    postcomposition with the unit must biject vertical derivations
    push_F(phi) => omega with derivations phi =>_F omega."""
    for omega in test_codomains:
        vert = natural_families(pr.presheaf, omega, None)
        down = set(natural_families(phi, omega, F))
        seen = set()
        for v in vert:
            c = tuple(
                tuple(v[F.obj(a)][cls] for cls in pr.unit[a]) for a in range(phi.base.n_objects)
            )
            if c not in down:
                return (False, f"factoring through {omega.name} leaves the image")
            if c in seen:
                return (False, f"two factorings through {omega.name} collide")
            seen.add(c)
        if len(seen) != len(down):
            return (False, f"{len(down)} derivations into {omega.name} but {len(seen)} factorings")
    return (True, None)


def tensor_psh(phi: Presheaf, psi: Presheaf, prod: ProductCategory) -> Presheaf:
    """External product over prod, the product of the two bases."""
    elements = []
    for x in range(prod.n_objects):
        a, b = prod.split_obj(x)
        elements.append(
            tuple(
                f"{ex}*{ey}" for ex in phi.elements[a] for ey in psi.elements[b]
            )
        )
    action = []
    for m in range(prod.n_morphisms):
        f, g = prod.split_mor(m)
        a, b = phi.base.cod(f), psi.base.cod(g)
        w = psi.size(b)
        w_dom = psi.size(psi.base.dom(g))
        row = []
        for x in range(phi.size(a)):
            for y in range(w):
                row.append(phi.apply(f, x) * w_dom + psi.apply(g, y))
        action.append(tuple(row))
    return Presheaf(f"({phi.name}x{psi.name})", prod, tuple(elements), tuple(action))


def _closing(phi: Presheaf, support: tuple[int, ...]) -> list[list[tuple[int, int, int]]]:
    """The naturality constraints of a family out of phi, grouped by the
    step of a backtracking search over `support` at which they close.

    A constraint is (u, k, k2) for u : a -> a2 with a2 the k2-th support
    point; a is then the k-th, since phi(a2) nonempty forces phi(a)
    nonempty.  Morphisms into the complement constrain nothing.  No row
    is read here: a reader asks for phi's row and the target's row of u
    only where the constraint can fail, that is where the target set at
    step k has at least two elements (`_checks`).  A support that is not
    a sieve raises a StructuralError naming phi."""
    pos = {a: k for k, a in enumerate(support)}
    closing: list[list[tuple[int, int, int]]] = [[] for _ in support]
    A = phi.base
    for k2, a2 in enumerate(support):
        for u in A.mor_in(a2):
            try:
                k = pos[A.dom(u)]
            except KeyError:
                raise _not_a_sieve(phi, u) from None
            closing[max(k, k2)].append((u, k, k2))
    return closing


def _not_a_sieve(phi: Presheaf, u: int) -> StructuralError:
    """The error for a morphism u into the support of phi that starts off it."""
    A = phi.base
    off = f"{A.mor_names[u]} into {A.objects[A.cod(u)]} starts off it"
    return StructuralError(f"the support of {phi.name} is not a sieve: {off}")


def _checks(phi: Presheaf, closing, targets: list[int], row) -> list[list[tuple]]:
    """The constraints of `closing` that can fail, step by step, as
    (k, k2, phi row, target row) for `_closes`.  A constraint u : a -> a2
    compares t_a . phi(u) with row(u) . t_a2, and both sides land in the
    target set at step k: when that set has one element they agree
    whatever the rows are, so neither row is read."""
    action = phi.action
    return [[(k, k2, action[u], row(u)) for (u, k, k2) in cl if targets[k] > 1] for cl in closing]


def _families_on_support(
    phi: Presheaf,
    targets: list[int],
    closing,
    row,
) -> list[tuple[tuple[int, ...], ...]]:
    """`natural_families` on support-indexed tables, searched by `_backtrack`.

    Step k picks a component t_k from phi at the k-th support point to
    targets[k]; the constraints closing()[k] (as from `_closing`) are
    checked as soon as their step is reached: t_k[phi_row[x]] ==
    row(u)[t_k2[x]] for every x.  The constraints are asked for only if
    no target is empty, and the rows of phi and of the target only for a
    constraint into a target of two or more elements (`_checks`); when
    every target is a singleton no row is read.  A step's candidates are
    drawn one at a time when the search reaches it, never listed up
    front.  Families come back as one component per step, in candidate
    order.  When every target is a singleton the only family is the
    constant one, returned once `closing` has checked the sieve."""
    if 0 in targets:
        return []
    support = phi.support()
    if targets.count(1) == len(targets):
        closing()
        return [tuple((0,) * phi.size(a) for a in support)]
    checks = _checks(phi, closing(), targets, row)
    return list(
        _backtrack(
            len(targets),
            lambda k, _a: itertools.product(range(targets[k]), repeat=phi.size(support[k])),
            lambda k, a: _closes(checks[k], a),
        )
    )


def _closes(checks, assigned: list[tuple[int, ...]]) -> bool:
    """Do the constraints closing at this step hold for the components
    assigned so far?"""
    for k, k2, prow, qrow in checks:
        t = assigned[k]
        if any(t[p] != qrow[y] for p, y in zip(prow, assigned[k2])):
            return False
    return True


def _on_objects(
    family: tuple[tuple[int, ...], ...], support: tuple[int, ...], n_objects: int
) -> tuple[tuple[int, ...], ...]:
    """A support-indexed family as a full table: () off the support."""
    table: list[tuple[int, ...]] = [()] * n_objects
    for a, comp in zip(support, family):
        table[a] = comp
    return tuple(table)


def natural_families(
    phi: Presheaf, psi: Presheaf, F: FunctorData | None = None
) -> list[tuple[tuple[int, ...], ...]]:
    """All families t_a: phi(a) -> psi(F a) natural in a, i.e. derivations
    phi => pull_F(psi).  F = None means both presheaves share a base.

    Returned component tables are indexed by phi's base objects; objects
    outside phi's support get the empty tuple.  Enumeration is by
    `_families_on_support`: backtracking over support objects in index
    order with incremental naturality pruning, reading only the
    constraints into target sets of two or more elements.
    """
    A = phi.base
    if F is None:
        if psi.base is not A:
            raise StructuralError("natural_families: presheaves live over different bases")
        f_obj = lambda a: a
        f_mor = lambda u: u
    else:
        if F.source is not A or psi.base is not F.target:
            raise StructuralError("natural_families: functor does not connect the presheaves")
        f_obj = F.obj
        f_mor = F.mor
    support = phi.support()
    fams = _families_on_support(
        phi,
        [psi.size(f_obj(a)) for a in support],
        lambda: _closing(phi, support),
        lambda u: psi.action[f_mor(u)],
    )
    return [_on_objects(fam, support, A.n_objects) for fam in fams]


class PshDerivation:
    """A derivation between presheaves: base functor plus component tables."""

    __slots__ = ("name", "source", "target", "functor", "components")

    def __init__(
        self,
        name: str,
        source: Presheaf,
        target: Presheaf,
        functor: FunctorData | None,
        components: tuple[tuple[int, ...], ...],
    ):
        self.name = name
        self.source = source
        self.target = target
        self.functor = functor  # None means vertical (identity on a shared base)
        self.components = components


def validate_psh_derivation(d: PshDerivation) -> ValidationReport:
    """Arity, range, then naturality, checked on the `_closing` table that
    the family searches use; failing squares are listed in morphism order.
    Off the support of the source every component must be empty, so only
    support components are read past their length.  As in the searches, a
    square into a one-element target set holds whatever the rows are, so
    its rows are not read."""
    report = ValidationReport(f"psh-derivation {d.name}")
    phi, psi = d.source, d.target
    A = phi.base
    f_obj = (lambda a: a) if d.functor is None else d.functor.obj
    f_mor = (lambda u: u) if d.functor is None else d.functor.mor
    table = d.components
    if len(table) != A.n_objects:
        report.add("arity", "component table has wrong length")
        return report
    # The first object whose component has the wrong arity, found without
    # a Python step per object; the nonempty components before it are
    # then checked for range, in index order.
    wrong = map(operator.ne, map(len, table), map(len, phi.elements))
    first = next(itertools.compress(range(A.n_objects), wrong), A.n_objects)
    for a in itertools.compress(range(first), table):
        n = psi.size(f_obj(a))
        if not all(0 <= v < n for v in table[a]):
            report.add("range", f"component at {A.objects[a]} out of range")
            return report
    if first < A.n_objects:
        report.add("arity", f"component at {A.objects[first]} has wrong arity")
        return report
    support = phi.support()
    comps = [table[a] for a in support]
    targets = [psi.size(f_obj(a)) for a in support]
    failing = sorted(
        u
        for cl in _closing(phi, support)
        for (u, k, k2) in cl
        if targets[k] > 1 and not _closes([(k, k2, phi.action[u], psi.action[f_mor(u)])], comps)
    )
    for u in failing:
        report.add("naturality", f"square at {A.mor_names[u]} fails")
    return report


def vertical_iso_psh(
    phi: Presheaf, psi: Presheaf
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]] | None:
    """Search for a natural isomorphism over the identity base functor.

    Returns mutually inverse component tables, or None after exhausting the
    search space.  Objects are visited in ascending element count so size
    mismatches and sparse objects prune immediately; the witness found first
    under that fixed order is the canonical one.  The rows of phi and psi
    are read only for constraints into a set of two or more elements
    (`_checks`): a constraint into a one-element set holds for any
    components, so when every set is a singleton the identity is returned
    once `_closing` has checked the sieve.
    """
    A = phi.base
    if psi.base is not A:
        raise StructuralError("vertical_iso_psh: different bases")
    if not _same_sizes(phi, psi):
        return None
    support = tuple(sorted(phi.support(), key=lambda a: (phi.size(a), a)))
    sizes = [phi.size(a) for a in support]
    closing = _closing(phi, support)
    if sizes.count(1) == len(sizes):
        res = inv = [(0,)] * len(support)
    else:
        checks = _checks(phi, closing, sizes, psi.action.__getitem__)
        res = next(
            _backtrack(
                len(support),
                lambda k, _a: itertools.permutations(range(sizes[k])),
                lambda k, a: _closes(checks[k], a),
            ),
            None,
        )
        if res is None:
            return None
        inv = []
        for comp in res:
            row = [0] * len(comp)
            for x, y in enumerate(comp):
                row[y] = x
            inv.append(tuple(row))
    n = A.n_objects
    return (_on_objects(res, support, n), _on_objects(inv, support, n))


def _same_sizes(phi: Presheaf, psi: Presheaf) -> bool:
    """Do phi and psi have element sets of the same size everywhere?"""
    support = phi.support()
    return support == psi.support() and all(
        len(phi.elements[a]) == len(psi.elements[a]) for a in support
    )


def is_vertical_iso(components: tuple[tuple[int, ...], ...], phi: Presheaf, psi: Presheaf) -> bool:
    """Is this specific vertical derivation a pointwise bijection?  A natural
    pointwise bijection has a natural inverse, so this decides isomorphy of
    the canonical comparison maps.  Off the common support the components
    are checked to be empty by `validate_psh_derivation`."""
    if not _same_sizes(phi, psi):
        return False
    for a in phi.support():
        if len(set(components[a])) != phi.size(a):
            return False
    d = PshDerivation("cmp", phi, psi, None, components)
    return validate_psh_derivation(d).ok


def curried_residual(
    phi: Presheaf,
    right: FinCategory,
    size: Callable[[int, int], int],
    row: Callable[[int, int], tuple[int, ...]],
    points: Iterable[int] | None = None,
) -> Presheaf:
    """The closed-structure residual of phi and a presheaf omega pulled
    back along a currying, over `right`.  omega is given as two-argument
    tables on phi's base and `right`: size(a, b) elements at the image of
    (a, b), and the action row(f, g) of the image of (f, g).  The currying
    sends b to the functor G_b : a |-> (a, b), f |-> (f, id_b), and
    g : b -> b2 to the components a |-> (id_a, g), so row is asked only
    for (u, id_b) and (id_a, g).  The elements at b, named s{b}.{k}, are
    the natural families phi(a) -> omega(a, b) along G_b, searched on the
    support of phi and only at `points` (every object by default: the
    caller vouches that no family lands elsewhere).  g moves a family at
    b2 by postcomposing each component with row(id_a, g); a row is
    computed, and the moved families checked to be natural, when it is
    first read.  The residual over the whole functor category is never
    listed.  The left and the right residual differ only in the currying."""
    A = phi.base
    support = phi.support()
    closing = functools.cache(lambda: _closing(phi, support))
    fams_at: dict[int, list] = {}
    for b in range(right.n_objects) if points is None else points:
        fams_at[b] = _families_on_support(
            phi,
            [size(a, b) for a in support],
            closing,
            lambda u, _id=right.id_of(b): row(u, _id),
        )
    index: dict[int, dict] = {}  # families by their support components

    def act(g: int) -> tuple[int, ...]:
        s = right.dom(g)
        rows = [row(A.id_of(a), g) for a in support]
        at = index.get(s)
        if at is None:
            at = index[s] = {fam: k for k, fam in enumerate(fams_at.get(s, ()))}
        out = []
        for fam in fams_at[right.cod(g)]:
            k = at.get(tuple(tuple(r[v] for v in comp) for r, comp in zip(rows, fam)))
            if k is None:
                raise StructuralError(
                    f"curried_residual: moved family not natural along {right.mor_names[g]}"
                )
            out.append(k)
        return tuple(out)

    elements: list[tuple[str, ...]] = [()] * right.n_objects
    payloads: list[tuple] = [()] * right.n_objects
    for b, fams in fams_at.items():
        elements[b] = tuple(f"s{b}.{k}" for k in range(len(fams)))
        payloads[b] = tuple(_on_objects(fam, support, A.n_objects) for fam in fams)
    return Presheaf(
        f"res({phi.name})",
        right,
        tuple(elements),
        act,
        tuple(payloads),
        tuple(sorted(b for b, fams in fams_at.items() if fams)),
    )
