"""Presheaves of sets over finite categories, with pushforward along functors.

A presheaf assigns a finite set of named elements to every object and a
function *backwards* along every morphism.  Pullback along a functor is
precomposition; pushforward is a pointwise colimit computed by saturating
the zig-zag relation with a union-find over int nodes.  The presheaf
tables and the natural-family search that every higher construction
shares (derivation bijections, curried residuals, dualizers) are in
`pshcore`; their names are read from here too.
"""

from __future__ import annotations

import functools
from typing import Iterable

from .fincat import FinCategory, FunctorData, StructuralError, Table, ValidationReport
from .pshcore import (
    Presheaf,
    PshDerivation,
    _closes,
    _closing,
    _families_on_support,
    _not_a_sieve,
    curried_residual,
)


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
    of the morphisms into b: an element set is named, a payload read and
    an action row computed when it is first read."""
    grouped: dict[int, list[int]] = {}
    for m in cat.mor_in(b):
        grouped.setdefault(cat.dom(m), []).append(m)
    homs = {a: tuple(ms) for a, ms in grouped.items()}
    names, n = cat.mor_names, cat.n_objects
    where = functools.cache(lambda a: {m: k for k, m in enumerate(homs[a])})
    return Presheaf(
        f"y({cat.objects[b]})",
        cat,
        Table(n, lambda a: tuple(names[m] for m in homs.get(a, ()))),
        lambda f: tuple(where(cat.dom(f))[cat.compose(f, g)] for g in homs[cat.cod(f)]),
        Table(n, lambda a: homs.get(a, ())),
        tuple(sorted(homs)),
    )


def pull_psh(F: FunctorData, psi: Presheaf) -> Presheaf:
    """Precompose psi with F; elements keep their names.  The support is
    the preimage of psi's support (`F.preimage`, read from an index for a
    slice action).  The element and payload tables read psi's at F's
    image of an object, and a row psi's row at F's image of a morphism,
    each on first use, so nothing is listed per object."""
    if psi.base is not F.target:
        raise StructuralError(f"pull_psh: {psi.name} does not live over the target of {F.name}")
    at, n, payloads = F.object_map, F.source.n_objects, psi.payloads
    return Presheaf(
        f"pull[{F.name}]({psi.name})",
        F.source,
        Table(n, lambda a: psi.elements[at[a]]),
        lambda f: psi.action[F.mor(f)],
        None if payloads is None else Table(n, lambda a: payloads[at[a]]),
        F.preimage(psi.support()),
    )


class PushResult:
    """Pushforward presheaf plus the coend bookkeeping, indexed by support.

    `reps` has one entry per point b of the pushed presheaf's support, in
    order: one canonical generating node per element at b, a node being
    (source object a, morphism h: b -> F(a), element x of phi(a)).
    `unit` has one entry per point a of the support of `source`, phi:
    the canonical derivation component phi(a) -> pushed(F(a)),
    x |-> class of (a, id, x).
    """

    __slots__ = ("presheaf", "source", "reps", "unit")

    def __init__(
        self,
        presheaf: Presheaf,
        source: Presheaf,
        reps: tuple[tuple[tuple[int, int, int], ...], ...],
        unit: tuple[tuple[int, ...], ...],
    ):
        self.presheaf = presheaf
        self.source = source
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
    reps_at: dict[int, tuple[tuple[int, int, int], ...]] = {}
    for b, at in nodes_at.items():
        roots = roots_at[b] = sorted({find(n) for n in at})
        index = {r: i for i, r in enumerate(roots)}
        for n in at:
            cls[n] = index[parent[n]]
        reps_at[b] = tuple(map(nodes.__getitem__, roots))

    def names(b: int) -> tuple[str, ...]:
        return tuple(f"{B.mor_names[h]}.{phi.elements[a][x]}" for (a, h, x) in reps_at.get(b, ()))

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

    pushed_support = tuple(sorted(nodes_at))
    pushed = Presheaf(
        f"push[{F.name}]({phi.name})", B, Table(B.n_objects, names), row, support=pushed_support
    )
    unit = []
    for a in support:
        at = node(a, B.id_of(F.obj(a)), 0)
        unit.append(tuple(cls[at : at + phi.size(a)]))
    return PushResult(pushed, phi, tuple(map(reps_at.__getitem__, pushed_support)), tuple(unit))


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
    otherwise theta was not natural to begin with.  theta has one
    component per point of the support of phi = pr.source, and kappa one
    per point of the pushed support."""
    at = _index(pr.source)
    comps = tuple(tuple(psi.apply(h, theta[at[a]][x]) for (a, h, x) in reps) for reps in pr.reps)
    kappa = PshDerivation("transpose", pr.presheaf, psi, None, comps)
    rep = validate_psh_derivation(kappa)
    if not rep.ok:
        raise StructuralError(f"push_transpose: {rep.violations[0]}")
    to = _index(pr.presheaf)
    for a, unit, comp in zip(pr.source.support(), pr.unit, theta):
        if any(comps[to[F.obj(a)]][cls] != v for cls, v in zip(unit, comp)):
            raise StructuralError("push_transpose: factoring does not reproduce the derivation")
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
    to = _index(pr.presheaf)
    where = [to[F.obj(a)] for a in phi.support()]
    for omega in test_codomains:
        vert = natural_families(pr.presheaf, omega, None)
        down = set(natural_families(phi, omega, F))
        seen = set()
        for v in vert:
            c = tuple(tuple(v[k][cls] for cls in unit) for k, unit in zip(where, pr.unit))
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


def _index(phi: Presheaf) -> dict[int, int]:
    """Support point -> its position in phi's support, the index of a
    component table out of phi."""
    return {a: k for k, a in enumerate(phi.support())}


def natural_families(
    phi: Presheaf, psi: Presheaf, F: FunctorData | None = None
) -> list[tuple[tuple[int, ...], ...]]:
    """All families t_a: phi(a) -> psi(F a) natural in a, i.e. derivations
    phi => pull_F(psi).  F = None means both presheaves share a base.

    Each family has one component per point of phi's support, in order:
    off the support phi is empty, so there is nothing to map.
    Enumeration is by `_families_on_support`: backtracking over support
    objects in index order with incremental naturality pruning, reading
    only the constraints into target sets of two or more elements.
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
    return _families_on_support(
        phi,
        [psi.size(f_obj(a)) for a in support],
        lambda: _closing(phi, support),
        lambda u: psi.action[f_mor(u)],
    )


def validate_psh_derivation(d: PshDerivation) -> ValidationReport:
    """Length, then arity and range at each support point in order, then
    naturality, checked on the `_closing` table that the family searches
    use; failing squares are listed in morphism order.  The table has one
    component per point of the source's support, so nothing is read off
    it.  As in the searches, a square into a one-element target set holds
    whatever the rows are, so its rows are not read."""
    report = ValidationReport(f"psh-derivation {d.name}")
    phi, psi = d.source, d.target
    A = phi.base
    f_obj = (lambda a: a) if d.functor is None else d.functor.obj
    f_mor = (lambda u: u) if d.functor is None else d.functor.mor
    comps = d.components
    support = phi.support()
    if len(comps) != len(support):
        report.add("arity", "component table has wrong length")
        return report
    targets = [psi.size(f_obj(a)) for a in support]
    for a, comp, n in zip(support, comps, targets):
        if len(comp) != phi.size(a):
            report.add("arity", f"component at {A.objects[a]} has wrong arity")
            return report
        if not all(0 <= v < n for v in comp):
            report.add("range", f"component at {A.objects[a]} out of range")
            return report
    failing = sorted(
        u
        for cl in _closing(phi, support)
        for (u, k, k2) in cl
        if targets[k] > 1 and not _closes([(k, k2, phi.action[u], psi.action[f_mor(u)])], comps)
    )
    for u in failing:
        report.add("naturality", f"square at {A.mor_names[u]} fails")
    return report


def generated_iso(phi: Presheaf, p: int, x0: int, psi: Presheaf) -> bool:
    """Is phi, generated by its element x0 at p, vertically isomorphic to
    psi?  An iso theta has theta(phi(m)(x0)) = psi(m)(y) for every m into
    p, with y = theta_p(x0), so each y in psi(p) forces one table: a y
    that sends an element to two values is dropped, and `is_vertical_iso`
    decides the rest, counts first.  The row of m is read only where m's
    domain has two or more elements.  An element that no m reaches raises a
    StructuralError naming phi; every morphism into a reached point
    composes into p, so a support that is not a sieve raises here too."""
    if psi.base is not phi.base:
        raise StructuralError("generated_iso: different bases")
    A, at, sizes = phi.base, _index(phi), [phi.size(a) for a in phi.support()]
    reached, forced = set(), []  # forced: (k, x, m), m reaching x at the k-th point
    for m in A.mor_in(p):
        k = at.get(A.dom(m))
        if k is None:
            raise _not_a_sieve(phi, m)
        x = 0 if sizes[k] == 1 else phi.action[m][x0]
        reached.add((k, x))
        if sizes[k] != 1:
            forced.append((k, x, m))
    for k, a in enumerate(phi.support()):
        for x in range(sizes[k]):
            if (k, x) not in reached:
                raise StructuralError(
                    f"{phi.name} is not generated by {phi.elements[p][x0]} at {A.objects[p]}: "
                    f"nothing reaches {phi.elements[a][x]} at {A.objects[a]}"
                )
    for y in range(psi.size(p)):
        comps = [[0] if n == 1 else [None] * n for n in sizes]
        for k, x, m in forced:
            if comps[k][x] is None:
                comps[k][x] = psi.action[m][y]
            elif comps[k][x] != psi.action[m][y]:
                break
        else:
            if is_vertical_iso(tuple(map(tuple, comps)), phi, psi):
                return True
    return False


def is_vertical_iso(components: tuple[tuple[int, ...], ...], phi: Presheaf, psi: Presheaf) -> bool:
    """Is this specific vertical derivation a pointwise bijection?  A natural
    pointwise bijection has a natural inverse, so this decides isomorphy of
    the canonical comparison maps.  The components are indexed by the
    common support, and their table is checked by `validate_psh_derivation`."""
    support = phi.support()
    if support != psi.support() or any(phi.size(a) != psi.size(a) for a in support):
        return False
    if any(len(set(comp)) != phi.size(a) for a, comp in zip(support, components)):
        return False
    return validate_psh_derivation(PshDerivation("cmp", phi, psi, None, components)).ok
