"""Slices, coslices, and the two presheaf presentations of a refinement system.

A refinement system t : D -> T has, for every base object B, a category of
refinements sitting over B (the relative slice) and dually one of
refinements sitting under it (the relative coslice, built here as a slice
of the opposite system).  Every refinement Q then presents itself as the
presheaf of derivations into Q over the slice, and every P as the presheaf
of derivations out of P over the coslice.  This module builds those
presentations, certifies that they are fully faithful, and checks the
factorizations through pointed categories and through the comma category.
Monoidal structure on the slices is in `day`.

Each mirror image comes from a one-sided construction: the coslice, the
negative representation and everything about pushforwards are the
slice, the positive representation and pullbacks of `sys.op()`.

Every construction is built once per system through
`RefinementSystem.memo`, which is load-bearing: presheaf pullback
requires base categories to be identical objects, not merely isomorphic
copies.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from collections import Counter
from typing import Iterable, Iterator, Sequence

from .fincat import (
    Arrows,
    CommaCategory,
    FinCategory,
    FunctorData,
    SIZE_GUARD,
    SizeGuardExceeded,
    StructuralError,
    Table,
    Triples,
)
from .psh import (
    Presheaf,
    PshDerivation,
    _closing,
    _families_on_support,
    is_vertical_iso,
    pull_psh,
    representable,
)
from .refsys import (
    RefinementSystem,
    _cartesian_tests,
    find_pullback,
)
from .reports import CheckReport


# ---------------------------------------------------------------------------
# Relative slices and coslices


class SliceCategory:
    """Refinements arranged over one base object.

    Objects are tagged (P, c) with P a D-object and c : t(P) -> B;
    morphisms are tagged (alpha, src, tgt) where alpha : P_src -> P_tgt is
    a derivation over some e with c_src = e ; c_tgt.  Built on the opposite
    system the same structure reads as the coslice under B: tags become
    (R, d : B -> t(R)) and morphism direction reverses in D.

    The points of one refinement P form a block: (P, c) is the point
    offsets[P] + k for c the k-th morphism of T.hom(t(P), B), and
    hom_pos[t(P)][c] = k.  A derivation alpha into P2 meets each point u
    of P2's block in exactly one slice morphism, so the morphisms into u
    are listed in `into` from in_off[u] on, at alpha's position in
    D.mor_in(P2) (`mor_of`).  The slice keeps ints only: the morphism
    tags are three columns, alpha in an `array` and the endpoints in the
    category's own dom and cod tuples, read as triples through
    `mor_tags`; the names of objects and morphisms are formatted when
    they are read (`Table`); and a hom-set is read from mor_out when it
    is asked for."""

    def __init__(self, sys: RefinementSystem, B: int):
        D, T, t = sys.D, sys.T, sys.t
        shapes = tuple(map(sys.shape, range(D.n_objects)))
        homs = [T.hom(A, B) for A in shapes]
        offsets = tuple(itertools.accumulate(map(len, homs), initial=0))
        obj_tags = tuple((P, c) for P, cs in enumerate(homs) for c in cs)
        # The point ints, shared by every endpoint entry that names a point.
        points = tuple(range(len(obj_tags)))
        self.sys, self.base_obj = sys, B
        self.obj_tags = obj_tags
        self.obj_index = dict(zip(obj_tags, points))
        self.offsets = offsets[:-1]
        self.hom_pos = {A: {c: k for k, c in enumerate(T.hom(A, B))} for A in set(shapes)}

        # A derivation alpha : P1 -> P2 over e meets each c2 : t(P2) -> B
        # once, as the morphism (P1, e;c2) -> (P2, c2): one composite per
        # pair, filed under its source point in P1's block, so the slice
        # costs its morphisms.  Sorting a point's morphisms keeps the tags in
        # (source, target, alpha) order.
        alphas, src, tgt = array("i"), [], []
        for P1, cs in enumerate(homs):
            at, pos = offsets[P1], self.hom_pos[shapes[P1]]
            out: list[list[tuple[int, int]]] = [[] for _ in cs]
            for alpha in D.mor_out(P1):
                P2, e = D.mor_cod[alpha], t.mor(alpha)
                to = offsets[P2]
                for k2, c2 in enumerate(homs[P2]):
                    out[pos[T.compose(e, c2)]].append((points[to + k2], alpha))
            for k, found in enumerate(out):
                found.sort()
                src += [points[at + k]] * len(found)
                tgt += [ti for ti, _alpha in found]
                alphas.extend(alpha for _ti, alpha in found)
        src, tgt = tuple(src), tuple(tgt)
        self.mor_tags = Triples(alphas, src, tgt)
        self._pos_in = D._in_pos()
        ins = (len(D.mor_in(P)) for P, _c in obj_tags)
        self.in_off = array("i", itertools.accumulate(ins, initial=0))
        self.into = array("i", [-1]) * len(alphas)
        for k, (alpha, u) in enumerate(zip(alphas, tgt)):
            self.into[self.in_off[u] + self._pos_in[alpha]] = k

        def obj_name(i: int) -> str:
            P, c = obj_tags[i]
            return f"({D.objects[P]},{T.mor_names[c]})"

        def mor_name(k: int) -> str:
            return f"{D.mor_names[alphas[k]]}#{src[k]}->{tgt[k]}"

        def comp(f: int, g: int) -> int:
            return self.mor_of(D.compose(alphas[f], alphas[g]), src[f], tgt[g])

        self.cat = FinCategory(
            f"slice({sys.name},{T.objects[B]})",
            Table(len(obj_tags), obj_name),
            Arrows(Table(len(alphas), mor_name), src, tgt),
            [self.mor_of(D.identity[P], i, i) for i, (P, _c) in enumerate(obj_tags)],
            comp,
        )

    def mor_of(self, alpha: int, s: int, u: int) -> int:
        """The slice morphism tagged (alpha, s, u), read from `into`; the
        entry found must carry that tag, else a StructuralError."""
        tags = self.mor_tags
        i = self.in_off[u] + self._pos_in[alpha]
        k = self.into[i] if i < len(self.into) else -1
        if 0 <= k < len(tags) and tags.a[k] == alpha and tags.b[k] == s and tags.c[k] == u:
            return k
        raise StructuralError(
            f"slice({self.sys.name},{self.sys.T.objects[self.base_obj]}): "
            f"no morphism {self.sys.D.mor_names[alpha]}#{s}->{u}"
        )

    def obj_name(self, i: int) -> str:
        return self.cat.objects[i]

    def mor_name(self, k: int) -> str:
        return self.cat.mor_names[k]


def slice_of(sys: RefinementSystem, B: int) -> SliceCategory:
    """The relative slice over the T-object B, built once per system."""
    return sys.memo(("slice", B), lambda: SliceCategory(sys, B))


def coslice_of(sys: RefinementSystem, A: int) -> SliceCategory:
    """The relative coslice under A: the slice of the opposite system.

    Object tags (R, d) read d : A -> t(R) in the original base, and a
    morphism tagged (gamma, src, tgt) is a D-morphism R_tgt -> R_src."""
    return slice_of(sys.op(), A)


class PointImages:
    """A slice action's object map, computed on each read, with nothing
    stored per point.  The point j of refinement P is the k-th of P's
    block, which starts at at[P] in the source slice and at to[P] in the
    target; it goes to to[P] + maps[P][k], maps[P] being the map of
    positions of P's shape, so into P's block by construction.  Indexed by
    0..n-1, as a `Table` is; iterated block by block."""

    __slots__ = ("tags", "at", "to", "maps")

    def __init__(self, tags: Sequence[tuple], at: Sequence[int], to: Sequence[int], maps: tuple):
        self.tags, self.at, self.to, self.maps = tags, at, to, maps

    def __getitem__(self, j: int) -> int:
        if j < 0:
            raise IndexError(f"point index {j} out of range")
        P = self.tags[j][0]
        return self.to[P] + self.maps[P][j - self.at[P]]

    def __len__(self) -> int:
        return len(self.tags)

    def __iter__(self) -> Iterator[int]:
        for to, positions in zip(self.to, self.maps):
            yield from map(to.__add__, positions)


class SliceAction(FunctorData):
    """Postcomposition with e : B1 -> B2 as a functor between slices.

    A point (P, c) goes to (P, c;e), in the block of the same refinement,
    so the object map is read once per base object A as a map of
    positions hom(A, B1) -> hom(A, B2), and the image of a point is
    computed from it on each read (`PointImages`).  The preimage of a set
    of points, the support of a pulled presheaf, is read from the inverse
    of that map, taken when it is asked for.  The image of a slice
    morphism is looked up (`SliceCategory.mor_of`) when it is first read.
    Both maps land in range by construction (`mor_of` returns only a
    morphism it holds), so neither goes through FunctorData's checks."""

    def __init__(self, sys: RefinementSystem, e: int):
        T = sys.T
        S1, S2 = slice_of(sys, T.dom(e)), slice_of(sys, T.cod(e))
        self._maps = maps = {
            A: tuple(pos[T.compose(c, e)] for c in T.hom(A, S1.base_obj))
            for A, pos in S2.hom_pos.items()
        }
        by_refinement = tuple(maps[sys.shape(P)] for P in range(sys.D.n_objects))
        omap = PointImages(S1.obj_tags, S1.offsets, S2.offsets, by_refinement)
        self.slices = (S1, S2)

        def image(k: int) -> int:
            alpha, s, u = S1.mor_tags[k]
            return S2.mor_of(alpha, omap[s], omap[u])

        self.name = f"slice[{T.mor_names[e]}]"
        self.source, self.target = S1.cat, S2.cat
        self.object_map = omap
        self.morphism_map = Table(S1.cat.n_morphisms, image)

    def preimage(self, points: Iterable[int]) -> tuple[int, ...]:
        """The points of the source slice sent into `points`, in index
        order: for (P, c2) the points (P, c) of P's block with c;e = c2."""
        S1, S2 = self.slices
        shape = S1.sys.shape
        inverses: dict[int, list[list[int]]] = {}
        out: list[int] = []
        for j in points:
            P = S2.obj_tags[j][0]
            A = shape(P)
            inverse = inverses.get(A)
            if inverse is None:
                inverse = inverses[A] = self._inverse(A)
            at = S1.offsets[P]
            out.extend(at + k for k in inverse[j - S2.offsets[P]])
        out.sort()
        return tuple(out)

    def _inverse(self, A: int) -> list[list[int]]:
        """For each position in hom(A, B2), the positions in hom(A, B1)
        sent there."""
        fibres: list[list[int]] = [[] for _ in self.slices[1].hom_pos[A]]
        for k, k2 in enumerate(self._maps[A]):
            fibres[k2].append(k)
        return fibres


def slice_action(sys: RefinementSystem, e: int) -> SliceAction:
    """Postcomposition with e as a functor between slices, built once."""
    return sys.memo(("slice action", e), lambda: SliceAction(sys, e))


def coslice_action(sys: RefinementSystem, e: int) -> SliceAction:
    """Precomposition with e as a functor between coslices (contravariant:
    e : A1 -> A2 yields a functor from the coslice under A2 to the one
    under A1)."""
    return slice_action(sys.op(), e)


# ---------------------------------------------------------------------------
# Positive and negative representations


def pos_rep(sys: RefinementSystem, Q: int) -> Presheaf:
    """The presheaf of derivations into Q over the slice of t(Q).

    Elements at (P, c) are the derivations of (P, c, Q), carried as
    payloads; morphisms act by precomposition.  Built once per system,
    on its support, the slice points of the derivation index into Q: the
    element and payload tables are read from that index, and an action
    row is computed from the presheaf's own positions, each when it is
    first read, so the presheaf is a reference cycle, kept in the
    system's memo for the system's life."""

    def build() -> Presheaf:
        D = sys.D
        S = slice_of(sys, sys.shape(Q))
        at = {S.obj_index[point]: ders for point, ders in sys.derivation_index[Q].items()}
        n, names = S.cat.n_objects, D.mor_names
        rep = Presheaf(
            f"rep({D.objects[Q]})",
            S.cat,
            Table(n, lambda i: tuple(names[d] for d in at.get(i, ()))),
            lambda m: _derivation_row(S, rep, m),
            Table(n, lambda i: at.get(i, ())),
            tuple(sorted(at)),
        )
        return rep

    return sys.memo(("pos rep", Q), build)


def _derivation_row(S: SliceCategory, phi: Presheaf, m: int) -> tuple[int, ...]:
    """The action of the slice morphism m = (alpha, s, u) on a presheaf of
    derivations over S: each derivation at u is precomposed with alpha
    and located among the derivations at s.  A composite missing at s
    raises a StructuralError naming phi."""
    alpha, s, u = S.mor_tags[m]
    pos, compose = phi.position(s), S.sys.D.compose
    try:
        return tuple(pos[compose(alpha, x)] for x in phi.payloads[u])
    except KeyError as exc:
        raise StructuralError(
            f"{phi.name} lacks {S.sys.D.mor_names[exc.args[0]]} at {S.obj_name(s)}"
        ) from None


def neg_rep(sys: RefinementSystem, P: int) -> Presheaf:
    """The presheaf of derivations out of P over the coslice of t(P):
    elements at (d, R) are derivations of (P, d, R), acting by
    postcomposition.  Computed as the positive representation of the
    opposite system, sharing all indices."""
    return pos_rep(sys.op(), P)


def pos_rep_derivation(sys: RefinementSystem, sigma: int) -> PshDerivation:
    """Postcomposition with a derivation sigma : Q1 -> Q2 over c, as a
    presheaf derivation rep(Q1) => rep(Q2) over the slice functor of c.
    Components are computed on the support of rep(Q1), one per point;
    a representation without payloads, or a composite that rep(Q2) lacks,
    raises a StructuralError naming it."""
    D = sys.D
    Q1, Q2, c = D.dom(sigma), D.cod(sigma), sys.t.mor(sigma)
    phi, psi = pos_rep(sys, Q1), pos_rep(sys, Q2)
    for rep in (phi, psi):
        if rep.payloads is None:
            raise StructuralError(f"{rep.name} has no derivations as payloads")
    F = slice_action(sys, c)
    comps = []
    for i in phi.support():
        pos = psi.position(F.obj(i))
        try:
            comps.append(tuple(pos[D.compose(tau, sigma)] for tau in phi.payloads[i]))
        except KeyError as exc:
            raise StructuralError(
                f"image of {D.mor_names[sigma]} has no element at "
                f"{psi.base.object_name(F.obj(i))}: {psi.name} lacks {D.mor_names[exc.args[0]]}"
            ) from None
    return PshDerivation(f"post[{D.mor_names[sigma]}]", phi, psi, F, tuple(comps))


def representation_ff_check(sys: RefinementSystem) -> CheckReport:
    """Soundness and completeness of the representations: for every
    judgment (Q1, c, Q2), postcomposition maps the derivation set
    bijectively onto the presheaf derivations rep(Q1) => rep(Q2) over the
    slice functor of c (dually for the negative side).  The families of
    every judgment that can have one, or has a derivation, are enumerated
    exhaustively by `_judgment_families`; every other judgment has
    neither, so it passes and is counted in bulk."""
    rep = CheckReport(
        f"representation-ff[{sys.name}]",
        "derivations biject with presheaf derivations between representations",
    )
    for s, side in ((sys, "pos"), (sys.op(), "neg")):
        searched, unsearched = _judgment_families(s)
        for (Q1, c, Q2), fams in searched:
            bad = _ff_failure(s, s.derivations_unchecked(Q1, c, Q2), fams)
            if bad is None:
                rep.record_pass()
            else:
                rep.record_fail(f"{side} {s.judgment_name(Q1, c, Q2)}: {bad}")
        rep.record_passes(unsearched)
    return rep


def _holders(sys: RefinementSystem, B: int) -> dict[int, set[int]]:
    """The inverted index of the representations over B: slice point ->
    the refinements Q of B whose rep(Q) is nonempty there.  Kept in the
    system's memo."""

    def build() -> dict[int, set[int]]:
        holders: dict[int, set[int]] = {}
        for Q in sys.fiber(B):
            for i in pos_rep(sys, Q).support():
                holders.setdefault(i, set()).add(Q)
        return holders

    return sys.memo(("holders", B), build)


def _judgment_families(sys: RefinementSystem):
    """The judgments (Q1, c, Q2) that can fail the ff check, in
    (Q1, Q2, c) index order, each with the natural families
    rep(Q1) => pull_c rep(Q2) as `_families_on_support` returns them, one
    component per support point of rep(Q1); and the number of all other
    judgments.

    A family sends every support point into rep(Q2), so a judgment can
    have one only where the image of the support under the slice action
    of c lies inside rep(Q2)'s support.  Per (Q1, c) those Q2 are read
    off the inverted index of the representations over cod c
    (`_holders`), intersected over the image; the Q2 with a derivation
    (Q1, c, Q2) are added from the derivation index, as the pullback
    candidates of c at Q1 in `sys.op()`.  Every other judgment has no
    family and no derivation.  The support and the naturality
    constraints (built on first need) are taken once per Q1, and the
    targets are read through the object map of the slice action."""
    T = sys.T
    # In the opposite system the derivations into Q1 are those out of it.
    derivations_out = sys.op().derivations_into
    searched = []
    unsearched = 0
    for Q1 in range(sys.D.n_objects):
        phi = pos_rep(sys, Q1)
        support = phi.support()
        closing = functools.cache(functools.partial(_closing, phi, support))
        found: list[tuple[int, int, SliceAction]] = []
        for B in range(T.n_objects):
            cs, fiber = T.hom(sys.shape(Q1), B), sys.fiber(B)
            if not (cs and fiber):
                continue
            holders, everyone = _holders(sys, B), set(fiber)
            for c in cs:
                F = slice_action(sys, c)
                image = {F.object_map[a] for a in support}
                inside = everyone.intersection(*(holders.get(i, ()) for i in image))
                can_fail = inside.union(Q2 for Q2, _alpha in derivations_out(c, Q1))
                unsearched += len(fiber) - len(can_fail)
                found += ((Q2, c, F) for Q2 in can_fail)
        found.sort(key=lambda j: j[:2])
        for Q2, c, F in found:
            psi, omap = pos_rep(sys, Q2), F.object_map
            try:
                fams = _families_on_support(
                    phi,
                    [psi.size(omap[a]) for a in support],
                    closing,
                    lambda u, psi=psi, F=F: psi.action[F.mor(u)],
                )
            except StructuralError as exc:  # rep(Q1)'s support is not a sieve
                fams = exc
            searched.append(((Q1, c, Q2), fams))
    return searched, unsearched


def _ff_failure(sys: RefinementSystem, ders: tuple[int, ...], fams: list | StructuralError) -> str | None:
    """Why postcomposition does not biject the derivations `ders` onto the
    families `fams`, or None if it does; `fams` may be the error that
    stopped their search."""
    if isinstance(fams, StructuralError):
        return str(fams)
    fam_set = set(fams)
    images = set()
    for sigma in ders:
        try:
            comps = pos_rep_derivation(sys, sigma).components
        except StructuralError as exc:
            return str(exc)
        if comps not in fam_set:
            return f"image of {sys.D.mor_names[sigma]} is not a natural family"
        images.add(comps)
    if len(images) != len(ders):
        return "postcomposition is not injective"
    if len(fams) != len(ders):
        return f"{len(ders)} derivations but {len(fams)} natural families"
    return None


# ---------------------------------------------------------------------------
# Factorization through pointed categories and through the comma category


class CommaSystem:
    """The comma category of t over its base, as a refinement system.

    Objects are tagged (Q, c) with c any base morphism out of t(Q);
    morphisms are tagged (alpha, e, src, tgt) with c_src ; e = t(alpha) ;
    c_tgt.  The projection onto the e-component is the system's shape."""

    __slots__ = ("sys", "obj_tags", "mor_tags", "obj_index", "mor_index")

    def __init__(self, sys, obj_tags, mor_tags, obj_index, mor_index):
        self.sys = sys
        self.obj_tags = obj_tags
        self.mor_tags = mor_tags
        self.obj_index = obj_index
        self.mor_index = mor_index


def comma_morphism_count(base: RefinementSystem) -> int:
    """The number of comma category morphisms, counted without listing
    them: a derivation alpha over a, times the squares (c1, e, c2) with c1
    out of dom a, c2 out of cod a and c1;e = a;c2.  Squares are counted by
    the composite x: #{(c1, e) : c1;e = x} times #{c2 : a;c2 = x}."""
    T = base.T
    paths = [Counter(x for c1 in T.mor_out(A) for x in T._row(c1)) for A in range(T.n_objects)]
    over = Counter(base.t.mor(alpha) for alpha in range(base.D.n_morphisms))
    return sum(
        k * paths[T.dom(a)][x] * n for a, k in over.items() for x, n in Counter(T._row(a)).items()
    )


def comma_system(base: RefinementSystem, size_guard: int = SIZE_GUARD) -> CommaSystem:
    """Materialize the comma category of t over T with its cod projection.
    Both sizes are checked against the guard before anything is built.
    The category is a `CommaCategory`: a row of composites is filled,
    from one row of D and one of T, only when something composes out of
    it, and its laws are D's and T's."""
    D, T, t = base.D, base.T, base.t
    obj_tags = [(Q, c) for Q in range(D.n_objects) for c in T.mor_out(base.shape(Q))]
    if len(obj_tags) > size_guard:
        raise SizeGuardExceeded("comma category objects", len(obj_tags), size_guard)
    n_mor = comma_morphism_count(base)
    if n_mor > size_guard:
        raise SizeGuardExceeded("comma category morphisms", n_mor, size_guard)
    obj_index = {tag: i for i, tag in enumerate(obj_tags)}

    # The squares out of (Q1, c1): for each alpha : Q1 -> Q2 and c2 out of
    # t(Q2), the e with c1;e = t(alpha);c2, read from c1's inverted row.
    mor_tags: list[tuple[int, int, int, int]] = []
    for si, (Q1, c1) in enumerate(obj_tags):
        after = T._inverse_row(c1)
        out = [
            (obj_index[(D.cod(alpha), c2)], alpha, e)
            for alpha in D.mor_out(Q1)
            for c2, x in zip(T.mor_out(T.cod(t.mor(alpha))), T._row(t.mor(alpha)))
            for e in after.get(x, ())
        ]
        mor_tags += [(alpha, e, si, ti) for ti, alpha, e in sorted(out)]
    cat = CommaCategory(f"comma({base.name})", D, T, obj_tags, tuple(mor_tags))
    shape = FunctorData(
        f"cod[{base.name}]",
        cat,
        T,
        tuple(T.cod(c) for (_Q, c) in obj_tags),
        tuple(e for (_a, e, _s, _t) in cat.mor_tags),
    )
    comma = RefinementSystem(f"comma({base.name})", shape)
    return CommaSystem(comma, tuple(obj_tags), cat.mor_tags, obj_index, cat.mor_index)


def _factorization_one_side(sys: RefinementSystem, rep: CheckReport, side: str, size_guard: int) -> None:
    D, T = sys.D, sys.T

    # The representation presheaves are representable: rep(Q) has the
    # tables of the hom presheaf of the slice at the point (Q, id), each
    # slice morphism into the point read as its derivation.
    for Q in range(D.n_objects):
        S = slice_of(sys, sys.shape(Q))
        point = S.obj_index[(Q, T.identity[sys.shape(Q)])]
        bad = _unlike_representable(S, pos_rep(sys, Q), representable(S.cat, point))
        rep.check(bad is None, f"{side} representability of {D.objects[Q]}: {bad}")

    # Comma route: the canonical lifts of the cod projection are
    # opcartesian, and fiber transport along each base morphism has the
    # same tables as the slice action.
    try:
        cs = comma_system(sys, size_guard)
    except SizeGuardExceeded as exc:
        rep.record_skip(f"{side} comma route: {exc}")
        return
    comma = cs.sys
    for e in range(T.n_morphisms):
        if T.is_identity(e):
            continue
        B1, B2 = T.dom(e), T.cod(e)
        S1, S2 = slice_of(sys, B1), slice_of(sys, B2)
        F = slice_action(sys, e)
        bad = None
        lifts = []  # (src, tgt, canonical lift) per point of S1
        for i, (P, c) in enumerate(S1.obj_tags):
            src = cs.obj_index[(P, c)]
            tgt = cs.obj_index[(P, T.compose(c, e))]
            ell = cs.mor_index.get((D.identity[P], e, src, tgt))
            if ell is None or _cartesian_tests(comma.op(), e, src, tgt, ell) is None:
                bad = f"canonical lift of {S1.obj_name(i)} along {T.mor_names[e]} is not opcartesian"
                break
            if cs.obj_tags[tgt] != S2.obj_tags[F.obj(i)]:
                bad = f"transport of {S1.obj_name(i)} disagrees with the slice action"
                break
            lifts.append((src, tgt, ell))
        if bad is None:
            for k, (alpha, s, u) in enumerate(S1.mor_tags):
                (src_s, tgt_s, ell_s), (src_u, tgt_u, ell_u) = lifts[s], lifts[u]
                v = cs.mor_index[(alpha, T.identity[B1], src_s, src_u)]
                composite = comma.D.compose(v, ell_u)
                ws = comma.derivations(tgt_s, T.identity[B2], tgt_u)
                transported = next((w for w in ws if comma.D.compose(ell_s, w) == composite), None)
                want = S2.mor_tags[F.mor(k)]
                got = None if transported is None else cs.mor_tags[transported]
                if got is None or got[0] != want[0]:
                    bad = f"transport of {S1.mor_name(k)} along {T.mor_names[e]} disagrees with the slice action"
                    break
        if not rep.check(bad is None, f"{side} comma transport: {bad}"):
            break
    else:
        if all(T.is_identity(e) for e in range(T.n_morphisms)):
            rep.record_skip(f"{side} comma transport: base has only identities")


def _unlike_representable(S: SliceCategory, phi: Presheaf, y: Presheaf) -> str | None:
    """Where phi, a presheaf of derivations over S, and the hom presheaf y
    of a point of S differ, table for table, or None: at every slice point
    the point morphisms, read as their derivations, are phi's payloads,
    the supports are equal, and on the support every action row into a
    set of two or more elements agrees.  Off both supports both payloads
    are empty, so only the union of the supports is read; a row into a
    one-element set agrees whatever it is, as in `psh._checks`, so it is
    not read."""
    if phi.payloads is None:
        return f"{phi.name} has no derivations as payloads"
    for i in sorted(set(phi.support()).union(y.support())):
        if tuple(S.mor_tags[m][0] for m in y.payloads[i]) != phi.payloads[i]:
            return f"point morphisms at {S.obj_name(i)} are not its derivations"
    if phi.support() != y.support():
        return f"the support of {phi.name} is not that of its point"
    dom = S.cat.mor_dom
    for j in phi.support():
        for f in S.cat.mor_in(j):
            if phi.size(dom[f]) > 1 and y.action[f] != phi.action[f]:
                return f"precomposition with {S.mor_name(f)} disagrees"
    return None


def factorization_check(sys: RefinementSystem, size_guard: int = SIZE_GUARD) -> CheckReport:
    """The positive representation factors through the slice points and
    through the comma category, and dually for the negative one.

    Checks, for each side: (i) each rep(Q) is the hom presheaf of its
    point, table for table; (ii) the canonical lifts of the comma
    projection are opcartesian; (iii) fiber transport along every base
    morphism reproduces the slice action tables.  The comma's laws are
    D's and T's by construction (`fincat.CommaCategory`), so they are
    not decided here."""
    rep = CheckReport(
        f"factorization[{sys.name}]",
        "representations factor through slice points and comma transport",
    )
    _factorization_one_side(sys, rep, "pos", size_guard)
    _factorization_one_side(sys.op(), rep, "neg", size_guard)
    return rep


# ---------------------------------------------------------------------------
# Preservation of pullbacks (and pushforwards, contravariantly)


def _pulled_reps(s: RefinementSystem, c: int, rep: CheckReport, lift: str, failure: str):
    """For every refinement Q of cod c with a certified pullback along c,
    check that the comparison rep(c*Q) => rep(Q) pulled along c is a
    vertical iso; skip the others.  `failure` is formatted with R = c*Q,
    Q and c."""
    for Q in s.fiber(s.T.cod(c)):
        cert = find_pullback(s, c, Q)
        if cert is None:
            rep.record_skip(f"no {lift} of {s.D.objects[Q]} along {s.T.mor_names[c]}")
            continue
        comparison = pos_rep_derivation(s, cert.structural)
        pulled = pull_psh(slice_action(s, c), pos_rep(s, Q))
        rep.check(
            is_vertical_iso(comparison.components, pos_rep(s, cert.result), pulled),
            failure.format(R=s.D.objects[cert.result], Q=s.D.objects[Q], c=s.T.mor_names[c]),
        )


def preservation_check(sys: RefinementSystem) -> CheckReport:
    """Certified pullbacks become isomorphisms of positive representations;
    certified pushforwards become isomorphisms of negative representations
    onto pullbacks, which is the same statement in the opposite system.
    Whether the single push of a positive representation is isomorphic to
    the pushforward's is `negative_encoding_check`'s note."""
    rep = CheckReport(
        f"preservation[{sys.name}]",
        "representations preserve certified lifts as vertical isomorphisms",
    )
    T = sys.T
    for c in range(T.n_morphisms):
        if T.is_identity(c):
            continue
        _pulled_reps(sys, c, rep, "pullback", "rep({R}) is not pulled rep({Q}) along {c}")
        _pulled_reps(sys.op(), c, rep, "pushforward", "negative rep of {R} is not pulled along {c}")
    return rep
