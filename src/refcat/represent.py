"""Slices, coslices, and the two presheaf presentations of a refinement system.

A refinement system t : D -> T has, for every base object B, a category of
refinements sitting over B (the relative slice) and dually one of
refinements sitting under it (the relative coslice, built here as a slice
of the opposite system).  Every refinement Q then presents itself as the
presheaf of derivations into Q over the slice, and every P as the presheaf
of derivations out of P over the coslice.  This module builds those
presentations and the comma category of the system; the checks that the
presentations are fully faithful, preserve certified lifts and factor
through pointed categories and through the comma category are in
`repchecks`.  Monoidal structure on the slices is in `day`.

Each mirror image comes from a one-sided construction: the coslice, the
negative representation and everything about pushforwards are the
slice, the positive representation and pullbacks of `sys.op()`.

Every construction is built once per system through
`RefinementSystem.memo`, which is load-bearing: presheaf pullback
requires base categories to be identical objects, not merely isomorphic
copies.  `pshcore` is bound here without being run (`refcat` registers
its modules lazily) and runs when a representation is first built, so
a slice query compiles none of it.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from typing import Iterable, Iterator, Sequence

from . import pshcore
from .fincat import (
    Arrows,
    FinCategory,
    FunctorData,
    SIZE_GUARD,
    SizeGuardExceeded,
    StructuralError,
    Table,
    Triples,
)
from .refsys import RefinementSystem


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


def pos_rep(sys: RefinementSystem, Q: int) -> pshcore.Presheaf:
    """The presheaf of derivations into Q over the slice of t(Q).

    Elements at (P, c) are the derivations of (P, c, Q), carried as
    payloads; morphisms act by precomposition.  Built once per system,
    on its support, the slice points of the derivation index into Q: the
    element and payload tables are read from that index, and an action
    row is computed from the presheaf's own positions, each when it is
    first read, so the presheaf is a reference cycle, kept in the
    system's memo for the system's life."""

    def build() -> pshcore.Presheaf:
        D = sys.D
        S = slice_of(sys, sys.shape(Q))
        at = {S.obj_index[point]: ders for point, ders in sys.derivation_index[Q].items()}
        n, names = S.cat.n_objects, D.mor_names
        rep = pshcore.Presheaf(
            f"rep({D.objects[Q]})",
            S.cat,
            Table(n, lambda i: tuple(names[d] for d in at.get(i, ()))),
            lambda m: _derivation_row(S, rep, m),
            Table(n, lambda i: at.get(i, ())),
            tuple(sorted(at)),
        )
        return rep

    return sys.memo(("pos rep", Q), build)


def _derivation_row(S: SliceCategory, phi: pshcore.Presheaf, m: int) -> tuple[int, ...]:
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


def neg_rep(sys: RefinementSystem, P: int) -> pshcore.Presheaf:
    """The presheaf of derivations out of P over the coslice of t(P):
    elements at (d, R) are derivations of (P, d, R), acting by
    postcomposition.  Computed as the positive representation of the
    opposite system, sharing all indices."""
    return pos_rep(sys.op(), P)


def rep_point(sys: RefinementSystem, X: int) -> tuple[int, int]:
    """The slice point (X, id) and the position of id_X among rep(X)'s
    derivations there, which generates rep(X): the slice morphism
    (alpha, (P,c), (X,id)) sends it to alpha.  neg(X)'s is on `sys.op()`."""
    here = (X, sys.T.identity[sys.shape(X)])
    point = slice_of(sys, sys.shape(X)).obj_index[here]
    return (point, sys.derivation_index[X][here].index(sys.D.identity[X]))


def pos_rep_derivation(sys: RefinementSystem, sigma: int) -> pshcore.PshDerivation:
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
    return pshcore.PshDerivation(f"post[{D.mor_names[sigma]}]", phi, psi, F, tuple(comps))


# ---------------------------------------------------------------------------
# The comma category as a refinement system


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
    The category is a `repchecks.CommaCategory`: a row of composites is
    filled, from one row of D and one of T, only when something composes
    out of it, and its laws are D's and T's."""
    from .repchecks import CommaCategory

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


