"""Tables filled on first read against dense eager references.

Representations, pulled and pushed presheaves and slice actions are
built on their support and fill an action row or a morphism image only
when it is read; a cut, one column of the pairing, is a representation
pulled along a slice action.  Here each is compared, table for table, with a
reference that computes every entry up front by the definition, and
corrupted fills are shown to raise on read with the messages an eager
check gives.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refcat.represent as represent_mod
from refcat.fincat import StructuralError, Table, Triples
from refcat.fixtures import build_linctx, default_linear_spec, random_refsys
from refcat.psh import Presheaf, pull_psh, push_psh_full, validate_presheaf
from refcat.represent import (
    coslice_action,
    coslice_of,
    neg_rep,
    pos_rep,
    slice_action,
    slice_of,
)
from tests.conftest import on_support
from tests.test_duality import cut, dense_cut

# ---------------------------------------------------------------------------
# Dense references: every entry computed up front from the definitions.


def dense_rep(sys, Q):
    """rep(Q) is the cut at the point (Q, id): the dense reference cut."""
    B = sys.shape(Q)
    return dense_cut(sys, B, coslice_of(sys, B).obj_index[(Q, sys.T.identity[B])])[0]


def dense_slice_action(sys, e):
    """Object and morphism maps of postcomposition with e; a morphism's
    image is found by scanning the hom-set of the image objects for the
    same derivation, not through the slice's index."""
    T = sys.T
    S1, S2 = slice_of(sys, T.dom(e)), slice_of(sys, T.cod(e))
    omap = tuple(S2.obj_tags.index((P, T.compose(c, e))) for (P, c) in S1.obj_tags)
    mmap = tuple(
        next(m for m in S2.cat.hom(omap[s], omap[u]) if S2.mor_tags[m][0] == alpha)
        for (alpha, s, u) in S1.mor_tags
    )
    return omap, mmap


def dense_pull(omap, mmap, psi):
    return (
        tuple(tuple(psi.elements[b]) for b in omap),
        tuple(tuple(psi.action[m]) for m in mmap),
        tuple(tuple(psi.payloads[b]) for b in omap),
    )


def dense_push(F, phi):
    """The coend by saturating the zig-zag relation over every source
    morphism, with every target object and morphism listed."""
    A, B = F.source, F.target
    parent = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    nodes_at = {b: [] for b in range(B.n_objects)}
    for a in range(A.n_objects):
        for h in B.mor_in(F.obj(a)):
            for x in range(phi.size(a)):
                parent[(a, h, x)] = (a, h, x)
                nodes_at[B.dom(h)].append((a, h, x))
    for u in range(A.n_morphisms):
        a, a2 = A.dom(u), A.cod(u)
        for h in B.mor_in(F.obj(a)):
            for x2 in range(phi.size(a2)):
                r1 = find((a2, B.compose(h, F.mor(u)), x2))
                r2 = find((a, h, phi.action[u][x2]))
                lo, hi = min(r1, r2), max(r1, r2)
                parent[hi] = lo
    reps = [sorted({find(n) for n in nodes_at[b]}) for b in range(B.n_objects)]
    cls = {n: reps[b].index(find(n)) for b in range(B.n_objects) for n in nodes_at[b]}
    elements = tuple(
        tuple(f"{B.mor_names[h]}.{phi.elements[a][x]}" for (a, h, x) in reps[b])
        for b in range(B.n_objects)
    )
    action = tuple(
        tuple(cls[(a, B.compose(k, h), x)] for (a, h, x) in reps[B.cod(k)])
        for k in range(B.n_morphisms)
    )
    unit = tuple(
        tuple(cls[(a, B.id_of(F.obj(a)), x)] for x in range(phi.size(a)))
        for a in range(A.n_objects)
    )
    return elements, action, tuple(tuple(r) for r in reps), unit


def tables(phi):
    return (
        tuple(tuple(e) for e in phi.elements),
        tuple(tuple(r) for r in phi.action),
        None if phi.payloads is None else tuple(tuple(p) for p in phi.payloads),
    )


# ---------------------------------------------------------------------------
# The comparisons


def assert_tables_match(sys, push_bound=None):
    """Every sparse table of one side of sys against its dense reference;
    pushes only into slices of base objects up to push_bound."""
    T = sys.T
    refs = [dense_rep(sys, Q) for Q in range(sys.D.n_objects)]
    for Q in range(sys.D.n_objects):
        rep, ref = pos_rep(sys, Q), refs[Q]
        assert rep.name == f"rep({sys.D.objects[Q]})" and rep.base is ref.base
        assert tables(rep) == tables(ref)
        B = sys.shape(Q)
        assert tables(cut(sys, B, (Q, T.identity[B]))) == tables(ref)
    for e in range(T.n_morphisms):
        F = slice_action(sys, e)
        omap, mmap = dense_slice_action(sys, e)
        assert tuple(F.object_map) == omap and tuple(F.morphism_map) == mmap
        assert_points_stay_in_their_block(F)
        for Q in sys.fiber(T.cod(e)):
            pulled = pull_psh(F, pos_rep(sys, Q))
            assert tables(pulled) == dense_pull(omap, mmap, refs[Q])
        if push_bound is not None and T.cod(e) > push_bound:
            continue
        for P in sys.fiber(T.dom(e)):
            pr = push_psh_full(F, pos_rep(sys, P))
            elements, action, reps, unit = dense_push(F, refs[P])
            assert tables(pr.presheaf)[:2] == (elements, action)
            # The library indexes reps by the pushed support, the unit by P's.
            assert pr.reps == on_support(reps, pr.presheaf.support())
            assert pr.unit == on_support(unit, pr.source.support())


def assert_points_stay_in_their_block(F):
    """A slice action's object map, read point by point, agrees with its
    iteration, sends each point (P, c) into P's block of the target slice,
    and has no entry past the last point."""
    S1, S2 = F.slices
    n = len(S1.obj_tags)
    images = [F.object_map[j] for j in range(n)]
    assert len(F.object_map) == n and images == list(F.object_map)
    for (P, _c), image in zip(S1.obj_tags, images):
        assert S2.offsets[P] <= image and S2.obj_tags[image][0] == P
    with pytest.raises(IndexError):
        F.object_map[n]


def assert_both_sides_match(sys, push_bound=None):
    assert_tables_match(sys, push_bound)
    assert_tables_match(sys.op(), push_bound)
    # The mirror images are the same constructions in sys.op().
    for P in range(sys.D.n_objects):
        assert tables(neg_rep(sys, P)) == tables(dense_rep(sys.op(), P))
    for e in range(sys.T.n_morphisms):
        assert tuple(coslice_action(sys, e).morphism_map) == dense_slice_action(sys.op(), e)[1]


def test_sparse_tables_match_the_dense_reference(hoare, collapse, ident, galois):
    for sys in (
        hoare,
        collapse.mrs.sys,
        ident.mrs.sys,
        galois.left.source,
        galois.left.target,
        random_refsys(3),
    ):
        assert_both_sides_match(sys)


def test_sparse_tables_match_the_dense_reference_on_linctx(linctx):
    # pushes into the slice of length-3 contexts are left to the golden run
    assert_both_sides_match(linctx, push_bound=2)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sparse_tables_match_the_dense_reference_on_random_systems(seed):
    assert_both_sides_match(random_refsys(seed))


def test_cuts_match_the_dense_reference_at_every_coslice_point(hoare, collapse, ident, galois):
    # The dualizers read the cut at (d,R) as rep(R) pulled along the slice
    # action of d, on both sides.
    shipped = (hoare, collapse.mrs.sys, ident.mrs.sys, galois.left.source, galois.left.target)
    for sys in (side for s in shipped for side in (s, s.op())):
        for B in range(sys.T.n_objects):
            for j, point in enumerate(coslice_of(sys, B).obj_tags):
                assert tables(cut(sys, B, point)) == tables(dense_cut(sys, B, j)[0])


# ---------------------------------------------------------------------------
# What is filled, and corrupted fills


def test_cold_rep_computes_rows_only_into_its_support(monkeypatch):
    sys = build_linctx(default_linear_spec(), 3)
    S = slice_of(sys, 3)
    orig = represent_mod._derivation_row
    rows = []

    def counted(S_, phi, m):
        rows.append(m)
        return orig(S_, phi, m)

    monkeypatch.setattr(represent_mod, "_derivation_row", counted)
    for Q in sys.fiber(3):
        rows.clear()
        phi = pos_rep(sys, Q)
        assert validate_presheaf(phi).ok  # reads every row
        into = [m for m, (_a, _s, u) in enumerate(S.mor_tags) if phi.elements[u]]
        assert sorted(rows) == into
        assert len(into) < S.cat.n_morphisms == 2674


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda row: row + (0,), "has wrong arity"),
        (lambda row: tuple(v + 99 for v in row), "hits a bad index"),
    ],
)
def test_corrupted_rep_rows_raise_on_read(monkeypatch, corrupt, message):
    sys = build_linctx(default_linear_spec(), 3)
    orig = represent_mod._derivation_row
    monkeypatch.setattr(
        represent_mod, "_derivation_row", lambda S, phi, m: corrupt(orig(S, phi, m))
    )
    phi = pos_rep(sys, sys.fiber(3)[0])  # building reads no row
    with pytest.raises(StructuralError, match=message):
        validate_presheaf(phi)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda row: row + (0,), "has wrong arity"),
        (lambda row: tuple(v + 99 for v in row), "hits a bad index"),
    ],
)
def test_corrupted_rows_raise_on_read_from_any_source(corrupt, message, hoare):
    phi = pos_rep(hoare, 0)
    tabled = Presheaf("t", phi.base, phi.elements, tuple(map(corrupt, phi.action)))
    sourced = Presheaf("s", phi.base, phi.elements, lambda m: corrupt(phi.action[m]))
    for psi in (tabled, sourced):
        m = next(m for m in range(phi.base.n_morphisms) if phi.action[m])
        with pytest.raises(StructuralError, match=f"presheaf {psi.name}: action at .* {message}"):
            psi.action[m]


def corrupted_slice_action(shift):
    """A slice action of linctx into the slice of 3 whose target slice
    has every entry of its morphism index moved by shift(entry, n)."""
    sys = build_linctx(default_linear_spec(), 3)
    e = next(e for e in range(sys.T.n_morphisms) if sys.T.cod(e) == 3 and sys.T.dom(e) == 2)
    S2 = slice_of(sys, 3)
    n = S2.cat.n_morphisms
    for i in range(len(S2.into)):
        S2.into[i] = shift(S2.into[i], n)
    return slice_action(sys, e)  # the object map is read, no image is


SLICE_LOOKUP_ERROR = r"slice\(linctx(\^op)?,\d+\): no morphism .*#\d+->\d+"


def test_corrupted_slice_images_raise_on_read():
    F = corrupted_slice_action(lambda k, n: k + n)
    with pytest.raises(StructuralError, match=SLICE_LOOKUP_ERROR):
        F.mor(0)


def test_a_slice_index_entry_naming_another_morphism_raises_on_read():
    # An entry moved to another morphism of the slice is in range; the tag
    # check of the lookup still refuses it.
    F = corrupted_slice_action(lambda k, n: (k + 1) % n)
    with pytest.raises(StructuralError, match=SLICE_LOOKUP_ERROR):
        F.mor(0)


def test_a_tag_that_no_slice_morphism_carries_raises(linctx):
    # A wrong source point, or a derivation into another refinement whose
    # place in D.mor_in runs past the end of the index, is refused.
    S, D = coslice_of(linctx, 3), linctx.op().D
    alpha, s, u = S.mor_tags[0]
    with pytest.raises(StructuralError, match=SLICE_LOOKUP_ERROR):
        S.mor_of(alpha, s + 1, u)
    last = S.cat.n_objects - 1
    far = max(range(D.n_morphisms), key=D._in_pos().__getitem__)
    assert S.in_off[last] + D._in_pos()[far] >= len(S.into)
    with pytest.raises(StructuralError, match=SLICE_LOOKUP_ERROR):
        S.mor_of(far, 0, last)


def test_triples_behave_like_a_tuple_of_triples():
    t = Triples(array("i", [7, 8]), (0, 1), (1, 1))
    assert len(t) == 2 and t[1] == (8, 1, 1) and t[-1] == (8, 1, 1)
    assert list(t) == [(7, 0, 1), (8, 1, 1)]
    assert t == ((7, 0, 1), (8, 1, 1)) == t and t == [(7, 0, 1), (8, 1, 1)]
    assert t != ((7, 0, 1),) and t != ((7, 0, 1), (8, 1, 0))
    with pytest.raises(IndexError):
        t[2]


def test_tables_behave_like_tuples():
    filled = []
    t = Table(4, lambda i: filled.append(i) or (i, i))
    assert len(t) == 4 and filled == []
    assert t[2] == (2, 2) and t[2] == (2, 2) and filled == [2]
    assert list(t) == [(0, 0), (1, 1), (2, 2), (3, 3)] and filled == [2, 0, 1, 3]
    assert t == ((0, 0), (1, 1), (2, 2), (3, 3)) == t
    assert t != ((0, 0),) and t != Table(4, lambda i: (i,))
