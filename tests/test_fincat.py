"""Category/functor plumbing: law validation, duals, products, and the
functor categories the residual reference lists by naive filters."""

import functools
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from refcat import psh
from refcat.day import _strict_left_residual, m_functor
from refcat.fincat import (
    FinCategory,
    FunctorData,
    NatTransData,
    StructuralError,
    ValidationReport,
    compose_functors,
    identity_functor,
    opposite,
    ProductCategory,
    product,
    tagged_category,
    validate_category,
    validate_functor,
    validate_nat_trans,
)
from refcat.fixtures import collapse_lattice_fixture, identity_lattice_fixture, random_refsys
from refcat.psh import (
    Presheaf,
    PshDerivation,
    curried_residual,
    pull_psh,
    representable,
    validate_psh_derivation,
)
from refcat.represent import (
    CommaCategory,
    comma_system,
    pos_rep,
    slice_action,
)


def walking_arrow():
    return FinCategory(
        "2",
        ["a", "b"],
        [("id_a", 0, 0), ("id_b", 1, 1), ("f", 0, 1)],
        [0, 1],
        {(0, 0): 0, (1, 1): 1, (0, 2): 2, (2, 1): 2},
    )

# ---------------------------------------------------------------------------
# Helpers with no caller in the library: discrete categories, functor
# equality, and currying through a listed functor category.


def terminal_category():
    return FinCategory("1", ("*",), (("id", 0, 0),), (0,), {(0, 0): 0})


def discrete_category(names):
    morphisms = [(f"id_{n}", i, i) for i, n in enumerate(names)]
    compose = {(i, i): i for i in range(len(names))}
    return FinCategory(f"disc({','.join(names)})", names, morphisms, tuple(range(len(names))), compose)


def functors_equal(F, G):
    return F.table() == G.table()


def curry_functor(F):
    """Curry F: A x B -> C into A -> [B, C], landing in the listed functor
    category, which is returned with it."""
    prod = F.source
    if not isinstance(prod, ProductCategory):
        raise StructuralError(f"curry_functor: source of {F.name} is not a product")
    A, B, C = prod.left, prod.right, F.target
    fc = listed_functor_category(B, C)
    obj_map = []
    for a in range(A.n_objects):
        slice_obj = tuple(F.obj(prod.pair_obj(a, b)) for b in range(B.n_objects))
        slice_mor = tuple(F.mor(prod.pair_mor(A.id_of(a), g)) for g in range(B.n_morphisms))
        obj_map.append(fc.functor_index[(slice_obj, slice_mor)])
    mor_map = []
    for f in range(A.n_morphisms):
        comps = tuple(F.mor(prod.pair_mor(f, B.id_of(b))) for b in range(B.n_objects))
        mor_map.append(fc.nat_index[(obj_map[A.dom(f)], obj_map[A.cod(f)], comps)])
    return FunctorData(f"curry({F.name})", A, fc.cat, tuple(obj_map), tuple(mor_map)), fc


def uncurry_functor(G, fc, A, B):
    """Inverse of curry_functor."""
    C = fc.functors[0].target if fc.functors else None
    prod = product(A, B)
    obj_map = []
    for x in range(prod.n_objects):
        a, b = prod.split_obj(x)
        obj_map.append(fc.functors[G.obj(a)].obj(b))
    mor_map = []
    for m in range(prod.n_morphisms):
        f, g = prod.split_mor(m)
        _, _, comps = fc.nat_tags[G.mor(f)]
        # Naturality makes the two evaluation orders agree; use G(f) then G(a2)(g).
        mor_map.append(C.compose(comps[B.dom(g)], fc.functors[G.obj(A.cod(f))].mor(g)))
    return FunctorData(f"uncurry({G.name})", prod, C, tuple(obj_map), tuple(mor_map))



def chain_category(n):
    """Total order on n objects; hom(i,j) is a point iff i <= j."""
    objs = [f"c{i}" for i in range(n)]
    mors = []
    index = {}
    for i in range(n):
        for j in range(i, n):
            index[(i, j)] = len(mors)
            mors.append((f"c{i}<=c{j}", i, j))
    comp = {}
    for (i, j), f in index.items():
        for (j2, k), g in index.items():
            if j2 == j:
                comp[(f, g)] = index[(i, k)]
    ident = [index[(i, i)] for i in range(n)]
    return FinCategory(f"chain{n}", objs, mors, ident, comp)


def test_walking_arrow_validates():
    assert validate_category(walking_arrow()).ok


def test_terminal_and_discrete():
    t = terminal_category()
    assert t.n_objects == 1 and t.n_morphisms == 1
    assert validate_category(t).ok
    d = discrete_category(["x", "y", "z"])
    assert d.n_morphisms == 3
    assert all(d.is_identity(m) for m in range(3))
    assert validate_category(d).ok


def test_nonassociative_table_rejected():
    # One object, morphisms e, g, h with g;g = h, g;h = g, h;g = g, h;h = h.
    # Then (g;g);g = h;g = g but g;(g;g) = g;h = g ... so force a clash at
    # (h;h);g vs h;(h;g): set h;h = g instead.
    comp = {
        (0, 0): 0, (0, 1): 1, (0, 2): 2,
        (1, 0): 1, (2, 0): 2,
        (1, 1): 2, (1, 2): 1, (2, 1): 1, (2, 2): 1,
    }
    cat = FinCategory("skew", ["x"], [("e", 0, 0), ("g", 0, 0), ("h", 0, 0)], [0], comp)
    rep = validate_category(cat)
    assert not rep.ok
    assert any(v.law == "associativity" for v in rep.violations)


def test_identity_law_violation_detected():
    # id;g deliberately wrong
    comp = {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1}
    cat = FinCategory("badid", ["x"], [("e", 0, 0), ("g", 0, 0)], [0], comp)
    rep = validate_category(cat)
    assert not rep.ok
    assert any("identity" in v.law for v in rep.violations)


def test_missing_composite_raises():
    bad = FinCategory("gap", ["a"], [("id", 0, 0), ("g", 0, 0)], [0],
                      {(0, 0): 0, (0, 1): 1, (1, 0): 1})
    with pytest.raises(StructuralError, match="missing composite g;g"):
        bad.compose(1, 1)
    # validation names the gap and stops before the law sweeps
    rep = validate_category(bad)
    assert [str(v) for v in rep.violations] == [
        "composition-totality: gap: missing composite g;g"
    ]


def rotations(n, carried=None):
    """Z/n as a one-object category: r_k tagged (0, 0, k), r_j;r_k = r_(j+k)
    mod n.  `carried` keeps only some of the tags."""
    ks = range(n) if carried is None else carried
    return tagged_category(
        f"Z{n}",
        ["*"],
        [(0, 0, k) for k in ks],
        [f"r{k}" for k in ks],
        [(0, 0, 0)],
        lambda f, g: (0, 0, (f[2] + g[2]) % n),
    )


def test_tagged_category_composes_by_tag():
    Z3 = rotations(3)
    assert validate_category(Z3).ok
    assert Z3.mor_tags == ((0, 0, 0), (0, 0, 1), (0, 0, 2))
    assert Z3.mor_index == {(0, 0, k): k for k in range(3)}
    assert [Z3.compose(1, g) for g in range(3)] == [1, 2, 0]
    # the order on three elements, tagged by pairs i <= j, is chain3
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    order = tagged_category(
        "chain3",
        ["c0", "c1", "c2"],
        pairs,
        [f"c{i}<=c{j}" for i, j in pairs],
        [(i, i) for i in range(3)],
        lambda f, g: (f[0], g[1]),
    )
    chain = chain_category(3)
    assert validate_category(order).ok
    assert (order.mor_names, order.mor_dom, order.mor_cod) == (chain.mor_names, chain.mor_dom, chain.mor_cod)
    assert [order._row(f) for f in range(6)] == [chain._row(f) for f in range(6)]


def test_tagged_category_rejects_repeated_tags_and_uncarried_identities():
    with pytest.raises(StructuralError, match=r"^Z: 1 tag\(s\) repeated$"):
        tagged_category("Z", ["*"], [(0, 0, 0)] * 2, ["e", "e"], [(0, 0, 0)], lambda f, g: f)
    with pytest.raises(StructuralError, match="identity of object 0 out of range"):
        tagged_category("Z", ["*"], [(0, 0, 1)], ["r1"], [(0, 0, 0)], lambda f, g: f)


def test_a_composite_outside_the_tags_is_a_totality_violation():
    # r1;r1 = r2, which the truncated Z/3 does not carry
    cut = rotations(3, carried=(0, 1))
    rep = validate_category(cut)
    assert [str(v) for v in rep.violations] == [
        "composition-totality: Z3: missing composite r1;r1"
    ]
    with pytest.raises(StructuralError, match="missing composite r1;r1"):
        cut.compose(1, 1)


def test_opposite_is_involutive():
    c = chain_category(3)
    op = opposite(c)
    assert validate_category(op).ok
    for m in range(c.n_morphisms):
        assert op.dom(m) == c.cod(m) and op.cod(m) == c.dom(m)
    opop = opposite(op)
    assert opop.mor_dom == c.mor_dom and opop.mor_cod == c.mor_cod
    # composition agrees with the original after swapping the pair
    for f, g in c.composable_pairs():
        assert op.compose(g, f) == c.compose(f, g)


def test_hom_sets_and_in_positions_read_on_demand_match_a_scan(hoare, linctx):
    # hom(a, b) is read from mor_out(a) when first asked for and kept;
    # _in_pos()[f] is f's place in mor_in(cod f), an opposite's read
    # from its original's out-positions.
    for cat in (hoare.D, hoare.T, linctx.D, chain_category(3), walking_arrow()):
        for c in (cat, opposite(cat)):
            for a in range(c.n_objects):
                for b in range(c.n_objects):
                    scan = tuple(f for f in range(c.n_morphisms) if (c.dom(f), c.cod(f)) == (a, b))
                    assert c.hom(a, b) == scan and (a, b) in c._hom
            assert c._in_pos() == tuple(c.mor_in(c.cod(f)).index(f) for f in range(c.n_morphisms))


def test_product_category_counts_and_laws():
    a, b = walking_arrow(), chain_category(3)
    p = product(a, b)
    assert p.n_objects == a.n_objects * b.n_objects
    assert p.n_morphisms == a.n_morphisms * b.n_morphisms
    assert validate_category(p).ok


def test_functor_category_over_terminal_recovers_target():
    c = chain_category(3)
    fc = listed_functor_category(terminal_category(), c)
    assert len(fc.functors) == c.n_objects
    assert len(fc.nat_tags) == c.n_morphisms


def test_functors_out_of_walking_arrow_are_morphisms():
    c = chain_category(4)
    fc = listed_functor_category(walking_arrow(), c)
    assert len(fc.functors) == c.n_morphisms


def test_validate_functor_catches_bad_morphism_image():
    a = walking_arrow()
    F = FunctorData("untwist", a, a, (0, 1), (0, 1, 0))  # sends f to id_a
    rep = validate_functor(F)
    assert not rep.ok


def test_compose_functors_and_identity():
    a = walking_arrow()
    c = chain_category(3)
    F = FunctorData("pick01", a, c, (0, 1), (c.id_of(0), c.id_of(1),
                                             c.hom(0, 1)[0]))
    assert validate_functor(F).ok
    assert functors_equal(compose_functors(identity_functor(a), F), F)
    assert functors_equal(compose_functors(F, identity_functor(c)), F)
    with pytest.raises(StructuralError):
        compose_functors(F, F)  # endpoints do not line up


def test_compose_functors_needs_the_very_category_between():
    # Two chains with the same name and shape are still two categories: a
    # functor into one does not compose with a functor out of the other.
    c, copy = chain_category(3), chain_category(3)
    assert c.name == copy.name
    with pytest.raises(StructuralError, match="do not meet"):
        compose_functors(identity_functor(c), identity_functor(copy))


def test_nat_trans_validation():
    a = walking_arrow()
    c = chain_category(3)
    F = FunctorData("low", a, c, (0, 1), (c.id_of(0), c.id_of(1), c.hom(0, 1)[0]))
    G = FunctorData("high", a, c, (1, 2), (c.id_of(1), c.id_of(2), c.hom(1, 2)[0]))
    theta = NatTransData("up", F, G, (c.hom(0, 1)[0], c.hom(1, 2)[0]))
    assert validate_nat_trans(theta).ok
    bad = NatTransData("skew", F, G, (c.hom(0, 2)[0], c.hom(1, 2)[0]))
    assert not validate_nat_trans(bad).ok


def test_curry_uncurry_roundtrip():
    a = walking_arrow()
    p = product(terminal_category(), a)
    # second projection
    F = FunctorData("snd", p, a,
                    tuple(p.split_obj(o)[1] for o in range(p.n_objects)),
                    tuple(p.split_mor(m)[1] for m in range(p.n_morphisms)))
    assert validate_functor(F).ok
    G, fc = curry_functor(F)
    back = uncurry_functor(G, fc, terminal_category(), a)
    assert functors_equal(back, F)


@given(st.integers(min_value=1, max_value=6))
def test_chain_categories_validate_with_expected_size(n):
    c = chain_category(n)
    assert validate_category(c).ok
    assert c.n_morphisms == n * (n + 1) // 2


def reference_validate(cat):
    """The naive law check that validate_category must agree with: every
    composite read through compose(), associativity one triple at a time."""
    report = ValidationReport(f"category {cat.name}")
    nm = cat.mor_names
    for a in range(cat.n_objects):
        e = cat.id_of(a)
        if cat.dom(e) != a or cat.cod(e) != a:
            report.add("identity-endpoints", f"id of {cat.objects[a]} is not an endomorphism")
    for f, g in cat.composable_pairs():
        try:
            h = cat.compose(f, g)
        except StructuralError as exc:
            report.add("composition-totality", str(exc))
            continue
        if cat.dom(h) != cat.dom(f) or cat.cod(h) != cat.cod(g):
            report.add("composition-endpoints", f"{nm[f]};{nm[g]} = {nm[h]} has wrong endpoints")
    if report.violations:
        return report
    for f in range(cat.n_morphisms):
        left = cat.compose(cat.id_of(cat.dom(f)), f)
        right = cat.compose(f, cat.id_of(cat.cod(f)))
        if left != f:
            report.add("left-identity", f"id;{nm[f]} = {nm[left]}")
        if right != f:
            report.add("right-identity", f"{nm[f]};id = {nm[right]}")
    compose = cat.compose
    for b in range(cat.n_objects):
        for f in cat.mor_in(b):
            for g in cat.mor_out(b):
                fg = compose(f, g)
                for h in cat.mor_out(cat.cod(g)):
                    if compose(fg, h) != compose(f, compose(g, h)):
                        report.add(
                            "associativity",
                            f"({nm[f]};{nm[g]});{nm[h]} != {nm[f]};({nm[g]};{nm[h]})",
                        )
    return report


def assert_matches_reference(cat):
    got = [(v.law, v.detail) for v in validate_category(cat).violations]
    want = [(v.law, v.detail) for v in reference_validate(cat).violations]
    assert got == want


def skew_table():
    comp = {
        (0, 0): 0, (0, 1): 1, (0, 2): 2,
        (1, 0): 1, (2, 0): 2,
        (1, 1): 2, (1, 2): 1, (2, 1): 1, (2, 2): 1,
    }
    return FinCategory("skew", ["x"], [("e", 0, 0), ("g", 0, 0), ("h", 0, 0)], [0], comp)


def test_validation_matches_the_reference_on_shipped_fixtures(hoare, linctx, collapse, ident, galois):
    systems = [hoare, linctx, collapse.mrs.sys, ident.mrs.sys, random_refsys(5)]
    systems += [galois.left.source, galois.left.target]
    for s in systems:
        for cat in (s.D, s.T):
            assert_matches_reference(cat)


def test_validation_matches_the_reference_on_derived_categories(hoare):
    comma = comma_system(hoare).sys.D
    for cat in (comma, opposite(hoare.D), opposite(chain_category(4)),
                product(walking_arrow(), chain_category(3))):
        assert_matches_reference(cat)


def test_validation_matches_the_reference_on_broken_tables():
    badid = FinCategory("badid", ["x"], [("e", 0, 0), ("g", 0, 0)], [0],
                        {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1})
    for cat in (skew_table(), badid):
        assert not validate_category(cat).ok
        assert_matches_reference(cat)


def table_of(cat):
    return {(f, g): cat.compose(f, g) for f, g in cat.composable_pairs()}


def rebuilt(cat, name, comp):
    morphisms = list(zip(cat.mor_names, cat.mor_dom, cat.mor_cod))
    return FinCategory(name, cat.objects, morphisms, cat.identity, comp)


@functools.cache
def corruptible_bases():
    """Small tables for the corrupted-entry property.  The last three are
    derived categories; in the product and in the comma of random seed 3
    some non-identities are not generators."""
    return (
        walking_arrow(),
        chain_category(3),
        chain_category(4),
        skew_table(),
        comma_system(identity_lattice_fixture().mrs.sys).sys.D,
        product(walking_arrow(), chain_category(3)),
        comma_system(random_refsys(3)).sys.D,
    )


def test_some_corruptible_bases_have_composite_non_identities():
    for cat in corruptible_bases()[-2:]:
        assert validate_category(cat).ok
        assert len(cat._lawful) < cat.n_morphisms - cat.n_objects


@given(st.data())
def test_one_corrupted_entry_matches_the_reference(data):
    base = data.draw(st.sampled_from(corruptible_bases()))
    comp = table_of(base)
    key = data.draw(st.sampled_from(sorted(comp)))
    value = data.draw(st.one_of(st.none(), st.integers(0, base.n_morphisms - 1)))
    if value is None:
        del comp[key]
    else:
        comp[key] = value
    assert_matches_reference(rebuilt(base, f"{base.name}*", comp))


def test_compose_agrees_with_its_source(hoare):
    comp = table_of(chain_category(4))
    c = rebuilt(chain_category(4), "chain4", comp)
    assert sorted(c.composable_pairs()) == sorted(comp)
    assert all(c.compose(f, g) == h for (f, g), h in comp.items())
    op = opposite(c)
    assert all(op.compose(g, f) == h for (f, g), h in comp.items())
    a, b = walking_arrow(), chain_category(3)
    p = product(a, b)
    for m1, m2 in p.composable_pairs():
        (f1, g1), (f2, g2) = p.split_mor(m1), p.split_mor(m2)
        assert p.compose(m1, m2) == p.pair_mor(a.compose(f1, f2), b.compose(g1, g2))
    cs = comma_system(hoare)
    D, T = hoare.D, hoare.T
    for f, g in cs.sys.D.composable_pairs():
        a1, e1, s, _ = cs.mor_tags[f]
        a2, e2, _, u = cs.mor_tags[g]
        want = cs.mor_index[(D.compose(a1, a2), T.compose(e1, e2), s, u)]
        assert cs.sys.D.compose(f, g) == want


def test_compose_rejects_bad_pairs():
    c = chain_category(3)
    f = c.hom(1, 2)[0]
    with pytest.raises(StructuralError, match="is not composable"):
        c.compose(f, f)
    comp = table_of(c)
    del comp[(c.id_of(0), c.hom(0, 2)[0])]
    gap = rebuilt(c, "gap3", comp)
    assert gap.compose(c.hom(0, 1)[0], c.hom(1, 2)[0]) == c.hom(0, 2)[0]
    with pytest.raises(StructuralError, match="missing composite c0<=c0;c0<=c2"):
        gap.compose(c.id_of(0), c.hom(0, 2)[0])


def test_comma_validation_fills_each_row_once_from_base_rows(hoare, monkeypatch):
    # A comma row is filled in one pass from D's row of alpha and T's row
    # of e: validating either side's comma category fills each of its 768
    # rows exactly once, the rows cover every composable pair, and D and T
    # are never asked for a composite pair by pair.
    fills = {}
    real_row = CommaCategory._row

    def counted_row(self, f):
        if self._rows[f] is None:
            fills[id(self), f] = fills.get((id(self), f), 0) + 1
        return real_row(self, f)

    monkeypatch.setattr(CommaCategory, "_row", counted_row)
    pairs = []
    for s in (hoare, hoare.op()):
        cat = comma_system(s).sys.D
        composed = []
        for base in (s.D, s.T):
            monkeypatch.setattr(base, "compose", lambda f, g: composed.append((f, g)))
        assert validate_category(cat).ok
        assert cat.n_morphisms == 768
        assert [fills.get((id(cat), f)) for f in range(768)] == [1] * 768
        pairs.append(sum(1 for _ in cat.composable_pairs()))
        assert sum(map(len, cat._rows)) == pairs[-1]
        assert composed == []
    assert pairs == [32640, 32512]


def reference_validate_functor(F):
    """The naive functor check that validate_functor must agree with:
    endpoints and identities, then every composable pair read through
    compose()."""
    report = ValidationReport(f"functor {F.name}")
    S, T = F.source, F.target
    for f in range(S.n_morphisms):
        g = F.mor(f)
        if T.dom(g) != F.obj(S.dom(f)) or T.cod(g) != F.obj(S.cod(f)):
            report.add("endpoints", f"image of {S.mor_names[f]} has wrong endpoints")
    for a in range(S.n_objects):
        if F.mor(S.id_of(a)) != T.id_of(F.obj(a)):
            report.add("identities", f"image of id_{S.objects[a]} is not an identity")
    for f, g in S.composable_pairs():
        ff, gg = F.mor(f), F.mor(g)
        if T.cod(ff) != T.dom(gg):
            continue
        if F.mor(S.compose(f, g)) != T.compose(ff, gg):
            report.add("composition", f"image of {S.mor_names[f]};{S.mor_names[g]} breaks")
    return report


def assert_functor_matches_reference(F):
    got = [(v.law, v.detail) for v in validate_functor(F).violations]
    want = [(v.law, v.detail) for v in reference_validate_functor(F).violations]
    assert got == want


@pytest.fixture(scope="module")
def lawful_functors(hoare):
    """Functors between categories that validated ok, so validate_functor
    decides composites on the source's generators: the comma shape and
    embedding of hoare, its slice actions and a product projection."""
    cs = comma_system(hoare)
    assert cs.sys.validate().ok
    functors = [cs.sys.t, cs.embed.on_ref]
    for e in range(hoare.T.n_morphisms):
        F = slice_action(hoare, e)
        assert validate_category(F.source).ok and validate_category(F.target).ok
        functors.append(F)
    p = product(walking_arrow(), chain_category(3))
    assert validate_category(p).ok and validate_category(p.right).ok
    functors.append(
        FunctorData(
            "snd",
            p,
            p.right,
            tuple(p.split_obj(x)[1] for x in range(p.n_objects)),
            tuple(p.split_mor(m)[1] for m in range(p.n_morphisms)),
        )
    )
    for F in functors:
        assert F.source._lawful is not None and F.target._lawful is not None
    return functors


def test_functor_validation_matches_the_reference_on_lawful_functors(lawful_functors):
    for F in lawful_functors:
        assert validate_functor(F).ok
        assert_functor_matches_reference(F)


@settings(deadline=None)
@given(st.data())
def test_one_corrupted_image_matches_the_reference(lawful_functors, data):
    # The image of one non-generator is replaced, within its hom-set or by
    # any morphism: only the generator rows are read on the fast path, so
    # the corruption must be seen there or through a broken endpoint.
    F = data.draw(st.sampled_from(lawful_functors))
    S, T = F.source, F.target
    m = data.draw(st.sampled_from([f for f in range(S.n_morphisms) if f not in S._lawful]))
    hom = T.hom(F.obj(S.dom(m)), F.obj(S.cod(m)))
    value = data.draw(st.one_of(st.sampled_from(hom), st.integers(0, T.n_morphisms - 1)))
    images = list(F.morphism_map)
    images[m] = value
    bad = FunctorData(f"{F.name}*", S, T, F.object_map, tuple(images))
    assert validate_functor(bad).ok == (value == F.mor(m))
    assert_functor_matches_reference(bad)


# ---------------------------------------------------------------------------
# Functor categories by naive filters, and the residual over them.  No
# library code lists a functor category: `curried_residual` builds the
# residual only at the functors a currying reaches.  The reference here
# builds it the long way, over every functor and natural transformation,
# with every family found by filtering all component tables, and pulls it
# back along the currying.


def naive_functors(A, C):
    """Every (object map, morphism map) with each morphism sent into the
    right hom-set, kept when validate_functor accepts it, in table order."""
    out = []
    for obj_map in itertools.product(range(C.n_objects), repeat=A.n_objects):
        homs = [C.hom(obj_map[A.dom(f)], obj_map[A.cod(f)]) for f in range(A.n_morphisms)]
        for mor_map in itertools.product(*homs):
            if validate_functor(FunctorData("F?", A, C, obj_map, mor_map)).ok:
                out.append((obj_map, mor_map))
    return out


def naive_nat_tags(functors, A, C):
    """Every component tuple between every ordered pair of functors, kept
    when validate_nat_trans accepts it."""
    out = []
    for i, F in enumerate(functors):
        for j, G in enumerate(functors):
            homs = [C.hom(F.obj(a), G.obj(a)) for a in range(A.n_objects)]
            for comps in itertools.product(*homs):
                if validate_nat_trans(NatTransData("t?", F, G, comps)).ok:
                    out.append((i, j, comps))
    return out


def listed_functor_category(A, C):
    """[A, C] from the naive filters: objects are functors, morphisms are
    natural transformations (i, j, components), both in table order."""
    functors = [FunctorData(f"F{i}", A, C, o, m) for i, (o, m) in enumerate(naive_functors(A, C))]
    nat_tags = naive_nat_tags(functors, A, C)
    nat_index = {tag: k for k, tag in enumerate(nat_tags)}
    identity = [
        nat_index[(i, i, tuple(map(C.id_of, F.object_map)))] for i, F in enumerate(functors)
    ]

    def compose(m1, m2):
        (i, _, c1), (_, k, c2) = nat_tags[m1], nat_tags[m2]
        return nat_index[(i, k, tuple(map(C.compose, c1, c2)))]

    cat = FinCategory(
        f"[{A.name},{C.name}]",
        [F.name for F in functors],
        [(f"n{k}", i, j) for k, (i, j, _) in enumerate(nat_tags)],
        identity,
        compose,
    )
    return SimpleNamespace(
        cat=cat,
        functors=functors,
        nat_tags=nat_tags,
        functor_index={F.table(): i for i, F in enumerate(functors)},
        nat_index=nat_index,
    )


def naive_families(phi, omega, F):
    """Every component table phi(a) -> omega(F a), in table order, kept
    when validate_psh_derivation accepts it."""
    tables = [
        itertools.product(range(omega.size(F.obj(a))), repeat=phi.size(a))
        for a in range(phi.base.n_objects)
    ]
    return [
        comps
        for comps in itertools.product(*tables)
        if validate_psh_derivation(PshDerivation("t?", phi, omega, F, comps)).ok
    ]


def reference_residual(phi, omega, fc):
    """The residual over the listed fc = [A, C]: at a functor, the naive
    families phi => omega over it; a natural transformation moves a family
    by postcomposing each component with omega's action."""
    fams = [naive_families(phi, omega, F) for F in fc.functors]
    index = [{fam: k for k, fam in enumerate(at)} for at in fams]
    action = tuple(
        tuple(
            index[i][tuple(tuple(omega.apply(c, v) for v in comp) for c, comp in zip(comps, fam))]
            for fam in fams[j]
        )
        for (i, j, comps) in fc.nat_tags
    )
    names = tuple(tuple(f"t{i}.{k}" for k in range(len(at))) for i, at in enumerate(fams))
    return Presheaf("res?", fc.cat, names, action, tuple(map(tuple, fams)))


def curried_along(phi, omega, right, obj, mor):
    """`curried_residual` with omega read along the two-argument index
    maps (obj, mor) into its base."""
    return curried_residual(
        phi, right, lambda a, b: omega.size(obj(a, b)), lambda f, g: omega.action[mor(f, g)]
    )


def residual_mismatches(phi, omega, right, obj, mor):
    """Where `curried_residual` differs from the reference residual pulled
    back along the currying of the two-argument table (obj, mor): the
    families at every point of `right`, then the row of every morphism."""
    A = phi.base
    fc = listed_functor_category(A, omega.base)
    omap = tuple(
        fc.functor_index[
            (
                tuple(obj(a, b) for a in range(A.n_objects)),
                tuple(mor(f, right.id_of(b)) for f in range(A.n_morphisms)),
            )
        ]
        for b in range(right.n_objects)
    )
    mmap = tuple(
        fc.nat_index[
            (
                omap[right.dom(g)],
                omap[right.cod(g)],
                tuple(mor(A.id_of(a), g) for a in range(A.n_objects)),
            )
        ]
        for g in range(right.n_morphisms)
    )
    curry = FunctorData("curry", right, fc.cat, omap, mmap)
    want = pull_psh(curry, reference_residual(phi, omega, fc))
    got = curried_along(phi, omega, right, obj, mor)
    bad = [
        f"families at {right.objects[b]}"
        for b in range(right.n_objects)
        if got.payloads[b] != want.payloads[b]
    ]
    if bad:
        return bad
    return [
        f"row of {right.mor_names[g]}"
        for g in range(right.n_morphisms)
        if got.action[g] != want.action[g]
    ]


def cyclic_group(n):
    """Z/n as a one-object category: morphism k is k, composition is addition."""
    return FinCategory(
        f"BZ{n}", ["*"], [(str(k), 0, 0) for k in range(n)], [0], lambda f, g: (f + g) % n
    )


def lattice_residual_curryings(fixture):
    """(rep(P), rep(R), right, obj, mor) for every pair that genday
    compares on either side: the currying of tensor-then-plug."""
    mrs = fixture().mrs
    sys = mrs.sys
    n = sys.D.n_objects
    for m in (mrs, mrs.reversed()):
        for P in range(n):
            for R in range(n):
                strict = _strict_left_residual(m, P, R)
                if strict is None:
                    continue
                Fm, prod = m_functor(m, sys.shape(P), strict[2])
                F = compose_functors(Fm, slice_action(sys, strict[3]))
                yield (
                    pos_rep(sys, P),
                    pos_rep(sys, R),
                    prod.right,
                    lambda a, b, F=F, p=prod: F.obj(p.pair_obj(a, b)),
                    lambda f, g, F=F, p=prod: F.mor(p.pair_mor(f, g)),
                )


def test_the_curried_residual_matches_the_reference_on_the_lattices():
    # 28 and 32 curryings: both sides of every pair with a strict residual.
    for fixture, n in ((collapse_lattice_fixture, 28), (identity_lattice_fixture, 32)):
        cases = list(lattice_residual_curryings(fixture))
        assert len(cases) == n
        for case in cases:
            assert residual_mismatches(*case) == []


def test_the_curried_residual_matches_the_reference_on_a_group():
    # mor(f, g) = f + g moves the three families of y(*) => y(*) by a
    # rotation: the rows see the currying's morphism components.
    bz3 = cyclic_group(3)
    y = representable(bz3, 0)
    add = lambda f, g: (f + g) % 3
    assert residual_mismatches(y, y, bz3, lambda a, b: 0, add) == []
    assert curried_along(y, y, bz3, lambda a, b: 0, add).action[1] == (1, 2, 0)


def lax_search(monkeypatch):
    """Replace the search behind natural families and vertical isos by a
    copy that skips the constraints closing at the last step."""
    real = psh._backtrack

    def lax(steps, candidates, closes):
        return real(steps, candidates, lambda k, a: k == steps - 1 or closes(k, a))

    monkeypatch.setattr(psh, "_backtrack", lax)


def test_a_search_without_one_steps_constraints_fails_the_reference(monkeypatch):
    lax_search(monkeypatch)
    bz3 = cyclic_group(3)
    y = representable(bz3, 0)
    add = lambda f, g: (f + g) % 3
    assert residual_mismatches(y, y, bz3, lambda a, b: 0, add) == ["families at *"]
