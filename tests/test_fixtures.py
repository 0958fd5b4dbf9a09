"""The shipped example systems, checked against side computations.

The monoid closure oracle below is a set-based fixed point, a different
algorithm from the worklist the builder uses; agreement of the two is the
point of the test.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import refcat.hoare as hoare_mod
from refcat.adjunction import adjunction_check, lapp_check
from refcat.duality import tensorL_check
from refcat.fincat import SizeGuardExceeded, StructuralError, validate_category
from refcat.fixtures import (
    HoareSpec,
    MultiMorphism,
    MulticategorySpec,
    RandomBounds,
    TensorDecl,
    bang_system,
    build_hoare,
    build_lattice,
    build_linctx,
    default_linear_spec,
    fin_skeleton,
    hoare_sp,
    hoare_wp,
    linctx_data,
    random_refsys,
    validate_multicategory,
)
from refcat.lattice import chain_lattice, powerset_lattice
from refcat.refsys import rapp_check
from refcat.textio import LoadError, loads
from tests.conftest import HOARE_FN, image_oracle, preimage_oracle
from tests.test_refsys import is_fibration, is_opfibration
from tests.test_represent import context_morphism_count

STATES = ("s0", "s1")


def closure_oracle(states, generator_maps):
    """All state transformers generated under composition, as a set."""
    idfn = tuple(states)
    gens = [tuple(g[s] for s in states) for g in generator_maps]
    known = {idfn}
    while True:
        new = {
            tuple(g[states.index(f[i])] for i in range(len(states)))
            for f in known
            for g in gens
        } - known
        if not new:
            return known
        known |= new


def default_spec():
    return HoareSpec(
        states=STATES,
        generators={
            "swap": {"s0": "s1", "s1": "s0"},
            "set0": {"s0": "s0", "s1": "s0"},
        },
    )


def behavior(spec, c):
    """Recover a command's transformer from strongest postconditions."""
    out = []
    for s in spec.states:
        img = hoare_sp(spec, c, {s})
        assert len(img) == 1
        out.append(next(iter(img)))
    return tuple(out)


def test_monoid_closure_matches_the_fixed_point_oracle(hoare):
    spec = default_spec()
    oracle = closure_oracle(STATES, spec.generators.values())
    assert hoare.T.n_morphisms == len(oracle) == 4
    assert {behavior(spec, c) for c in hoare.T.mor_names} == oracle
    # and the frozen table in conftest is that same closure
    assert {tuple(m[s] for s in STATES) for m in HOARE_FN.values()} == oracle


def test_three_state_rotation_closure():
    spec = HoareSpec(
        states=("a", "b", "c"),
        generators={"rot": {"a": "b", "b": "c", "c": "a"}},
    )
    sys = build_hoare(spec)
    assert sys.T.n_morphisms == len(closure_oracle(spec.states, spec.generators.values())) == 3
    assert sys.D.n_objects == 8  # all subsets
    assert is_fibration(sys)[0] and is_opfibration(sys)[0]


def test_closure_bound_is_enforced(monkeypatch):
    monkeypatch.setattr(hoare_mod, "CLOSURE_BOUND", 2)
    with pytest.raises(StructuralError, match="closure bound 2"):
        build_hoare(default_spec())


def test_sp_wp_match_image_and_preimage(hoare):
    spec = default_spec()
    preds = [frozenset(), frozenset({"s0"}), frozenset({"s1"}), frozenset(STATES)]
    for c in HOARE_FN:
        for P in preds:
            assert hoare_sp(spec, c, P) == image_oracle(c, P)
            assert hoare_wp(spec, c, P) == preimage_oracle(c, P)


@given(
    st.sampled_from(sorted(HOARE_FN)),
    st.frozensets(st.sampled_from(STATES)),
    st.frozensets(st.sampled_from(STATES)),
)
def test_sp_wp_are_adjoint(c, P, Q):
    spec = default_spec()
    assert (hoare_sp(spec, c, P) <= Q) == (P <= hoare_wp(spec, c, Q))


def test_hoare_derivations_are_thin(hoare):
    for P, c, Q in hoare.judgments():
        assert len(hoare.derivations(P, c, Q)) <= 1


def test_multicategory_validation():
    mc = default_linear_spec()
    assert validate_multicategory(mc).ok
    no_ids = MulticategorySpec(mc.formulas, mc.multimorphisms, {"A": "1A"}, mc.tensors)
    rep = validate_multicategory(no_ids)
    assert not rep.ok and all(v.law == "identities" for v in rep.violations)
    bad_table = MulticategorySpec(
        mc.formulas, mc.multimorphisms, dict(mc.identities),
        (TensorDecl("A", "B", "A*B", {"pair": "1A"}),),
    )
    rep = validate_multicategory(bad_table)
    assert not rep.ok and any(v.law == "tensor bijection" for v in rep.violations)


def test_rules_that_compose_other_than_through_identities_are_rejected():
    # use consumes C, which k produces: use after k would be a closed
    # proof of A*B, which is no rule of the spec.
    mc = default_linear_spec()
    chained = MulticategorySpec(
        mc.formulas,
        (*mc.multimorphisms, MultiMorphism("use", ("C",), "A*B")),
        dict(mc.identities),
        mc.tensors,
    )
    rep = validate_multicategory(chained)
    assert [(v.law, v.detail) for v in rep.violations] == [
        ("composition", "use consumes C, which k produces")
    ]
    with pytest.raises(StructuralError, match="composition: use consumes C, which k produces"):
        build_linctx(chained, 3)


def test_linctx_composes_rule_families_through_identities(linctx):
    # A pair family after identities is the pair family, and the identity
    # of [A*B] after it is the pair family again.
    D = linctx.D
    mor = {name: k for k, name in enumerate(D.mor_names)}
    ids_AB = mor["2>2[0,1]|1A,1B"]
    pair = mor["2>1[0,0]|pair"]
    one_T = mor["1>1[0]|1T"]
    assert D.compose(ids_AB, pair) == pair
    assert D.compose(pair, one_T) == pair
    assert D.identity[D.dom(pair)] == ids_AB and D.identity[D.cod(pair)] == one_T


def test_truncation_rejects_wide_rules():
    wide = MulticategorySpec(
        ("X", "Y"),
        (
            MultiMorphism("1X", ("X",), "X"),
            MultiMorphism("1Y", ("Y",), "Y"),
            MultiMorphism("quad", ("X",) * 4, "Y"),
        ),
        {"X": "1X", "Y": "1Y"},
        (),
    )
    assert validate_multicategory(wide).ok
    with pytest.raises(StructuralError, match="needs a context of size 4 > K=3"):
        build_linctx(wide, 3)


def test_fin_skeleton_counts():
    T = fin_skeleton(3)
    assert T.n_objects == 4
    assert T.n_morphisms == sum(n ** m for m in range(4) for n in range(4)) == 60
    assert validate_category(T).ok
    assert T.mor_index == {tag: k for k, tag in enumerate(T.mor_tags)}
    assert T.morphism_name(T.mor_index[2, 3, (2, 0)]) == "2>3[2,0]"


def test_fin_skeleton_counts_its_morphisms_before_listing_them():
    # K=6 would list 82,207 maps and validate about 4e9 composites; the
    # closed-form count refuses it at once, from a workspace too.
    with pytest.raises(SizeGuardExceeded) as err:
        fin_skeleton(6)
    assert (err.value.estimate, err.value.guard) == (82207, 60000)
    with pytest.raises(LoadError, match=r"^<string>:1: Fin<=6 has too many morphisms: estimated 82207 > guard 60000$"):
        loads("fixture l linctx K=6\n")


def test_linctx_shape_counts(linctx):
    mc, K, ctx_index, u_index = linctx_data(linctx)
    assert K == 3
    # multisets of size <= 3 over 4 formulas
    assert linctx.D.n_objects == 1 + 4 + 10 + 20 == 35
    # morphism total agrees with the brute-force proof counter
    names = {v: k for k, v in ctx_index.items()}
    total = 0
    for a in range(linctx.D.n_objects):
        for b in range(linctx.D.n_objects):
            src = tuple(mc.formulas[i] for i in names[a])
            tgt = tuple(mc.formulas[i] for i in names[b])
            total += context_morphism_count(mc, src, tgt)
    assert linctx.D.n_morphisms == total == 124


def product_enumeration(sys):
    """The morphisms (name, dom, cod) of a linctx D by the full-product
    formula: every map u of positions in `itertools.product` order, kept
    when every position of gamma has a rule for the sorted formulas u
    sends there."""
    mc, _K, ctx_index, u_index = linctx_data(sys)
    fidx = {f: i for i, f in enumerate(mc.formulas)}
    by_type = {}
    for k, mm in enumerate(mc.multimorphisms):
        by_type.setdefault((tuple(fidx[f] for f in mm.source), fidx[mm.target]), []).append(k)
    contexts = sorted(ctx_index, key=ctx_index.get)
    out = []
    for di, delta in enumerate(contexts):
        for gi, gamma in enumerate(contexts):
            for u in itertools.product(range(len(gamma)), repeat=len(delta)):
                choice = [
                    by_type.get((tuple(sorted(d for d, j2 in zip(delta, u) if j2 == j)), tgt))
                    for j, tgt in enumerate(gamma)
                ]
                if None in choice:
                    continue
                uname = sys.T.mor_names[u_index[(len(delta), len(gamma), u)]]
                for fam in itertools.product(*choice):
                    fname = ",".join(mc.multimorphisms[k].name for k in fam)
                    out.append((f"{uname}|{fname}", di, gi))
    return out


@pytest.mark.parametrize("K", [2, 3, 4])
def test_linctx_morphisms_are_the_full_product_enumeration(K):
    # build_linctx grows each map of positions only while its fibres can
    # still become rule sources; it must list the same morphisms, in the
    # same order, as trying every map.
    sys = build_linctx(default_linear_spec(), K)
    D = sys.D
    assert list(zip(D.mor_names, D.mor_dom, D.mor_cod)) == product_enumeration(sys)


def test_tensor_left_rule_report(linctx):
    rep = tensorL_check(linctx, "A", "B")
    assert rep.ok and (rep.passed, rep.failed, rep.skipped) == (5, 0, 0)
    assert "negative encoding: 3/3 clauses" in rep.notes
    assert "at ([A*B],1>1[0]): single push has 0 elements, the representation has 1" in rep.notes


def test_tensor_left_rule_needs_a_linctx_system(hoare, linctx):
    assert linctx_data(hoare) is None and linctx_data(linctx.op()) is None
    with pytest.raises(StructuralError, match="needs a system built by build_linctx"):
        tensorL_check(hoare, "A", "B")


def test_lattice_builders_and_their_refusals():
    ps = powerset_lattice(("a", "b"))
    assert ps.elements == ("{}", "{a}", "{b}", "{a,b}")
    ch = chain_lattice(3)
    assert ch.elements == ("c0", "c1", "c2")
    with pytest.raises(StructuralError, match="^t_map is not monotone at {a} <= {a,b}$"):
        build_lattice(ps, ch, {"{}": "c0", "{a}": "c2", "{b}": "c0", "{a,b}": "c0"})
    with pytest.raises(StructuralError, match="meet"):
        build_lattice(ps, ch, {"{}": "c0", "{a}": "c1", "{b}": "c1", "{a,b}": "c2"})
    with pytest.raises(StructuralError, match="top"):
        build_lattice(ps, ch, {"{}": "c0", "{a}": "c0", "{b}": "c0", "{a,b}": "c0"})
    with pytest.raises(StructuralError, match="total"):
        build_lattice(ps, ch, {"{}": "c0"})


def test_collapse_fixture_structure(collapse):
    sys = collapse.mrs.sys
    assert sys.t.object_map == (0, 0, 1, 2)
    assert collapse.mrs.validate().ok
    # collapsing {a} under {b} kills both lift directions
    assert not is_fibration(sys)[0]
    assert not is_opfibration(sys)[0]
    tops = [m for m in collapse.monoids if m.unit_mor is not None]
    assert len(tops) == 1 and sys.T.objects[tops[0].W] == "c2"
    for m in collapse.monoids:
        assert sys.T.is_identity(m.p)  # meets are idempotent


def test_identity_fixture_is_a_bifibration(ident):
    sys = ident.mrs.sys
    assert is_fibration(sys)[0] and is_opfibration(sys)[0]
    assert ident.mrs.validate().ok


def test_galois_adjunction_counts(galois):
    rep = adjunction_check(galois)
    assert rep.ok and (rep.passed, rep.failed, rep.skipped) == (23, 0, 0)
    r = rapp_check(galois)
    assert r.ok and (r.passed, r.failed, r.skipped) == (3, 0, 0)
    l = lapp_check(galois)
    assert l.ok and (l.passed, l.failed, l.skipped) == (8, 0, 1)


def test_random_generation_envelope():
    bounds = RandomBounds()
    for seed in range(60):
        sys = random_refsys(seed)
        assert sys.validate().ok
        assert sys.T.n_objects <= bounds.t_objects
        assert sys.D.n_objects <= bounds.d_objects
    with pytest.raises(StructuralError, match="no valid system"):
        random_refsys(0, RandomBounds(hom=0, retries=3))


def category_rows(C):
    return [
        list(C.objects),
        list(C.mor_names),
        list(C.mor_dom),
        list(C.mor_cod),
        list(C.identity),
        [[f, g, C.compose(f, g)] for f, g in C.composable_pairs()],
    ]


def random_fingerprint(sys):
    """A hash of the whole generated system: names, endpoints, identities
    and every composite of D and T, and the projection."""
    data = [
        sys.name,
        category_rows(sys.D),
        category_rows(sys.T),
        [sys.t.obj(a) for a in range(sys.D.n_objects)],
        [sys.t.mor(f) for f in range(sys.D.n_morphisms)],
    ]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def test_random_systems_keep_their_tables():
    # Fingerprints saved from the generator with one closure loop per
    # category; seeds 0-49 must still give identical systems.
    saved = json.loads(
        (Path(__file__).parent / "golden" / "random-fingerprints.json").read_text()
    )
    assert {str(k): random_fingerprint(random_refsys(k)) for k in range(50)} == saved


def test_bang_system_is_a_bifibration(hoare):
    b = bang_system(hoare.D)
    assert b.validate().ok
    assert b.T.n_objects == 1
    assert is_fibration(b)[0] and is_opfibration(b)[0]
    assert len(b.fiber(0)) == hoare.D.n_objects
