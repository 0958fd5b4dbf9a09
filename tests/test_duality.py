"""Judgment category, cut brackets, dualization, and the encoding checks.

The corruption test at the bottom deliberately breaks an internal action
table and asserts the machinery notices; it guards against the checks
degenerating into comparisons of a value with itself.
"""

import pytest

import refcat.duality as duality_mod
from refcat.duality import (
    bracket,
    der_presheaf,
    dual_adjunction_check,
    dual_left,
    dual_right,
    duality_check,
    extranat_check,
    judgment_category,
    negative_encoding_check,
    notnottensor_check,
    notpush_check,
)
from refcat.fincat import FinCategory, SizeGuardExceeded, validate_category, validate_functor
from refcat.fixtures import bang_system, build_hoare, default_hoare_spec
from refcat.psh import Presheaf, natural_families, validate_presheaf, vertical_iso_psh
from refcat.represent import neg_rep, pos_rep
from tests.conftest import image_oracle, pred_set
from tests.test_fincat import chain_category
from tests.test_represent import composite_command


def skew_pair():
    """Two parallel arrows with an endo that absorbs one into the other.

    The absence of the f/g swap symmetry matters: it makes silent
    per-object permutations of derivation tables observable.
    """
    return FinCategory(
        "skewpair", ["a", "b"],
        [("id_a", 0, 0), ("id_b", 1, 1), ("e", 0, 0), ("f", 0, 1), ("g", 0, 1)],
        [0, 1],
        {(0, 0): 0, (1, 1): 1,
         (0, 2): 2, (2, 0): 2, (2, 2): 2,
         (0, 3): 3, (3, 1): 3, (0, 4): 4, (4, 1): 4,
         (2, 3): 3, (2, 4): 3},
    )


def test_judgment_category_counts_from_pair_oracle(hoare):
    J = judgment_category(hoare)
    assert J.cat.n_objects == 4 * 4 * 4
    names_D = hoare.D.objects
    names_T = hoare.T.mor_names
    expected = 0
    for P1, c1, Q1 in hoare.judgments():
        for P2, c2, Q2 in hoare.judgments():
            for d in names_T:
                if not image_oracle(d, pred_set(names_D[P1])) <= pred_set(names_D[P2]):
                    continue
                for e in names_T:
                    if not image_oracle(e, pred_set(names_D[Q2])) <= pred_set(names_D[Q1]):
                        continue
                    if composite_command(composite_command(d, names_T[c2]), e) == names_T[c1]:
                        expected += 1
    assert J.cat.n_morphisms == expected == 5776


def test_judgment_guard_reports_the_true_size_before_building():
    sys = build_hoare(default_hoare_spec())

    def untouched(*args):
        raise AssertionError("the guard must trip before any judgment is listed")

    sys.judgments = sys.derivations = untouched
    with pytest.raises(SizeGuardExceeded) as exc:
        judgment_category(sys, size_guard=5000)
    assert exc.value.estimate == 5776
    del sys.judgments, sys.derivations
    assert judgment_category(sys).cat.n_morphisms == 5776


def test_der_presheaf_marks_exactly_the_derivable_judgments(hoare):
    J = judgment_category(hoare)
    der = der_presheaf(hoare)
    assert validate_presheaf(der).ok
    assert der.total_elements() == hoare.D.n_morphisms  # one payload per derivation
    for o, (P, c, Q) in enumerate(J.obj_tags):
        holds = image_oracle(hoare.T.mor_names[c], pred_set(hoare.D.objects[P])) <= pred_set(hoare.D.objects[Q])
        assert der.size(o) == (1 if holds else 0)


def test_bracket_functor_validates(hoare):
    br = bracket(hoare, 0)
    assert validate_functor(br).ok
    assert br.target.name.startswith("jdg")


def test_extranat_counts(hoare):
    rep = extranat_check(hoare)
    assert rep.ok and (rep.passed, rep.failed, rep.skipped) == (4, 0, 0)


def test_duality_every_hoare_refinement(hoare):
    for Q in range(hoare.D.n_objects):
        rep = duality_check(hoare, Q)
        assert rep.ok and (rep.passed, rep.failed, rep.skipped) == (4, 0, 0)
        assert "positive section pullback agrees with rep tables exactly" in rep.notes
        assert "negative section pullback agrees with rep tables exactly" in rep.notes


def test_duality_every_lattice_refinement(collapse, ident):
    for fx in (collapse, ident):
        sys = fx.mrs.sys
        for Q in range(sys.D.n_objects):
            rep = duality_check(sys, Q)
            assert rep.ok and rep.failed == 0, (sys.name, sys.D.objects[Q])


def test_triple_dual_collapses(hoare):
    for Q in range(hoare.D.n_objects):
        once = dual_left(hoare, 0, pos_rep(hoare, Q))
        thrice = dual_left(hoare, 0, dual_right(hoare, 0, once))
        assert vertical_iso_psh(thrice, once) is not None


def test_duals_reverse_the_refinement_order(hoare):
    # Q1 below Q2 gives a family from the dual of Q2 into the dual of Q1
    duals = {Q: dual_left(hoare, 0, pos_rep(hoare, Q)) for Q in range(4)}
    for Q1 in range(4):
        for Q2 in range(4):
            if pred_set(hoare.D.objects[Q1]) <= pred_set(hoare.D.objects[Q2]):
                assert natural_families(duals[Q2], duals[Q1])


def test_dual_adjunction_counts(hoare):
    rep = dual_adjunction_check(hoare, 0)
    assert rep.ok and (rep.passed, rep.failed, rep.skipped) == (28, 0, 0)


def test_cross_check_route_agrees_on_small_systems():
    for base in (chain_category(2), skew_pair()):
        sys = bang_system(base)
        for Q in range(sys.D.n_objects):
            plain = dual_left(sys, 0, pos_rep(sys, Q))
            crossed = dual_left(sys, 0, pos_rep(sys, Q), cross_check=True)
            assert plain.elements == crossed.elements and plain.action == crossed.action
            plain_r = dual_right(sys, 0, neg_rep(sys, Q))
            crossed_r = dual_right(sys, 0, neg_rep(sys, Q), cross_check=True)
            assert plain_r.elements == crossed_r.elements and plain_r.action == crossed_r.action
            assert duality_check(sys, Q).ok


def test_cross_check_is_guarded_on_large_systems(hoare):
    with pytest.raises(SizeGuardExceeded):
        dual_left(hoare, 0, pos_rep(hoare, 1), cross_check=True)


def invertible(c):
    from tests.conftest import HOARE_FN

    return len(set(HOARE_FN[c].values())) == 2


def test_negative_encoding_every_hoare_pushforward(hoare):
    for c, cname in enumerate(hoare.T.mor_names):
        for P in range(hoare.D.n_objects):
            rep = negative_encoding_check(hoare, c, P)
            assert rep.ok and (rep.passed, rep.failed, rep.skipped) == (2, 0, 0)
            # one push alone recovers the representation exactly for the
            # invertible transformers, never for the collapsing ones
            want = "yes" if invertible(cname) else "no"
            assert any(n.endswith(want) for n in rep.notes), (cname, P, rep.notes)


def test_notpush_shapes(hoare):
    for c in range(hoare.T.n_morphisms):
        for Q in range(hoare.D.n_objects):
            rep = notpush_check(hoare, c, pos_rep(hoare, Q))
            assert rep.ok and rep.failed == 0 and rep.passed > 0


def test_notnottensor_on_lattices(collapse, ident):
    for fx in (collapse, ident):
        for mo in fx.monoids:
            fib = fx.mrs.sys.fiber(mo.W)
            for P in fib:
                for Q in fib:
                    rep = notnottensor_check(fx.mrs, mo, P, Q)
                    assert rep.ok and rep.failed == 0 and rep.attempted >= 1


def test_corrupted_derivation_action_is_detected():
    sys = bang_system(skew_pair())
    clean = sum(duality_check(sys, Q).failed for Q in range(2))
    assert clean == 0

    orig = duality_mod._cut_presheaf

    def tampered(s, B, idx):
        psh, pos = orig(s, B, idx)
        rows = list(psh.action)
        for i, row in enumerate(rows):
            if len(set(row)) >= 2 and not psh.base.is_identity(i):
                rows[i] = tuple(reversed(row))
                break
        else:
            return psh, pos
        return Presheaf(psh.name, psh.base, psh.elements, tuple(rows), psh.payloads), pos

    duality_mod._cut_presheaf = tampered
    try:
        poisoned = bang_system(skew_pair())
        failures = 0
        cex = None
        for Q in range(2):
            rep = duality_check(poisoned, Q)
            failures += rep.failed
            cex = cex or rep.counterexample
        assert failures >= 1
        assert cex and "dual" in cex
    finally:
        duality_mod._cut_presheaf = orig
