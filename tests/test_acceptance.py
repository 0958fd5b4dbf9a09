"""End-to-end acceptance: nine numbered criteria, one verdict line each.

Every comparison here is exact; there are no tolerances and no sampled
subsets.  Each test prints `criterion N: PASS/FAIL ...` so a transcript of
this module reads as a checklist.
"""

import os
import subprocess
import sys

from refcat.adjunction import adjunction_check, lapp_check
from refcat.day import genday_check
from refcat.duality import (
    dual_left,
    dual_right,
    duality_check,
    negative_encoding_check,
    tensorL_check,
)
from refcat.fincat import FunctorData, StructuralError
from refcat.fixtures import (
    TensorDecl,
    hoare_sp,
    hoare_wp,
    random_refsys,
)
from refcat.psh import opcartesian_factoring_check, push_psh_full, push_transpose, representable
from refcat.refsys import (
    find_pullback,
    find_pushforward,
    rapp_check,
)
from refcat.repchecks import preservation_check, representation_ff_check
from refcat.represent import (
    neg_rep,
    pos_rep,
    pos_rep_derivation,
    slice_action,
)
from tests.conftest import (
    bang_system,
    dual_cross_check,
    image_oracle,
    pred_name,
    pred_set,
    preimage_oracle,
)
from tests.test_duality import skew_pair
from tests.test_fincat import chain_category, walking_arrow
from tests.test_fixtures import default_spec
from tests.test_psh import chain_presheaf, to_point

RANDOM_SWEEP = 200


def verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_representations_fully_faithful(hoare):
    reports = [representation_ff_check(hoare)]
    reports += [representation_ff_check(random_refsys(seed)) for seed in range(RANDOM_SWEEP)]
    bad = [r.name for r in reports if r.failed or not r.ok]
    checked = sum(r.passed for r in reports)
    verdict(
        1,
        not bad,
        f"derivations biject with presheaf maps in {len(reports)} systems "
        f"({checked} judgments), failures: {bad or 'none'}",
    )


def test_criterion_2_preservation_of_lifts(hoare, linctx, collapse, ident, galois):
    systems = [
        hoare,
        linctx,
        collapse.mrs.sys,
        ident.mrs.sys,
        galois.left.source,
        galois.left.target,
    ]
    failures = []
    total = 0
    for s in systems:
        rep = preservation_check(s)
        total += rep.passed
        if rep.failed or not rep.ok:
            failures.append(s.name)
    verdict(
        2,
        not failures,
        f"every certified lift transfers to an isomorphism of representations "
        f"({total} instances over {len(systems)} systems), failures: {failures or 'none'}",
    )


def test_criterion_3_duality_on_every_refinement(hoare, linctx, collapse, ident):
    failures = []
    attempted = 0
    for s in (hoare, linctx, collapse.mrs.sys, ident.mrs.sys):
        for Q in range(s.D.n_objects):
            rep = duality_check(s, Q)
            attempted += rep.attempted
            if rep.failed or not rep.ok:
                failures.append((s.name, s.D.objects[Q]))
    verdict(
        3,
        not failures,
        f"positive and negative representations are mutual duals across "
        f"{4 + 35 + 4 + 4} refinements ({attempted} table comparisons), "
        f"failures: {failures or 'none'}",
    )


def test_criterion_4_negative_encodings(hoare, linctx, collapse, ident):
    failures = []
    attempted = 0
    for s in (hoare, collapse.mrs.sys, ident.mrs.sys):
        for c in range(s.T.n_morphisms):
            for P in s.fiber(s.T.dom(c)):
                if find_pushforward(s, c, P) is None:
                    continue
                rep = negative_encoding_check(s, c, P)
                attempted += rep.attempted
                if rep.failed or not rep.ok:
                    failures.append((s.name, c, P))
    tl = tensorL_check(linctx, TensorDecl("A", "B", "A*B"))
    attempted += tl.attempted
    if tl.failed or not tl.ok:
        failures.append(("linctx", "A", "B"))
    exhibit = "at ([A*B],1>1[0]): single push has 0 elements, the representation has 1"
    if exhibit not in tl.notes:
        failures.append(("linctx", "missing non-iso exhibit"))
    verdict(
        4,
        not failures,
        f"one-sided pushes embed and double dualization repairs them "
        f"({attempted} clauses, incl. the non-invertible tensor rule), "
        f"failures: {failures or 'none'}",
    )


def test_criterion_5_day_style_tensor_transfer(collapse, ident):
    failures = []
    strict_skips = 0
    lax_skips = 0
    for fx, strict in ((ident, True), (collapse, False)):
        n = fx.mrs.sys.D.n_objects
        for P in range(n):
            for Q in range(n):
                for R in range(n):
                    rep = genday_check(fx.mrs, P, Q, R)
                    if rep.failed or not rep.ok:
                        failures.append((fx.mrs.sys.name, P, Q, R))
                    if strict:
                        strict_skips += rep.skipped
                    else:
                        lax_skips += rep.skipped
    ok = not failures and strict_skips == 0 and lax_skips == 16
    verdict(
        5,
        ok,
        "tensor, unit, and residual clauses hold on all 64+64 lattice triples "
        f"(strict fixture skips: {strict_skips}, documented lax skips: {lax_skips}/16), "
        f"failures: {failures or 'none'}",
    )


def test_criterion_6_galois_adjunction_application(galois):
    adj = adjunction_check(galois)
    app = rapp_check(galois)
    mirror = lapp_check(galois)
    ok = adj.ok and app.ok and mirror.ok and adj.failed == app.failed == 0 and app.skipped == 0
    verdict(
        6,
        ok,
        f"adjunction laws {adj.passed}/{adj.attempted}; G maps {app.passed}/{app.attempted} "
        f"certified pullbacks to certified pullbacks and F maps {mirror.passed}/"
        f"{mirror.attempted} certified pushforwards to certified pushforwards "
        f"({mirror.skipped} with no pushforward in s)",
    )


def hoare_slice_pushes(hoare):
    """(c, P) for every non-identity c of hoare and every P, with the push
    of rep(P) along the slice action of c."""
    T = hoare.T
    for c in range(T.n_morphisms):
        if T.is_identity(c):
            continue
        for P in hoare.fiber(T.dom(c)):
            yield c, P, slice_action(hoare, c), pos_rep(hoare, P)


def push_corpus(hoare, collapse, ident):
    """(functor, presheaf) pairs: hoare's pushes of representations along
    slice actions, and pushes whose source bases have at most 4 objects."""
    pairs = [(F, phi) for _c, _P, F, phi in hoare_slice_pushes(hoare)]
    for s in (hoare, collapse.mrs.sys, ident.mrs.sys):
        for b in range(s.D.n_objects):
            pairs.append((s.t, representable(s.D, b)))
    for base in (chain_category(2), chain_category(3), chain_category(4), walking_arrow(), skew_pair()):
        for b in range(base.n_objects):
            pairs.append((to_point(base), representable(base, b)))
    c3 = chain_category(3)
    pairs.append((to_point(c3), chain_presheaf(c3, [2, 1, 3], [[0], [0, 0, 0]])))
    arr = walking_arrow()
    fold = FunctorData(
        "fold", c3, arr, (0, 0, 1),
        tuple(
            arr.id_of(0) if c3.cod(m) <= 1
            else (arr.id_of(1) if c3.dom(m) == 2 else 2)
            for m in range(c3.n_morphisms)
        ),
    )
    pairs.append((fold, chain_presheaf(c3, [2, 1, 3], [[0], [0, 0, 0]])))
    pairs.append((fold, representable(c3, 2)))
    return pairs


def test_criterion_7_pushforward_universal_property(hoare, collapse, ident):
    failures = []
    pairs = push_corpus(hoare, collapse, ident)
    for F, phi in pairs:
        pr = push_psh_full(F, phi)
        pool = [representable(F.target, b) for b in range(F.target.n_objects)]
        pool += [pr.presheaf]
        ok, why = opcartesian_factoring_check(pr, F, phi, pool)
        if not ok:
            failures.append((F.name, phi.name, why))
    # Postcomposition with the structural derivation of a certified
    # pushforward factors through the push of the positive representation.
    transposed = 0
    for c, P, F, phi in hoare_slice_pushes(hoare):
        cert = find_pushforward(hoare, c, P)
        theta = pos_rep_derivation(hoare, cert.structural)
        try:
            push_transpose(push_psh_full(F, phi), F, pos_rep(hoare, cert.result), theta.components)
        except StructuralError as exc:
            failures.append((F.name, phi.name, f"transpose: {exc}"))
        else:
            transposed += 1
    crossed = 0
    for base in (chain_category(2), chain_category(3), walking_arrow(), skew_pair()):
        s = bang_system(base)
        for Q in range(s.D.n_objects):
            for side, build, dual in (("left", pos_rep, dual_left), ("right", neg_rep, dual_right)):
                inp = build(s, Q)
                try:
                    dual_cross_check(s, 0, inp, dual(s, 0, inp), side)
                except StructuralError as exc:
                    failures.append((s.name, Q, f"cross-check mismatch: {exc}"))
                else:
                    crossed += 1
    ok = not failures and crossed >= 10 and transposed == 12
    verdict(
        7,
        ok,
        f"unit factoring bijections hold for {len(pairs)} pushes; "
        f"{transposed} certified pushforward derivations factor through their push; "
        f"{crossed} dualizations re-derived from the pairing's rows, "
        f"failures: {failures or 'none'}",
    )


def test_criterion_8_hoare_spot_values(hoare):
    spec = default_spec()
    checks = {
        "monoid size": hoare.T.n_morphisms == 4,
        "predicate count": hoare.D.n_objects == 4,
        "positive rep of {s0} has 9 sections": pos_rep(hoare, hoare.D.objects.index("{s0}")).total_elements() == 9,
        "sp(set0,{s0,s1}) = {s0}": hoare_sp(spec, "set0", {"s0", "s1"}) == frozenset({"s0"}),
        "wp(set0,{s1}) = {}": hoare_wp(spec, "set0", {"s1"}) == frozenset(),
    }
    for c, cname in enumerate(hoare.T.mor_names):
        for P, Pname in enumerate(hoare.D.objects):
            push = find_pushforward(hoare, c, P)
            pull = find_pullback(hoare, c, P)
            checks[f"push {cname} {Pname}"] = (
                push is not None
                and hoare.D.objects[push.result] == pred_name(image_oracle(cname, pred_set(Pname)))
            )
            checks[f"pull {cname} {Pname}"] = (
                pull is not None
                and hoare.D.objects[pull.result] == pred_name(preimage_oracle(cname, pred_set(Pname)))
            )
    bad = [k for k, v in checks.items() if not v]
    verdict(8, not bad, f"{len(checks)} frozen state-machine values, mismatches: {bad or 'none'}")


def run_cli(args, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-m", "refcat", *args],
        capture_output=True,
        env=env,
        check=False,
    )


def test_criterion_9_deterministic_output(tmp_path):
    h = tmp_path / "h.fix"
    h.write_text("fixture h hoare\n")
    c = tmp_path / "c.fix"
    c.write_text("fixture c lattice-collapse\n")
    problems = []
    for args in (
        ["verify", str(h), "all"],
        ["verify", str(c), "all"],
        ["fixtures", "gen", "random", "--seed", "9"],
    ):
        runs = [run_cli(args, hs) for hs in ("0", "1", "99")]
        if any(r.returncode != 0 for r in runs):
            problems.append((args[0], "nonzero exit"))
        if len({r.stdout for r in runs}) != 1 or not runs[0].stdout:
            problems.append((args[0], "output varies"))
    verdict(
        9,
        not problems,
        "verification transcripts and generated fixtures are byte-identical "
        f"across hash seeds, problems: {problems or 'none'}",
    )
