"""Refinement systems: judgments, lifts against independent oracles, laws."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import refcat.refsys as refsys_mod
from refcat.cli import main, run_suite
from refcat.fincat import (
    SIZE_GUARD,
    FinCategory,
    FunctorData,
    StructuralError,
    compose_functors,
    identity_functor,
    validate_category,
)
from refcat.fixtures import (
    build_hoare,
    collapse_lattice_fixture,
    default_hoare_spec,
    random_refsys,
)
from refcat.adjunction import NatTransData, RefSysAdjunction, adjunction_check, lapp_check
from refcat.monoidal import (
    MonoidalRefinementSystem,
    MonoidalStructure,
    find_left_residual,
    left_curry,
    product,
)
from refcat.refsys import (
    RefinementSystem,
    RefSysMorphism,
    find_pullback,
    find_pushforward,
    rapp_check,
)
from refcat.represent import comma_system, slice_of
from refcat.textio import loads
from tests.conftest import (
    HOARE_FN,
    image_oracle,
    judgments,
    monoidal_laws,
    monoidal_system_laws,
    pred_name,
    pred_set,
    preimage_oracle,
)
from tests.test_fincat import discrete_category, reference_validate_functor


def is_fibration(sys):
    """True when every (c, Q) with Q refining cod c has a pullback.
    Returns the list of missing pairs."""
    missing = [
        (c, Q)
        for c in range(sys.T.n_morphisms)
        for Q in sys.fiber(sys.T.cod(c))
        if find_pullback(sys, c, Q) is None
    ]
    return (not missing, missing)


# The mirror images of library constructions, read through `op()` or the
# reversed tensor; only the tests ask for them.


def is_opfibration(sys):
    """True when every (c, P) with P refining dom c has a pushforward:
    a fibration of the opposite system."""
    return is_fibration(sys.op())


def find_right_residual(mon, b, c):
    """The right residual of b and c: an object x with plug : x (x) b -> c
    such that u |-> (u (x) id_b) ; plug is a bijection hom(a, x) ->
    hom(a (x) b, c) for every a.  It is the left residual of the reversed
    tensor."""
    return find_left_residual(mon.reversed(), b, c)


def right_curry(mon, p, a, b, x, plug):
    """Transpose p : a (x) b -> c through a certified right residual (x,
    plug : x (x) b -> c): the unique u : a -> x with (u (x) id_b) ; plug = p.
    It is the left transpose of the reversed tensor."""
    return left_curry(mon.reversed(), p, b, a, x, plug)


def test_hoare_shape_and_judgments(hoare):
    assert hoare.D.n_objects == 4
    assert hoare.T.n_morphisms == 4
    triples = list(judgments(hoare))
    assert len(triples) == 4 * 4 * 4
    # thin system: a judgment holds iff the image lands inside the target
    for P, c, Q in triples:
        ders = hoare.derivations(P, c, Q)
        expect = image_oracle(hoare.T.mor_names[c], pred_set(hoare.D.objects[P]))
        holds = expect <= pred_set(hoare.D.objects[Q])
        assert (len(ders) == 1) == holds
        assert len(ders) <= 1


def test_unchecked_reader_agrees_with_derivations(hoare, linctx, collapse, ident, galois):
    for sys in (
        hoare,
        linctx,
        collapse.mrs.sys,
        ident.mrs.sys,
        galois.left.source,
        galois.left.target,
        random_refsys(5),
    ):
        for s in (sys, sys.op()):
            for P, c, Q in judgments(s):
                assert s.derivations_unchecked(P, c, Q) == s.derivations(P, c, Q)
    # c starts at contexts of length 1, P has length 0: not a judgment
    c = linctx.T.mor_names.index("1>1[0]")
    P, Q = linctx.D.objects.index("[]"), linctx.D.objects.index("[A]")
    assert not linctx.valid_judgment(P, c, Q)
    with pytest.raises(StructuralError, match=r"\(\[\], 1>1\[0\], \[A\]\) is not a judgment"):
        linctx.derivations(P, c, Q)


def test_every_pushforward_is_the_image(hoare):
    for c, cname in enumerate(hoare.T.mor_names):
        for P, Pname in enumerate(hoare.D.objects):
            cert = find_pushforward(hoare, c, P)
            assert cert is not None, (cname, Pname)
            assert hoare.D.objects[cert.result] == pred_name(image_oracle(cname, pred_set(Pname)))
            assert cert.tests > 0


def test_every_pullback_is_the_preimage(hoare):
    for c, cname in enumerate(hoare.T.mor_names):
        for Q, Qname in enumerate(hoare.D.objects):
            cert = find_pullback(hoare, c, Q)
            assert cert is not None, (cname, Qname)
            assert hoare.D.objects[cert.result] == pred_name(preimage_oracle(cname, pred_set(Qname)))
            assert cert.tests > 0


def test_lifts_are_adjoint_across_all_judgments(hoare):
    # push(c,P) refines into Q exactly when P refines into pull(c,Q)
    for c in range(hoare.T.n_morphisms):
        for P in range(hoare.D.n_objects):
            push = find_pushforward(hoare, c, P).result
            for Q in range(hoare.D.n_objects):
                pull = find_pullback(hoare, c, Q).result
                lhs = bool(hoare.derivations(push, hoare.T.id_of(0), Q))
                rhs = bool(hoare.derivations(P, hoare.T.id_of(0), pull))
                assert lhs == rhs


def test_hoare_is_a_bifibration(hoare):
    ok_fib, missing = is_fibration(hoare)
    assert ok_fib and not missing
    ok_opf, missing = is_opfibration(hoare)
    assert ok_opf and not missing


def test_op_is_an_involution_on_tables(hoare):
    opop = hoare.op().op()
    assert opop.D.mor_dom == hoare.D.mor_dom
    assert opop.D.mor_cod == hoare.D.mor_cod
    assert opop.T.mor_dom == hoare.T.mor_dom
    for f, g in hoare.D.composable_pairs():
        assert opop.D.compose(f, g) == hoare.D.compose(f, g)


def test_op_swaps_lift_directions(hoare):
    op = hoare.op()
    for c in range(hoare.T.n_morphisms):
        for P in range(hoare.D.n_objects):
            push = find_pushforward(hoare, c, P)
            pull_in_op = find_pullback(op, c, P)
            assert pull_in_op is not None
            assert pull_in_op.result == push.result


def identity_adjunction(s, unit, counit):
    """id -| id on s, with the given refined unit and counit tables and
    identity base components."""
    idD, idT = identity_functor(s.D), identity_functor(s.T)
    m = RefSysMorphism("id", s, s, idD, idT)
    return RefSysAdjunction(
        "id",
        m,
        m,
        NatTransData("eta", idD, compose_functors(idD, idD), unit),
        NatTransData("eps", compose_functors(idD, idD), idD, counit),
        NatTransData("eta0", idT, compose_functors(idT, idT), tuple(s.T.identity)),
        NatTransData("eps0", compose_functors(idT, idT), idT, tuple(s.T.identity)),
    )


def test_both_halves_of_the_adjunction_check_can_fail(hoare):
    # The counit lines are the unit lines of adj.op(); a bad component on
    # either side breaks its naturality, both refined triangles at {} and
    # its projection, and the failure names the component as written.
    D = hoare.D
    ids = tuple(D.identity)
    rep = adjunction_check(identity_adjunction(hoare, ids, ids))
    assert (rep.attempted, rep.passed) == (24, 24)
    bad = D.mor_names.index("set0:{}>{}")
    broken = tuple(bad if P == D.dom(bad) else ids[P] for P in range(D.n_objects))
    for name, unit, counit in (("eps", ids, broken), ("eta", broken, ids)):
        rep = adjunction_check(identity_adjunction(hoare, unit, counit))
        assert (rep.attempted, rep.failed) == (24, 4), name
        assert rep.counterexample.startswith(
            f"{name}: naturality: square at swap:{{}}>{{}} does not commute"
        )


ADJ_PARTS = ("left", "right", "unit_ref", "counit_ref", "unit_base", "counit_base")


def galois_copies(adj, tampered=ADJ_PARTS):
    """The adjunction with one unit or counit component, or one refined
    morphism image of F or G, replaced by each morphism of its category,
    the original one included: (changed?, copy) pairs.  Only the parts
    named in `tampered` are replaced."""

    def copy(**changed):
        return RefSysAdjunction(adj.name, *(changed.get(p, getattr(adj, p)) for p in ADJ_PARTS))

    for name in ADJ_PARTS[2:]:
        if name not in tampered:
            continue
        nt = getattr(adj, name)
        for a, old in enumerate(nt.components):
            for m in range(nt.target_functor.target.n_morphisms):
                comps = nt.components[:a] + (m,) + nt.components[a + 1 :]
                tampered_nt = NatTransData(nt.name, nt.source_functor, nt.target_functor, comps)
                yield m != old, copy(**{name: tampered_nt})
    for side in ADJ_PARTS[:2]:
        if side not in tampered:
            continue
        mor = getattr(adj, side)
        F = mor.on_ref
        for f, old in enumerate(F.morphism_map):
            for m in range(F.target.n_morphisms):
                images = F.morphism_map[:f] + (m,) + F.morphism_map[f + 1 :]
                G = FunctorData(F.name, F.source, F.target, F.object_map, images)
                tampered_mor = RefSysMorphism(mor.name, mor.source, mor.target, G, mor.on_base)
                yield m != old, copy(**{side: tampered_mor})


def test_adjunction_check_reports_triangles_that_do_not_compose(galois, hoare):
    # On the galois posets every hom-set has at most one morphism, so each
    # changed copy breaks a component or a functor and must fail; in 57 of
    # them a triangle's two legs do not even compose, which is a failed
    # triangle, not an error.  The same holds on galois.op() and for every
    # unit and counit component of the identity adjunction on hoare.  So
    # each step of the proof that right adjoints preserve pullbacks, an
    # equation between composites of those laws, is decided here, and
    # rapp and lapp check the theorem only: on every copy they report,
    # green when nothing changed, and never raise.
    copies = list(galois_copies(galois))
    assert len(copies) == 120 and sum(changed for changed, _ in copies) == 97
    ids = tuple(hoare.D.identity)
    units = ("unit_ref", "counit_ref", "unit_base", "counit_base")
    on_hoare = list(galois_copies(identity_adjunction(hoare, ids, ids), units))
    assert len(on_hoare) == 312 and sum(changed for changed, _ in on_hoare) == 302
    for group, attempted in ((copies, 23), (galois_copies(galois.op()), 23), (on_hoare, 24)):
        for changed, adj in group:
            rep = adjunction_check(adj)
            assert rep.attempted == attempted
            assert rep.ok != changed, rep.counterexample
            for check in (rapp_check, lapp_check):
                app = check(adj)
                assert app.ok or changed, app.counterexample


def full_sweep_tests(sys, c, Q, P0, ell):
    """The universal property of ell out of P0 read at every (P, d) with
    d : t(P) -> dom c: the number of derivations (P, d;c, Q) if
    postcomposition with ell bijects derivations(P, d, P0) onto them at
    every point, else None."""
    D, T = sys.D, sys.T
    tests = 0
    for P in range(D.n_objects):
        for d in T.hom(sys.shape(P), T.dom(c)):
            betas = sys.derivations(P, T.compose(d, c), Q)
            images = [D.compose(sigma, ell) for sigma in sys.derivations(P, d, P0)]
            if len(set(images)) != len(images) or set(images) != set(betas):
                return None
            tests += len(betas)
    return tests


def test_lift_certification_agrees_with_a_sweep_over_every_point(
    hoare, linctx, collapse, ident, galois
):
    # Every candidate lift ell of every (c, Q, P0), on both sides; on the
    # smaller systems every morphism out of P0 stands in for ell as well
    # (rapp certifies G(ell), which a corrupted G may send anywhere), so
    # points with derivations into P0 but none into Q are reached too.
    systems = [(linctx, False)] + [
        (sys, True)
        for sys in (
            hoare,
            collapse.mrs.sys,
            ident.mrs.sys,
            galois.left.source,
            galois.left.target,
            *(random_refsys(seed) for seed in range(12)),
        )
    ]
    decided = certified = 0
    for sys, every_ell in systems:
        for s in (sys, sys.op()):
            T = s.T
            for c in range(T.n_morphisms):
                for Q in s.fiber(T.cod(c)):
                    for P0 in s.fiber(T.dom(c)):
                        ells = s.D.mor_out(P0) if every_ell else s.derivations(P0, c, Q)
                        for ell in ells:
                            got = refsys_mod._cartesian_tests(s, c, Q, P0, ell)
                            assert got == full_sweep_tests(s, c, Q, P0, ell), (
                                s.name, c, Q, P0, ell,
                            )
                            decided += 1
                            certified += got is not None
    assert 0 < certified < decided


def reference_lift_points(sys, c, Q, P0):
    """The (P, d) with a derivation (P, d, P0) or a derivation
    (P, d;c, Q), in sorted order, found by walking the derivations into
    P0 and into Q and scanning the hom-set into dom c at each source of
    the latter (the scan-based search the grouped one replaced)."""
    D, T, t = sys.D, sys.T, sys.t
    A = T.dom(c)
    points = {(D.dom(sigma), t.mor(sigma)) for sigma in D.mor_in(P0)}
    over = {}
    for beta in D.mor_in(Q):
        over.setdefault(D.dom(beta), set()).add(t.mor(beta))
    for P, es in over.items():
        for d in T.hom(sys.shape(P), A):
            if T.compose(d, c) in es:
                points.add((P, d))
    return sorted(points)


def reference_cartesian_tests(sys, c, Q, P0, ell):
    """`_cartesian_tests` read point by point at `reference_lift_points`."""
    T, ders = sys.T, sys.derivations_unchecked
    tests = 0
    for P, d in reference_lift_points(sys, c, Q, P0):
        betas = ders(P, T.compose(d, c), Q)
        sigmas = ders(P, d, P0)
        if len(sigmas) != len(betas):
            return None
        hit = set()
        for sigma in sigmas:
            composite = sys.D.compose(sigma, ell)
            if composite in hit:
                return None
            hit.add(composite)
        if hit != set(betas):
            return None
        tests += len(betas)
    return tests


def canonical_comma_lifts(s):
    """Every canonical lift (id_P, e) of the comma of s, as the arguments
    (comma^op, e, src, tgt, ell) of the opcartesian test factorization
    makes."""
    cs, T = comma_system(s), s.T
    lifts = []
    for e in range(T.n_morphisms):
        if T.is_identity(e):
            continue
        for P, c in slice_of(s, T.dom(e)).obj_tags:
            src, tgt = cs.obj_index[(P, c)], cs.obj_index[(P, T.compose(c, e))]
            ell = cs.mor_index[(s.D.identity[P], e, src, tgt)]
            lifts.append((cs.sys.op(), e, src, tgt, ell))
    return lifts


def test_grouped_lift_tests_match_the_scan_based_reference(hoare, collapse, ident, galois):
    # Every candidate (c, Q, P0, ell) from `derivations_into`, on both
    # sides, and every canonical comma lift of hoare: the sigmas and betas
    # grouped by (source, base morphism) and the d with d;c = x read from
    # an inverted row give the count, or None, of the hom-set scan.
    systems = [hoare, collapse.mrs.sys, ident.mrs.sys, galois.left.source, galois.left.target]
    systems += [random_refsys(seed) for seed in range(8)]
    cases = [
        (s, c, Q, P0, ell)
        for sys in systems
        for s in (sys, sys.op())
        for c in range(s.T.n_morphisms)
        for Q in s.fiber(s.T.cod(c))
        for P0, ell in s.derivations_into(c, Q)
    ]
    lifts = canonical_comma_lifts(hoare) + canonical_comma_lifts(hoare.op())
    assert len(lifts) == 96
    certified = 0
    for case in cases + lifts:
        got = refsys_mod._cartesian_tests(*case)
        assert got == reference_cartesian_tests(*case), case[1:]
        certified += got is not None
    assert all(refsys_mod._cartesian_tests(*lift) is not None for lift in lifts)
    assert len(lifts) < certified < len(cases) + len(lifts)


def fiber_scan_pullback(s, c, Q):
    """The pullback search as a scan of the fiber over dom c: every
    refinement in index order, each derivation over c in index order."""
    for P0 in s.fiber(s.T.dom(c)):
        for ell in s.derivations(P0, c, Q):
            tests = refsys_mod._cartesian_tests(s, c, Q, P0, ell)
            if tests is not None:
                return (P0, ell, tests)
    return None


def certificate(cert):
    return None if cert is None else (cert.result, cert.structural, cert.tests)


def test_indexed_pullback_search_certifies_what_a_fiber_scan_certifies(hoare, linctx):
    # The search reads its candidates from the index of derivations by
    # (c, Q): the certificate, None included, is the one a scan of the
    # fiber finds first.
    found = missing = 0
    for sys in (hoare, linctx, *(random_refsys(seed) for seed in range(6))):
        for s in (sys, sys.op()):
            for c in range(s.T.n_morphisms):
                for Q in s.fiber(s.T.cod(c)):
                    got = certificate(find_pullback(s, c, Q))
                    assert got == fiber_scan_pullback(s, c, Q), (s.name, c, Q)
                    found += got is not None
                    missing += got is None
    assert found and missing


def test_an_index_that_drops_a_lift_shows_in_the_preservation_transcript(
    tmp_path, monkeypatch, capsys
):
    # Drop the certified lift of the first (c, Q) with c not an identity
    # from the index of a fresh hoare system: the search no longer finds
    # what a fiber scan finds, and `verify preservation` reports it (as a
    # skip: a lift the search misses is not told apart from a missing
    # one).
    path = tmp_path / "h.fix"
    path.write_text("fixture h hoare\n")
    assert main(["verify", str(path), "preservation"]) == 0
    clean = capsys.readouterr().out
    sys = build_hoare(default_hoare_spec())
    c, Q, (P0, ell, _) = next(
        (c, Q, fiber_scan_pullback(sys, c, Q))
        for c in range(sys.T.n_morphisms)
        if not sys.T.is_identity(c)
        for Q in sys.fiber(sys.T.cod(c))
        if fiber_scan_pullback(sys, c, Q)
    )
    real = RefinementSystem._index_into

    def dropped(self):
        index = real(self)
        if not self.name.endswith("^op"):
            index[(c, Q)] = tuple(x for x in index[(c, Q)] if x != (P0, ell))
        return index

    monkeypatch.setattr(RefinementSystem, "_index_into", dropped)
    assert certificate(find_pullback(sys, c, Q)) != fiber_scan_pullback(sys, c, Q)
    main(["verify", str(path), "preservation"])
    out = capsys.readouterr().out
    assert out != clean
    assert f"no pullback of {sys.D.objects[Q]} along {sys.T.mor_names[c]}" in out


def test_monoidal_validation_on_the_lattice_fixture(collapse):
    rep = monoidal_system_laws(collapse.mrs)
    assert rep.ok, [v.detail for v in rep.violations]


def iz3():
    """I and X with hom(X, X) = Z/3, morphism 1 + k being k in Z/3."""
    return FinCategory(
        "IZ3",
        ["I", "X"],
        [("id_I", 0, 0), ("0", 1, 1), ("1", 1, 1), ("2", 1, 1)],
        [0, 1],
        lambda f, g: f if g == 0 else 1 + (f - 1 + g - 1) % 3,
    )


def iz3_tensor(cat, a, b):
    """The tensor on IZ3 with unit I, X (x) X = X and f (x) g = a f + b g
    on X-morphisms."""
    return MonoidalStructure(
        product(cat, cat),
        0,
        max,
        lambda f, g: g if f == 0 else f if g == 0 else 1 + (a * (f - 1) + b * (g - 1)) % 3,
    )


def test_monoidal_validation_checks_associativity_on_morphisms():
    # f (x) g = 2f + 2g on X-morphisms: unital, functorial and associative
    # on objects, but (f (x) g) (x) h = f + g + 2h while
    # f (x) (g (x) h) = 2f + g + h.
    cat = iz3()
    assert validate_category(cat).ok
    rep = monoidal_laws(iz3_tensor(cat, 2, 2))
    assert [v.law for v in rep.violations] == ["tensor associativity"] * 18  # f != h
    assert rep.violations[0].detail == "morphism associativity fails at (0, 0, 1)"
    assert monoidal_laws(iz3_tensor(cat, 1, 1)).ok


def with_entry(mon, f, g, value):
    """mon with f (x) g replaced by value, on the same product category."""
    return MonoidalStructure(
        mon.tensor.source,
        mon.unit,
        mon.tobj,
        lambda f2, g2: value if (f2, g2) == (f, g) else mon.tmor(f2, g2),
    )


def group_system(h, g):
    """D = Z/h x BZ/g over T = BZ/g by the projection: hom(x, x) is Z/g in
    D, morphism x*g + k being k at x.  Both tensors add componentwise, so
    the projection is strict monoidal and D is not thin."""
    D = FinCategory(
        f"Z{h}xBZ{g}",
        [str(x) for x in range(h)],
        [(f"{k}@{x}", x, x) for x in range(h) for k in range(g)],
        [x * g for x in range(h)],
        lambda f, k: f - f % g + (f + k) % g,
    )
    T = FinCategory(f"BZ{g}", ["*"], [(str(k), 0, 0) for k in range(g)], [0], lambda a, b: (a + b) % g)
    t = FunctorData("pr", D, T, (0,) * h, tuple(f % g for f in range(h * g)))
    return MonoidalRefinementSystem(
        RefinementSystem(f"group{h}x{g}", t),
        MonoidalStructure(
            product(D, D),
            0,
            lambda x, y: (x + y) % h,
            lambda f, k: (f // g + k // g) % h * g + (f + k) % g,
        ),
        MonoidalStructure(product(T, T), 0, lambda a, b: 0, lambda a, b: (a + b) % g),
    )


def tensor_structures():
    cat = iz3()
    validate_category(cat)
    return [iz3_tensor(cat, 2, 2), group_system(2, 3).mon_ref, collapse_lattice_fixture().mrs.mon_ref]


def test_a_corrupted_tensor_entry_is_listed_as_the_full_sweep_lists_it():
    # The tensor's functor laws are decided on the generators of cat x cat;
    # when one image off them is replaced, by each morphism of its hom-set
    # or by one outside it, the listed violations must be those of a sweep
    # over every composable pair of cat x cat.
    for mon in tensor_structures():
        cat, pair = mon.cat, mon.tensor.source
        assert not [v for v in monoidal_laws(mon).violations if v.law != "tensor associativity"]
        for m in range(pair.n_morphisms):
            if m in pair._lawful:
                continue
            f, g = pair.split_mor(m)
            hom = cat.hom(mon.tobj(cat.dom(f), cat.dom(g)), mon.tobj(cat.cod(f), cat.cod(g)))
            outside = [x for x in range(cat.n_morphisms) if x not in hom][:1]
            for value in (*hom, *outside):
                bad = with_entry(mon, f, g, value)
                functor_laws = [
                    (v.law, v.detail) for v in monoidal_laws(bad).violations if not v.law.startswith("tensor ")
                ]
                want = [(v.law, v.detail) for v in reference_validate_functor(bad.tensor).violations]
                assert functor_laws == want
                assert bool(want) == (value != mon.tmor(f, g))
                assert listed_associativity(bad) == swept_associativity(bad)


def swept_associativity(mon):
    """The morphism associativity failures found by sweeping every triple."""
    t, names = mon.tmor, mon.cat.mor_names
    return [
        f"morphism associativity fails at ({names[f]}, {names[g]}, {names[h]})"
        for f, g, h in itertools.product(range(mon.cat.n_morphisms), repeat=3)
        if t(t(f, g), h) != t(f, t(g, h))
    ]


def listed_associativity(mon):
    return [v.detail for v in monoidal_laws(mon).violations if v.detail.startswith("morphism associativity")]


def scaled_group_tensor(h, g, a, b):
    """The D-tensor of group_system(h, g) with the group parts scaled:
    (x, k) (x) (y, k2) = (x + y, a k + b k2), a functor for every a, b."""
    D = group_system(h, g).sys.D
    return MonoidalStructure(
        product(D, D), 0, lambda x, y: (x + y) % h, lambda f, k: (f // g + k // g) % h * g + (a * f + b * k) % g
    )


def test_tensor_associativity_is_listed_as_the_full_sweep_lists_it():
    # f (x) g = a f + b g, on the X-morphisms of IZ3 and on the group part
    # of Z/2 x BZ/3, is a functor for every a, b.  Morphism associativity
    # holds iff a and b are idempotent mod 3, and where it fails every
    # failing triple is listed.
    cat = iz3()
    validate_category(cat)
    for a, b in itertools.product(range(3), repeat=2):
        for mon in (iz3_tensor(cat, a, b), scaled_group_tensor(2, 3, a, b)):
            assert [v for v in monoidal_laws(mon).violations if not v.law.startswith("tensor")] == []
            listed = listed_associativity(mon)
            assert listed == swept_associativity(mon)
            assert bool(listed) == (a * a % 3 != a or b * b % 3 != b)


def test_one_corrupted_interchange_entry_lists_every_broken_pair():
    cat = iz3()
    validate_category(cat)
    mon = iz3_tensor(cat, 1, 1)
    assert monoidal_laws(mon).ok and mon.tensor.source.pair_mor(2, 2) not in mon.tensor.source._lawful
    bad = with_entry(mon, 2, 2, 1)  # 1 (x) 1 = 0 instead of 2
    broken = [v for v in monoidal_laws(bad).violations if v.law == "composition"]
    assert len(broken) == 22
    assert [str(v) for v in broken] == [str(v) for v in reference_validate_functor(bad.tensor).violations]


def test_a_broken_projection_square_is_reported_on_a_non_thin_system():
    mrs = group_system(2, 3)
    assert monoidal_system_laws(mrs).ok
    D = mrs.sys.D
    f, g = D.mor_names.index("1@0"), D.mor_names.index("1@1")
    bad = MonoidalRefinementSystem(mrs.sys, with_entry(mrs.mon_ref, f, g, D.mor_names.index("0@1")), mrs.mon_base)
    squares = [v.detail for v in monoidal_system_laws(bad).violations if v.law == "monoidal projection"]
    assert squares == ["projection not monoidal at morphisms (1@0, 1@1)"]
    # The same comparison for a morphism of systems: doubling on the base
    # does not commute with the identity on D.
    T = mrs.sys.T
    double = FunctorData("double", T, T, (0,), (0, 2, 1))
    m = RefSysMorphism("twist", mrs.sys, mrs.sys, identity_functor(D), double)
    rep = m.validate()
    assert [v.detail for v in rep.violations] == [
        f"square broken at morphism {D.mor_names[a]}: {T.mor_names[a % 3]} != {T.mor_names[2 * a % 3]}"
        for a in range(D.n_morphisms)
        if a % 3
    ]


def test_residuals_match_set_implication(collapse):
    # on a powerset with meet as tensor, both residuals are relative complement
    mon = collapse.mrs.mon_ref
    names = collapse.mrs.sys.D.objects
    full = pred_set(names[mon.unit])

    def imp(a, c):
        return pred_name((full - a) | c)

    for a, aname in enumerate(names):
        for c, cname in enumerate(names):
            want = imp(pred_set(aname), pred_set(cname))
            left = find_left_residual(mon, a, c)
            right = find_right_residual(mon, a, c)
            assert left is not None and names[left[0]] == want
            assert right is not None and names[right[0]] == want


def s3_tensor():
    """The discrete category on the six permutations of three points, with
    composition of permutations as a strict tensor that does not commute.
    Returns the structure and the table of inverses."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = {
        (a, b): index[tuple(perms[a][perms[b][k]] for k in range(3))]
        for a in range(6)
        for b in range(6)
    }
    cat = discrete_category(["".join(map(str, p)) for p in perms])
    # discrete_category numbers each identity like its object
    mon = MonoidalStructure(product(cat, cat), index[(0, 1, 2)], lambda a, b: table[a, b], lambda a, b: table[a, b])
    inv = [next(b for b in range(6) if table[(a, b)] == mon.unit) for a in range(6)]
    return mon, inv


def test_right_constructions_on_a_noncommutative_tensor():
    mon, inv = s3_tensor()
    assert monoidal_laws(mon).ok
    assert any(mon.tobj(a, b) != mon.tobj(b, a) for a in range(6) for b in range(6))
    for a in range(6):
        for c in range(6):
            assert find_left_residual(mon, a, c) == (mon.tobj(inv[a], c), c)
            assert find_right_residual(mon, a, c) == (mon.tobj(c, inv[a]), c)
    for a in range(6):
        for b in range(6):
            p = mon.tobj(a, b)
            x, plug = find_left_residual(mon, a, p)
            assert x == b and left_curry(mon, p, a, b, x, plug) == b
            x, plug = find_right_residual(mon, b, p)
            assert x == a and right_curry(mon, p, a, b, x, plug) == a
    rev = mon.reversed()
    assert all(rev.tobj(a, b) == mon.tobj(b, a) for a in range(6) for b in range(6))
    assert rev.tensor.source is mon.tensor.source and rev.reversed() is mon


@given(st.integers(min_value=0, max_value=4000))
@settings(max_examples=25, deadline=None)
def test_verify_all_is_green_on_random_systems(seed):
    # Every suite that reads a lift search runs here on a random system.
    ws = loads(f"fixture r random seed={seed}\n")
    reports = run_suite(ws, None, "all", SIZE_GUARD)
    assert {r.name: r.counterexample for r in reports if r.failed} == {}


@pytest.mark.parametrize("kind", ["hoare", "linctx", "lattice-collapse", "galois"])
def test_an_uncertified_pullback_turns_preservation_red(kind, tmp_path, monkeypatch):
    # A pullback search that skips the cartesian tests and returns its last
    # candidate hands preservation a lift that is not one.
    def last_candidate(sys, c, Q):
        found = sys.derivations_into(c, Q)
        if not found:
            return None
        P0, ell = found[-1]
        return refsys_mod.LiftCertificate(P0, ell, 0)

    path = tmp_path / "w.fix"
    path.write_text(f"fixture w {kind}\n")
    monkeypatch.setattr(refsys_mod, "_search_pullback", last_candidate)
    assert main(["verify", str(path), "preservation", "--system", "w"]) == 1


def test_random_generation_is_deterministic():
    a, b = random_refsys(7), random_refsys(7)
    assert a.D.mor_names == b.D.mor_names
    assert a.T.mor_names == b.T.mor_names
    assert a.t.object_map == b.t.object_map
    assert a.t.morphism_map == b.t.morphism_map
