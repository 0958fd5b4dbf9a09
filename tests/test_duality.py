"""The slice x coslice pairing, cuts, dualization, and the encoding checks.

The pairing read straight from the derivation index (`Pairing`, in
conftest) is compared with a reference that builds the whole category
of judgments and its derivation presheaf.  The dualizers read it from
the two representations: the cut at a coslice point (d,R), one column of
the pairing, is rep(R) pulled along the slice action of d, and that
identity is checked here against the reference at every point.
`dual_cross_check` recomputes each dual from `Pairing`'s rows, on both
sides of every refinement of every shipped fixture and of random
systems: the two readings are residuals of one pairing, curried on
either side, so the dualizers are adjoint (Isbell conjugation).

The corruption test deliberately breaks an internal action table and
asserts the machinery notices; it guards against the checks degenerating
into comparisons of a value with itself.  The dualizers, which read the
pairing only on the support of their input, are compared with a dense
reference that builds every cut presheaf over the whole slice.
"""

import gc
import itertools
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refcat.duality as duality_mod
import refcat.represent as represent_mod
from refcat.cli import main
from refcat.day import notnottensor_check
from refcat.duality import (
    _duals,
    dual_left,
    dual_right,
    duality_check,
    negative_encoding_check,
)
from refcat.fincat import (
    FinCategory,
    FunctorData,
    StructuralError,
    product,
    validate_functor,
)
from refcat.fixtures import (
    build_hoare,
    build_linctx,
    default_hoare_spec,
    default_linear_spec,
    random_refsys,
)
from refcat.psh import (
    Presheaf,
    natural_families,
    pull_psh,
    push_psh,
    validate_presheaf,
    vertical_iso_psh,
)
from refcat.represent import (
    coslice_action,
    coslice_of,
    factorization_check,
    neg_rep,
    pos_rep,
    slice_action,
    slice_of,
)
from refcat.textio import loads
from tests.conftest import (
    Pairing,
    bang_system,
    dual_cross_check,
    image_oracle,
    judgments,
    pairing,
    pred_set,
)
from tests.test_fincat import chain_category
from tests.test_golden import CASES
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


# ---------------------------------------------------------------------------
# Reference: the category of judgments and its derivation presheaf.  A
# morphism (P1,c1,Q1) -> (P2,c2,Q2) is a pair (beta : P1 -> P2,
# gamma : Q2 -> Q1) with c1 = t(beta);c2;t(gamma); it sends a derivation
# sigma of the target judgment to beta;sigma;gamma.  The pairing read
# along it, ((P,c),(d,R)) |-> (P, c;d, R), is what `Pairing` tabulates.


def reference_judgments(sys):
    """The judgment category of sys with its derivation presheaf `der`,
    built in full and kept on the system."""
    cache = sys.__dict__.setdefault("_judgments_reference", [])
    if cache:
        return cache[0]
    D, T, t = sys.D, sys.T, sys.t
    obj_tags = tuple(judgments(sys))
    obj_index = {tag: i for i, tag in enumerate(obj_tags)}
    mor_tags = []
    for beta in range(D.n_morphisms):
        P1, P2 = D.dom(beta), D.cod(beta)
        for gamma in range(D.n_morphisms):
            Q2, Q1 = D.dom(gamma), D.cod(gamma)
            for c2 in T.hom(sys.shape(P2), sys.shape(Q2)):
                c1 = T.compose(t.mor(beta), T.compose(c2, t.mor(gamma)))
                mor_tags.append((beta, gamma, obj_index[(P1, c1, Q1)], obj_index[(P2, c2, Q2)]))
    mor_index = {tag: k for k, tag in enumerate(mor_tags)}
    identity = [
        mor_index[(D.identity[P], D.identity[Q], i, i)] for i, (P, _c, Q) in enumerate(obj_tags)
    ]

    def comp(f, g):
        b1, g1, s, _ = mor_tags[f]
        b2, g2, _, u = mor_tags[g]
        return mor_index[(D.compose(b1, b2), D.compose(g2, g1), s, u)]

    cat = FinCategory(
        f"jdg({sys.name})",
        [sys.judgment_name(*tag) for tag in obj_tags],
        [(f"({D.mor_names[b]},{D.mor_names[g]})#{si}->{ti}", si, ti) for (b, g, si, ti) in mor_tags],
        identity,
        comp,
    )
    ders = [sys.derivations(*tag) for tag in obj_tags]
    pos = [{d: k for k, d in enumerate(x)} for x in ders]
    der = Presheaf(
        f"der({sys.name})",
        cat,
        tuple(tuple(D.mor_names[d] for d in x) for x in ders),
        tuple(
            tuple(pos[si][D.compose(beta, D.compose(sigma, gamma))] for sigma in ders[ti])
            for (beta, gamma, si, ti) in mor_tags
        ),
        tuple(ders),
    )
    jc = SimpleNamespace(
        cat=cat, obj_tags=obj_tags, mor_tags=tuple(mor_tags),
        obj_index=obj_index, mor_index=mor_index, der=der,
    )
    cache.append(jc)
    return jc


def reference_pairing(sys, B):
    """The pairing over B as two-argument index maps into the reference
    judgment category: (obj(i, j), mor(f, g))."""
    J, T = reference_judgments(sys), sys.T
    S, Cs = slice_of(sys, B), coslice_of(sys, B)

    def obj(i, j):
        (P, c), (R, d) = S.obj_tags[i], Cs.obj_tags[j]
        return J.obj_index[(P, T.compose(c, d), R)]

    def mor(f, g):
        alpha, s1, t1 = S.mor_tags[f]
        gamma, s2, t2 = Cs.mor_tags[g]
        return J.mor_index[(alpha, gamma, obj(s1, s2), obj(t1, t2))]

    return obj, mor


def test_judgment_category_counts_from_pair_oracle(hoare):
    J = reference_judgments(hoare)
    assert J.cat.n_objects == 4 * 4 * 4
    names_D = hoare.D.objects
    names_T = hoare.T.mor_names
    expected = 0
    for P1, c1, Q1 in judgments(hoare):
        for P2, c2, Q2 in judgments(hoare):
            for d in names_T:
                if not image_oracle(d, pred_set(names_D[P1])) <= pred_set(names_D[P2]):
                    continue
                for e in names_T:
                    if not image_oracle(e, pred_set(names_D[Q2])) <= pred_set(names_D[Q1]):
                        continue
                    if composite_command(composite_command(d, names_T[c2]), e) == names_T[c1]:
                        expected += 1
    assert J.cat.n_morphisms == expected == 5776


def test_der_presheaf_marks_exactly_the_derivable_judgments(hoare):
    J = reference_judgments(hoare)
    der = J.der
    assert validate_presheaf(der).ok
    assert der.total_elements() == hoare.D.n_morphisms  # one payload per derivation
    for o, (P, c, Q) in enumerate(J.obj_tags):
        holds = image_oracle(hoare.T.mor_names[c], pred_set(hoare.D.objects[P])) <= pred_set(hoare.D.objects[Q])
        assert der.size(o) == (1 if holds else 0)


def test_bracket_functor_validates(hoare):
    # The pairing is a functor on slice x coslice into the judgments.
    obj, mor = reference_pairing(hoare, 0)
    prod = product(slice_of(hoare, 0).cat, coslice_of(hoare, 0).cat)
    br = FunctorData(
        "cut[W]",
        prod,
        reference_judgments(hoare).cat,
        tuple(obj(*prod.split_obj(x)) for x in range(prod.n_objects)),
        tuple(mor(*prod.split_mor(m)) for m in range(prod.n_morphisms)),
    )
    assert validate_functor(br).ok
    assert br.target.name.startswith("jdg")


@pytest.mark.parametrize("which", ["hoare", "lattice-identity"])
def test_pairing_tables_are_the_reference_der_along_the_pairing(which, hoare, ident):
    sys = hoare if which == "hoare" else ident.mrs.sys
    bases = [0] if which == "hoare" else range(sys.T.n_objects)
    der = reference_judgments(sys).der
    for B in bases:
        pair = pairing(sys, B)
        obj, mor = reference_pairing(sys, B)
        S, Cs = pair.slice.cat, pair.coslice.cat
        for i in range(S.n_objects):
            for j in range(Cs.n_objects):
                assert pair.ders(i, j) == der.payloads[obj(i, j)]
                assert pair.size(i, j) == der.size(obj(i, j))
        for f in range(S.n_morphisms):
            for g in range(Cs.n_morphisms):
                assert pair.row(f, g) == der.action[mor(f, g)]


def point_section(sys, B, point, side):
    """The old route to a point section: the pairing restricted to one
    coslice point (side "pos") or one slice point (side "neg"), as a
    functor into the judgment category, pulled back along the derivation
    presheaf."""
    J = reference_judgments(sys)
    obj, mor = reference_pairing(sys, B)
    S, Cs = slice_of(sys, B), coslice_of(sys, B)
    if side == "pos":
        j = Cs.obj_index[point]
        F = FunctorData(
            "kQ", S.cat, J.cat,
            tuple(obj(i, j) for i in range(S.cat.n_objects)),
            tuple(mor(f, Cs.cat.id_of(j)) for f in range(S.cat.n_morphisms)),
        )
    else:
        i = S.obj_index[point]
        F = FunctorData(
            "vQ", Cs.cat, J.cat,
            tuple(obj(i, j) for j in range(Cs.cat.n_objects)),
            tuple(mor(S.cat.id_of(i), g) for g in range(Cs.cat.n_morphisms)),
        )
    return pull_psh(F, J.der)


def cut(s, B, point):
    """The cut of s at the coslice point (d,R) of B, as the dualizers read
    it: rep(R) pulled along the slice action of d."""
    R, d = point
    return pull_psh(slice_action(s, d), pos_rep(s, R))


def test_cut_sections_are_the_pulled_derivation_presheaf(hoare, collapse, ident, galois):
    systems = [
        hoare,
        collapse.mrs.sys,
        ident.mrs.sys,
        galois.left.source,
        galois.left.target,
        *(random_refsys(seed) for seed in (5, 11, 123)),
    ]
    for sys in systems:
        for B in range(sys.T.n_objects):
            for s, side in ((sys, "pos"), (sys.op(), "neg")):
                for point in coslice_of(s, B).obj_tags:
                    got = cut(s, B, point)
                    want = point_section(sys, B, point, side)
                    assert got.base is want.base
                    assert got.elements == want.elements
                    assert got.action == want.action
                    assert got.payloads == want.payloads


def test_duality_every_hoare_refinement(hoare):
    for Q in range(hoare.D.n_objects):
        rep = duality_check(hoare, Q)
        assert rep.ok and (rep.passed, rep.failed, rep.skipped) == (2, 0, 0) and not rep.notes


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


def test_a_dropped_dual_is_freed_without_the_cycle_collector(hoare):
    # A presheaf's rows are checked with no reference back to it, so a
    # dual, once every row is read, is no reference cycle.
    out = dual_left(hoare, 0, pos_rep(hoare, 1))
    assert list(out.action)
    ref = weakref.ref(out)
    gc.disable()
    try:
        del out
        assert ref() is None
    finally:
        gc.enable()


def test_duals_reverse_the_refinement_order(hoare):
    # Q1 below Q2 gives a family from the dual of Q2 into the dual of Q1
    duals = {Q: dual_left(hoare, 0, pos_rep(hoare, Q)) for Q in range(4)}
    for Q1 in range(4):
        for Q2 in range(4):
            if pred_set(hoare.D.objects[Q1]) <= pred_set(hoare.D.objects[Q2]):
                assert natural_families(duals[Q2], duals[Q1])


def test_cross_check_route_agrees_on_small_systems():
    for base in (chain_category(2), skew_pair()):
        sys = bang_system(base)
        cross_check_every_refinement(sys)
        assert all(duality_check(sys, Q).ok for Q in range(sys.D.n_objects))


def test_cross_check_reads_every_dual_row_the_iso_search_skips(hoare):
    # The iso search reads a dual's rows only for constraints into a set
    # of two or more families; the cross-check still compares every row
    # into a nonempty point.
    skipped = 0
    for Q in range(hoare.D.n_objects):
        B = hoare.shape(Q)
        for side, rep, other, dual in (
            ("left", pos_rep, neg_rep, dual_left),
            ("right", neg_rep, pos_rep, dual_right),
        ):
            inp = rep(hoare, Q)
            out = dual(hoare, B, inp)
            assert vertical_iso_psh(other(hoare, Q), out) is not None
            live = {f for f in range(out.base.n_morphisms) if out.payloads[out.base.cod(f)]}
            skipped += len(live) - len(out.action._got)
            dual_cross_check(hoare, B, inp, out, side)
            assert set(out.action._got) == live
    assert skipped > 0


def rotated_dual_left(real):
    """`real` with every action row of its result rotated by one."""

    def rotating(sys, B, phi):
        dual = real(sys, B, phi)
        return Presheaf(
            dual.name,
            dual.base,
            dual.elements,
            lambda f: dual.action[f][1:] + dual.action[f][:1],
            dual.payloads,
        )

    return rotating


def test_cross_check_compares_action_rows(monkeypatch):
    # A dual_left whose rows are rotated keeps every family and every
    # row's arity and range, so only a row-by-row comparison sees it.  On
    # the skew system rep(Q0)'s left dual has two families at every point.
    # dual_right is dual_left in the opposite system, so it turns too.
    rotating = rotated_dual_left(duality_mod.dual_left)
    sys = bang_system(skew_pair())
    plain = dual_left(sys, 0, pos_rep(sys, 0))
    monkeypatch.setattr(duality_mod, "dual_left", rotating)
    skewed = duality_mod.dual_left(sys, 0, pos_rep(sys, 0))
    assert skewed.payloads == plain.payloads
    assert all(len(r) == 2 and r == p[::-1] for r, p in zip(skewed.action, plain.action))
    for side, rep, dual in (("left", pos_rep, rotating), ("right", neg_rep, dual_right)):
        inp = rep(sys, 0)
        with pytest.raises(StructuralError, match=r"pairing's rows along id_a#0->0"):
            dual_cross_check(sys, 0, inp, dual(sys, 0, inp), side)
    assert not duality_check(sys, 0).ok


def test_cross_check_sees_a_pairing_with_reversed_rows(monkeypatch):
    # The cross-check reads the pairing's rows: reversing each of them
    # must make it disagree with the dualizers, which read the representations.
    sys = bang_system(skew_pair())
    real = Pairing.row
    monkeypatch.setattr(Pairing, "row", lambda self, f, g: real(self, f, g)[::-1])
    for side, rep, dual in (("left", pos_rep, dual_left), ("right", neg_rep, dual_right)):
        inp = rep(sys, 0)
        with pytest.raises(StructuralError):
            dual_cross_check(sys, 0, inp, dual(sys, 0, inp), side)


def cross_check_every_refinement(sys):
    """The reference: both duals of every refinement of sys agree with
    the residual of the pairing read from the derivation index."""
    for Q in range(sys.D.n_objects):
        B = sys.shape(Q)
        for side in ("left", "right"):
            rep, dual = _duals(side)
            inp = rep(sys, Q)
            dual_cross_check(sys, B, inp, dual(sys, B, inp), side)


def shipped_system(name):
    body, extra = CASES[name]
    return loads(body + "\n").the_system(extra[1] if extra else None)


@pytest.mark.parametrize("name", sorted(CASES))
def test_dualizers_agree_with_the_pairing_on_every_shipped_fixture(name):
    cross_check_every_refinement(shipped_system(name))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=4000))
def test_dualizers_agree_with_the_pairing_on_random_systems(seed):
    cross_check_every_refinement(random_refsys(seed))


@pytest.mark.parametrize("tamper", ["reversed pairing rows", "rotated dual rows"])
def test_the_reference_turns_red_on_random_3(tamper, monkeypatch):
    # random-3 is the one shipped system with a judgment of several
    # derivations, so the only one where a permuted row can show.
    if tamper == "reversed pairing rows":
        real = Pairing.row
        monkeypatch.setattr(Pairing, "row", lambda self, f, g: real(self, f, g)[::-1])
    else:
        monkeypatch.setattr(duality_mod, "dual_left", rotated_dual_left(duality_mod.dual_left))
    with pytest.raises(StructuralError, match=r"the dualizer disagrees with the residual"):
        cross_check_every_refinement(shipped_system("random-3"))


def invertible(c):
    from tests.conftest import HOARE_FN

    return len(set(HOARE_FN[c].values())) == 2


def test_negative_encoding_every_hoare_pushforward(hoare):
    for c, cname in enumerate(hoare.T.mor_names):
        for P in range(hoare.D.n_objects):
            rep = negative_encoding_check(hoare, c, P)
            assert rep.ok and (rep.passed, rep.failed, rep.skipped) == (3, 0, 0)
            # one push alone recovers the representation exactly for the
            # invertible transformers, never for the collapsing ones
            want = "yes" if invertible(cname) else "no"
            assert any(n.endswith(want) for n in rep.notes), (cname, P, rep.notes)


def test_dualization_turns_every_push_into_a_pull_on_random_systems():
    # pull_c neg(P) = dualL(push_c rep(P)) holds at every (c, P), with or
    # without a pushforward; negative-encoding decides it where one exists.
    checked = 0
    for seed in range(60):
        s = random_refsys(seed)
        for c in range(s.T.n_morphisms):
            B = s.T.cod(c)
            for P in s.fiber(s.T.dom(c)):
                pulled = pull_psh(coslice_action(s, c), neg_rep(s, P))
                pushed = push_psh(slice_action(s, c), pos_rep(s, P))
                assert vertical_iso_psh(pulled, dual_left(s, B, pushed)) is not None, (seed, c, P)
                checked += 1
    assert checked == 304


def drop_one_family(X):
    """X without the last family at its last nonempty point j, and without
    every family that a morphism out of j moves onto it: what is left is
    still a presheaf."""
    C = X.base
    j = max(a for a in range(C.n_objects) if X.elements[a])
    x = len(X.elements[j]) - 1
    gone = {(C.mor_cod[u], y) for u in C.mor_out(j) for y, z in enumerate(X.action[u]) if z == x}
    kept = [[y for y in range(len(X.elements[a])) if (a, y) not in gone] for a in range(C.n_objects)]
    at = [{y: k for k, y in enumerate(ys)} for ys in kept]
    return Presheaf(
        X.name,
        C,
        [tuple(X.elements[a][y] for y in ys) for a, ys in enumerate(kept)],
        lambda u: tuple(at[C.mor_dom[u]][X.action[u][y]] for y in kept[C.mor_cod[u]]),
    )


def test_a_dual_of_a_push_missing_a_family_turns_negative_encoding_red(tmp_path, monkeypatch, capsys):
    # Only the duals of pushes lose a family, so the first clause, whose
    # dual is of a pull, holds, and the pull/push exchange fails first.
    real = duality_mod.dual_left

    def mutant(sys, B, phi):
        dual = real(sys, B, phi)
        return drop_one_family(dual) if phi.name.startswith("push[") else dual

    monkeypatch.setattr(duality_mod, "dual_left", mutant)
    path = tmp_path / "h.fix"
    path.write_text("fixture h hoare\n")
    assert main(["verify", str(path), "negative-encoding"]) == 1
    out = capsys.readouterr().out
    cex = out.split("counterexample:\n", 1)[1].splitlines()[0]
    assert "]: pulled negative rep(" in cex and "is not the left dual of pushed rep(" in cex


def test_notnottensor_on_lattices(collapse, ident):
    for fx in (collapse, ident):
        for mo in fx.monoids:
            fib = fx.mrs.sys.fiber(mo.W)
            for P in fib:
                for Q in fib:
                    rep = notnottensor_check(fx.mrs, mo, P, Q)
                    assert rep.ok and rep.failed == 0 and rep.attempted >= 1


def reversed_derivation_row(monkeypatch):
    """Reverse, in every representation built from now on, the first
    non-identity action row of its slice that has at least two distinct
    entries."""
    orig = represent_mod._derivation_row

    def tampered(slice_, phi, m):
        S = slice_.cat
        first = next(
            (
                k
                for k in range(S.n_morphisms)
                if not S.is_identity(k) and len(set(orig(slice_, phi, k))) >= 2
            ),
            None,
        )
        row = orig(slice_, phi, m)
        return tuple(reversed(row)) if m == first else row

    monkeypatch.setattr(represent_mod, "_derivation_row", tampered)


def test_corrupted_derivation_action_is_detected(monkeypatch):
    sys = bang_system(skew_pair())
    clean = sum(duality_check(sys, Q).failed for Q in range(2))
    assert clean == 0

    reversed_derivation_row(monkeypatch)
    poisoned = bang_system(skew_pair())

    def counterexample(Q):
        # A reversed row either fails a dual clause or breaks the
        # naturality of a moved family, which raises (the suite records
        # that as a failed report).
        try:
            return duality_check(poisoned, Q).counterexample
        except StructuralError as exc:
            return str(exc)

    assert [counterexample(Q) for Q in range(2)] == [
        "curried_residual: moved family not natural along g#1->0",
        None,
    ]


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_hoare(default_hoare_spec()),
        lambda: build_linctx(default_linear_spec(), 3),
    ],
    ids=["hoare", "linctx"],
)
def test_a_derivation_off_the_point_support_turns_factorization_red(build):
    # The duality suite reads rep(Q) and neg(Q) and compares neither with
    # the hom presheaf of the point (Q, id): factorization (i) does.  A
    # derivation claimed in the index for a judgment (P, c, Q) off that
    # support must show up there.
    sys = build()
    D = sys.D
    Q, i = next(
        (Q, i)
        for Q in range(D.n_objects)
        for i, point in enumerate(slice_of(sys, sys.shape(Q)).obj_tags)
        if point not in sys.derivation_index[Q]
    )
    S = slice_of(sys, sys.shape(Q))
    P, c = S.obj_tags[i]
    sys.derivation_index[Q][(P, c)] = (D.identity[P],)
    rep = factorization_check(sys)
    assert not rep.ok
    assert rep.counterexample == (
        f"pos representability of {D.objects[Q]}: "
        f"point morphisms at {S.obj_name(i)} are not its derivations"
    )


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda row: row + (0,), "has wrong arity"),
        (lambda row: tuple(v + 99 for v in row), "hits a bad index"),
    ],
)
def test_cut_rows_are_checked_like_presheaf_rows(monkeypatch, corrupt, message):
    # A dual moves its families along a coslice morphism by the rows of
    # the negative representations; a corrupted one raises when the
    # dual's row is read, as any presheaf row does.
    sys = bang_system(skew_pair())
    orig = represent_mod._derivation_row
    monkeypatch.setattr(
        represent_mod,
        "_derivation_row",
        lambda S, phi, m: corrupt(orig(S, phi, m)) if S.sys is sys.op() else orig(S, phi, m),
    )
    with pytest.raises(StructuralError, match=message):
        for Q in range(sys.D.n_objects):
            validate_presheaf(dual_left(sys, 0, pos_rep(sys, Q)))


# ---------------------------------------------------------------------------
# Dense reference for the dualizers: every cut(-, j) is a full presheaf over
# the slice, and the families are enumerated over the whole slice by a
# search of their own, not by the library's enumerator.


def reference_families(phi, psi):
    """Natural families phi => psi over one base: backtracking over phi's
    nonempty objects in index order, checking every square at an object
    as soon as both of its ends are assigned."""
    A = phi.base
    support = [a for a in range(A.n_objects) if phi.elements[a]]
    assigned = {}
    out = []

    def natural_at(a):
        for u in A.mor_in(a) + A.mor_out(a):
            d, c = A.dom(u), A.cod(u)
            if d in assigned and c in assigned:
                for x in range(phi.size(c)):
                    if assigned[d][phi.action[u][x]] != psi.action[u][assigned[c][x]]:
                        return False
        return True

    def extend(k):
        if k == len(support):
            out.append(tuple(assigned.get(a, ()) for a in range(A.n_objects)))
            return
        a = support[k]
        for cand in itertools.product(range(psi.size(a)), repeat=phi.size(a)):
            assigned[a] = cand
            if natural_at(a):
                extend(k + 1)
        assigned.pop(a, None)

    extend(0)
    return out


def dense_cut(sys, B, idx):
    cache = sys.__dict__.setdefault("_dense_cut_reference", {})
    if (B, idx) in cache:
        return cache[(B, idx)]
    D, T = sys.D, sys.T
    S, Cs = slice_of(sys, B), coslice_of(sys, B)
    (R, d) = Cs.obj_tags[idx]
    sets = [sys.derivations(P, T.compose(c, d), R) for (P, c) in S.obj_tags]
    pos = [{x: k for k, x in enumerate(s)} for s in sets]
    action = tuple(
        tuple(pos[s][D.compose(m, x)] for x in sets[u]) for (m, s, u) in S.mor_tags
    )
    psh = Presheaf(
        f"cut(-,{Cs.obj_name(idx)})",
        S.cat,
        tuple(tuple(D.mor_names[x] for x in s) for s in sets),
        action,
        tuple(tuple(s) for s in sets),
    )
    cache[(B, idx)] = (psh, pos)
    return psh, pos


def dense_dual_left(sys, B, phi):
    D = sys.D
    S, Cs = slice_of(sys, B), coslice_of(sys, B)
    assert phi.base is S.cat
    cuts = [dense_cut(sys, B, j) for j in range(Cs.cat.n_objects)]
    fams_at = [reference_families(phi, psi) for (psi, _pos) in cuts]
    fam_index = [{fam: k for k, fam in enumerate(fams)} for fams in fams_at]
    elements = tuple(
        tuple(f"s{j}.{k}" for k in range(len(fams_at[j])))
        for j in range(Cs.cat.n_objects)
    )
    action = []
    for (gamma, s, u) in Cs.mor_tags:
        psi_u, _ = cuts[u]
        _, pos_s = cuts[s]
        row = []
        for fam in fams_at[u]:
            moved = tuple(
                tuple(pos_s[i][D.compose(psi_u.payloads[i][v], gamma)] for v in fam[i])
                for i in range(S.cat.n_objects)
            )
            row.append(fam_index[s][moved])
        action.append(tuple(row))
    return Presheaf(
        f"dualL({phi.name})", Cs.cat, elements, tuple(action),
        tuple(tuple(fams) for fams in fams_at),
    )


def dense_dual_right(sys, B, psi):
    out = dense_dual_left(sys.op(), B, psi)
    out.name = f"dualR({psi.name})"
    return out


def assert_same_dual(got, want):
    assert got.name == want.name
    assert got.elements == want.elements
    assert got.action == want.action
    assert got.payloads == want.payloads


def assert_duals_match_on_every_refinement(sys, fiber_bound=None):
    for Q in range(sys.D.n_objects):
        B = sys.shape(Q)
        if fiber_bound is not None and B > fiber_bound:
            continue
        phi, psi = pos_rep(sys, Q), neg_rep(sys, Q)
        assert_same_dual(dual_left(sys, B, phi), dense_dual_left(sys, B, phi))
        assert_same_dual(dual_right(sys, B, psi), dense_dual_right(sys, B, psi))


def test_sparse_duals_match_the_dense_reference(hoare, collapse, ident, galois):
    systems = [
        hoare,
        collapse.mrs.sys,
        ident.mrs.sys,
        galois.left.source,
        galois.left.target,
        bang_system(chain_category(2)),
        bang_system(chain_category(3)),
        bang_system(skew_pair()),
    ]
    for sys in systems:
        assert_duals_match_on_every_refinement(sys)


def test_sparse_duals_match_the_dense_reference_on_short_contexts(linctx):
    # base objects are context lengths; length 3 is left to the golden run
    assert_duals_match_on_every_refinement(linctx, fiber_bound=2)


def test_sparse_duals_match_the_dense_reference_on_wider_supports(hoare, collapse):
    # inputs that are not representations: pushed representations, and
    # duals fed back to the other dualizer
    for sys in (hoare, collapse.mrs.sys):
        T = sys.T
        for c in range(T.n_morphisms):
            A, B = T.dom(c), T.cod(c)
            for P in sys.fiber(A):
                pushed = push_psh(slice_action(sys, c), pos_rep(sys, P))
                assert_same_dual(dual_left(sys, B, pushed), dense_dual_left(sys, B, pushed))
        for Q in range(sys.D.n_objects):
            B = sys.shape(Q)
            dl = dual_left(sys, B, pos_rep(sys, Q))
            assert_same_dual(dual_right(sys, B, dl), dense_dual_right(sys, B, dl))
            drdl = dual_right(sys, B, dl)
            assert_same_dual(dual_left(sys, B, drdl), dense_dual_left(sys, B, drdl))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sparse_duals_match_the_dense_reference_on_random_systems(seed):
    sys = random_refsys(seed)
    assert_duals_match_on_every_refinement(sys)
    for Q in range(sys.D.n_objects):
        B = sys.shape(Q)
        dl = dual_left(sys, B, pos_rep(sys, Q))
        assert_same_dual(dual_right(sys, B, dl), dense_dual_right(sys, B, dl))


def count_pairing_reads(monkeypatch):
    """Count the derivation sets of the pairing that the dualizers read
    from now on: each is one size asked by `curried_residual`."""
    reads = [0]
    real = duality_mod.curried_residual

    def counted(phi, right, size, row, points=None):
        def counted_size(a, b):
            reads[0] += 1
            return size(a, b)

        return real(phi, right, counted_size, row, points)

    monkeypatch.setattr(duality_mod, "curried_residual", counted)
    return reads


def test_cold_dual_reads_derivations_only_on_the_support(monkeypatch):
    B = 3
    reads = count_pairing_reads(monkeypatch)
    for k in (0, -1):
        sys = build_linctx(default_linear_spec(), 3)
        n_coslice = coslice_of(sys, B).cat.n_objects
        n_slice = slice_of(sys, B).cat.n_objects
        phi = pos_rep(sys, sys.fiber(B)[k])
        reads[0] = 0
        dual_left(sys, B, phi)
        assert 0 < reads[0] <= n_coslice * len(phi.support()) < n_coslice * n_slice


def test_a_dual_that_reads_off_the_support_fails_the_read_bound(monkeypatch):
    # The guard above can fail: a dual that forgets that its input's
    # support is a sieve, and reads the pairing over the whole slice, does.
    B = 3
    sys = build_linctx(default_linear_spec(), 3)
    n_coslice = coslice_of(sys, B).cat.n_objects
    n_slice = slice_of(sys, B).cat.n_objects
    phi = pos_rep(sys, sys.fiber(B)[0])
    bound = n_coslice * len(phi.support())
    monkeypatch.setattr(phi, "support", lambda: tuple(range(n_slice)))
    monkeypatch.setattr(
        duality_mod, "_live_points", lambda s, B, support: range(n_coslice)
    )
    reads = count_pairing_reads(monkeypatch)
    dual_left(sys, B, phi)
    assert reads[0] == n_coslice * n_slice > bound
