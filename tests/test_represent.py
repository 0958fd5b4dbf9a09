"""Slices, representations, and the transfer checks, against hand oracles.

Hoare-side expectations come from the frozen transition table in conftest.
Linear-context expectations come from a brute-force proof counter that only
reads the rule declarations, never the built category.
"""

import importlib
import inspect
import pkgutil
from collections import Counter
from types import SimpleNamespace

import pytest

import refcat
import refcat.day as day_mod
import refcat.fincat as fincat_mod
import refcat.psh as psh_mod
import refcat.pshcore as pshcore_mod
import refcat.repchecks as repchecks_mod
import refcat.represent as represent_mod
from refcat.cli import main
from refcat.duality import negative_encoding_check
from refcat.fincat import (
    FinCategory,
    SizeGuardExceeded,
    compose_functors,
    validate_category,
    validate_functor,
)
from refcat.day import (
    fiber_residual_left,
    fiber_tensor,
    genday_check,
    m_derivation,
    m_functor,
    monoid_lax_check,
)
from refcat.fixtures import (
    build_hoare,
    build_linctx,
    collapse_lattice_fixture,
    default_hoare_spec,
    default_linear_spec,
    identity_lattice_fixture,
    linctx_data,
    random_refsys,
)
from refcat.psh import (
    Presheaf,
    PshDerivation,
    natural_families,
    pull_psh,
    representable,
    validate_psh_derivation,
)
from refcat.refsys import _cartesian_tests
from refcat.repchecks import factorization_check, preservation_check, representation_ff_check
from refcat.represent import (
    comma_morphism_count,
    comma_system,
    coslice_action,
    coslice_of,
    neg_rep,
    pos_rep,
    pos_rep_derivation,
    slice_action,
    slice_of,
)
from tests.conftest import HOARE_FN, image_oracle, judgments, pred_set
from tests.test_fincat import comma_non_generator, functors_equal
from tests.test_refsys import canonical_comma_lifts

STATES = ("s0", "s1")


def composite_command(c1, c2):
    """Name of the transformer 'do c1 then c2' in the frozen table."""
    fn = {s: HOARE_FN[c2][HOARE_FN[c1][s]] for s in STATES}
    return next(n for n, m in HOARE_FN.items() if m == fn)


def test_hoare_slice_matches_the_composition_oracle(hoare):
    S = slice_of(hoare, 0)
    assert validate_category(S.cat).ok
    assert S.cat.n_objects == 16  # every (predicate, command) pair
    expected = 0
    for P, c in S.obj_tags:
        for P2, c2 in S.obj_tags:
            Pn, P2n = hoare.D.objects[P], hoare.D.objects[P2]
            cn, c2n = hoare.T.mor_names[c], hoare.T.mor_names[c2]
            for d in HOARE_FN:
                if composite_command(d, c2n) == cn and image_oracle(d, pred_set(Pn)) <= pred_set(P2n):
                    expected += 1
    assert S.cat.n_morphisms == expected


def test_slice_action_respects_composition(hoare):
    for e1 in range(hoare.T.n_morphisms):
        for e2 in range(hoare.T.n_morphisms):
            two_steps = compose_functors(slice_action(hoare, e1), slice_action(hoare, e2))
            one_step = slice_action(hoare, hoare.T.compose(e1, e2))
            assert functors_equal(two_steps, one_step)
    for e in range(hoare.T.n_morphisms):
        assert validate_functor(coslice_action(hoare, e)).ok


def test_hoare_coslice_shape(hoare):
    C = coslice_of(hoare, 0)
    assert validate_category(C.cat).ok
    assert C.cat.n_objects == 16


def test_pos_rep_sizes_are_derivable_judgments(hoare):
    for Q, Qname in enumerate(hoare.D.objects):
        phi = pos_rep(hoare, Q)
        S = slice_of(hoare, hoare.shape(Q))
        for o, (P, c) in enumerate(S.obj_tags):
            holds = image_oracle(hoare.T.mor_names[c], pred_set(hoare.D.objects[P])) <= pred_set(Qname)
            assert phi.size(o) == (1 if holds else 0)


def test_neg_rep_sizes_are_derivable_judgments(hoare):
    for P, Pname in enumerate(hoare.D.objects):
        psi = neg_rep(hoare, P)
        C = coslice_of(hoare, hoare.shape(P))
        assert psi.base.n_objects == C.cat.n_objects
        for o, (Q, c) in enumerate(C.obj_tags):
            holds = image_oracle(hoare.T.mor_names[c], pred_set(Pname)) <= pred_set(hoare.D.objects[Q])
            assert psi.size(o) == (1 if holds else 0)


def test_representation_is_fully_faithful_on_hoare(hoare):
    # one check per judgment on each side, positive and negative
    rep = representation_ff_check(hoare)
    assert rep.ok and rep.passed == 2 * len(list(judgments(hoare))) > 0


@pytest.mark.parametrize("seed", [None, 3, 11, 42, 1234])
def test_ff_sweep_finds_the_families_natural_families_finds(hoare, seed):
    # The sweep searches the judgments that can have a family or have a
    # derivation, in the order of `judgments`, and finds what the
    # one-judgment enumerator finds; every judgment it only counts has
    # neither a derivation nor a family.
    sys = hoare if seed is None else random_refsys(seed)
    for s in (sys, sys.op()):
        every = list(judgments(s))
        searched, unsearched = repchecks_mod._judgment_families(s)
        visited = [j for j, _fams in searched]
        assert len(visited) + unsearched == len(every)
        assert visited == [j for j in every if j in set(visited)]
        for (Q1, c, Q2), fams in searched:
            assert fams == natural_families(pos_rep(s, Q1), pos_rep(s, Q2), slice_action(s, c))
        for Q1, c, Q2 in set(every) - set(visited):
            assert s.derivations(Q1, c, Q2) == ()
            assert natural_families(pos_rep(s, Q1), pos_rep(s, Q2), slice_action(s, c)) == []


def test_the_sweep_searches_every_derivation_whatever_the_index_of_supports_says(
    hoare, linctx, monkeypatch
):
    # The judgments with a derivation are added from the derivation index,
    # so an index of rep supports that misses every refinement still
    # leaves each of them searched, not counted.
    monkeypatch.setattr(repchecks_mod, "_holders", lambda sys, B: {})
    for sys in (hoare, linctx):
        for s in (sys, sys.op()):
            searched, _ = repchecks_mod._judgment_families(s)
            derivable = [j for j in judgments(s) if s.derivations(*j)]
            assert [j for j, _fams in searched] == derivable


def with_junk_off_the_support(sys, Q):
    """Replace rep(Q) in the memo by rep(Q) with one junk element at every
    slice point off its support.  The junk element carries no derivation,
    and a slice morphism sends it to element 0 of its source.  A judgment
    (P, c, Q) whose image meets the junk points can then have a family
    with no derivation behind it.  Returns the tampered presheaf."""
    real = pos_rep(sys, Q)
    S = real.base
    support = set(real.support())
    on = lambda i: i in support
    junk = Presheaf(
        f"junk {real.name}",
        S,
        tuple(tuple(real.elements[i]) if on(i) else ("junk",) for i in range(S.n_objects)),
        lambda m: tuple(real.action[m]) if on(S.cod(m)) else (0,),
        tuple(tuple(real.payloads[i]) if on(i) else () for i in range(S.n_objects)),
    )
    junk._support = tuple(range(S.n_objects))
    sys._memo[("pos rep", Q)] = junk
    return junk


@pytest.mark.parametrize("which", ["hoare", "linctx"])
def test_a_rep_with_a_spurious_element_turns_ff_red(which):
    # A refinement Q gets junk elements off its support, for the largest
    # Q where that gives some judgment (P, c, Q) with P < Q a family but
    # no derivation.  The first such judgment is the first to fail
    # (judgments into Q with a derivation meet no junk point, and the
    # judgments out of Q come after it): the sweep must search it, not
    # count it, and name it.
    build = {
        "hoare": lambda: build_hoare(default_hoare_spec()),
        "linctx": lambda: build_linctx(default_linear_spec(), 3),
    }[which]
    clean = {j for j, _fams in repchecks_mod._judgment_families(build())[0]}

    def target(Q):
        sys = build()
        junk = with_junk_off_the_support(sys, Q)
        return next(
            (
                (sys, (P, c, Q))
                for P, c, Q2 in judgments(sys)
                if Q2 == Q
                and P < Q
                and not sys.derivations(P, c, Q)
                and natural_families(pos_rep(sys, P), junk, slice_action(sys, c))
            ),
            None,
        )

    sys, (P, c, Q) = next(filter(None, map(target, reversed(range(build().D.n_objects)))))
    assert (P, c, Q) not in clean
    rep = representation_ff_check(sys)
    assert not rep.ok
    assert rep.passed + rep.failed + rep.skipped == rep.attempted
    assert rep.attempted == 2 * len(list(judgments(sys)))
    assert rep.counterexample.startswith(
        f"pos {sys.judgment_name(P, c, Q)}: 0 derivations but "
    )


def empty_last_support_point(sys, name):
    """Empty rep(Q) at its last support point, in the system's memo, for Q
    the refinement called `name`: the derivation there is lost."""
    rep = pos_rep(sys, sys.D.objects.index(name))
    last = rep.support()[-1]
    elements, payloads = list(rep.elements), list(rep.payloads)
    elements[last] = payloads[last] = ()
    rep.elements, rep.payloads = tuple(elements), tuple(payloads)


def test_a_representation_missing_an_element_is_a_failed_ff_report():
    # swap sends the derivation set0;swap into {s0} to one into {s0,s1},
    # which rep({s0,s1}) no longer has: the sweep names the derivation
    # whose image has no element instead of raising.
    sys = build_hoare(default_hoare_spec())
    empty_last_support_point(sys, "{s0,s1}")
    rep = representation_ff_check(sys)
    assert not rep.ok and rep.failed == 7
    assert rep.counterexample == (
        "pos {s0} =swap=> {s0,s1}: image of swap:{s0}>{s0,s1} has no element at "
        "({s0,s1},set0;swap): rep({s0,s1}) lacks set0;swap:{s0,s1}>{s0,s1}"
    )


def corrupt_representation(sys, tamper):
    """Corrupt hoare's rep({s0,s1}) in the system's memo: drop its
    payloads, or the first point of its support, which is then no longer
    a sieve."""
    rep = pos_rep(sys, sys.D.objects.index("{s0,s1}"))
    if tamper == "payloads":
        rep.payloads = None
    else:
        rep._support = rep.support()[1:]


CORRUPTED_REP_FAILURES = {
    "payloads": (18, "pos {} =id=> {s0,s1}: rep({s0,s1}) has no derivations as payloads"),
    "sieve": (
        6,
        "pos {s0,s1} =set0=> {s0}: the support of rep({s0,s1}) is not a sieve: "
        "swap:{}>{}#0->2 into ({},swap) starts off it",
    ),
}


@pytest.mark.parametrize("tamper", sorted(CORRUPTED_REP_FAILURES))
def test_a_corrupted_representation_is_a_failed_ff_report(tamper):
    # A representation with no payloads, or whose support is not a sieve,
    # fails the judgments that read it, named by the refinement, instead
    # of raising in Presheaf.position or psh._closing.
    sys = build_hoare(default_hoare_spec())
    corrupt_representation(sys, tamper)
    rep = representation_ff_check(sys)
    failed, counterexample = CORRUPTED_REP_FAILURES[tamper]
    assert not rep.ok and rep.failed == failed and rep.attempted == 128
    assert rep.counterexample == counterexample


def pairwise_slice_tags(sys, B):
    """Slice tags by the pairwise formula: for every point (P1, c1), every
    alpha : P1 -> P2 over e and every c2 : t(P2) -> B with e;c2 = c1."""
    D, T = sys.D, sys.T
    obj_tags = [(P, c) for P in range(D.n_objects) for c in T.hom(sys.shape(P), B)]
    index = {tag: i for i, tag in enumerate(obj_tags)}
    mor_tags = []
    for si, (P1, c1) in enumerate(obj_tags):
        out = sorted(
            (index[(D.cod(alpha), c2)], alpha)
            for alpha in D.mor_out(P1)
            for c2 in T.hom(sys.shape(D.cod(alpha)), B)
            if T.compose(sys.t.mor(alpha), c2) == c1
        )
        mor_tags += [(alpha, si, ti) for ti, alpha in out]
    return tuple(obj_tags), tuple(mor_tags)


def test_slices_actions_pulls_and_points_match_the_pairwise_formulas(
    hoare, linctx, collapse, ident, galois
):
    # Slices, slice actions, pulled supports and hom presheaves are built
    # from blocks and preimages; each must equal its pointwise formula.
    systems = [hoare, linctx, collapse.mrs.sys, ident.mrs.sys, galois.left.source, galois.left.target]
    systems += [random_refsys(seed) for seed in range(6)]
    for s in (side for sys in systems for side in (sys, sys.op())):
        T = s.T
        for B in range(T.n_objects):
            S = slice_of(s, B)
            assert (S.obj_tags, S.mor_tags) == pairwise_slice_tags(s, B)
            for Q in s.fiber(B):
                y = representable(S.cat, S.obj_index[(Q, T.identity[B])])
                homs = tuple(S.cat.hom(a, S.obj_index[(Q, T.identity[B])]) for a in range(S.cat.n_objects))
                assert y.payloads == homs
                assert y.support() == tuple(a for a, h in enumerate(homs) if h)
                assert tuple(y.elements) == tuple(tuple(S.cat.mor_names[m] for m in h) for h in homs)
        for e in range(T.n_morphisms):
            F = slice_action(s, e)
            S1, S2 = slice_of(s, T.dom(e)), slice_of(s, T.cod(e))
            omap = tuple(S2.obj_index[(P, T.compose(c, e))] for (P, c) in S1.obj_tags)
            assert tuple(F.object_map) == omap
            for Q in s.fiber(T.cod(e)):
                psi = pos_rep(s, Q)
                pulled = pull_psh(F, psi)
                assert pulled.support() == tuple(a for a, b in enumerate(omap) if psi.payloads[b])
                assert pulled.payloads == tuple(psi.payloads[b] for b in omap)
                assert pulled.elements == tuple(psi.elements[b] for b in omap)


def test_slice_names_read_on_demand_are_the_eager_format(hoare):
    # Slice names are formatted when read; read back to front, each must
    # be (P,c) or alpha#s->t formatted here from the slice's tags.
    for s in (hoare, hoare.op()):
        D, T = s.D, s.T
        for B in range(T.n_objects):
            S = slice_of(s, B)
            objects = [f"({D.objects[P]},{T.mor_names[c]})" for P, c in S.obj_tags]
            morphisms = [f"{D.mor_names[a]}#{si}->{ti}" for a, si, ti in S.mor_tags]
            assert [S.obj_name(i) for i in reversed(range(len(objects)))] == objects[::-1]
            assert [S.mor_name(k) for k in reversed(range(len(morphisms)))] == morphisms[::-1]
            assert tuple(S.cat.objects) == tuple(objects)
            assert tuple(S.cat.mor_names) == tuple(morphisms)
            assert [(S.cat.dom(k), S.cat.cod(k)) for k in range(len(morphisms))] == [
                (si, ti) for _a, si, ti in S.mor_tags
            ]


def test_verify_linctx_ff_formats_no_slice_name_and_asks_no_slice_hom_set(
    tmp_path, monkeypatch, capsys
):
    # After `verify <linctx> ff` no slice has formatted a name, no slice
    # hom-set was asked for, and every category keeps exactly the
    # hom-sets it was asked for.
    path = tmp_path / "l.fix"
    path.write_text("fixture l linctx K=3\n")
    slices = []
    real_slice = represent_mod.SliceCategory
    monkeypatch.setattr(
        represent_mod, "SliceCategory", lambda sys, B: slices.append(real_slice(sys, B)) or slices[-1]
    )
    asked = {}
    real_hom = FinCategory.hom

    def hom(self, a, b):
        asked.setdefault(id(self), (self, set()))[1].add((a, b))
        return real_hom(self, a, b)

    monkeypatch.setattr(FinCategory, "hom", hom)
    assert main(["verify", str(path), "ff"]) == 0
    assert "attempted 30182 passed 30182" in capsys.readouterr().out
    assert len(slices) == 8
    for S in slices:
        assert (len(S.cat.objects._got), len(S.cat.mor_names._got)) == (0, 0)
        assert S.cat._hom == {} and id(S.cat) not in asked
    assert asked
    for cat, pairs in asked.values():
        assert set(cat._hom) == pairs


def test_rep_derivations_validate(hoare):
    for sigma in range(hoare.D.n_morphisms):
        for s in (hoare, hoare.op()):
            d = pos_rep_derivation(s, sigma)
            assert validate_psh_derivation(d).ok, (s.name, sigma)


def test_linctx_slice_over_the_singleton_shape_is_the_context_category(linctx):
    # each context has exactly one map to the one-position shape, so the
    # slice reproduces the context category on the nose
    S = slice_of(linctx, 1)
    assert S.cat.n_objects == linctx.D.n_objects == 35
    assert S.cat.n_morphisms == linctx.D.n_morphisms == 124
    assert sorted(P for P, _ in S.obj_tags) == list(range(35))


def test_linctx_coslice_counts_pointed_contexts(linctx):
    mc, _K, ctx_index, u_index = linctx_data(linctx)
    points = sum(len(ctx) for ctx in ctx_index)
    assert points == 4 * 1 + 10 * 2 + 20 * 3 == 84
    C = coslice_of(linctx, 1)
    assert C.cat.n_objects == points


def proofs_between(mc, sources, target):
    """Number of declared rules with the given source multiset and target."""
    key = tuple(sorted(sources))
    return sum(
        1
        for mm in mc.multimorphisms
        if tuple(sorted(mm.source)) == key and mm.target == target
    )


def context_morphism_count(mc, src, tgt):
    """Brute force over position assignments; reads only the declarations."""
    total = 0
    for bits in range(len(tgt) ** len(src) if tgt else (1 if not src else 0)):
        u = []
        x = bits
        for _ in range(len(src)):
            u.append(x % len(tgt))
            x //= len(tgt)
        count = 1
        for j, tf in enumerate(tgt):
            srcs = [src[i] for i in range(len(src)) if u[i] == j]
            count *= proofs_between(mc, srcs, tf)
        total += count
    if not tgt:
        total = 1 if not src else 0  # only the empty assignment, needing no rules
        for _ in src:
            total = 0
    return total


def test_pointed_negative_representation_counts(linctx):
    # a pointed context (X, j) supports exactly (proofs into the pointed
    # formula) x (closed proofs of the rest), one factor per position
    mc, _K, ctx_index, u_index = linctx_data(linctx)
    formulas = mc.formulas
    for F in formulas:
        P = linctx.D.objects.index(f"[{F}]")
        psi = neg_rep(linctx, P)
        C = coslice_of(linctx, 1)
        assert psi.base.n_objects == C.cat.n_objects
        for o, (X, c) in enumerate(C.obj_tags):
            uname = linctx.T.mor_names[c]
            j = int(uname.split("[", 1)[1].rstrip("]"))
            ctx = linctx.D.objects[X].strip("[]")
            parts = tuple(ctx.split(",")) if ctx else ()
            rest = parts[:j] + parts[j + 1 :]
            want = proofs_between(mc, (F,), parts[j])
            for g in rest:
                want *= proofs_between(mc, (), g)
            assert psi.size(o) == want, (F, parts, j)
    # spot total for the first formula per the product formula above
    psi = neg_rep(linctx, linctx.D.objects.index("[A]"))
    assert psi.total_elements() == 3


def test_preservation_counts(hoare, linctx):
    ph = preservation_check(hoare)
    assert ph.ok and (ph.passed, ph.failed, ph.skipped) == (24, 0, 0) and not ph.notes
    pl = preservation_check(linctx)
    assert pl.ok and (pl.passed, pl.failed, pl.skipped) == (116, 0, 1669) and not pl.notes
    # Whether the single push is the pushforward's representation is
    # negative-encoding's note: on hoare it is in 4 of the 12 instances
    # off the identity.
    T = hoare.T
    notes = [
        n
        for c in range(T.n_morphisms)
        if not T.is_identity(c)
        for P in hoare.fiber(T.dom(c))
        for n in negative_encoding_check(hoare, c, P).notes
    ]
    assert len(notes) == 12 and sum(n.endswith("yes") for n in notes) == 4


def test_factorization_counts(hoare, linctx):
    fh = factorization_check(hoare)
    assert fh.ok and (fh.passed, fh.failed, fh.skipped) == (14, 0, 0)
    fl = factorization_check(linctx)
    assert fl.ok and (fl.passed, fl.failed, fl.skipped) == (70, 0, 2)
    assert all("comma" in r for r in fl.skip_reasons)


def listing_tampered(monkeypatch, comma, tamper):
    """Make `repchecks.CommaCategory` build the comma named like `comma`
    from the listing tamper(tags)."""
    real = repchecks_mod.CommaCategory

    def tampered(name, D, T, obj_tags, mor_tags):
        if name == comma.name:
            mor_tags = tamper(mor_tags)
        return real(name, D, T, obj_tags, mor_tags)

    monkeypatch.setattr(repchecks_mod, "CommaCategory", tampered)


def test_factorization_sees_a_tag_missing_from_the_comma_listing(hoare, monkeypatch):
    # The tag of a non-identity composite is dropped from the listing of
    # the pos comma: a canonical lift of the comma then fails its
    # opcartesian test, with no law sweep of the comma and no KeyError.
    comma, m = comma_non_generator(hoare)
    tag = comma.mor_tags[m]
    listing_tampered(monkeypatch, comma, lambda tags: tuple(x for x in tags if x != tag))
    rep = factorization_check(hoare)
    assert not rep.ok and rep.failed == 1
    assert rep.counterexample == (
        "pos comma transport: canonical lift of ({},id) along set0 is not opcartesian"
    )


@pytest.mark.parametrize("tamper", ["repeated", "identity"])
def test_a_malformed_comma_listing_is_a_failed_factorization_report(
    hoare, tmp_path, monkeypatch, capsys, tamper
):
    # A tag listed twice, or an identity tag left out, is a StructuralError
    # of the comma's construction: `verify all` records it as one failed
    # factorization report and goes on, with no traceback.
    comma = comma_system(hoare).sys.D
    if tamper == "repeated":
        listing_tampered(monkeypatch, comma, lambda tags: tags + tags[-1:])
        message = "comma(hoare): 1 tag(s) repeated"
    else:
        first = comma.mor_tags[comma.identity[0]]
        listing_tampered(monkeypatch, comma, lambda tags: tuple(x for x in tags if x != first))
        message = "comma(hoare): identity of object 0 is not listed"
    path = tmp_path / "h.fix"
    path.write_text("fixture h hoare\n")
    assert main(["verify", str(path), "all"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    block = out.split("check factorization[hoare] [", 1)[1].split("\ncheck ", 1)[0]
    assert "  attempted 1 passed 0 failed 1 skipped 0\n" in block
    assert f"    {message}\n" in block


def test_comma_route_runs_no_law_sweep_and_scans_no_hom_set(hoare, tmp_path, monkeypatch, capsys):
    # A comma carries D's and T's laws (`fincat.CommaCategory`): during
    # `verify all` nothing validates a comma, its opposite or a functor out
    # of one, and no associativity test reads one.  Listing the tags of
    # both hoare commas and testing their 96 canonical lifts read inverted
    # rows, never a hom-set.
    calls = Counter()
    real_hom = FinCategory.hom
    for s in (hoare, hoare.op()):
        for B in range(s.T.n_objects):
            slice_of(s, B)
    monkeypatch.setattr(
        FinCategory, "hom", lambda self, a, b: calls.update(["hom"]) or real_hom(self, a, b)
    )
    lifts = canonical_comma_lifts(hoare) + canonical_comma_lifts(hoare.op())
    assert len(lifts) == 96 and None not in [_cartesian_tests(*lift) for lift in lifts]
    assert calls["hom"] == 0
    monkeypatch.undo()

    def is_comma(cat):
        return isinstance(getattr(cat, "_original", cat), repchecks_mod.CommaCategory)

    found = pkgutil.walk_packages(refcat.__path__, f"{refcat.__name__}.")
    modules = [importlib.import_module(m.name) for m in found]
    for name, category_of in (
        ("validate_category", lambda cat, *_: cat),
        ("validate_functor", lambda F: F.source),
        ("_associative", lambda cat, *_: cat),
    ):
        real = getattr(fincat_mod, name)

        def counted(*args, _name=name, _real=real, _of=category_of):
            calls.update([_name, f"{_name} on a comma"] if is_comma(_of(*args)) else [_name])
            return _real(*args)

        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    path = tmp_path / "h.fix"
    path.write_text("fixture h hoare\n")
    assert main(["verify", str(path), "all"]) == 0
    capsys.readouterr()
    # No fixture category is swept either (`tests/test_fincat.py` sweeps
    # them); validating the system shows the counters are live.
    assert calls == Counter()
    build_hoare(default_hoare_spec()).validate()
    assert (calls["validate_category"], calls["validate_functor"]) == (2, 1) and calls["_associative"] > 0
    assert [k for k in calls if k.endswith("on a comma")] == []


def test_factorization_sees_a_corrupted_comma_shape_image(hoare, monkeypatch):
    # The shape functor sends one non-generator to another endomorphism of
    # W: endpoints and identities are kept, and the comma system's
    # derivations over the two endomorphisms change, so a canonical lift
    # fails its opcartesian test.
    comma, m = comma_non_generator(hoare)
    real = represent_mod.FunctorData

    def tampered(name, source, target, object_map, morphism_map):
        if name == f"cod[{hoare.name}]":
            e = morphism_map[m]
            other = next(x for x in target.hom(target.dom(e), target.cod(e)) if x != e)
            morphism_map = morphism_map[:m] + (other,) + morphism_map[m + 1 :]
        return real(name, source, target, object_map, morphism_map)

    monkeypatch.setattr(represent_mod, "FunctorData", tampered)
    rep = factorization_check(hoare)
    assert not rep.ok
    assert rep.counterexample.endswith("is not opcartesian")


LINCTX_K2_FACTORIZATION = (
    "check factorization[linctx] [representations factor through slice points and comma transport]\n"
    "  attempted 46 passed 46 failed 0 skipped 0\n"
    "\n"
    "suite factorization: 1/1 reports ok\n"
)


def test_linctx_k2_factorization_decides_both_comma_routes(tmp_path, monkeypatch, capsys):
    # At K=2 both commas of linctx are under the default guard, so the
    # lift and transport clauses run on both sides, nothing skipped.
    path = tmp_path / "l.fix"
    path.write_text("fixture l linctx K=2\n")
    assert main(["verify", str(path), "factorization"]) == 0
    assert capsys.readouterr().out == LINCTX_K2_FACTORIZATION

    # A slice action that sends each non-identity slice morphism to the
    # identity at the image of its codomain keeps every point: only the
    # transport clause reads the morphism images, and it turns red.
    real = repchecks_mod.slice_action

    def tampered(sys, e):
        F = real(sys, e)
        S2 = F.slices[1].cat
        image = lambda k: F.mor(k) if F.source.is_identity(k) else S2.identity[F.obj(F.source.cod(k))]
        return SimpleNamespace(obj=F.obj, mor=image)

    monkeypatch.setattr(repchecks_mod, "slice_action", tampered)
    # Each side stops at its first red transport: one failure per side.
    assert main(["verify", str(path), "factorization"]) == 1
    assert capsys.readouterr().out == (
        "check factorization[linctx] [representations factor through slice points and comma transport]\n"
        "  attempted 34 passed 32 failed 2 skipped 0\n"
        "  counterexample:\n"
        "    pos comma transport: transport of 0>1[]|k#0->4 along 1>2[0] disagrees with the slice action\n"
        "\n"
        "suite factorization: 0/1 reports ok\n"
    )


def test_representability_clause_compares_payloads_and_rows(hoare):
    # rep(Q) is the hom presheaf of its point (Q, id); the hom presheaf of
    # another refinement's point, or rep(Q) with one action row reversed,
    # is reported.
    unlike = repchecks_mod._unlike_representable
    S = slice_of(hoare, 0)
    idW = hoare.T.identity[0]
    points = [S.obj_index[(Q, idW)] for Q in range(4)]
    for Q in range(4):
        phi = pos_rep(hoare, Q)
        assert unlike(S, phi, representable(S.cat, points[Q])) is None
        wrong = representable(S.cat, points[(Q + 1) % 4])
        assert "are not its derivations" in unlike(S, phi, wrong)
    s = random_refsys(3)
    phi = pos_rep(s, 0)
    S = slice_of(s, s.shape(0))
    y = representable(S.cat, S.obj_index[(0, s.T.identity[s.shape(0)])])
    assert unlike(S, phi, y) is None
    f = next(f for j in phi.support() for f in S.cat.mor_in(j) if len(set(phi.action[f])) > 1)
    tampered = Presheaf(
        "tampered",
        S.cat,
        phi.elements,
        lambda m: phi.action[m][::-1] if m == f else phi.action[m],
        phi.payloads,
    )
    assert unlike(S, tampered, y) == f"precomposition with {S.mor_name(f)} disagrees"


def test_comma_count_matches_the_built_category(hoare, collapse, galois):
    systems = [hoare, collapse.mrs.sys, galois.left.source, galois.left.target]
    systems += [random_refsys(seed) for seed in range(4)]
    for sys in systems:
        for s in (sys, sys.op()):
            assert comma_morphism_count(s) == len(comma_system(s).mor_tags), s.name


def test_comma_guard_reports_the_true_size_before_building(hoare, linctx):
    with pytest.raises(SizeGuardExceeded) as exc:
        comma_system(hoare, size_guard=700)
    assert exc.value.estimate == 768
    for s, size in ((linctx, 115762), (linctx.op(), 110073)):
        with pytest.raises(SizeGuardExceeded) as exc:
            comma_system(s)
        assert exc.value.estimate == size
    fl = factorization_check(linctx)
    assert [r.split(": ")[-1] for r in fl.skip_reasons] == [
        "estimated 115762 > guard 60000",
        "estimated 110073 > guard 60000",
    ]


def test_fiber_tensor_is_the_meet(collapse):
    names = collapse.mrs.sys.D.objects
    for mo in collapse.monoids:
        fib = collapse.mrs.sys.fiber(mo.W)
        for P in fib:
            for Q in fib:
                cert = fiber_tensor(collapse.mrs, mo, P, Q)
                want = pred_set(names[P]) & pred_set(names[Q])
                assert pred_set(names[cert.result]) == want


def test_genday_on_the_strict_lattice_has_no_skips(ident):
    n = ident.mrs.sys.D.n_objects
    mo = {m.W: m for m in ident.monoids}
    total_failed = total_skipped = 0
    for P in range(n):
        for Q in range(n):
            for R in range(n):
                rep = genday_check(ident.mrs, P, Q, R)
                total_failed += rep.failed
                total_skipped += rep.skipped
    assert total_failed == 0 and total_skipped == 0


def test_genday_on_the_collapse_documents_its_skips(collapse):
    n = collapse.mrs.sys.D.n_objects
    total_failed = total_skipped = 0
    for P in range(n):
        for Q in range(n):
            for R in range(n):
                rep = genday_check(collapse.mrs, P, Q, R)
                total_failed += rep.failed
                total_skipped += rep.skipped
    assert total_failed == 0
    assert total_skipped == 16  # residuals over the collapsed shape are lax


LATTICES = {
    "lattice-collapse": collapse_lattice_fixture,
    "lattice-identity": identity_lattice_fixture,
}


@pytest.mark.parametrize(
    "name, residuals", [("lattice-collapse", 14), ("lattice-identity", 16)]
)
def test_genday_decides_each_clause_once_per_pair(name, residuals, tmp_path, monkeypatch, capsys):
    # Over all 4^3 triples a clause runs once per pair it depends on, and
    # each residual clause that reaches the comparison builds one curried
    # residual: 14 and 16 pairs (P, R) have a residual, each reached once
    # by (b) and once by (c).  The comparison `_pulled_residual` of
    # rep(P) and rep(R) names the pair.
    calls: dict[str, Counter] = {}
    for fn in ("curried_residual", "_genday_tensor_clause", "_genday_residual_clause"):
        real = getattr(day_mod, fn)

        def counted(*args, _real=real, _seen=calls.setdefault(fn, Counter())):
            _seen[args] += 1
            return _real(*args)

        monkeypatch.setattr(day_mod, fn, counted)
    pairs = Counter()
    real_pulled = day_mod._pulled_residual

    def pulled(mrs, P, R, *rest):
        built = calls["curried_residual"].total()
        out = real_pulled(mrs, P, R, *rest)
        assert calls["curried_residual"].total() == built + 1
        pairs[(P, R)] += 1
        return out

    monkeypatch.setattr(day_mod, "_pulled_residual", pulled)
    path = tmp_path / "w.fix"
    path.write_text(f"fixture w {name}\n")
    assert main(["verify", str(path), "genday"]) == 0
    assert "suite genday: 1/1 reports ok" in capsys.readouterr().out
    assert len(pairs) == residuals and set(pairs.values()) == {2}
    assert calls["curried_residual"].total() == pairs.total()
    assert len(calls["_genday_tensor_clause"]) == 16
    assert len(calls["_genday_residual_clause"]) == 32
    for seen in calls.values():
        assert set(seen.values()) == {1}


def arity_mutant(monkeypatch):
    # The tensor derivation with its first nonempty component emptied.
    real = day_mod.m_derivation

    def mutant(mrs, P, Q):
        md = real(mrs, P, Q)
        comps = list(md.components)
        comps[next(k for k, comp in enumerate(comps) if comp)] = ()
        return PshDerivation(md.name, md.source, md.target, md.functor, tuple(comps))

    monkeypatch.setattr(day_mod, "m_derivation", mutant)


def push_mutant(monkeypatch):
    # `push_psh_full` missing the first gluing that joins two classes.
    src = inspect.getsource(psh_mod.push_psh_full)
    start, union = "    parent = list(range(len(nodes)))\n", "                    if r1 < r2:\n"
    assert src.count(start) == src.count(union) == 1
    src = src.replace(start, start + "    skipped = False\n").replace(
        union,
        "                    if r1 != r2 and not skipped:\n"
        "                        skipped = True\n"
        "                    elif r1 < r2:\n",
    )
    namespace = dict(vars(psh_mod))
    exec(compile("from __future__ import annotations\n" + src, "<mutant>", "exec"), namespace)
    monkeypatch.setattr(day_mod, "push_psh_full", namespace["push_psh_full"])


def residual_mutant(monkeypatch):
    # A curried residual that drops the first family at its first nonempty
    # point.
    real, real_families = day_mod.curried_residual, pshcore_mod._families_on_support

    def mutant(*args):
        dropped = []

        def families(*fargs):
            found = real_families(*fargs)
            if found and not dropped:
                dropped.append(found[0])
                return found[1:]
            return found

        pshcore_mod._families_on_support = families
        try:
            return real(*args)
        finally:
            pshcore_mod._families_on_support = real_families

    monkeypatch.setattr(day_mod, "curried_residual", mutant)


@pytest.mark.parametrize(
    "mutate, first",
    [
        (arity_mutant, "genday[{},{},{}]: (a) tensor derivation invalid:"),
        (push_mutant, "genday[{},{a},{}]: (a) pushed tensor of rep({}), rep({a}) is not rep({})"),
        (residual_mutant, "genday[{},{},{}]: (b) canonical image of {}<={a,b} is not a natural family"),
    ],
    ids=["arity", "push", "residual"],
)
def test_genday_is_red_on_each_clause_mutant(mutate, first, tmp_path, monkeypatch, capsys):
    # Each mutant turns genday red with its clause's message and no
    # exception; an invalid tensor derivation stops clause (a) before the
    # push reads it.
    mutate(monkeypatch)
    path = tmp_path / "w.fix"
    path.write_text("fixture w lattice-collapse\n")
    assert main(["verify", str(path), "genday"]) == 1
    out = capsys.readouterr().out
    assert "suite genday: 0/1 reports ok" in out
    assert out.split("  counterexample:\n", 1)[1].splitlines()[0] == f"    {first}"


MONOID_LAX_COUNTS = {
    "lattice-collapse": {"c0": (10, 0, 2), "c1": (1, 0, 2), "c2": (3, 0, 0)},
    "lattice-identity": {W: (3, 0, 0) for W in ("{}", "{a}", "{b}", "{a,b}")},
}


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_monoid_lax_keeps_its_counts_on_both_lattices(name):
    # Both sides of every monoid's residual pairs reach the curried
    # residual; no guard is left to turn one of them into a skip.
    ls = LATTICES[name]()
    got = {}
    for mo in ls.monoids:
        rep = monoid_lax_check(ls.mrs, mo)
        got[ls.mrs.sys.T.objects[mo.W]] = (rep.passed, rep.failed, rep.skipped)
    assert got == MONOID_LAX_COUNTS[name]


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_verify_all_reaches_the_monoid_fibers(name, tmp_path, monkeypatch, capsys):
    # The notnot-tensor suite runs monoid-lax over every monoid, and with it
    # the fiber residuals and the currying of the multiplication.
    reached = set()
    for fn in ("monoid_lax_check", "fiber_residual_left", "left_curry"):
        real = getattr(day_mod, fn)
        monkeypatch.setattr(
            day_mod, fn, lambda *args, _real=real, _fn=fn: reached.add(_fn) or _real(*args)
        )
    path = tmp_path / "w.fix"
    path.write_text(f"fixture w {name}\n")
    assert main(["verify", str(path), "all"]) == 0
    assert reached == {"monoid_lax_check", "fiber_residual_left", "left_curry"}
    assert f"check monoid-lax[{LATTICES[name]().sys.name}]" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_genday_reports_do_not_depend_on_the_memo(name):
    # Every triple's report, read from clauses shared with earlier triples,
    # is the one a system that has decided nothing yet renders.
    mrs = LATTICES[name]().mrs
    n = mrs.sys.D.n_objects
    for P in range(n):
        for Q in range(n):
            for R in range(n):
                shared = genday_check(mrs, P, Q, R).render()
                fresh = genday_check(LATTICES[name]().mrs, P, Q, R).render()
                assert shared == fresh, (P, Q, R)


def fiber_residual_right(mrs, mo, Q, R):
    """The fiber residual R o-_W Q: the left one for the reversed tensors."""
    return fiber_residual_left(mrs.reversed(), mo, Q, R)


def test_fiber_residuals_agree_on_a_commutative_tensor(collapse):
    # meet commutes, so the two sides certify the same refinement
    mrs = collapse.mrs
    for mo in collapse.monoids:
        fib = mrs.sys.fiber(mo.W)
        for P in fib:
            for R in fib:
                left = fiber_residual_left(mrs, mo, P, R)
                right = fiber_residual_right(mrs, mo, P, R)
                assert (left is None) == (right is None)
                if left is not None:
                    assert (left.result, left.structural) == (right.result, right.structural)


def test_m_functor_and_m_derivation_validate(collapse):
    T = collapse.mrs.sys.T
    F, prod = m_functor(collapse.mrs, 0, 1)
    assert validate_functor(F).ok
    d = m_derivation(collapse.mrs, 1, 2)
    assert validate_psh_derivation(d).ok


def test_m_functor_shares_its_product_with_the_reversed_tensor(monkeypatch):
    built = []
    real_product = day_mod.product

    def counted(left, right):
        built.append((left, right))
        return real_product(left, right)

    monkeypatch.setattr(day_mod, "product", counted)
    mrs = collapse_lattice_fixture().mrs
    n = mrs.sys.T.n_objects
    for B1 in range(n):
        for B2 in range(n):
            F, prod = m_functor(mrs.reversed(), B1, B2)
            G, same = m_functor(mrs, B1, B2)
            assert same is prod
            assert validate_functor(F).ok and validate_functor(G).ok
    assert len(built) == n * n
