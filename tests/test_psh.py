"""Presheaf tables: validation, Kan extension along a functor, factoring certificates.

The pushforward-to-a-point tests use an independent union-find oracle over the
category of elements, so the quotient computed by push_psh is checked against a
second implementation rather than against itself.
"""

import contextlib
import functools
import inspect
import io
import itertools
import random
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import refcat.day as day_mod
import refcat.psh as psh_mod
import refcat.pshcore as pshcore_mod
from refcat.fincat import (
    FinCategory,
    FunctorData,
    StructuralError,
    opposite,
)
from refcat.fixtures import (
    collapse_lattice_fixture,
    fin_skeleton,
    identity_lattice_fixture,
    random_refsys,
)
from refcat.psh import (
    Presheaf,
    PshDerivation,
    curried_residual,
    generated_iso,
    is_vertical_iso,
    natural_families,
    opcartesian_factoring_check,
    pull_psh,
    push_psh,
    push_psh_full,
    push_transpose,
    representable,
    validate_presheaf,
    validate_psh_derivation,
)
from refcat.cli import main
from tests.conftest import on_support
from tests.test_fincat import chain_category, cyclic_group, terminal_category, walking_arrow
from tests.test_golden import CASES


def chain_presheaf(base, sizes, steps):
    """Presheaf on a chain from one transition map per consecutive pair.

    steps[k] maps elements at object k+1 to elements at object k; every other
    action row is the forced composite, so functoriality holds by construction.
    """
    n = base.n_objects
    elements = tuple(tuple(f"e{a}_{i}" for i in range(sizes[a])) for a in range(n))
    action = []
    for m in range(base.n_morphisms):
        i, j = base.dom(m), base.cod(m)
        row = list(range(sizes[j]))
        for k in range(j - 1, i - 1, -1):
            row = [steps[k][x] for x in row]
        action.append(tuple(row))
    return Presheaf("stepwise", base, elements, tuple(action))


def to_point(base):
    t = terminal_category()
    return FunctorData("!", base, t, (0,) * base.n_objects, (0,) * base.n_morphisms)


def components_oracle(phi):
    """Connected components of the category of elements, by union-find."""
    base = phi.base
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for a in range(base.n_objects):
        for i in range(phi.size(a)):
            parent[(a, i)] = (a, i)
    for m in range(base.n_morphisms):
        d, c = base.dom(m), base.cod(m)
        for e in range(phi.size(c)):
            union((c, e), (d, phi.apply(m, e)))
    return len({find(x) for x in parent})


@pytest.fixture()
def sample():
    """Presheaf on chain3 with sizes 2,1,3; one element at the bottom is isolated."""
    base = chain_category(3)
    phi = chain_presheaf(base, [2, 1, 3], [[0], [0, 0, 0]])
    assert validate_presheaf(phi).ok
    return base, phi


def test_representable_is_thin_on_a_chain():
    base = chain_category(3)
    for b in range(3):
        h = representable(base, b)
        assert validate_presheaf(h).ok
        assert [h.size(a) for a in range(3)] == [1 if a <= b else 0 for a in range(3)]


def test_validate_catches_identity_breaking_action():
    base = walking_arrow()
    phi = Presheaf(
        "twist", base,
        (("x0", "x1"), ("y",)),
        ((1, 0), (0,), (0,)),  # id_a swaps the fiber
    )
    rep = validate_presheaf(phi)
    assert not rep.ok
    assert any("identity" in v.law for v in rep.violations)


def test_validate_catches_composition_breaking_action():
    base = chain_category(3)
    phi = chain_presheaf(base, [2, 2, 2], [[0, 1], [0, 1]])
    rows = list(phi.action)
    # overwrite the long edge so it disagrees with the two short ones
    long_edge = next(
        m for m in range(base.n_morphisms) if base.dom(m) == 0 and base.cod(m) == 2
    )
    rows[long_edge] = (1, 0)
    bad = Presheaf("skewed", base, phi.elements, tuple(rows))
    rep = validate_presheaf(bad)
    assert not rep.ok
    assert any(v.law == "contravariance" for v in rep.violations)


def test_yoneda_family_counts(sample):
    # families out of a representable are classified by the fiber at its object
    base, phi = sample
    for a in range(3):
        fams = natural_families(representable(base, a), phi)
        assert len(fams) == phi.size(a)


def test_push_to_point_matches_component_oracle(sample):
    base, phi = sample
    assert components_oracle(phi) == 2  # {x1} is not hit by any action
    pushed = push_psh(to_point(base), phi)
    assert pushed.total_elements() == 2

    h = representable(base, 2)
    assert components_oracle(h) == 1
    assert push_psh(to_point(base), h).total_elements() == 1


def test_push_along_identity_like_collapse():
    # collapsing chain3 onto the walking arrow keeps fiberwise data intact
    base = chain_category(3)
    arr = walking_arrow()
    fmap = []
    for m in range(base.n_morphisms):
        i, j = base.dom(m), base.cod(m)
        oi, oj = (0 if i <= 1 else 1), (0 if j <= 1 else 1)
        fmap.append(arr.id_of(oi) if oi == oj else 2)
    F = FunctorData("fold", base, arr, (0, 0, 1), tuple(fmap))
    phi = chain_presheaf(base, [2, 1, 3], [[0], [0, 0, 0]])
    psi = Presheaf("target", arr, (("u0", "u1"), ("v0", "v1")), ((0, 1), (0, 1), (0, 0)))
    lhs = natural_families(phi, psi, F)
    rhs = natural_families(push_psh(F, phi), psi)
    hat = natural_families(phi, pull_psh(F, psi))
    assert len(lhs) == len(rhs) == len(hat)


def test_opcartesian_certificate(sample):
    base, phi = sample
    arr = walking_arrow()
    F = FunctorData(
        "fold", base, arr, (0, 0, 1),
        tuple(
            arr.id_of(0) if base.cod(m) <= 1
            else (arr.id_of(1) if base.dom(m) == 2 else 2)
            for m in range(base.n_morphisms)
        ),
    )
    pr = push_psh_full(F, phi)
    pool = [representable(arr, 0), representable(arr, 1), pr.presheaf,
            Presheaf("flat", arr, (("w",), ("z",)), ((0,), (0,), (0,)))]
    ok, why = opcartesian_factoring_check(pr, F, phi, pool)
    assert ok, why


def cartesian_failure(theta, test_domains):
    """Brute-force universal property of a derivation theta : psi0 =>_F omega:
    for each test domain phi over the source base, precomposition with theta
    must biject vertical derivations phi => psi0 with derivations
    phi =>_F omega.  None if it does, else the domain where it does not."""
    psi0, omega = theta.source, theta.target
    at = {a: k for k, a in enumerate(psi0.support())}
    for phi in test_domains:
        images = [
            tuple(tuple(theta.components[at[a]][y] for y in comp) for a, comp in zip(phi.support(), v))
            for v in natural_families(phi, psi0)
        ]
        down = natural_families(phi, omega, theta.functor)
        if len(set(images)) != len(images) or set(images) != set(down):
            return f"precomposition with {theta.name} is not a bijection from {phi.name}"
    return None


def test_cartesian_certificate(sample):
    base, phi = sample
    arr = walking_arrow()
    F = FunctorData(
        "fold", base, arr, (0, 0, 1),
        tuple(
            arr.id_of(0) if base.cod(m) <= 1
            else (arr.id_of(1) if base.dom(m) == 2 else 2)
            for m in range(base.n_morphisms)
        ),
    )
    psi = Presheaf("target", arr, (("u0", "u1"), ("v0", "v1")), ((0, 1), (0, 1), (0, 0)))
    pulled = pull_psh(F, psi)
    counit = PshDerivation(
        "counit", pulled, psi, F,
        tuple(tuple(range(pulled.size(a))) for a in pulled.support()),
    )
    assert validate_psh_derivation(counit).ok
    pool = [phi, representable(base, 0), representable(base, 2), pulled]
    assert cartesian_failure(counit, pool) is None


def collapse_map(phi):
    """phi => its collapse to one element per object of its support."""
    base = phi.base
    support = set(phi.support())
    one = Presheaf(
        f"collapse({phi.name})",
        base,
        tuple(("*",) if a in support else () for a in range(base.n_objects)),
        tuple((0,) if base.cod(f) in support else () for f in range(base.n_morphisms)),
    )
    comps = tuple((0,) * phi.size(a) for a in phi.support())
    return PshDerivation(f"!{phi.name}", phi, one, None, comps)


def test_the_cartesian_oracle_on_representables_is_vertical_iso(hoare, monkeypatch):
    # By Yoneda, a vertical derivation is cartesian against every
    # representable exactly when it is an isomorphism; so genday's residual
    # clauses decide cartesianness by their iso clause.  The corpus: every
    # comparison those clauses build on both lattices, and the collapse of
    # presheaves with and without a two-element set.
    from refcat.represent import neg_rep, pos_rep

    thetas = []
    real = day_mod._pulled_residual

    def recording(*args):
        theta, iso, why = real(*args)
        assert theta is not None, why
        thetas.append(theta)
        return theta, iso, why

    monkeypatch.setattr(day_mod, "_pulled_residual", recording)
    for fixture in (collapse_lattice_fixture(), identity_lattice_fixture()):
        mrs = fixture.mrs
        n = mrs.sys.D.n_objects
        for m, label, side in ((mrs, "(b)", "left"), (mrs.reversed(), "(c)", "right")):
            for P in range(n):
                for R in range(n):
                    day_mod._genday_residual_clause(m, label, side, P, R)
    comparisons = len(thetas)
    assert comparisons == 60
    thetas += [collapse_map(theta.source) for theta in thetas[:comparisons]]
    chain = chain_presheaf(chain_category(3), [2, 1, 3], [[0], [0, 0, 0]])
    reps = [rep(hoare, Q) for rep in (pos_rep, neg_rep) for Q in range(hoare.D.n_objects)]
    thetas += [collapse_map(phi) for phi in [chain, *reps]]
    isos = 0
    for theta in thetas:
        base = theta.source.base
        assert validate_psh_derivation(theta).ok
        domains = [representable(base, o) for o in range(base.n_objects)]
        iso = is_vertical_iso(theta.components, theta.source, theta.target)
        assert (cartesian_failure(theta, domains) is None) == iso, theta.name
        isos += iso
    assert 0 < isos < len(thetas)


def test_push_transpose_is_a_valid_derivation(sample):
    base, phi = sample
    F = to_point(base)
    pr = push_psh_full(F, phi)
    point = Presheaf("pt2", F.target, (("p", "q"),), ((0, 1),))
    thetas = natural_families(phi, point, F)
    assert thetas  # the two components can land on p or q independently
    for theta in thetas:
        kappa = push_transpose(pr, F, point, theta)
        assert validate_psh_derivation(kappa).ok
        assert kappa.source is pr.presheaf and kappa.target is point
    # transposition is injective, and every vertical family arises this way
    assert len(thetas) == len(natural_families(pr.presheaf, point))


def test_vertical_iso_found_and_refused(sample):
    # y(2) over the chain is generated by id_2 at 2: a renamed copy is
    # isomorphic to it, and the sample, with other counts, is not.
    base, phi = sample
    y = representable(base, 2)
    renamed = Presheaf("renamed", base,
                       tuple(tuple(f"r{i}" for i in range(len(es))) for es in y.elements),
                       y.action)
    assert generated_iso(y, 2, 0, renamed)
    assert not generated_iso(y, 2, 0, phi)


def unit_psh():
    one = terminal_category()
    return Presheaf("I", one, (("*",),), ((0,),)), one


def test_residual_over_a_point_is_a_function_space():
    point, base = unit_psh()
    phi = Presheaf("two", base, (("a", "b"),), ((0, 1),))
    omega = Presheaf("three", base, (("x", "y", "z"),), ((0, 1, 2),))
    res = curried_residual(phi, base, lambda a, b: omega.size(0), lambda f, g: omega.action[0])
    assert res.total_elements() == 3 ** 2
    assert res.action[0] == tuple(range(9))


@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4),
    st.data(),
)
def test_stepwise_presheaves_push_like_the_oracle(sizes, data):
    base = chain_category(len(sizes))
    steps = [
        [data.draw(st.integers(0, sizes[k] - 1)) for _ in range(sizes[k + 1])]
        for k in range(len(sizes) - 1)
    ]
    phi = chain_presheaf(base, sizes, steps)
    assert validate_presheaf(phi).ok
    pushed = push_psh(to_point(base), phi)
    assert pushed.total_elements() == components_oracle(phi)


# ---------------------------------------------------------------------------
# generated_iso against a naive filter over every family of permutations


def naive_vertical_iso(phi, psi):
    """The first family of permutations that validate_psh_derivation
    accepts, objects taken by ascending (element count, index) and each
    object's permutations in lexicographic order; None if there is none.
    Components are listed per object, and checked and returned on the
    support of phi, as the library indexes them."""
    A = phi.base
    if any(phi.size(a) != psi.size(a) for a in range(A.n_objects)):
        return None
    order = sorted(range(A.n_objects), key=lambda a: (phi.size(a), a))
    perms = [itertools.permutations(range(phi.size(a))) for a in order]
    for family in itertools.product(*perms):
        comps = [()] * A.n_objects
        for a, p in zip(order, family):
            comps[a] = p
        comps = on_support(comps, phi.support())
        if validate_psh_derivation(PshDerivation("iso?", phi, psi, None, comps)).ok:
            return comps
    return None


def relabeled(phi, seed):
    """phi with the elements at every object shuffled: isomorphic to phi."""
    rng = random.Random(seed)
    base = phi.base
    new = []
    for a in range(base.n_objects):
        p = list(range(phi.size(a)))
        rng.shuffle(p)
        new.append(p)
    elements = tuple(
        tuple(f"r{i}" for i in range(phi.size(a))) for a in range(base.n_objects)
    )
    action = []
    for f in range(base.n_morphisms):
        row = [0] * phi.size(base.cod(f))
        for y, x in enumerate(phi.action[f]):
            row[new[base.cod(f)][y]] = new[base.dom(f)][x]
        action.append(tuple(row))
    return Presheaf(f"shuffled({phi.name})", base, elements, tuple(action))


def generator(phi):
    """(p, x0) for the first element x0 at a point p that generates phi,
    every element being phi(m)(x0) for some m into p; None if none does."""
    A = phi.base
    for p in phi.support():
        for x0 in range(phi.size(p)):
            if len({(A.dom(m), phi.apply(m, x0)) for m in A.mor_in(p)}) == phi.total_elements():
                return (p, x0)
    return None


def iso_mismatch(iso, phi, psi):
    """Does iso, asked of phi at its generator, disagree with the naive
    search about whether phi and psi are isomorphic?"""
    return iso(phi, *generator(phi), psi) != (naive_vertical_iso(phi, psi) is not None)


def regular_and_trivial(n):
    """Z/n acting on itself, generated by 0, and trivially on n elements."""
    bzn = cyclic_group(n)
    trivial = Presheaf("trivial", bzn, (tuple(f"t{k}" for k in range(n)),), (tuple(range(n)),) * n)
    return representable(bzn, 0), trivial


def iso_pairs():
    fin2 = fin_skeleton(2)
    reps = [representable(fin2, b) for b in range(fin2.n_objects)]
    reps += [representable(opposite(fin2), 2), representable(chain_category(3), 2)]
    pairs = [(phi, relabeled(phi, seed)) for phi in reps for seed in (1, 2)]
    # same element counts, but only one action is injective: no isomorphism
    arrow, two = walking_arrow(), (("x", "y"), ("u", "v"))
    collapse = Presheaf("collapse", arrow, two, ((0, 1), (0, 1), (0, 0)))
    straight = Presheaf("straight", arrow, two, ((0, 1), (0, 1), (0, 1)))
    return pairs + [(collapse, straight)]


def test_generated_iso_agrees_with_the_naive_search():
    pairs = [(phi, psi) for phi, psi in iso_pairs() if generator(phi)]
    pairs.append(regular_and_trivial(3))
    assert [naive_vertical_iso(phi, psi) is None for phi, psi in pairs].count(True) == 1
    assert not any(iso_mismatch(generated_iso, phi, psi) for phi, psi in pairs)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 200), st.integers(0, 3), st.integers(0, 10**6))
def test_generated_iso_agrees_with_the_naive_search_on_a_draw(which, b, seed):
    base = [walking_arrow(), chain_category(3), fin_skeleton(2), opposite(fin_skeleton(2))][b]
    phi = representable(base, which % base.n_objects)
    assert not iso_mismatch(generated_iso, phi, relabeled(phi, seed))


@functools.cache
def asked_isos():
    """(phi, p, x0, psi) for every isomorphism question that `verify all`
    asks on each golden fixture and on 25 random draws, then each again
    against two variants of psi.  `verify` meets its witness first at
    the point and refuses only on counts, so a test that tries too few
    candidates, or accepts a table that meets no conflict, would agree
    there by luck: psi with its elements shuffled has the same answer
    with the witness moved, and psi with every row that is not an
    identity's sent to the first element keeps the counts and has no
    isomorphism once a set has two elements."""
    asked, real = [], psh_mod.generated_iso

    def recording(phi, p, x0, psi):
        asked.append((phi, p, x0, psi))
        return real(phi, p, x0, psi)

    workspaces = [*CASES.values(), *((f"fixture r random seed={seed}", []) for seed in range(25))]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        with mock.patch.object(psh_mod, "generated_iso", recording), mock.patch.object(
            day_mod, "generated_iso", recording
        ):
            for body, extra in workspaces:
                path = Path(tmp) / f"{body.split()[2]}.fix"
                path.write_text(body + "\n")
                assert main(["verify", str(path), "all", *extra]) == 0, body
    shuffled = [(phi, p, x0, relabeled(psi, k)) for k, (phi, p, x0, psi) in enumerate(asked)]
    collapsed = [(phi, p, x0, to_first(psi)) for phi, p, x0, psi in asked]
    return tuple(asked + shuffled + collapsed)


def to_first(psi):
    """psi's element sets, with every row that is not an identity's
    sending each element to the first one."""
    A = psi.base
    rows = (
        tuple(range(psi.size(A.cod(f)))) if A.is_identity(f) else (0,) * psi.size(A.cod(f))
        for f in range(A.n_morphisms)
    )
    return Presheaf(f"first({psi.name})", A, tuple(psi.elements), tuple(rows))


def iso_disagreements(iso):
    """The recorded questions on which iso and the naive search disagree."""
    return [
        (phi.name, psi.name)
        for phi, p, x0, psi in asked_isos()
        if iso(phi, p, x0, psi) != (naive_vertical_iso(phi, psi) is not None)
    ]


def test_generated_iso_agrees_with_the_naive_search_on_every_question_verify_asks():
    asked = asked_isos()
    answers = Counter(naive_vertical_iso(phi, psi) is not None for phi, _p, _x0, psi in asked)
    assert answers[True] > 500 and answers[False] > 10, answers
    assert sum(psi.size(p) > 1 for _phi, p, _x0, psi in asked) > 10
    assert iso_disagreements(generated_iso) == []


@pytest.mark.parametrize(
    "old, new",
    [
        ("for y in range(psi.size(p)):", "for y in range(min(1, psi.size(p))):"),
        ("if is_vertical_iso(tuple(map(tuple, comps)), phi, psi):", "if True:"),
    ],
    ids=["only-y0", "no-is-vertical-iso"],
)
def test_the_agreement_on_every_question_is_red_on_each_mutant(old, new):
    src = inspect.getsource(psh_mod.generated_iso)
    assert src.count(old) == 1
    namespace = dict(vars(psh_mod))
    exec(compile("from __future__ import annotations\n" + src.replace(old, new), "<mutant>", "exec"), namespace)
    assert iso_disagreements(namespace["generated_iso"]) != []


def test_the_regular_action_of_z10_is_decided_in_under_a_second():
    # The naive search would try 10! tables; the generator fixes one per
    # element of the target at the point.
    regular, trivial = regular_and_trivial(10)
    start = time.perf_counter()
    assert generated_iso(regular, 0, 0, relabeled(regular, 10))
    assert not generated_iso(regular, 0, 0, trivial)
    assert time.perf_counter() - start < 1


def test_a_presheaf_not_generated_at_the_point_is_refused_by_name():
    _regular, trivial = regular_and_trivial(10)
    with pytest.raises(StructuralError, match=r"^trivial is not generated by t0 at \*: nothing reaches t1 at \*$"):
        generated_iso(trivial, 0, 0, trivial)


# ---------------------------------------------------------------------------
# The family search draws candidates lazily; naturality is listed square by
# square


def test_candidates_are_drawn_only_when_the_search_reaches_their_step(monkeypatch):
    # s swaps psi(a) and fixes the one element of phi(a), so no component
    # at a is natural, and none of the 4^3 candidates at b may be drawn.
    cat = FinCategory(
        "z2+1", ["a", "b"], [("id_a", 0, 0), ("id_b", 1, 1), ("s", 0, 0)], [0, 1],
        {(0, 0): 0, (0, 2): 2, (2, 0): 2, (2, 2): 0, (1, 1): 1},
    )
    phi = Presheaf("phi", cat, (("x",), ("p", "q", "r")), ((0,), (0, 1, 2), (0,)))
    psi = Presheaf(
        "psi", cat, (("u", "v"), ("w0", "w1", "w2", "w3")), ((0, 1), (0, 1, 2, 3), (1, 0))
    )
    drawn = Counter()

    def product(*args, repeat=1):
        for t in itertools.product(*args, repeat=repeat):
            drawn[repeat] += 1
            yield t

    monkeypatch.setattr(
        pshcore_mod,
        "itertools",
        SimpleNamespace(product=product, permutations=itertools.permutations),
    )
    assert natural_families(phi, psi) == []
    assert drawn == {1: 2}


def square_by_square(d):
    """Naturality failures of a derivation, morphism by morphism."""
    phi, psi = d.source, d.target
    A = phi.base
    bad = []
    for u in range(A.n_morphisms):
        a, a2 = A.dom(u), A.cod(u)
        fu = u if d.functor is None else d.functor.mor(u)
        if any(
            d.components[a][phi.apply(u, x2)] != psi.apply(fu, d.components[a2][x2])
            for x2 in range(phi.size(a2))
        ):
            bad.append(f"square at {A.mor_names[u]} fails")
    return bad


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_naturality_violations_match_the_square_by_square_check(data):
    pairs = iso_pairs()
    phi, psi = pairs[data.draw(st.integers(0, len(pairs) - 1))]
    comps = tuple(
        tuple(data.draw(st.integers(0, psi.size(a) - 1)) for _ in range(phi.size(a)))
        for a in range(phi.base.n_objects)
    )
    on = on_support(comps, phi.support())
    report = validate_psh_derivation(PshDerivation("d", phi, psi, None, on))
    assert [v.detail for v in report.violations] == square_by_square(
        PshDerivation("d", phi, psi, None, comps)
    )


def test_a_component_table_is_read_on_the_support(hoare):
    # A derivation has one component per point of its source's support:
    # a table with one entry per object is the wrong length, not a second
    # format.  Arity and range are reported at the first bad support point.
    from refcat.represent import pos_rep_derivation

    d = next(
        d
        for d in (pos_rep_derivation(hoare, sigma) for sigma in range(hoare.D.n_morphisms))
        if 1 < len(d.source.support()) < d.source.base.n_objects
    )
    phi, A = d.source, d.source.base
    support = phi.support()

    def violations(comps):
        d2 = PshDerivation("d", phi, d.target, d.functor, tuple(comps))
        return [str(v) for v in validate_psh_derivation(d2).violations]

    def out_of_range(k):
        return (d.target.size(d.functor.obj(support[k])),) * phi.size(support[k])

    dense = [()] * A.n_objects
    for a, comp in zip(support, d.components):
        dense[a] = comp
    (one, two, *rest), (first, second) = d.components, (A.objects[a] for a in support[:2])
    assert violations(d.components) == []
    assert violations(dense) == ["arity: component table has wrong length"]
    assert violations([(), out_of_range(1), *rest]) == [f"arity: component at {first} has wrong arity"]
    assert violations([out_of_range(0), (), *rest]) == [f"range: component at {first} out of range"]
    assert violations([one, out_of_range(1), *rest]) == [f"range: component at {second} out of range"]
    assert violations([one, two[:-1], *rest]) == [f"arity: component at {second} has wrong arity"]


# ---------------------------------------------------------------------------
# Constraints into one-element sets are skipped: the three readers against
# unpruned copies that read every constraint and both of its rows


def unpruned_constraints(phi, support, row):
    """Every naturality constraint of a family out of phi over `support`,
    by the step at which it closes, as (u, k, k2, phi row, target row):
    both rows of every constraint are read."""
    pos = {a: k for k, a in enumerate(support)}
    A = phi.base
    out = [[] for _ in support]
    for k2, a2 in enumerate(support):
        for u in A.mor_in(a2):
            k = pos[A.dom(u)]
            out[max(k, k2)].append((u, k, k2, phi.action[u], row(u)))
    return out


def constraint_holds(constraint, comps):
    _u, k, k2, prow, qrow = constraint
    return all(comps[k][p] == qrow[y] for p, y in zip(prow, comps[k2]))


def unpruned_search(steps, candidates, constraints):
    """Depth first, in candidate order, each constraint checked at the step
    where it closes."""
    assigned = []

    def extend(k):
        if k == steps:
            yield tuple(assigned)
            return
        for cand in candidates(k):
            assigned.append(cand)
            if all(constraint_holds(c, assigned) for c in constraints[k]):
                yield from extend(k + 1)
            assigned.pop()

    return extend(0)


def along(F):
    return (lambda a: a, lambda u: u) if F is None else (F.obj, F.mor)


def unpruned_families(phi, psi, F=None):
    f_obj, f_mor = along(F)
    support = phi.support()
    targets = [psi.size(f_obj(a)) for a in support]
    constraints = unpruned_constraints(phi, support, lambda u: psi.action[f_mor(u)])
    fams = unpruned_search(
        len(support),
        lambda k: itertools.product(range(targets[k]), repeat=phi.size(support[k])),
        constraints,
    )
    return list(fams)


def unpruned_violations(d):
    """The naturality violations of a derivation whose components are in
    range, listed in morphism order."""
    phi, psi = d.source, d.target
    _f_obj, f_mor = along(d.functor)
    support = phi.support()
    constraints = unpruned_constraints(phi, support, lambda u: psi.action[f_mor(u)])
    failing = sorted(c[0] for cl in constraints for c in cl if not constraint_holds(c, d.components))
    return [f"naturality: square at {phi.base.mor_names[u]} fails" for u in failing]


def random_presheaf(name, cat, sizes, rng):
    """A table the readers accept, lawful or not: `sizes` elements at each
    object, the identity row at every identity and every other row drawn
    at random."""
    elements = tuple(tuple(f"{name}{a}.{i}" for i in range(n)) for a, n in enumerate(sizes))
    action = tuple(
        tuple(range(sizes[cat.cod(u)]))
        if cat.is_identity(u)
        else tuple(rng.randrange(sizes[cat.dom(u)]) for _ in range(sizes[cat.cod(u)]))
        for u in range(cat.n_morphisms)
    )
    return Presheaf(name, cat, elements, action)


def pruning_cases(seed, singletons=False):
    """phi over a small category and presheaves to read it against: phi
    itself, a shuffled copy, an unrelated table with the same counts, and
    one over a base along a functor.  Sets have one, two or three
    elements, or one only when `singletons` is set."""
    rng = random.Random(seed)
    if seed % 3:
        s = random_refsys(seed % 12)
        D, T, t = s.D, s.T, s.t
    else:
        D = fin_skeleton(2)
        t = to_point(D)
        T = t.target
    small, large = ((1,), (1,)) if singletons else ((1, 1, 2), (1, 2, 2, 3))
    sizes = [rng.choice(small) for _ in D.objects]
    phi = random_presheaf("p", D, sizes, rng)
    same = random_presheaf("q", D, sizes, rng)
    down = random_presheaf("r", T, [rng.choice(large) for _ in T.objects], rng)
    return rng, phi, relabeled(phi, seed), same, down, t


def test_readers_skip_exactly_the_constraints_that_cannot_fail():
    # Into a one-element target set a naturality constraint holds whatever
    # the rows are, so the readers skip it.  On random tables, lawful or
    # not, with singleton and larger sets, they give the families and the
    # violations that the unpruned copies give, and the iso test, where
    # phi is generated, the answers of the naive search.
    seen = Counter()
    for seed in range(60):
        rng, phi, shuffled, same, down, t = pruning_cases(seed)
        for psi, F in ((phi, None), (shuffled, None), (same, None), (down, t)):
            fams = natural_families(phi, psi, F)
            assert fams == unpruned_families(phi, psi, F), (seed, psi.name)
            seen["families"] += len(fams) > 1
        gen = generator(phi)
        for psi in (shuffled, same) if gen else ():
            got = generated_iso(phi, *gen, psi)
            assert got == (naive_vertical_iso(phi, psi) is not None), (seed, psi.name)
            seen["isos"] += got and max(map(phi.size, phi.support())) > 1
            seen["no iso"] += not got
        for psi, F in ((same, None), (down, t)):
            f_obj, _ = along(F)
            comps = tuple(
                tuple(rng.randrange(psi.size(f_obj(a))) for _ in range(phi.size(a)))
                for a in phi.support()
            )
            d = PshDerivation("d", phi, psi, F, comps)
            listed = [str(v) for v in validate_psh_derivation(d).violations]
            assert listed == unpruned_violations(d), seed
            seen["violations"] += bool(listed)
    assert min(seen[k] for k in ("families", "isos", "no iso", "violations")) >= 5, seen


def test_one_element_searches_return_their_only_answer(monkeypatch):
    # When every target set has one element, the family search returns the
    # constant family without backtracking, and the iso test reads no row
    # of psi: the answers the unpruned copy and the naive search give.
    real = pshcore_mod._backtrack
    searches = []
    monkeypatch.setattr(pshcore_mod, "_backtrack", lambda *args: searches.append(args) or real(*args))
    one_element = generated = 0
    for seed in range(12):
        _rng, phi, shuffled, same, down, t = pruning_cases(seed, singletons=True)
        gen = generator(phi)
        for psi in (shuffled, same) if gen else ():
            assert generated_iso(phi, *gen, psi) and not psi.action._got, seed
            assert naive_vertical_iso(phi, psi) is not None, seed
            generated += 1
        searches.clear()
        for psi, F in ((phi, None), (shuffled, None), (same, None), (down, t)):
            assert natural_families(phi, psi, F) == unpruned_families(phi, psi, F), seed
        one_element += not searches
    assert one_element >= 5 and generated >= 10


def test_a_singleton_presheaf_off_a_sieve_is_refused_by_every_search(hoare):
    # Dropping the first support point of a representation leaves one
    # element at every point of a support that is no longer a sieve: the
    # one-element searches still run the sieve check, and name phi.
    from refcat.duality import dual_left
    from refcat.represent import pos_rep, rep_point

    Q = hoare.D.objects.index("{s0,s1}")
    rep = pos_rep(hoare, Q)
    assert all(rep.size(a) == 1 for a in rep.support())
    elements, payloads = list(rep.elements), list(rep.payloads)
    elements[rep.support()[0]] = payloads[rep.support()[0]] = ()
    phi = Presheaf("phi", rep.base, tuple(elements), lambda m: rep.action[m], tuple(payloads))
    message = r"^the support of phi is not a sieve: .* starts off it$"
    for search in (
        lambda: natural_families(phi, phi),
        lambda: generated_iso(phi, *rep_point(hoare, Q), phi),
        lambda: dual_left(hoare, hoare.shape(Q), phi),
    ):
        with pytest.raises(StructuralError, match=message):
            search()


def test_skipping_a_constraint_into_a_two_element_set_is_caught(monkeypatch):
    # The pruning test can fail: readers that also skip constraints into
    # two-element sets find families the unpruned copy refuses.
    real = pshcore_mod._checks
    monkeypatch.setattr(
        pshcore_mod,
        "_checks",
        lambda phi, closing, targets, row: real(phi, closing, [t if t != 2 else 1 for t in targets], row),
    )
    assert any(
        natural_families(phi, psi) != unpruned_families(phi, psi)
        for seed in range(60)
        for _rng, phi, _shuffled, psi, _down, _t in (pruning_cases(seed),)
    )


# ---------------------------------------------------------------------------
# The pushforward kernel against a union-find over tuple nodes (a, h, x)


class TupleUnionFind:
    """Union-find keyed by node tuples; the least node is kept as root."""

    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def tuple_push(F, phi):
    """The pushforward on tuple nodes: (elements, class_of, reps, unit, row)
    with row(k) computed and checked for well-definedness on call."""
    A, B = F.source, F.target
    support = phi.support()
    uf = TupleUnionFind()
    nodes_at = {}
    for a in support:
        for h in B.mor_in(F.obj(a)):
            for x in range(phi.size(a)):
                uf.add((a, h, x))
                nodes_at.setdefault(B.dom(h), []).append((a, h, x))
    for a2 in support:
        for u in A.mor_in(a2):
            a, fu = A.dom(u), F.mor(u)
            for h in B.mor_in(F.obj(a)):
                for x2 in range(phi.size(a2)):
                    uf.union((a2, B.compose(h, fu), x2), (a, h, phi.apply(u, x2)))
    reps = [()] * B.n_objects
    elements = [()] * B.n_objects
    class_of = {}
    for b, nodes in nodes_at.items():
        reps[b] = tuple(sorted({uf.find(n) for n in nodes}))
        for n in nodes:
            class_of[n] = reps[b].index(uf.find(n))
        elements[b] = tuple(f"{B.mor_names[h]}.{phi.elements[a][x]}" for (a, h, x) in reps[b])

    def row(k):
        b = B.cod(k)
        out = tuple(class_of[(a, B.compose(k, h), x)] for (a, h, x) in reps[b])
        for n in nodes_at.get(b, ()):
            a, h, x = n
            if class_of[(a, B.compose(k, h), x)] != out[class_of[n]]:
                raise StructuralError("tuple push: not well defined on classes")
        return out

    unit = tuple(
        tuple(class_of[(a, B.id_of(F.obj(a)), x)] for x in range(phi.size(a))) if a in support else ()
        for a in range(A.n_objects)
    )
    return tuple(elements), class_of, tuple(reps), unit, row


def push_cases(sys):
    """Every push of a positive representation along a slice action, on
    both sides of sys."""
    from refcat.represent import pos_rep, slice_action

    for s in (sys, sys.op()):
        for e in range(s.T.n_morphisms):
            for P in s.fiber(s.T.dom(e)):
                yield slice_action(s, e), pos_rep(s, P)


def test_push_kernel_matches_the_tuple_union_find(hoare, linctx):
    # Int nodes laid out by (a, position of h, x) order classes as tuple
    # nodes do, so representatives, the unit and every row into a
    # nonempty set agree.
    systems = [hoare, linctx, *(random_refsys(seed) for seed in range(6))]
    pushes = 0
    for sys in systems:
        for F, phi in push_cases(sys):
            pr = push_psh_full(F, phi)
            elements, _class_of, reps, unit, row = tuple_push(F, phi)
            assert tuple(pr.presheaf.elements) == elements
            # The library indexes reps by the pushed support, the unit by phi's.
            reps, unit = on_support(reps, pr.presheaf.support()), on_support(unit, phi.support())
            assert (pr.reps, pr.unit) == (reps, unit)
            B = F.target
            for k in range(B.n_morphisms):
                if elements[B.cod(k)]:
                    assert pr.presheaf.action[k] == row(k)
            pushes += 1
    assert pushes > 100


def test_a_tampered_push_row_is_not_well_defined_on_classes(hoare):
    # Read one composite k;h wrongly after the push is built, for a node
    # (a, h, x) whose class's representative is not over the same h,
    # sending it to a node of another class: the row of k must raise, as
    # the tuple kernel does.  Classes are read from the tuple kernel,
    # whose classes the int kernel's match.
    for F, phi in push_cases(hoare):
        pr = push_psh_full(F, phi)
        _, class_of, _, _, oracle_row = tuple_push(F, phi)
        B = F.target
        for b, reps in zip(pr.presheaf.support(), pr.reps):
            for (a, h, x), k in itertools.product(class_of, B.mor_in(b)):
                if B.dom(h) != b or reps[class_of[(a, h, x)]][1] == h:
                    continue
                kh = B.compose(k, h)
                wrong = next(
                    (
                        g
                        for g in B.hom(B.dom(k), F.obj(a))
                        if class_of[(a, g, x)] != class_of[(a, kh, x)]
                    ),
                    None,
                )
                if wrong is None:
                    continue
                real = type(B).compose
                B.compose = lambda f, g: wrong if (f, g) == (k, h) else real(B, f, g)
                try:
                    with pytest.raises(StructuralError, match="not well defined on classes"):
                        pr.presheaf.action[k]
                    with pytest.raises(StructuralError, match="not well defined on classes"):
                        oracle_row(k)
                finally:
                    del B.compose
                return
    pytest.fail("no push has a class with a node to misdirect")
