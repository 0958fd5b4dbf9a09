"""The theorems about the two representations, checked exhaustively.

`representation_ff_check` decides that they are fully faithful,
`factorization_check` that they factor through the slice points and
through the comma category, and `preservation_check` that they send
certified lifts to vertical isomorphisms.  Only `verify` runs these; the
constructions they read are in `represent`.
"""

from __future__ import annotations

import functools
from itertools import repeat
from typing import Callable

from .fincat import (
    FinCategory,
    SIZE_GUARD,
    SizeGuardExceeded,
    StructuralError,
    _gather,
    _tag_index,
)
from .psh import (
    Presheaf,
    _closing,
    _families_on_support,
    is_vertical_iso,
    pull_psh,
    representable,
)
from .refsys import RefinementSystem, _cartesian_tests, find_pullback
from .reports import CheckReport
from .represent import (
    SliceAction,
    SliceCategory,
    comma_system,
    pos_rep,
    pos_rep_derivation,
    rep_point,
    slice_action,
    slice_of,
)


# ---------------------------------------------------------------------------
# Full faithfulness


def representation_ff_check(sys: RefinementSystem) -> CheckReport:
    """Soundness and completeness of the representations: for every
    judgment (Q1, c, Q2), postcomposition maps the derivation set
    bijectively onto the presheaf derivations rep(Q1) => rep(Q2) over the
    slice functor of c (dually for the negative side).  The families of
    every judgment that can have one, or has a derivation, are enumerated
    exhaustively by `_judgment_families`; every other judgment has
    neither, so it passes and is counted in bulk."""
    rep = CheckReport(
        f"representation-ff[{sys.name}]",
        "derivations biject with presheaf derivations between representations",
    )
    for s, side in ((sys, "pos"), (sys.op(), "neg")):
        searched, unsearched = _judgment_families(s)
        for (Q1, c, Q2), fams in searched:
            bad = _ff_failure(s, s.derivations_unchecked(Q1, c, Q2), fams)
            if bad is None:
                rep.record_pass()
            else:
                rep.record_fail(f"{side} {s.judgment_name(Q1, c, Q2)}: {bad}")
        rep.record_passes(unsearched)
    return rep


def _holders(sys: RefinementSystem, B: int) -> dict[int, set[int]]:
    """The inverted index of the representations over B: slice point ->
    the refinements Q of B whose rep(Q) is nonempty there.  Kept in the
    system's memo."""

    def build() -> dict[int, set[int]]:
        holders: dict[int, set[int]] = {}
        for Q in sys.fiber(B):
            for i in pos_rep(sys, Q).support():
                holders.setdefault(i, set()).add(Q)
        return holders

    return sys.memo(("holders", B), build)


def _judgment_families(sys: RefinementSystem):
    """The judgments (Q1, c, Q2) that can fail the ff check, in
    (Q1, Q2, c) index order, each with the natural families
    rep(Q1) => pull_c rep(Q2) as `_families_on_support` returns them, one
    component per support point of rep(Q1); and the number of all other
    judgments.

    A family sends every support point into rep(Q2), so a judgment can
    have one only where the image of the support under the slice action
    of c lies inside rep(Q2)'s support.  Per (Q1, c) those Q2 are read
    off the inverted index of the representations over cod c
    (`_holders`), intersected over the image; the Q2 with a derivation
    (Q1, c, Q2) are added from the derivation index, as the pullback
    candidates of c at Q1 in `sys.op()`.  Every other judgment has no
    family and no derivation.  The support and the naturality
    constraints (built on first need) are taken once per Q1, and the
    targets are read through the object map of the slice action."""
    T = sys.T
    # In the opposite system the derivations into Q1 are those out of it.
    derivations_out = sys.op().derivations_into
    searched = []
    unsearched = 0
    for Q1 in range(sys.D.n_objects):
        phi = pos_rep(sys, Q1)
        support = phi.support()
        closing = functools.cache(functools.partial(_closing, phi, support))
        found: list[tuple[int, int, SliceAction]] = []
        for B in range(T.n_objects):
            cs, fiber = T.hom(sys.shape(Q1), B), sys.fiber(B)
            if not (cs and fiber):
                continue
            holders, everyone = _holders(sys, B), set(fiber)
            for c in cs:
                F = slice_action(sys, c)
                image = {F.object_map[a] for a in support}
                inside = everyone.intersection(*(holders.get(i, ()) for i in image))
                can_fail = inside.union(Q2 for Q2, _alpha in derivations_out(c, Q1))
                unsearched += len(fiber) - len(can_fail)
                found += ((Q2, c, F) for Q2 in can_fail)
        found.sort(key=lambda j: j[:2])
        for Q2, c, F in found:
            psi, omap = pos_rep(sys, Q2), F.object_map
            try:
                fams = _families_on_support(
                    phi,
                    [psi.size(omap[a]) for a in support],
                    closing,
                    lambda u, psi=psi, F=F: psi.action[F.mor(u)],
                )
            except StructuralError as exc:  # rep(Q1)'s support is not a sieve
                fams = exc
            searched.append(((Q1, c, Q2), fams))
    return searched, unsearched


def _ff_failure(sys: RefinementSystem, ders: tuple[int, ...], fams: list | StructuralError) -> str | None:
    """Why postcomposition does not biject the derivations `ders` onto the
    families `fams`, or None if it does; `fams` may be the error that
    stopped their search."""
    if isinstance(fams, StructuralError):
        return str(fams)
    fam_set = set(fams)
    images = set()
    for sigma in ders:
        try:
            comps = pos_rep_derivation(sys, sigma).components
        except StructuralError as exc:
            return str(exc)
        if comps not in fam_set:
            return f"image of {sys.D.mor_names[sigma]} is not a natural family"
        images.add(comps)
    if len(images) != len(ders):
        return "postcomposition is not injective"
    if len(fams) != len(ders):
        return f"{len(ders)} derivations but {len(fams)} natural families"
    return None


# ---------------------------------------------------------------------------
# Factorization through pointed categories and through the comma category


class CommaCategory(FinCategory):
    """A comma category on tagged objects (Q, c), Q in D and c in T, and
    morphisms (alpha, e, s, u) from object s to object u, alpha in D and e
    in T; the composite of (alpha, e, s, _) and (alpha2, e2, _, u) is
    (alpha;alpha2, e;e2, s, u).  A row is filled in one pass from D's row
    of alpha and T's row of e, each read by position, so every entry is
    the tag of its componentwise composite; a composite whose tag is not
    listed is stored as -1, a missing composite.  A repeated tag, or an
    identity tag missing from the listing, is a StructuralError, as in
    `tagged_category`.  With distinct tags the projection to D x T is
    faithful and preserves identities and composites, so the comma is
    lawful when D and T are, and `verify` does not validate it.  Only
    `represent.comma_system` builds one, for the comma route below."""

    def __init__(self, name: str, D: FinCategory, T: FinCategory, obj_tags, mor_tags: tuple):
        self.mor_tags = mor_tags
        self.mor_index = index = _tag_index(name, mor_tags)
        super().__init__(
            name,
            [f"({D.objects[Q]},{T.mor_names[c]})" for (Q, c) in obj_tags],
            [(f"({D.mor_names[a]},{T.mor_names[e]})#{s}->{u}", s, u) for (a, e, s, u) in mor_tags],
            [index.get((D.identity[Q], T.identity[T.cod(c)], i, i), -1) for i, (Q, c) in enumerate(obj_tags)],
            None,
        )
        self._D, self._T = D, T
        self._outs: dict[int, tuple[Callable, Callable, tuple[int, ...]]] = {}

    def _row(self, f: int) -> tuple[int, ...]:
        """For f = (alpha, e, s, t) and each g = (alpha2, e2, t, u), in row
        order: the morphism tagged (alpha;alpha2, e;e2, s, u), or -1, with
        alpha;alpha2 read from D's row of alpha and e;e2 from T's row of e."""
        row = self._rows[f]
        if row is None:
            alpha, e, s, t = self.mor_tags[f]
            got = self._outs.get(t)
            if got is None:  # where each alpha2 sits in a D row, each e2 in a T row
                outs = [self.mor_tags[g] for g in self.mor_out(t)]
                got = self._outs[t] = (
                    _gather([self._D._out_pos[a2] for a2, _e2, _t, _u in outs]),
                    _gather([self._T._out_pos[e2] for _a2, e2, _t, _u in outs]),
                    tuple(u for _a2, _e2, _t, u in outs),
                )
            from_d, from_t, us = got
            tags = zip(from_d(self._D._row(alpha)), from_t(self._T._row(e)), repeat(s), us)
            row = self._rows[f] = tuple(map(self.mor_index.get, tags, repeat(-1)))
        return row


def _factorization_one_side(sys: RefinementSystem, rep: CheckReport, side: str, size_guard: int) -> None:
    D, T = sys.D, sys.T

    # The representation presheaves are representable: rep(Q) has the
    # tables of the hom presheaf of the slice at the point (Q, id), each
    # slice morphism into the point read as its derivation.
    for Q in range(D.n_objects):
        S = slice_of(sys, sys.shape(Q))
        bad = _unlike_representable(S, pos_rep(sys, Q), representable(S.cat, rep_point(sys, Q)[0]))
        rep.check(bad is None, f"{side} representability of {D.objects[Q]}: {bad}")

    # Comma route: the canonical lifts of the cod projection are
    # opcartesian, and fiber transport along each base morphism has the
    # same tables as the slice action.
    try:
        cs = comma_system(sys, size_guard)
    except SizeGuardExceeded as exc:
        rep.record_skip(f"{side} comma route: {exc}")
        return
    comma = cs.sys
    for e in range(T.n_morphisms):
        if T.is_identity(e):
            continue
        B1, B2 = T.dom(e), T.cod(e)
        S1, S2 = slice_of(sys, B1), slice_of(sys, B2)
        F = slice_action(sys, e)
        bad = None
        lifts = []  # (src, tgt, canonical lift) per point of S1
        for i, (P, c) in enumerate(S1.obj_tags):
            src = cs.obj_index[(P, c)]
            tgt = cs.obj_index[(P, T.compose(c, e))]
            ell = cs.mor_index.get((D.identity[P], e, src, tgt))
            if ell is None or _cartesian_tests(comma.op(), e, src, tgt, ell) is None:
                bad = f"canonical lift of {S1.obj_name(i)} along {T.mor_names[e]} is not opcartesian"
                break
            if cs.obj_tags[tgt] != S2.obj_tags[F.obj(i)]:
                bad = f"transport of {S1.obj_name(i)} disagrees with the slice action"
                break
            lifts.append((src, tgt, ell))
        if bad is None:
            # alpha transported is the w over id_B2 with ell_s;w = v;ell_u:
            # the lifts carry identities of D, so w is tagged alpha.
            for k, (alpha, s, u) in enumerate(S1.mor_tags):
                (src_s, tgt_s, ell_s), (src_u, tgt_u, ell_u) = lifts[s], lifts[u]
                v = cs.mor_index[(alpha, T.identity[B1], src_s, src_u)]
                w = cs.mor_index.get((alpha, T.identity[B2], tgt_s, tgt_u))
                if (
                    w is None
                    or comma.D.compose(ell_s, w) != comma.D.compose(v, ell_u)
                    or S2.mor_tags[F.mor(k)][0] != alpha
                ):
                    bad = f"transport of {S1.mor_name(k)} along {T.mor_names[e]} disagrees with the slice action"
                    break
        if not rep.check(bad is None, f"{side} comma transport: {bad}"):
            break
    else:
        if all(T.is_identity(e) for e in range(T.n_morphisms)):
            rep.record_skip(f"{side} comma transport: base has only identities")


def _unlike_representable(S: SliceCategory, phi: Presheaf, y: Presheaf) -> str | None:
    """Where phi, a presheaf of derivations over S, and the hom presheaf y
    of a point of S differ, table for table, or None: at every slice point
    the point morphisms, read as their derivations, are phi's payloads,
    the supports are equal, and on the support every action row into a
    set of two or more elements agrees.  Off both supports both payloads
    are empty, so only the union of the supports is read; a row into a
    one-element set agrees whatever it is, as in `pshcore._checks`, so it is
    not read."""
    if phi.payloads is None:
        return f"{phi.name} has no derivations as payloads"
    for i in sorted(set(phi.support()).union(y.support())):
        if tuple(S.mor_tags[m][0] for m in y.payloads[i]) != phi.payloads[i]:
            return f"point morphisms at {S.obj_name(i)} are not its derivations"
    if phi.support() != y.support():
        return f"the support of {phi.name} is not that of its point"
    dom = S.cat.mor_dom
    for j in phi.support():
        for f in S.cat.mor_in(j):
            if phi.size(dom[f]) > 1 and y.action[f] != phi.action[f]:
                return f"precomposition with {S.mor_name(f)} disagrees"
    return None


def factorization_check(sys: RefinementSystem, size_guard: int = SIZE_GUARD) -> CheckReport:
    """The positive representation factors through the slice points and
    through the comma category, and dually for the negative one.

    Checks, for each side: (i) each rep(Q) is the hom presheaf of its
    point, table for table; (ii) the canonical lifts of the comma
    projection are opcartesian; (iii) fiber transport along every base
    morphism reproduces the slice action tables.  The comma's laws are
    D's and T's by construction (`CommaCategory`), so they are
    not decided here."""
    rep = CheckReport(
        f"factorization[{sys.name}]",
        "representations factor through slice points and comma transport",
    )
    _factorization_one_side(sys, rep, "pos", size_guard)
    _factorization_one_side(sys.op(), rep, "neg", size_guard)
    return rep


# ---------------------------------------------------------------------------
# Preservation of pullbacks (and pushforwards, contravariantly)


def _pulled_reps(s: RefinementSystem, c: int, rep: CheckReport, lift: str, failure: str):
    """For every refinement Q of cod c with a certified pullback along c,
    check that the comparison rep(c*Q) => rep(Q) pulled along c is a
    vertical iso; skip the others.  `failure` is formatted with R = c*Q,
    Q and c."""
    for Q in s.fiber(s.T.cod(c)):
        cert = find_pullback(s, c, Q)
        if cert is None:
            rep.record_skip(f"no {lift} of {s.D.objects[Q]} along {s.T.mor_names[c]}")
            continue
        comparison = pos_rep_derivation(s, cert.structural)
        pulled = pull_psh(slice_action(s, c), pos_rep(s, Q))
        rep.check(
            is_vertical_iso(comparison.components, pos_rep(s, cert.result), pulled),
            failure.format(R=s.D.objects[cert.result], Q=s.D.objects[Q], c=s.T.mor_names[c]),
        )


def preservation_check(sys: RefinementSystem) -> CheckReport:
    """Certified pullbacks become isomorphisms of positive representations;
    certified pushforwards become isomorphisms of negative representations
    onto pullbacks, which is the same statement in the opposite system.
    Whether the single push of a positive representation is isomorphic to
    the pushforward's is `negative_encoding_check`'s note."""
    rep = CheckReport(
        f"preservation[{sys.name}]",
        "representations preserve certified lifts as vertical isomorphisms",
    )
    T = sys.T
    for c in range(T.n_morphisms):
        if T.is_identity(c):
            continue
        _pulled_reps(sys, c, rep, "pullback", "rep({R}) is not pulled rep({Q}) along {c}")
        _pulled_reps(sys.op(), c, rep, "pushforward", "negative rep of {R} is not pulled along {c}")
    return rep
