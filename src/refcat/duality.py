"""The slice x coslice pairing through derivations, cuts, and duals.

Pairing a slice point (P,c) with a coslice point (d,R) gives the
derivations of the judgment (P, c;d, R); a slice morphism alpha and a
coslice morphism gamma act on them by sigma |-> alpha;sigma;gamma.  Fixing
one argument of the pairing gives a cut.  A presheaf over a slice is
dualized into one over the coslice by the end formula, read as a
residual: the dual at a point collects the natural families of
derivations the presheaf can be mapped into, which is the residual of
the presheaf and the pairing curried on the coslice
(`psh.curried_residual`).  The checks in this module verify that the
two representations of a refinement are the point sections of the cut
and each other's duals, and that pushforwards and declared tensors are
recovered from their negative encodings up to double dualization, with
dualization turning each push into a pull on the way; fiber tensors are
recovered the same way in `day`.

Every mirror image is taken from the opposite system: the coslice of a
system is the slice of `sys.op()`, and the right dual is the left dual
computed in `sys.op()`.  Only the left, positive, pull side is written
out.  A cut is one coslice point's column, cut(-, (d,R)), over the slice;
in `sys.op()` it is one slice point's row over the coslice.  The left
dual reads the pairing from the cuts, only on the support of its input
and only at the coslice points where every support point has a
derivation (`_live_points`): the support is a sieve, so a natural family
is () off it and is determined by its values there, and a point where
the cut is empty somewhere on the support has no families.  A cut is a
presheaf like any other, filled on first read and kept in the memo.
The pairing read whole, and the checks that read it, are in `pairing`.
"""

from __future__ import annotations

from .fincat import StructuralError, Table
from .psh import (
    Presheaf,
    curried_residual,
    pull_psh,
    push_psh,
    vertical_iso_psh,
)
from .refsys import RefinementSystem, find_pushforward
from .reports import CheckReport
from .represent import (
    _derivation_row,
    coslice_action,
    coslice_of,
    neg_rep,
    pos_rep,
    slice_action,
    slice_of,
)


# ---------------------------------------------------------------------------
# Dualization by the direct end formula


def _cut(sys: RefinementSystem, B: int, point: tuple[int, int]) -> Presheaf:
    """cut(-, (d,R)): the derivation sets (P, c;d, R) over the slice of B,
    with the coslice point (d,R) fixed and the derivations as payloads;
    slice morphisms act by precomposition.  In `sys.op()` this is the
    mirror image, over the coslice with the slice point fixed.

    Nothing is computed up front: each slice point's derivation set and
    each slice morphism's action row is filled on first read (the row is
    checked there like any presheaf row), and the cut is kept in the
    system's memo under its point's tag, so every dualization and
    section over B shares it."""

    def build() -> Presheaf:
        D, T = sys.D, sys.T
        S = slice_of(sys, B)
        R, d = point
        tags, ders = S.obj_tags, sys.derivations_unchecked

        def derivations_at(i: int) -> tuple[int, ...]:
            P, c = tags[i]
            return ders(P, T.compose(c, d), R)

        payloads = Table(S.cat.n_objects, derivations_at)
        cut = Presheaf(
            f"cut(-,({D.objects[R]},{T.mor_names[d]}))",
            S.cat,
            Table(S.cat.n_objects, lambda i: tuple(D.mor_names[x] for x in payloads[i])),
            lambda m: _cut_row(S, cut, m),
            payloads,
        )
        return cut

    return sys.memo(("cut", B, point), build)


# The action of a slice morphism on a cut: precomposition, as on a
# representation.  Named apart so that a cut's rows can be tampered with
# on their own.
_cut_row = _derivation_row


def _section(sys: RefinementSystem, B: int, Q: int) -> Presheaf:
    """The point section cut(-, (Q, id)) of the refinement Q over B, with
    its support found in one pass over the slice tags.  Every point
    (P, c) is read through `derivations_unchecked` as (P, c;id, Q), as the
    cut's own fill reads it, but neither a payload nor an element name is
    filled there: the iso search of `duality_check` fills them on the
    support only.  The support is not taken from the
    derivations into Q in D, which would hide a derivation the index
    claims off it."""
    section = _cut(sys, B, (Q, sys.T.identity[B]))
    if section._support is None:
        T, ders = sys.T, sys.derivations_unchecked
        S = slice_of(sys, B)
        d = T.identity[B]
        after = {c: T.compose(c, d) for pos in S.hom_pos.values() for c in pos}
        section._support = tuple(
            i for i, (P, c) in enumerate(S.obj_tags) if ders(P, after[c], Q)
        )
    return section


def _live_points(sys: RefinementSystem, B: int, support: tuple[int, ...]) -> list[int]:
    """The coslice points (d,R) of B at which every support point (P,c)
    has a derivation (P, c;d, R), found by walking the derivations out of
    each support point and solving c;d = t(alpha) from c's inverted row;
    at any other point the cut is empty somewhere on the support, so no
    family lands there."""
    D, T, t = sys.D, sys.T, sys.t
    S, Cs = slice_of(sys, B), coslice_of(sys, B)
    live: set[int] | None = None
    for i in support:
        P, c = S.obj_tags[i]
        after = T._inverse_row(c)
        here = {
            Cs.obj_index[(D.cod(alpha), d)]
            for alpha in D.mor_out(P)
            for d in after.get(t.mor(alpha), ())
        }
        live = here if live is None else live & here
        if not live:
            return []
    return list(range(Cs.cat.n_objects)) if live is None else sorted(live)


def dual_left(sys: RefinementSystem, B: int, phi: Presheaf) -> Presheaf:
    """The left dual of a presheaf over the slice of B: at a coslice point
    (d,R), the natural families sending phi(P,c) into derivations
    (P, c;d, R); coslice morphisms act by postcomposing every value.

    It is the residual of phi and the pairing curried on the coslice
    (`curried_residual`), with the pairing read from the cuts: the row of
    (u, id_j) is cut j's own row of u, and the row of (id_(P,c), gamma)
    locates sigma;gamma in the source cut.  Families are searched only at
    the live points (`_live_points`), so a cut is read only there and
    only on the support of phi."""
    S, Cs = slice_of(sys, B), coslice_of(sys, B)
    if phi.base is not S.cat:
        raise StructuralError(
            f"dual_left: {phi.name} does not live over the slice of "
            f"{sys.T.objects[B]} in {sys.name}"
        )
    cuts = Table(Cs.cat.n_objects, lambda j: _cut(sys, B, Cs.obj_tags[j]))

    def row(u: int, g: int) -> tuple[int, ...]:
        if Cs.cat.is_identity(g):
            return cuts[Cs.cat.mor_cod[g]].action[u]
        (gamma, s, t), a = Cs.mor_tags[g], S.cat.mor_cod[u]
        at, compose = cuts[s].position(a), sys.D.compose
        return tuple(at[compose(sigma, gamma)] for sigma in cuts[t].payloads[a])

    size = lambda a, j: len(cuts[j].payloads[a])
    dual = curried_residual(phi, Cs.cat, size, row, _live_points(sys, B, phi.support()))
    dual.name = f"dualL({phi.name})"
    return dual


def dual_right(sys: RefinementSystem, B: int, psi: Presheaf) -> Presheaf:
    """The right dual of a presheaf over the coslice of B: at a slice
    point (P,c), the natural families sending psi(d,R) into derivations
    (P, c;d, R); slice morphisms act by precomposing every value.  This is
    the left dual in the opposite system."""
    out = dual_left(sys.op(), B, psi)
    out.name = f"dualR({psi.name})"
    return out


def _duals(side: str):
    """The representation a dual of this side dualizes, and its dualizer."""
    return (pos_rep, dual_left) if side == "left" else (neg_rep, dual_right)


# ---------------------------------------------------------------------------
# The duality theorem


def duality_check(sys: RefinementSystem, Q: int) -> CheckReport:
    """The two representations of a refinement determine each other by
    dualization: the negative one is the left dual of the positive one
    and the positive one is the right dual of the negative one.  Then each
    is compared with the point section of the cut at (Q, id): the positive
    one with cut(-, (Q, id)) in `sys`, the negative one with the same cut
    in `sys.op()`, which is cut((Q, id), -).  Both are read from the cuts
    the dualizers keep, so no judgment category is built.  A section
    reads every slice point once to find its support (`_section`), and
    the iso search reads its tables on that support only."""
    D = sys.D
    B = sys.shape(Q)
    rep = CheckReport(
        f"duality[{sys.name}:{D.objects[Q]}]",
        "positive and negative representations are two duals of one refinement",
    )
    phi, psi = pos_rep(sys, Q), neg_rep(sys, Q)
    rep.check(
        vertical_iso_psh(psi, dual_left(sys, B, phi)) is not None,
        f"negative rep({D.objects[Q]}) is not the left dual of the positive one",
    )
    rep.check(
        vertical_iso_psh(phi, dual_right(sys, B, psi)) is not None,
        f"positive rep({D.objects[Q]}) is not the right dual of the negative one",
    )
    # The sections read the same cuts as the dualizers and come second, so
    # a bad cut row is first reported as a failure of the dual it breaks.
    for s, r, label in ((sys, phi, "rep"), (sys.op(), psi, "negative rep")):
        section = _section(s, B, Q)
        rep.check(
            vertical_iso_psh(r, section) is not None,
            f"{label}({D.objects[Q]}) is not the derivation presheaf along its point section",
        )
    return rep


# ---------------------------------------------------------------------------
# Negative encodings of pushforwards


def negative_encoding_check(sys: RefinementSystem, c: int, P: int) -> CheckReport:
    """A pushforward is recovered from negative data in two ways: the
    right dual of the pulled negative representation, and the double dual
    of the pushed positive representation.  Between them, dualization
    turns the push into the pull: the pulled negative representation is
    the left dual of the pushed positive one.  The single push itself
    need not be isomorphic to the representation of the pushforward; its
    status is recorded as a note."""
    D, T = sys.D, sys.T
    rep = CheckReport(
        f"negative-encoding[{sys.name}:{T.mor_names[c]}:{D.objects[P]}]",
        "pushforward representation is recovered by dualizing negative data",
    )
    cert = find_pushforward(sys, c, P)
    if cert is None:
        rep.record_skip(f"no pushforward of {D.objects[P]} along {T.mor_names[c]}")
        return rep
    B = T.cod(c)
    target = pos_rep(sys, cert.result)

    pulled = pull_psh(coslice_action(sys, c), neg_rep(sys, P))
    rep.check(
        vertical_iso_psh(target, dual_right(sys, B, pulled)) is not None,
        f"right dual of pulled negative rep({D.objects[P]}) is not rep({D.objects[cert.result]})",
    )

    pushed = push_psh(slice_action(sys, c), pos_rep(sys, P))
    dual = dual_left(sys, B, pushed)
    rep.check(
        vertical_iso_psh(pulled, dual) is not None,
        f"pulled negative rep({D.objects[P]}) is not the left dual of pushed rep({D.objects[P]})",
    )
    rep.check(
        vertical_iso_psh(target, dual_right(sys, B, dual)) is not None,
        f"double dual of pushed rep({D.objects[P]}) is not rep({D.objects[cert.result]})",
    )
    rep.note(
        "single push isomorphic to the pushforward representation: "
        + ("yes" if vertical_iso_psh(pushed, target) else "no")
    )
    return rep


def tensorL_check(sys: RefinementSystem, A: str, B: str) -> CheckReport:
    """The declared tensor agrees with the pushforward of the two-formula
    context along 2 -> 1, its double dual recovers it, and a single
    pushforward of the positive side does not: at the context [A*B] the
    pushed set is empty while the positive representation is not."""
    from .fixtures import linctx_data

    data = linctx_data(sys)
    if data is None:
        raise StructuralError("tensorL_check needs a system built by build_linctx")
    mc, _K, ctx_index, u_index = data
    decl = None
    for d in mc.tensors:
        if {d.left, d.right} == {A, B}:
            decl = d
            break
    if decl is None:
        raise StructuralError(f"missing tensor declaration for ({A},{B})")
    report = CheckReport(
        name=f"tensorL:{A},{B}",
        statement="the declared tensor is the pushforward of the paired "
        "context along 2 -> 1 and is recovered by double dualization, "
        "while one pushforward alone is not isomorphic to it",
    )
    fidx = {f: i for i, f in enumerate(mc.formulas)}
    pair_ctx = ctx_index[tuple(sorted((fidx[A], fidx[B])))]
    tens_ctx = ctx_index[(fidx[decl.tensor],)]
    mu = u_index[(2, 1, (0, 0))]
    cert = find_pushforward(sys, mu, pair_ctx)
    report.check(cert is not None, "no pushforward of the paired context")
    if cert is None:
        return report
    same = cert.result == tens_ctx or sys.vertical_iso(cert.result, tens_ctx) is not None
    report.check(
        same,
        f"pushforward lands at {sys.D.object_name(cert.result)}, "
        f"not {sys.D.object_name(tens_ctx)}",
    )
    sub = negative_encoding_check(sys, mu, pair_ctx)
    report.check(sub.ok, sub.counterexample or "negative encoding failed")
    report.note(f"negative encoding: {sub.passed}/{sub.attempted} clauses")

    S1 = slice_of(sys, 1)
    x = S1.obj_index[(tens_ctx, sys.T.id_of(1))]
    pushed = push_psh(slice_action(sys, mu), pos_rep(sys, pair_ctx))
    direct = pos_rep(sys, tens_ctx)
    report.check(
        pushed.size(x) == 0,
        f"pushed set at {S1.obj_name(x)} has {pushed.size(x)} elements",
    )
    report.check(
        direct.size(x) >= 1,
        f"positive representation at {S1.obj_name(x)} is empty",
    )
    report.note(
        f"at {S1.obj_name(x)}: single push has {pushed.size(x)} elements, "
        f"the representation has {direct.size(x)}"
    )
    return report
