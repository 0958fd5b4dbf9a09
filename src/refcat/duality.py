"""The slice x coslice pairing through derivations, and duals.

Pairing a slice point (P,c) with a coslice point (d,R) gives the
derivations of the judgment (P, c;d, R); a slice morphism alpha and a
coslice morphism gamma act on them by sigma |-> alpha;sigma;gamma.  That
set is rep(R) at (P, c;d), the image of (P,c) under the slice action of
d, and also neg(P) at (R, c;d), the image of (d,R) under the coslice
action of c, so the pairing is read from the two representations.  A
presheaf over a slice is dualized into one over the coslice by the end
formula, read as a residual: the dual at a point collects the natural
families of derivations the presheaf can be mapped into, which is the
residual of the presheaf and the pairing curried on the coslice
(`pshcore.curried_residual`).  The checks in this module verify that the
two representations of a refinement are each other's duals, and that
pushforwards and declared tensors are recovered from their negative
encodings up to double dualization, with dualization turning each push
into a pull on the way; fiber tensors are recovered the same way in
`day`.

Every mirror image is taken from the opposite system: the coslice of a
system is the slice of `sys.op()`, and the right dual is the left dual
computed in `sys.op()`.  Only the left, positive, pull side is written
out.  The left dual searches families only on the support of its input
and only at the coslice points where every support point has a
derivation (`_live_points`): the input is empty off its support, so a
natural family has one component per support point, and a point where
the pairing is empty somewhere on the support has no families.
"""

from __future__ import annotations

from .fincat import StructuralError
from .pshcore import Presheaf, curried_residual
from .refsys import RefinementSystem, find_pushforward
from .represent import (
    coslice_action,
    coslice_of,
    neg_rep,
    pos_rep,
    rep_point,
    slice_action,
    slice_of,
)


# ---------------------------------------------------------------------------
# Dualization by the direct end formula


def _live_points(sys: RefinementSystem, B: int, support: tuple[int, ...]) -> list[int]:
    """The coslice points (d,R) of B at which every support point (P,c)
    has a derivation (P, c;d, R), found by walking the derivations out of
    each support point and solving c;d = t(alpha) from c's inverted row;
    at any other point the pairing is empty somewhere on the support, so
    no family lands there."""
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
    (`curried_residual`), with the pairing read from the representations:
    the derivations at ((P,c), (d,R)) are rep(R) at the image of (P,c)
    under the slice action of d, the row of (u, id_(d,R)) is rep(R)'s row
    of the image of u, and the row of (id_(P,c), gamma) is neg(P)'s row
    of the image of gamma under the coslice action of c.  Families are
    searched only at the live points (`_live_points`)."""
    S, Cs = slice_of(sys, B), coslice_of(sys, B)
    if phi.base is not S.cat:
        raise StructuralError(
            f"dual_left: {phi.name} does not live over the slice of "
            f"{sys.T.objects[B]} in {sys.name}"
        )

    def size(a: int, j: int) -> int:
        R, d = Cs.obj_tags[j]
        return pos_rep(sys, R).size(slice_action(sys, d).obj(a))

    def row(u: int, g: int) -> tuple[int, ...]:
        if Cs.cat.is_identity(g):
            R, d = Cs.obj_tags[Cs.cat.mor_cod[g]]
            return pos_rep(sys, R).action[slice_action(sys, d).mor(u)]
        P, c = S.obj_tags[S.cat.mor_cod[u]]
        return neg_rep(sys, P).action[coslice_action(sys, c).mor(g)]

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
    and the positive one is the right dual of the negative one, the first
    clause in the opposite system.  No judgment category is built."""
    from .psh import generated_iso
    from .reports import CheckReport

    D, B = sys.D, sys.shape(Q)
    rep = CheckReport(
        f"duality[{sys.name}:{D.objects[Q]}]",
        "positive and negative representations are two duals of one refinement",
    )
    for s, failure in (
        (sys, f"negative rep({D.objects[Q]}) is not the left dual of the positive one"),
        (sys.op(), f"positive rep({D.objects[Q]}) is not the right dual of the negative one"),
    ):
        dual = dual_left(s, B, pos_rep(s, Q))
        rep.check(generated_iso(neg_rep(s, Q), *rep_point(s.op(), Q), dual), failure)
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
    status is recorded as a note.  The pulled negative representation is
    generated by the certified pushforward at the coslice point (R, id_B):
    every derivation out of P over c;d factors through it."""
    from .psh import generated_iso, pull_psh, push_psh
    from .reports import CheckReport

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
    target = (pos_rep(sys, cert.result), *rep_point(sys, cert.result))

    pulled = pull_psh(coslice_action(sys, c), neg_rep(sys, P))
    rep.check(
        generated_iso(*target, dual_right(sys, B, pulled)),
        f"right dual of pulled negative rep({D.objects[P]}) is not rep({D.objects[cert.result]})",
    )

    pushed = push_psh(slice_action(sys, c), pos_rep(sys, P))
    dual = dual_left(sys, B, pushed)
    p = coslice_of(sys, B).obj_index[(cert.result, T.identity[B])]
    rep.check(
        generated_iso(pulled, p, pulled.position(p)[cert.structural], dual),
        f"pulled negative rep({D.objects[P]}) is not the left dual of pushed rep({D.objects[P]})",
    )
    rep.check(
        generated_iso(*target, dual_right(sys, B, dual)),
        f"double dual of pushed rep({D.objects[P]}) is not rep({D.objects[cert.result]})",
    )
    rep.note(
        "single push isomorphic to the pushforward representation: "
        + ("yes" if generated_iso(*target, pushed) else "no")
    )
    return rep


def tensorL_check(sys: RefinementSystem, decl: TensorDecl) -> CheckReport:
    """The declared tensor agrees with the pushforward of the two-formula
    context along 2 -> 1, its double dual recovers it, and a single
    pushforward of the positive side does not: at the context [A*B] the
    pushed set is empty while the positive representation is not.

    The pushforward must land at the tensor's context itself: a vertical
    iso of contexts lies over an identity map of positions, and a
    composite keeps its outer rule unless that rule is an identity, so
    the only vertical isos are identities."""
    from .fixtures import linctx_data
    from .psh import push_psh
    from .reports import CheckReport

    data = linctx_data(sys)
    if data is None:
        raise StructuralError("tensorL_check needs a system built by build_linctx")
    mc, _K, ctx_index, u_index = data
    report = CheckReport(
        name=f"tensorL:{decl.left},{decl.right}",
        statement="the declared tensor is the pushforward of the paired "
        "context along 2 -> 1 and is recovered by double dualization, "
        "while one pushforward alone is not isomorphic to it",
    )
    fidx = {f: i for i, f in enumerate(mc.formulas)}
    pair_ctx = ctx_index[tuple(sorted((fidx[decl.left], fidx[decl.right])))]
    tens_ctx = ctx_index[(fidx[decl.tensor],)]
    mu = u_index[(2, 1, (0, 0))]
    cert = find_pushforward(sys, mu, pair_ctx)
    report.check(cert is not None, "no pushforward of the paired context")
    if cert is None:
        return report
    report.check(
        cert.result == tens_ctx,
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
