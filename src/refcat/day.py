"""Monoidal refinement systems on slices: the Day-style embedding of the
representations, the fiber tensor and residuals over a monoid, and
fiber tensors recovered from the Day tensor by double dualization.

The right residuals are the left residuals of the reversed tensor
(`MonoidalRefinementSystem.reversed()`).  Genday's residual clauses and
both sides of the monoid-lax check decide one comparison,
`_pulled_residual`, against the residual presheaf built directly at the
functors its currying reaches (`pshcore.curried_residual`); no functor
category is listed.
"""

from __future__ import annotations

from .duality import dual_left, dual_right
from .fincat import FunctorData, StructuralError, compose_functors
from .monoidal import find_left_residual, left_curry, product
from .psh import (
    PshDerivation, _index, curried_residual, generated_iso, is_vertical_iso,
    opcartesian_factoring_check, push_psh, push_psh_full, push_transpose, representable,
    tensor_psh, validate_psh_derivation,
)
from .refsys import find_pullback, find_pushforward
from .reports import CheckReport
from .represent import pos_rep, pos_rep_derivation, rep_point, slice_action, slice_of


# ---------------------------------------------------------------------------
# Monoidal structure on slices


def m_functor(mrs: MonoidalRefinementSystem, B1: int, B2: int) -> tuple[FunctorData, ProductCategory]:
    """Tensor-of-tags functor from the product of two slices into the slice
    of the tensor, together with its product base; both are built once
    per system.  The product depends only on (sys, B1, B2), so `mrs` and
    `mrs.reversed()` share it."""
    sys = mrs.sys

    def build() -> tuple[FunctorData, ProductCategory]:
        S1, S2 = slice_of(sys, B1), slice_of(sys, B2)
        S12 = slice_of(sys, mrs.mon_base.tobj(B1, B2))
        prod = sys.memo(("slice product", B1, B2), lambda: product(S1.cat, S2.cat))
        omap = []
        for x in range(prod.n_objects):
            i, j = prod.split_obj(x)
            (P, c), (Q, d) = S1.obj_tags[i], S2.obj_tags[j]
            omap.append(
                S12.obj_index[(mrs.mon_ref.tobj(P, Q), mrs.mon_base.tmor(c, d))]
            )
        mmap = []
        for m in range(prod.n_morphisms):
            f, g = prod.split_mor(m)
            (a1, s1, t1), (a2, s2, t2) = S1.mor_tags[f], S2.mor_tags[g]
            mmap.append(
                S12.mor_of(
                    mrs.mon_ref.tmor(a1, a2),
                    omap[prod.pair_obj(s1, s2)],
                    omap[prod.pair_obj(t1, t2)],
                )
            )
        T = sys.T
        F = FunctorData(
            f"m[{T.objects[B1]},{T.objects[B2]}]",
            prod,
            S12.cat,
            tuple(omap),
            tuple(mmap),
        )
        return (F, prod)

    return sys.memo(("m", mrs, B1, B2), build)


def m_derivation(mrs: MonoidalRefinementSystem, P: int, Q: int) -> PshDerivation:
    """The tensor derivation rep(P) x rep(Q) => rep(P (x) Q) over the
    tensor-of-tags functor: a pair of derivations maps to their tensor.
    One component per point of the external tensor's support."""
    sys = mrs.sys
    D = sys.D
    phiP, phiQ = pos_rep(sys, P), pos_rep(sys, Q)
    F, prod = m_functor(mrs, sys.shape(P), sys.shape(Q))
    box = tensor_psh(phiP, phiQ, prod)
    target = pos_rep(sys, mrs.mon_ref.tobj(P, Q))
    comps = []
    for x in box.support():
        i, j = prod.split_obj(x)
        pos = target.position(F.obj(x))
        row = []
        for sigma in phiP.payloads[i]:
            for tau in phiQ.payloads[j]:
                row.append(pos[mrs.mon_ref.tmor(sigma, tau)])
        comps.append(tuple(row))
    return PshDerivation(
        f"m[{D.objects[P]},{D.objects[Q]}]", box, target, F, tuple(comps)
    )


def _strict_left_residual(mrs: MonoidalRefinementSystem, P: int, R: int):
    """Residual data (XD, plugD, XT, plugT) for P \\ R with the refinement
    residual lying strictly over the base residual, or None.  Found once
    per system."""

    def build():
        t = mrs.sys.t
        resT = find_left_residual(mrs.mon_base, t.obj(P), t.obj(R))
        if resT is None:
            return None
        resD = find_left_residual(mrs.mon_ref, P, R)
        if resD is None:
            return None
        XD, plugD = resD
        XT, plugT = resT
        if t.obj(XD) != XT or t.mor(plugD) != plugT:
            return None
        return (XD, plugD, XT, plugT)

    return mrs.sys.memo(("strict residual", mrs, P, R), build)


def genday_check(mrs: MonoidalRefinementSystem, P: int, Q: int, R: int) -> CheckReport:
    """Day-style embedding on slices for one triple of refinements.

    (a) pushing the external tensor of rep(P) and rep(Q) along the
        tensor-of-tags functor gives rep(P (x) Q), with the tensor
        derivation certified opcartesian by the brute-force oracle, which
        checks the push the iso clause reads;
    (b) the canonical comparison from rep(P \\ R) into the presheaf
        residual pulled back along the currying of tensor-then-plug is a
        vertical isomorphism, and a valid derivation: when it is not an
        iso, the validity clause names the square that fails.  A vertical
        iso is cartesian, so no factoring is replayed here;
    (c) mirror image for the right residual R / Q, which is (b) for the
        reversed tensor.

    Clauses (b) and (c) require the residuals to exist with the refinement
    residual lying strictly over the base one; otherwise they are skipped
    with the unmet hypothesis as the reason.

    Each clause depends on a pair only, so its outcome is decided once per
    pair, kept in the system's memo, and folded into the triple's report
    in the order a, b, c."""
    nm = mrs.sys.D.objects
    rep = CheckReport(
        f"genday[{nm[P]},{nm[Q]},{nm[R]}]",
        "slice representation strongly preserves tensor and residuals",
    )
    memo = mrs.sys.memo
    rep.absorb(memo(("genday (a)", mrs, P, Q), lambda: _genday_tensor_clause(mrs, P, Q)), "")
    for label, side, m, X in (("(b)", "left", mrs, P), ("(c)", "right", mrs.reversed(), Q)):
        clause = lambda: _genday_residual_clause(m, label, side, X, R)
        rep.absorb(memo(("genday", label, m, X, R), clause), "")
    return rep


def _genday_tensor_clause(mrs: MonoidalRefinementSystem, P: int, Q: int) -> CheckReport:
    """Clause (a) of `genday_check` for the pair (P, Q)."""
    nm = mrs.sys.D.objects
    rep = CheckReport("(a)", "tensor clause")
    md = m_derivation(mrs, P, Q)
    vrep = validate_psh_derivation(md)
    if not rep.check(vrep.ok, f"(a) tensor derivation invalid:\n{vrep}"):
        return rep
    F = md.functor
    target = md.target
    pr = push_psh_full(F, md.source)
    kappa = push_transpose(pr, F, target, md.components)
    rep.check(
        is_vertical_iso(kappa.components, pr.presheaf, target),
        f"(a) pushed tensor of rep({nm[P]}), rep({nm[Q]}) is not rep({nm[mrs.mon_ref.tobj(P, Q)]})",
    )
    codomains = [representable(target.base, o) for o in range(target.base.n_objects)]
    codomains.append(target)
    codomains.append(pr.presheaf)
    ok, why = opcartesian_factoring_check(pr, F, md.source, codomains)
    rep.check(ok, f"(a) tensor derivation is not opcartesian: {why}")
    return rep


def _pulled_residual(mrs, P, R, lhs, carrier, F, plugD):
    """Compare lhs, over a slice, with the residual of rep(P) and rep(R)
    pulled back along the currying of F : slice x slice -> slice (a
    tensor of tags followed by a slice action), built at the curried
    functors by `curried_residual`.

    An element sigma of lhs at i becomes the family sending tau in
    rep(P)(a) to (tau (x) carrier(sigma)) ; plugD, located among the
    natural families at i.  Returns (theta, iso, None), with theta the
    vertical comparison lhs => pulled residual and iso whether it is an
    isomorphism, or (None, False, why) when an element has no such
    image."""
    sys = mrs.sys
    D, tmor = sys.D, mrs.mon_ref.tmor
    phi, omega = pos_rep(sys, P), pos_rep(sys, R)
    prod = F.source
    obj = lambda a, b: F.obj(prod.pair_obj(a, b))
    res = curried_residual(
        phi,
        prod.right,
        lambda a, b: omega.size(obj(a, b)),
        lambda f, g: omega.action[F.mor(prod.pair_mor(f, g))],
    )
    comps = []
    for i in lhs.support():
        row = []
        for sigma in lhs.payloads[i]:
            sig = carrier(sigma)
            fam = []
            for a in phi.support():
                vals = []
                for tau in phi.payloads[a]:
                    der = D.compose(tmor(tau, sig), plugD)
                    v = omega.position(obj(a, i)).get(der)
                    if v is None:
                        return (
                            None,
                            False,
                            f"canonical image of {D.mor_names[sigma]} misses the residual at {phi.base.objects[a]}",
                        )
                    vals.append(v)
                fam.append(tuple(vals))
            k = res.position(i).get(tuple(fam))
            if k is None:
                return (None, False, f"canonical image of {D.mor_names[sigma]} is not a natural family")
            row.append(k)
        comps.append(tuple(row))
    theta = PshDerivation("costr", lhs, res, None, tuple(comps))
    return (theta, is_vertical_iso(theta.components, lhs, res), None)


def _genday_residual_clause(mrs, label, side, P, R) -> CheckReport:
    """Clause (b) of `genday_check` for the pair (P, R); clause (c) is this
    one for `mrs.reversed()`, whose left residuals are the right ones."""
    sys = mrs.sys
    nm = sys.D.objects
    rep = CheckReport(label, "residual clause")
    resdata = _strict_left_residual(mrs, P, R)
    if resdata is None:
        rep.record_skip(f"{label} no strict {side} residual for ({nm[P]}, {nm[R]})")
        return rep
    XD, plugD, XT, plugT = resdata
    lhs = pos_rep(sys, XD)
    Fm, _ = m_functor(mrs, sys.shape(P), XT)
    plugged = compose_functors(Fm, slice_action(sys, plugT))
    theta, iso, why = _pulled_residual(mrs, P, R, lhs, lambda s: s, plugged, plugD)
    if theta is None:
        rep.record_fail(f"{label} {why}")
        return rep
    rep.check(
        iso,
        f"{label} rep({nm[XD]}) is not the pulled residual of rep({nm[P]}), rep({nm[R]})",
    )
    vrep = validate_psh_derivation(theta)
    rep.check(vrep.ok, f"{label} comparison derivation invalid:\n{vrep}")
    return rep


# ---------------------------------------------------------------------------
# Fiberwise tensor and residuals over a monoid object


def day_functor(mrs: MonoidalRefinementSystem, mo: MonoidObject) -> FunctorData:
    """m[W,W] followed by the slice action of the multiplication, along
    which the Day tensor pushes; built once per (monoidal system, monoid)."""
    Fm, _ = m_functor(mrs, mo.W, mo.W)
    return mrs.sys.memo(("day", mrs, mo), lambda: compose_functors(Fm, slice_action(mrs.sys, mo.p)))


def fiber_tensor(mrs: MonoidalRefinementSystem, mo: MonoidObject, P: int, Q: int):
    """P (x)_W Q as the certified pushforward of the refinement tensor
    along the multiplication, or None when it does not exist."""
    return find_pushforward(mrs.sys, mo.p, mrs.mon_ref.tobj(P, Q))


def _multiplication_curry(mrs: MonoidalRefinementSystem, mo: MonoidObject):
    """The currying of the multiplication through the base left residual:
    (X, plug, curry) with curry : W -> X, or None.  The right currying is
    this one for `mrs.reversed()`."""
    mon = mrs.mon_base
    found = find_left_residual(mon, mo.W, mo.W)
    if found is None:
        return None
    X, plug = found
    return (X, plug, left_curry(mon, mo.p, mo.W, mo.W, X, plug))


def fiber_residual_left(mrs: MonoidalRefinementSystem, mo: MonoidObject, P: int, R: int):
    """The fiber residual P -o_W R: the pullback along the left currying of
    the multiplication of the strict refinement residual, or None when any
    hypothesis is unmet."""
    data = _multiplication_curry(mrs, mo)
    strict = _strict_left_residual(mrs, P, R)
    if data is None or strict is None:
        return None
    _X, _plug, lam = data
    return find_pullback(mrs.sys, lam, strict[0])


def monoid_lax_check(mrs: MonoidalRefinementSystem, mo: MonoidObject) -> CheckReport:
    """The slice representation restricted to the fiber of a monoid.

    For every pair of refinements of W: the coercion from the Day tensor
    of representations into the representation of the fiber tensor exists
    (its invertibility is recorded, not asserted).  For every pair with
    the residual hypotheses met: the representation of the fiber residual
    is isomorphic to the fiber residual of representations.  The monoid
    laws are not checked again: the only builder of monoids,
    `lattice.build_lattice`, raises on a monoid that fails them."""
    sys = mrs.sys
    D, T = sys.D, sys.T
    nm = D.objects
    rep = CheckReport(
        f"monoid-lax[{T.objects[mo.W]}]",
        "representation of a monoid fiber is lax monoidal and preserves residuals",
    )
    fib = sys.fiber(mo.W)
    Fday = day_functor(mrs, mo)

    iso_count = 0
    coercion_total = 0
    for P in fib:
        for Q in fib:
            tc = fiber_tensor(mrs, mo, P, Q)
            if tc is None:
                rep.record_skip(f"no fiber tensor for ({nm[P]}, {nm[Q]})")
                continue
            md = m_derivation(mrs, P, Q)
            after = pos_rep_derivation(sys, tc.structural)
            at = _index(md.target)
            comps = tuple(
                tuple(after.components[at[md.functor.obj(x)]][v] for v in comp)
                for x, comp in zip(md.source.support(), md.components)
            )
            target = pos_rep(sys, tc.result)
            pr = push_psh_full(Fday, md.source)
            try:
                kappa = push_transpose(pr, Fday, target, comps)
            except StructuralError as exc:
                rep.record_fail(f"coercion at ({nm[P]}, {nm[Q]}): {exc}")
                continue
            rep.record_pass()
            coercion_total += 1
            if is_vertical_iso(kappa.components, pr.presheaf, target):
                iso_count += 1
    if coercion_total:
        rep.note(f"coercion invertible in {iso_count}/{coercion_total} instances")

    # The right residuals are the left ones of the reversed tensors.
    for side, m in (("left", mrs), ("right", mrs.reversed())):
        Fday = day_functor(m, mo)
        for P in fib:
            for R in fib:
                cert = fiber_residual_left(m, mo, P, R)
                if cert is None:
                    rep.record_skip(
                        f"{side} residual hypotheses unmet for ({nm[P]}, {nm[R]})"
                    )
                    continue
                plugD = _strict_left_residual(m, P, R)[1]
                lhs = pos_rep(sys, cert.result)
                ell = cert.structural
                theta, iso, why = _pulled_residual(
                    m, P, R, lhs, lambda s, _e=ell: D.compose(s, _e), Fday, plugD
                )
                if theta is None:
                    rep.record_fail(f"{side} residual at ({nm[P]}, {nm[R]}): {why}")
                    continue
                rep.check(
                    iso,
                    f"rep of {side} fiber residual at ({nm[P]}, {nm[R]}) is not the presheaf fiber residual",
                )
    return rep


def notnottensor_check(
    mrs: MonoidalRefinementSystem, mo: MonoidObject, P: int, Q: int
) -> CheckReport:
    """The fiber tensor over a monoid is recovered from its Day tensor of
    representations up to double dualization, even where the Day tensor
    itself is only laxly comparable."""
    sys = mrs.sys
    D, T = sys.D, sys.T
    rep = CheckReport(
        f"notnot-tensor[{T.objects[mo.W]}:{D.objects[P]},{D.objects[Q]}]",
        "fiber tensor representation is the double dual of the Day tensor",
    )
    cert = fiber_tensor(mrs, mo, P, Q)
    if cert is None:
        rep.record_skip(f"no fiber tensor for ({D.objects[P]}, {D.objects[Q]})")
        return rep
    Fday = day_functor(mrs, mo)
    day = push_psh(Fday, tensor_psh(pos_rep(sys, P), pos_rep(sys, Q), Fday.source))
    target = (pos_rep(sys, cert.result), *rep_point(sys, cert.result))
    rep.check(
        generated_iso(*target, dual_right(sys, mo.W, dual_left(sys, mo.W, day))),
        f"double dual of the Day tensor is not rep({D.objects[cert.result]})",
    )
    rep.note(
        "Day tensor isomorphic to the fiber tensor representation: "
        + ("yes" if generated_iso(*target, day) else "no")
    )
    return rep
