"""The slice x coslice pairing as two-argument tables on slice and
coslice indices (`Pairing`), read straight from the derivation index,
and the two checks that read it: `dual_cross_check` runs the dualizers'
residual on the pairing's own rows at every point, so it checks the cut
reading, the live-point pruning and the mirror in `sys.op()`; the
pairing clause of `dual_adjunction_check` puts it on a product category.
"""

from __future__ import annotations

from .duality import dual_left, dual_right
from .fincat import SizeGuardExceeded, StructuralError, Table, product
from .psh import Presheaf, curried_residual, natural_families, tensor_psh
from .refsys import RefinementSystem
from .reports import CheckReport
from .represent import SliceCategory, coslice_of, neg_rep, pos_rep, slice_of


# ---------------------------------------------------------------------------
# The slice x coslice pairing


# The pairing clause of `dual_adjunction_check` puts the pairing on the
# product of the slice and the coslice; past this many product morphisms
# it records a skip instead.
PAIRING_GUARD = 200000


class Pairing:
    """The pairing of the slice and the coslice of B through derivations,
    ((P,c),(d,R)) |-> the derivations of (P, c;d, R), read as two-argument
    tables on slice and coslice indices.  A pair of a slice morphism alpha
    and a coslice morphism gamma sends a derivation sigma of the target
    pair to alpha;sigma;gamma.  Derivation sets are read from
    `sys.derivations_unchecked`; the position maps the rows need are kept
    on first use."""

    __slots__ = ("sys", "slice", "coslice", "_pos")

    def __init__(self, sys: RefinementSystem, slice: SliceCategory, coslice: SliceCategory):
        self.sys = sys
        self.slice = slice
        self.coslice = coslice
        self._pos: dict[tuple[int, int], dict[int, int]] = {}

    def ders(self, i: int, j: int) -> tuple[int, ...]:
        """The derivations of (P, c;d, R) for slice point i = (P,c) and
        coslice point j = (d,R)."""
        (P, c), (R, d) = self.slice.obj_tags[i], self.coslice.obj_tags[j]
        return self.sys.derivations_unchecked(P, self.sys.T.compose(c, d), R)

    def size(self, i: int, j: int) -> int:
        return len(self.ders(i, j))

    def row(self, f: int, g: int) -> tuple[int, ...]:
        """sigma |-> alpha;sigma;gamma for slice morphism f = alpha and
        coslice morphism g = gamma, located among the derivations at the
        pair of their sources."""
        D = self.sys.D
        alpha, s1, t1 = self.slice.mor_tags[f]
        gamma, s2, t2 = self.coslice.mor_tags[g]
        pos = self._pos.get((s1, s2))
        if pos is None:
            pos = self._pos[(s1, s2)] = {x: k for k, x in enumerate(self.ders(s1, s2))}
        return tuple(pos[D.compose(alpha, D.compose(sigma, gamma))] for sigma in self.ders(t1, t2))


def pairing(sys: RefinementSystem, B: int) -> Pairing:
    """The pairing over the base object B, kept in the system's memo."""
    return sys.memo(("pairing", B), lambda: Pairing(sys, slice_of(sys, B), coslice_of(sys, B)))


def dual_cross_check(sys: RefinementSystem, B: int, inp: Presheaf, out: Presheaf, side: str) -> None:
    """Recompute the dual `out` of `inp` ("left" or "right") as the
    residual of inp and the pairing of `sys` over B, curried on the side
    of the dual's base, and compare: the families at every point, then the
    action row of every morphism into a nonempty point.  Raises
    StructuralError at the first difference.  The dualizers run the same
    residual on the cuts; here it is fed by `Pairing`'s rows, searched at
    every point, and the right side stays on `sys`.  So this checks what
    the dualizers add to the end formula: the reading of the pairing from
    the cuts, the pruning to live points, and the mirror in `sys.op()`."""
    pair = pairing(sys, B)
    if side == "left":
        crossed = curried_residual(inp, pair.coslice.cat, pair.size, pair.row)
    else:
        crossed = curried_residual(
            inp, pair.slice.cat, lambda j, i: pair.size(i, j), lambda g, f: pair.row(f, g)
        )
    base = out.base
    for j in range(base.n_objects):
        if crossed.payloads[j] != out.payloads[j]:
            raise StructuralError(
                f"dual ({side}): the dualizer disagrees with the residual of the "
                f"pairing's rows at {base.objects[j]}"
            )
    for f in range(base.n_morphisms):
        if out.payloads[base.cod(f)] and crossed.action[f] != out.action[f]:
            raise StructuralError(
                f"dual ({side}): the dualizer disagrees with the residual of the "
                f"pairing's rows along {base.mor_names[f]}"
            )


# ---------------------------------------------------------------------------
# The dual adjunction


def _unit_components(phi: Presheaf, dl: Presheaf, drdl: Presheaf):
    """Components of phi => dual_right(dual_left(phi)): an element u maps
    to the family evaluating every left-dual family at u.  Mirrored, the
    same shape computes psi => dual_left(dual_right(psi)).  Returns
    (table, None) or (None, failure)."""
    comps = []
    for i in range(phi.base.n_objects):
        fam_pos = drdl.position(i)
        row = []
        for upos in range(phi.size(i)):
            table = tuple(
                tuple(fam[i][upos] for fam in dl.payloads[j])
                for j in range(dl.base.n_objects)
            )
            k = fam_pos.get(table)
            if k is None:
                return None, f"unit misses a family at {phi.base.objects[i]}"
            row.append(k)
        comps.append(tuple(row))
    return tuple(comps), None


def _restrict_dual(v_comps, dl_target: Presheaf, dl_source: Presheaf):
    """Dualization is contravariant on vertical maps: a vertical
    v : phi => phi' restricts families of phi' to families of phi.
    Returns the component table dl(phi') => dl(phi), or None."""
    comps = []
    for j in range(dl_source.base.n_objects):
        fam_pos = dl_target.position(j)
        row = []
        for fam in dl_source.payloads[j]:
            moved = tuple(
                tuple(fam[i][v_comps[i][u]] for u in range(len(v_comps[i])))
                for i in range(len(v_comps))
            )
            k = fam_pos.get(moved)
            if k is None:
                return None
            row.append(k)
        comps.append(tuple(row))
    return tuple(comps)


def dual_adjunction_check(sys: RefinementSystem, B: int) -> CheckReport:
    """The two dualizers are adjoint on the right: a subtyping into a
    right dual, a subtyping into a left dual, and a bracket-compatible
    pairing are equivalent data.  Checked on the representables over B;
    additionally the unit into the double dual exists for every input and
    the triangle composite on the left dual is the identity.  The pairing
    clause puts the pairing on slice x coslice and is skipped past
    PAIRING_GUARD product morphisms."""
    rep = CheckReport(
        f"dual-adjunction[{sys.name}@{sys.T.objects[B]}]",
        "dualization is a contravariant adjunction between slice and coslice presheaves",
    )
    pool_pos = [pos_rep(sys, Q) for Q in sys.fiber(B)]
    pool_neg = [neg_rep(sys, P) for P in sys.fiber(B)]

    pair = pairing(sys, B)
    n_mor = pair.slice.cat.n_morphisms * pair.coslice.cat.n_morphisms
    bracket = None
    if n_mor > PAIRING_GUARD:
        guard = SizeGuardExceeded("slice x coslice morphisms", n_mor, PAIRING_GUARD)
        rep.record_skip(f"pairing clause skipped: {guard}")
    else:
        prod = product(pair.slice.cat, pair.coslice.cat)
        names = sys.D.mor_names
        bracket = Presheaf(
            f"bracket[{sys.T.objects[B]}]",
            prod,
            Table(prod.n_objects, lambda x: tuple(names[d] for d in pair.ders(*prod.split_obj(x)))),
            lambda m: pair.row(*prod.split_mor(m)),
        )

    duals_l = [dual_left(sys, B, phi) for phi in pool_pos]
    duals_r = [dual_right(sys, B, psi) for psi in pool_neg]

    for pi, phi in enumerate(pool_pos):
        for qi, psi in enumerate(pool_neg):
            e1 = bool(natural_families(phi, duals_r[qi]))
            e2 = bool(natural_families(psi, duals_l[pi]))
            agree = e1 == e2
            detail = (
                f"phi={phi.name} psi={psi.name}: into-right-dual {e1}, into-left-dual {e2}"
            )
            if bracket is not None:
                e3 = bool(natural_families(tensor_psh(phi, psi, prod), bracket))
                agree = agree and e2 == e3
                detail += f", pairing {e3}"
            rep.check(agree, detail)

    for pi, phi in enumerate(pool_pos):
        dl = duals_l[pi]
        drdl = dual_right(sys, B, dl)
        eta, why = _unit_components(phi, dl, drdl)
        rep.check(eta is not None, f"unit at {phi.name}: {why}")
        if eta is None:
            continue
        # Triangle: dl(phi) => dl(dr(dl(phi))) => dl(phi) is the identity,
        # where the first leg is the unit of the mirrored adjunction and
        # the second is dualization applied to the unit at phi.
        dldrdl = dual_left(sys, B, drdl)
        eps, why = _unit_components(dl, drdl, dldrdl)
        rep.check(eps is not None, f"mirrored unit at {dl.name}: {why}")
        if eps is None:
            continue
        back = _restrict_dual(eta, dl, dldrdl)
        if back is None:
            rep.record_fail(f"restriction along the unit of {phi.name} is not natural")
            continue
        bad = None
        for j in range(dl.base.n_objects):
            for v in range(dl.size(j)):
                if back[j][eps[j][v]] != v:
                    bad = f"triangle composite moves an element at {dl.base.objects[j]}"
                    break
            if bad:
                break
        rep.check(bad is None, f"{phi.name}: {bad}")
    return rep
