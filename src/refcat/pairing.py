"""The slice x coslice pairing as two-argument tables on slice and
coslice indices (`Pairing`), read straight from the derivation index,
and `dual_cross_check`, which runs the dualizers' residual on the
pairing's own rows at every point, so it checks the cut reading, the
live-point pruning and the mirror in `sys.op()`.  Both dualizers are
residuals of this one pairing, curried on either side, so they are
adjoint (Isbell conjugation) once this check holds.
"""

from __future__ import annotations

from .fincat import StructuralError
from .psh import Presheaf, curried_residual
from .refsys import RefinementSystem
from .represent import SliceCategory, coslice_of, slice_of


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
