"""Shared fixtures.  Everything expensive is session scoped."""

import pytest
from hypothesis import settings

from refcat.fincat import FinCategory, FunctorData, StructuralError
from refcat.fixtures import (
    build_hoare,
    build_linctx,
    collapse_lattice_fixture,
    default_hoare_spec,
    default_linear_spec,
    galois_fixture,
    identity_lattice_fixture,
)
from refcat.psh import Presheaf, curried_residual
from refcat.refsys import RefinementSystem
from refcat.represent import SliceCategory, coslice_of, slice_of

# Deterministic example selection so test output is reproducible run to run.
settings.register_profile("repro", derandomize=True, max_examples=40)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def hoare():
    return build_hoare(default_hoare_spec())


@pytest.fixture(scope="session")
def linctx():
    return build_linctx(default_linear_spec(), 3)


@pytest.fixture(scope="session")
def collapse():
    return collapse_lattice_fixture()


@pytest.fixture(scope="session")
def ident():
    return identity_lattice_fixture()


@pytest.fixture(scope="session")
def galois():
    return galois_fixture()


# Hand-derived transition table for the default two-state machine: `swap`
# exchanges the states, `set0` forces s0, and their only composite up to
# equality forces s1.  Everything downstream (images, preimages, slice sizes)
# is recomputed from this table, never from the library.
HOARE_FN = {
    "id": {"s0": "s0", "s1": "s1"},
    "set0": {"s0": "s0", "s1": "s0"},
    "swap": {"s0": "s1", "s1": "s0"},
    "set0;swap": {"s0": "s1", "s1": "s1"},
}


def pred_set(name):
    """Parse a predicate name like '{s0,s1}' into a frozenset of states."""
    inner = name.strip("{}")
    return frozenset(s for s in inner.split(",") if s)


def pred_name(states):
    return "{" + ",".join(sorted(states)) + "}"


def image_oracle(c, P):
    return frozenset(HOARE_FN[c][s] for s in P)


def preimage_oracle(c, Q):
    return frozenset(s for s in ("s0", "s1") if HOARE_FN[c][s] in Q)


def dmor(sys, name):
    """Index of a refinement-side morphism by printed name."""
    return sys.D.mor_names.index(name)


def dobj(sys, name):
    return sys.D.objects.index(name)


def tmor(sys, name):
    return sys.T.mor_names.index(name)


def judgments(sys):
    """All valid judgments (P, c, Q) of sys, derivable or not, in
    (P, Q, c) index order."""
    for P in range(sys.D.n_objects):
        for Q in range(sys.D.n_objects):
            for c in sys.T.hom(sys.shape(P), sys.shape(Q)):
                yield (P, c, Q)


def bang_system(cat):
    """A category over the point: refinements of a single shape.

    Slices of the result are the category again and judgments are plain
    hom-sets, so presheaf-level facts can be compared against their
    unrefined counterparts."""
    pt = FinCategory("pt", ("*",), (("id*", 0, 0),), (0,), {(0, 0): 0})
    t = FunctorData(f"!{cat.name}", cat, pt, (0,) * cat.n_objects, (0,) * cat.n_morphisms)
    return RefinementSystem(f"bang({cat.name})", t)


# The slice x coslice pairing read straight from the derivation index: the
# reference the dualizers, which read it from the two representations,
# are checked against.  Both dualizers are residuals of this one pairing,
# curried on either side, so they are adjoint (Isbell conjugation) once
# `dual_cross_check` holds.


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
    residual on the pairing read from the two representations; here it is
    fed by `Pairing`'s rows, searched at every point, and the right side
    stays on `sys`.  So this checks what the dualizers add to the end
    formula: the reading of the pairing through slice and coslice
    actions, the pruning to live points, and the mirror in `sys.op()`."""
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
