"""Shared fixtures.  Everything expensive is session scoped."""

import pytest
from hypothesis import settings

from refcat.fincat import (
    FinCategory,
    FunctorData,
    StructuralError,
    ValidationReport,
    compose_functors,
    validate_category,
    validate_functor,
)
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
from refcat.monoidal import MonoidalRefinementSystem, MonoidalStructure, MonoidObject
from refcat.refsys import RefinementSystem, _differences, _names
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


def on_support(table, support):
    """An object-indexed table as the library indexes families,
    derivation components and push bookkeeping: its entries at the points
    of `support`, in order.  Every entry off the support must be empty."""
    on = set(support)
    assert not any(entry for a, entry in enumerate(table) if a not in on)
    return tuple(table[a] for a in support)


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


# ---------------------------------------------------------------------------
# The monoidal law reference.  `monoidal` takes a tensor, a monoidal
# system and a monoid as given, since their one builder (`lattice`: the
# meet) makes them lawful; these sweeps decide their laws here, on the
# lattice fixtures and on hand-made structures that break them.


def monoidal_laws(mon: MonoidalStructure) -> ValidationReport:
    """The functor laws of the tensor (endpoints, identities and
    interchange), then its unit and associativity laws.  The category is
    validated first (no work when its laws are known): when it is lawful,
    so is cat x cat, and `validate_functor` decides interchange on the
    generators of the product.  Morphism associativity is swept over all
    triples, so that every failing triple is listed."""
    report = ValidationReport(subject=f"monoidal structure on {mon.cat.name}")
    cat = mon.cat
    validate_category(cat)
    report.violations.extend(validate_functor(mon.tensor).violations)
    n = cat.n_objects
    for a in range(n):
        if mon.tobj(mon.unit, a) != a or mon.tobj(a, mon.unit) != a:
            report.add("tensor unit", f"unit law fails at object {cat.object_name(a)}")
        for b in range(n):
            for c in range(n):
                if mon.tobj(mon.tobj(a, b), c) != mon.tobj(a, mon.tobj(b, c)):
                    report.add(
                        "tensor associativity",
                        f"object associativity fails at "
                        f"({cat.object_name(a)}, {cat.object_name(b)}, {cat.object_name(c)})",
                    )
    m = cat.n_morphisms
    for f in range(m):
        for g in range(m):
            fg = mon.tmor(f, g)
            for h in range(m):
                if mon.tmor(fg, h) != mon.tmor(f, mon.tmor(g, h)):
                    report.add(
                        "tensor associativity",
                        f"morphism associativity fails at "
                        f"({cat.morphism_name(f)}, {cat.morphism_name(g)}, {cat.morphism_name(h)})",
                    )
    for f in range(m):
        if mon.tmor(f, cat.identity[mon.unit]) != f or mon.tmor(cat.identity[mon.unit], f) != f:
            report.add("tensor unit", f"unit law fails at morphism {cat.morphism_name(f)}")
    return report


def monoidal_system_laws(mrs: MonoidalRefinementSystem) -> ValidationReport:
    """The system's laws, both tensors' laws, and the projection as a
    strict monoidal functor: t((x) of a pair) = (x) of t of the pair, and
    t(unit) = unit."""
    report = mrs.sys.validate()
    report.violations.extend(monoidal_laws(mrs.mon_ref).violations)
    report.violations.extend(monoidal_laws(mrs.mon_base).violations)
    t, D = mrs.sys.t, mrs.sys.D
    pair, base_pair = mrs.mon_ref.tensor.source, mrs.mon_base.tensor.source
    objs, mors = range(D.n_objects), range(D.n_morphisms)
    t_squared = FunctorData(
        f"{t.name}x{t.name}",
        pair,
        base_pair,
        tuple(base_pair.pair_obj(t.obj(P), t.obj(Q)) for P in objs for Q in objs),
        tuple(base_pair.pair_mor(t.mor(f), t.mor(g)) for f in mors for g in mors),
    )
    for kind, x, _, _ in _differences(
        compose_functors(mrs.mon_ref.tensor, t), compose_functors(t_squared, mrs.mon_base.tensor)
    ):
        x1, x2 = pair.split_obj(x) if kind == "object" else pair.split_mor(x)
        names = _names(D, kind)
        report.add("monoidal projection", f"projection not monoidal at {kind}s ({names[x1]}, {names[x2]})")
    if t.obj(mrs.mon_ref.unit) != mrs.mon_base.unit:
        report.add("monoidal projection", "projection does not preserve the monoidal unit")
    return report


def monoid_laws(mo: MonoidObject) -> ValidationReport:
    """The endpoints and associativity of the multiplication p, and, with
    a unit morphism u, its endpoints, strictness of the tensor unit at W
    and both unit laws."""
    T, mon = mo.mrs.sys.T, mo.mrs.mon_base
    report = ValidationReport(f"monoid {T.objects[mo.W]}")
    if T.dom(mo.p) != mon.tobj(mo.W, mo.W) or T.cod(mo.p) != mo.W:
        report.add("endpoints", "multiplication has wrong endpoints")
        return report
    idw = T.identity[mo.W]
    if T.compose(mon.tmor(mo.p, idw), mo.p) != T.compose(mon.tmor(idw, mo.p), mo.p):
        report.add("associativity", "p is not associative")
    u = mo.unit_mor
    if u is not None:
        if T.dom(u) != mon.unit or T.cod(u) != mo.W:
            report.add("unit endpoints", "unit morphism has wrong endpoints")
            return report
        if mon.tobj(mon.unit, mo.W) != mo.W or mon.tobj(mo.W, mon.unit) != mo.W:
            report.add("strict unit", "tensor unit is not strict at W")
            return report
        if T.compose(mon.tmor(u, idw), mo.p) != idw:
            report.add("left unit", "unit law (u (x) id) ; p = id fails")
        if T.compose(mon.tmor(idw, u), mo.p) != idw:
            report.add("right unit", "unit law (id (x) u) ; p = id fails")
    return report
