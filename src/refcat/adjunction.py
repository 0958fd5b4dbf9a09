"""Natural transformations, adjunctions of refinement systems (an
adjunction living over an adjunction), their structural check, and the
left-adjoint mirror of `refsys.rapp_check`.  Only the galois fixture
builds one."""

from __future__ import annotations

from .fincat import FunctorData, ValidationReport
from .refsys import _opposite_functor, rapp_check
from .reports import CheckReport


class NatTransData:
    """A natural transformation as a component table indexed by source objects."""

    __slots__ = ("name", "source_functor", "target_functor", "components")

    def __init__(
        self,
        name: str,
        source_functor: FunctorData,
        target_functor: FunctorData,
        components: tuple[int, ...],
    ):
        self.name = name
        self.source_functor = source_functor
        self.target_functor = target_functor
        self.components = components


def validate_nat_trans(theta: NatTransData) -> ValidationReport:
    report = ValidationReport(f"nat-trans {theta.name}")
    F, G = theta.source_functor, theta.target_functor
    A, C = F.source, F.target
    if len(theta.components) != A.n_objects:
        report.add("arity", "component table has wrong length")
        return report
    for a in range(A.n_objects):
        comp = theta.components[a]
        if C.dom(comp) != F.obj(a) or C.cod(comp) != G.obj(a):
            report.add("endpoints", f"component at {A.objects[a]} has wrong endpoints")
            return report
    for f in range(A.n_morphisms):
        a, b = A.dom(f), A.cod(f)
        lhs = C.compose(F.mor(f), theta.components[b])
        rhs = C.compose(theta.components[a], G.mor(f))
        if lhs != rhs:
            report.add("naturality", f"square at {A.mor_names[f]} does not commute")
    return report


class RefSysAdjunction:
    """An adjunction living over an adjunction.

    left : s -> e and right : e -> s are refinement-system morphisms;
    unit_ref / counit_ref are the unit and counit of the D-level adjunction,
    unit_base / counit_base of the T-level one, and the projections send
    the former onto the latter componentwise.
    """

    __slots__ = (
        "name", "left", "right", "unit_ref", "counit_ref", "unit_base", "counit_base"
    )

    def __init__(
        self,
        name: str,
        left: RefSysMorphism,
        right: RefSysMorphism,
        unit_ref: NatTransData,
        counit_ref: NatTransData,
        unit_base: NatTransData,
        counit_base: NatTransData,
    ):
        self.name = name
        self.left = left
        self.right = right
        self.unit_ref = unit_ref
        self.counit_ref = counit_ref
        self.unit_base = unit_base
        self.counit_base = counit_base

    @property
    def s(self) -> RefinementSystem:
        return self.left.source

    @property
    def e(self) -> RefinementSystem:
        return self.left.target

    def op(self) -> "RefSysAdjunction":
        """The opposite adjunction: right^op becomes the left adjoint, the
        counits become the units and the units the counits.  Each component
        table is read backwards, theta : F => G as theta : G^op => F^op,
        and keeps its indices and its name."""
        sop, eop = self.s.op(), self.e.op()

        def flip(nt: NatTransData, cat: FinCategory) -> NatTransData:
            return NatTransData(
                nt.name,
                _opposite_functor(nt.target_functor, cat, cat),
                _opposite_functor(nt.source_functor, cat, cat),
                nt.components,
            )

        return RefSysAdjunction(
            f"{self.name}^op",
            self.right.op(),
            self.left.op(),
            flip(self.counit_ref, eop.D),
            flip(self.unit_ref, sop.D),
            flip(self.counit_base, eop.T),
            flip(self.unit_base, sop.T),
        )


def adjunction_check(adj: RefSysAdjunction) -> CheckReport:
    """Structural validity of an adjunction of refinement systems: both
    morphisms commute with the projections, units and counits are natural,
    the triangle identities hold at both levels, and the projections send
    the refined unit and counit onto the base ones.

    Only the lines about F and the unit are written here (`_left_half`);
    the lines about G and the counit are the same lines on `adj.op()`,
    whose left adjoint is G^op and whose unit is the counit read
    backwards.  The two halves are recorded group by group, left before
    right."""
    report = CheckReport(
        name=f"adjunction:{adj.name}",
        statement="adjunction data is natural, satisfies the triangle laws, "
        "and projects onto the base adjunction",
    )
    halves = zip(_left_half(adj, "left", "unit"), _left_half(adj.op(), "right", "counit"))
    for left, right in halves:
        for ok, why in left + right:
            report.check(ok, why)
    return report


def _left_half(adj: RefSysAdjunction, side: str, unit: str):
    """The checks of `adjunction_check` about the left adjoint F and the
    unit eta, as groups of (ok, failure text): F is a valid morphism, eta
    is natural at the refined and at the base level, the triangle
    F[eta] ; eps F = id holds at both levels, and t(eta_P) = eta_{t P}.
    `side` and `unit` name the triangle and the unit in the texts.  A
    triangle whose two legs do not compose (a bad component) fails."""
    s, e = adj.s, adj.e
    sub = adj.left.validate()
    yield [(sub.ok, "\n".join(str(v) for v in sub.violations) or "morphism invalid")]
    for nt in (adj.unit_ref, adj.unit_base):
        sub = validate_nat_trans(nt)
        yield [(sub.ok, f"{nt.name}: " + ("\n".join(str(v) for v in sub.violations) or "invalid"))]
    for level, X, Y, F, eta, eps in (
        ("refined", s.D, e.D, adj.left.on_ref, adj.unit_ref, adj.counit_ref),
        ("base", s.T, e.T, adj.left.on_base, adj.unit_base, adj.counit_base),
    ):
        yield [
            (
                _composes_to(
                    Y, F.mor(eta.components[P]), eps.components[F.obj(P)], Y.identity[F.obj(P)]
                ),
                f"triangle ({side}, {level}) fails at {X.object_name(P)}",
            )
            for P in range(X.n_objects)
        ]
    yield [
        (
            s.t.mor(adj.unit_ref.components[P]) == adj.unit_base.components[s.shape(P)],
            f"{unit} of {s.D.object_name(P)} does not project onto the base {unit}",
        )
        for P in range(s.D.n_objects)
    ]


def _composes_to(C: FinCategory, f: int, g: int, h: int) -> bool:
    """Do f and g compose in C, to h?"""
    return C.cod(f) == C.dom(g) and C.compose(f, g) == h


def lapp_check(adj: RefSysAdjunction) -> CheckReport:
    """Left adjoints preserve pushforwards: `rapp_check` on the opposite
    adjunction, where pushforwards become pullbacks and the left adjoint
    becomes the right one."""
    report = rapp_check(adj.op())
    report.name = f"lapp:{adj.name}"
    report.statement = "the left adjoint maps certified pushforwards to certified pushforwards"
    return report
