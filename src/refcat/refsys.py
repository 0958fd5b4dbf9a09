"""Refinement systems: functors t : D -> T read as type systems.

An object P of D with t(P) = A is a refinement of A, written P |- A.
A judgment (P, c, Q) asks whether the T-morphism c : t(P) -> t(Q) carries
P into Q; a derivation of it is a D-morphism alpha : P -> Q with
t(alpha) = c.  Everything downstream (representations, duality) is
computed from the derivation index built here.

The opposite of a system and of a system morphism reads the same index
tables with every arrow reversed, so each mirror image is written once:
pushforwards are pullbacks in `sys.op()`.  `rapp_check` decides that
right adjoints preserve pullbacks; the adjunctions it reads, and its
mirror `lapp_check`, are in `adjunction`, and monoidal structure is in
`monoidal`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .fincat import (
    FinCategory,
    FunctorData,
    StructuralError,
    ValidationReport,
    compose_functors,
    opposite,
    validate_functor,
)
from .reports import CheckReport


class RefinementSystem:
    """A functor t : D -> T with an eager index of derivations by target."""

    def __init__(self, name: str, t: FunctorData):
        self.name = name
        self.t = t
        self.D = t.source
        self.T = t.target
        # derivation_index[Q][(P, c)] = the D-morphisms alpha : P -> Q with
        # t(alpha) = c, in index order.
        index: dict[int, dict[tuple[int, int], list[int]]] = {Q: {} for Q in range(self.D.n_objects)}
        dom, cod, image = self.D.mor_dom, self.D.mor_cod, t.morphism_map
        for a in range(self.D.n_morphisms):
            index[cod[a]].setdefault((dom[a], image[a]), []).append(a)
        self.derivation_index = {Q: {k: tuple(v) for k, v in g.items()} for Q, g in index.items()}
        fibers: dict[int, list[int]] = {A: [] for A in range(self.T.n_objects)}
        for P in range(self.D.n_objects):
            fibers[t.obj(P)].append(P)
        self._fibers = {A: tuple(v) for A, v in fibers.items()}
        self._op: RefinementSystem | None = None
        self._memo: dict[tuple, object] = {}

    def __repr__(self) -> str:
        return f"RefinementSystem({self.name}: {self.D.name} -> {self.T.name})"

    def memo(self, key: tuple, build: Callable):
        """The construction under `key`: build() on first use, then kept.
        Slices, slice actions, representations, lift searches, strict
        residuals, genday clause outcomes and the indexes the sweeps read
        are built once per system through here; presheaf pullback needs
        identical base categories.
        A build that raises stores nothing, so the next request builds
        again."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def shape(self, P: int) -> int:
        """The T-object refined by P."""
        return self.t.obj(P)

    def fiber(self, A: int) -> tuple[int, ...]:
        """All refinements of the T-object A, in object index order."""
        return self._fibers[A]

    def valid_judgment(self, P: int, c: int, Q: int) -> bool:
        return self.T.dom(c) == self.shape(P) and self.T.cod(c) == self.shape(Q)

    def derivations(self, P: int, c: int, Q: int) -> tuple[int, ...]:
        """All derivations of the judgment (P, c, Q), in morphism index order."""
        if not self.valid_judgment(P, c, Q):
            raise self._not_a_judgment(P, c, Q)
        return self.derivation_index[Q].get((P, c), ())

    def derivations_unchecked(self, P: int, c: int, Q: int) -> tuple[int, ...]:
        """`derivations` for a caller whose (P, c, Q) is a judgment by
        construction (its legs come from base hom-sets and slice tags):
        the index is read with no check."""
        return self.derivation_index[Q].get((P, c), ())

    def derivations_into(self, c: int, Q: int) -> tuple[tuple[int, int], ...]:
        """The pairs (P, alpha) with alpha a derivation of (P, c, Q), in
        (P, alpha) order: the candidates of a pullback of c at Q, and, in
        the opposite system, the derivations out of Q over c.  Read from
        an index of the derivations by (c, Q), built in the memo on first
        use."""
        return self.memo(("derivations into",), self._index_into).get((c, Q), ())

    def _index_into(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        index: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for Q, groups in self.derivation_index.items():
            for (P, c), alphas in sorted(groups.items()):
                index.setdefault((c, Q), []).extend((P, alpha) for alpha in alphas)
        return {key: tuple(found) for key, found in index.items()}

    def _not_a_judgment(self, P: int, c: int, Q: int) -> StructuralError:
        return StructuralError(
            f"{self.name}: ({self.D.object_name(P)}, {self.T.morphism_name(c)}, "
            f"{self.D.object_name(Q)}) is not a judgment"
        )

    def judgment_name(self, P: int, c: int, Q: int) -> str:
        return (
            f"{self.D.object_name(P)} ={self.T.morphism_name(c)}=> "
            f"{self.D.object_name(Q)}"
        )

    def op(self) -> "RefinementSystem":
        """The opposite system t^op : D^op -> T^op.

        Object and morphism indices are shared with self, so certificates
        and counterexamples transport across without renaming.
        """
        if self._op is None:
            top = _opposite_functor(self.t, opposite(self.D), opposite(self.T))
            self._op = RefinementSystem(f"{self.name}^op", top)
            self._op._op = self
        return self._op

    def validate(self) -> ValidationReport:
        report = ValidationReport(subject=f"refinement system {self.name}")
        for sub in (
            self.D.validate(),
            self.T.validate(),
            validate_functor(self.t),
        ):
            report.violations.extend(sub.violations)
        return report


# ---------------------------------------------------------------------------
# cartesian / opcartesian lifts


class LiftCertificate(NamedTuple):
    """Witness that a derivation is a cartesian lift: `structural` is
    ell : result -> Q over c, and every derivation (P, d;c, Q) factors
    uniquely as sigma ; ell with sigma over d.  Found in `sys.op()`, it
    is an opcartesian lift in `sys`, ell : P -> result, factoring on the
    other side.  `tests` counts the factoring problems that were solved
    during certification.
    """

    result: int
    structural: int
    tests: int


def _cartesian_tests(
    sys: RefinementSystem, c: int, Q: int, P0: int, ell: int
) -> int | None:
    """The number of derivations (P, d;c, Q) that factor through ell, if
    every one factors uniquely (ell is cartesian), else None.  That is:
    for every (P, d) with d : t(P) -> dom c, postcomposition with ell is
    a bijection derivations(P, d, P0) -> derivations(P, d;c, Q).  Only
    the (P, d) where one set is nonempty are visited: those under the
    betas of the derivation index into Q, grouped by (P, x), with d;c = x
    read from c's inverted row in the opposite base, and those of the
    sigmas, which must all be met."""
    # With (P0, c, Q) a judgment, so is every (P, d;c, Q) and (P, d, P0)
    # below: d runs over the morphisms into dom c.
    if not sys.valid_judgment(P0, c, Q):
        raise sys._not_a_judgment(P0, c, Q)
    compose = sys.D.compose
    sigmas = sys.derivation_index[P0]
    before = sys.op().T._inverse_row(c)
    tests = reached = 0
    for (P, x), betas in sys.derivation_index[Q].items():
        for d in before.get(x, ()):
            found = sigmas.get((P, d), ())
            hit = {compose(sigma, ell) for sigma in found}
            if len(hit) != len(found) or hit != set(betas):
                return None  # not injective, or not surjective
            reached += len(found)
            tests += len(betas)
    return tests if reached == len(sys.D.mor_in(P0)) else None


def find_pullback(sys: RefinementSystem, c: int, Q: int) -> LiftCertificate | None:
    """Search the fiber over dom c for a cartesian lift of c at Q.

    The candidates, the derivations (P0, c, Q), are read from
    `derivations_into` in (object index, derivation index) order, so the
    certificate returned is deterministic.  The result, None included, is
    kept in the system's memo.
    """
    T = sys.T
    if T.cod(c) != sys.shape(Q):
        raise StructuralError(
            f"{sys.name}: {sys.D.object_name(Q)} does not refine the codomain "
            f"of {T.morphism_name(c)}"
        )
    return sys.memo(("pullback", c, Q), lambda: _search_pullback(sys, c, Q))


def _search_pullback(sys: RefinementSystem, c: int, Q: int) -> LiftCertificate | None:
    for P0, ell in sys.derivations_into(c, Q):
        tests = _cartesian_tests(sys, c, Q, P0, ell)
        if tests is not None:
            return LiftCertificate(P0, ell, tests)
    return None


def find_pushforward(sys: RefinementSystem, c: int, P: int) -> LiftCertificate | None:
    """Opcartesian lift of c at P: the certificate of the cartesian search
    in the opposite system, which shares every index with `sys`."""
    if sys.T.dom(c) != sys.shape(P):
        raise StructuralError(
            f"{sys.name}: {sys.D.object_name(P)} does not refine the domain "
            f"of {sys.T.morphism_name(c)}"
        )
    return find_pullback(sys.op(), c, P)


# ---------------------------------------------------------------------------
# morphisms of refinement systems


class RefSysMorphism:
    """A pair of functors (on_ref : D -> D', on_base : T -> T') commuting
    with the projections: t' . on_ref == on_base . t."""

    __slots__ = ("name", "source", "target", "on_ref", "on_base")

    def __init__(
        self,
        name: str,
        source: RefinementSystem,
        target: RefinementSystem,
        on_ref: FunctorData,
        on_base: FunctorData,
    ):
        self.name = name
        self.source = source
        self.target = target
        self.on_ref = on_ref
        self.on_base = on_base

    def validate(self) -> ValidationReport:
        report = ValidationReport(subject=f"refinement-system morphism {self.name}")
        report.violations.extend(validate_functor(self.on_ref).violations)
        report.violations.extend(validate_functor(self.on_base).violations)
        s, t = self.source, self.target
        for kind, x, lhs, rhs in _differences(
            compose_functors(self.on_ref, t.t), compose_functors(s.t, self.on_base)
        ):
            names = _names(t.T, kind)
            report.add(
                "projection square",
                f"square broken at {kind} {_names(s.D, kind)[x]}: {names[lhs]} != {names[rhs]}",
            )
        return report

    def op(self) -> "RefSysMorphism":
        sop, top = self.source.op(), self.target.op()
        return RefSysMorphism(
            f"{self.name}^op",
            sop,
            top,
            _opposite_functor(self.on_ref, sop.D, top.D),
            _opposite_functor(self.on_base, sop.T, top.T),
        )


def _names(cat: FinCategory, kind: str) -> tuple[str, ...]:
    return cat.objects if kind == "object" else cat.mor_names


def _differences(F: FunctorData, G: FunctorData):
    """Where two functors with one source differ: (kind, x, F x, G x) for
    each object x ("object"), then each morphism x ("morphism")."""
    for kind, fs, gs in (
        ("object", F.object_map, G.object_map),
        ("morphism", F.morphism_map, G.morphism_map),
    ):
        for x, (y, z) in enumerate(zip(fs, gs)):
            if y != z:
                yield kind, x, y, z


def _opposite_functor(F: FunctorData, source: FinCategory, target: FinCategory) -> FunctorData:
    """F between the opposite categories `source` and `target`: the same
    tables, read with every arrow reversed."""
    return FunctorData(f"{F.name}^op", source, target, F.object_map, F.morphism_map)


# ---------------------------------------------------------------------------
# right adjoints preserve pullbacks


def rapp_check(adj: RefSysAdjunction) -> CheckReport:
    """Right adjoints preserve pullbacks: for every base morphism c of e
    and every refinement Q of its codomain with a certified pullback
    ell : c*Q -> Q, G(ell) is a certified pullback of G(Q) along G(c) in s.

    One check per lift.  The paper's proof transposes each factoring
    problem along the adjunction; every step of it is a law that
    `adjunction_check` decides, so only the theorem is checked here.  A
    G(ell) that is not a derivation of (G(c*Q), G(c), G(Q)) fails."""
    report = CheckReport(
        name=f"rapp:{adj.name}",
        statement="the right adjoint maps certified pullbacks to certified pullbacks",
    )
    s, e = adj.s, adj.e
    G_D, G_T = adj.right.on_ref, adj.right.on_base
    for c in range(e.T.n_morphisms):
        for Q in e.fiber(e.T.cod(c)):
            cert = find_pullback(e, c, Q)
            if cert is None:
                report.record_skip("no lift to preserve")
                continue
            GcQ, Gell = G_D.obj(cert.result), G_D.mor(cert.structural)
            Gc, GQ = G_T.mor(c), G_D.obj(Q)
            ok = (
                s.valid_judgment(GcQ, Gc, GQ)
                and Gell in s.derivations(GcQ, Gc, GQ)
                and _cartesian_tests(s, Gc, GQ, GcQ, Gell) is not None
            )
            report.check(
                ok,
                f"{e.D.morphism_name(cert.structural)} does not map to a certified lift "
                f"of the image of {e.D.object_name(Q)} along {s.T.morphism_name(Gc)}",
            )
    return report
