"""Refinement systems: functors t : D -> T read as type systems.

An object P of D with t(P) = A is a refinement of A, written P |- A.
A judgment (P, c, Q) asks whether the T-morphism c : t(P) -> t(Q) carries
P into Q; a derivation of it is a D-morphism alpha : P -> Q with
t(alpha) = c.  Everything downstream (representations, duality) is
computed from the derivation index built here.

The opposite of a system, of a system morphism and of an adjunction
reads the same index tables with every arrow reversed, so each mirror
image is written once: pushforwards are pullbacks in `sys.op()`, and the
counit half of `adjunction_check` and all of `lapp_check` run on
`adj.op()`.  `rapp_check` and `lapp_check` decide the preservation
theorems themselves; the transposition steps of their proof are laws
that `adjunction_check` decides.
"""

from __future__ import annotations

from typing import Callable

from .fincat import (
    FinCategory,
    FunctorData,
    NatTransData,
    ProductCategory,
    StructuralError,
    ValidationReport,
    compose_functors,
    opposite,
    validate_category,
    validate_functor,
    validate_nat_trans,
)
from .reports import CheckReport


class RefinementSystem:
    """A functor t : D -> T with an eager index of derivations by judgment."""

    def __init__(self, name: str, t: FunctorData):
        self.name = name
        self.t = t
        self.D = t.source
        self.T = t.target
        # derivations[(P, c, Q)] = sorted tuple of D-morphism indices alpha
        # with dom alpha = P, cod alpha = Q, t(alpha) = c.
        index: dict[tuple[int, int, int], list[int]] = {}
        for a in range(self.D.n_morphisms):
            key = (self.D.dom(a), t.mor(a), self.D.cod(a))
            index.setdefault(key, []).append(a)
        self._derivations = {k: tuple(sorted(v)) for k, v in index.items()}
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
        Slices, representations, pairings, cuts, lift searches, strict
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
        return self._derivations.get((P, c, Q), ())

    def derivations_unchecked(self, P: int, c: int, Q: int) -> tuple[int, ...]:
        """`derivations` for a caller whose (P, c, Q) is a judgment by
        construction (its legs come from base hom-sets and slice tags):
        the index is read with no check."""
        return self._derivations.get((P, c, Q), ())

    def derivations_into(self, c: int, Q: int) -> tuple[tuple[int, int], ...]:
        """The pairs (P, alpha) with alpha a derivation of (P, c, Q), in
        (P, alpha) order: the candidates of a pullback of c at Q, and, in
        the opposite system, the derivations out of Q over c.  Read from
        an index of the derivations by (c, Q), built in the memo on first
        use."""
        return self.memo(("derivations into",), self._index_into).get((c, Q), ())

    def _index_into(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        index: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (P, c, Q), alphas in sorted(self._derivations.items()):
            index.setdefault((c, Q), []).extend((P, alpha) for alpha in alphas)
        return {key: tuple(found) for key, found in index.items()}

    def _not_a_judgment(self, P: int, c: int, Q: int) -> StructuralError:
        return StructuralError(
            f"{self.name}: ({self.D.object_name(P)}, {self.T.morphism_name(c)}, "
            f"{self.D.object_name(Q)}) is not a judgment"
        )

    def derivable(self, P: int, c: int, Q: int) -> bool:
        return len(self.derivations(P, c, Q)) > 0

    def subtypings(self, P: int, Q: int) -> tuple[int, ...]:
        """Derivations over the identity; these witness P <= Q in the fiber."""
        A = self.shape(P)
        if self.shape(Q) != A:
            return ()
        return self.derivations(P, self.T.identity[A], Q)

    def judgments(self):
        """All valid judgments (P, c, Q), derivable or not, in index order."""
        for P in range(self.D.n_objects):
            A = self.shape(P)
            for Q in range(self.D.n_objects):
                B = self.shape(Q)
                for c in self.T.hom(A, B):
                    yield (P, c, Q)

    def judgment_name(self, P: int, c: int, Q: int) -> str:
        return (
            f"{self.D.object_name(P)} ={self.T.morphism_name(c)}=> "
            f"{self.D.object_name(Q)}"
        )

    def vertical_iso(self, P: int, Q: int) -> tuple[int, int] | None:
        """A pair (alpha, beta) of mutually inverse derivations over the
        identity, or None.  First pair in index order."""
        if self.shape(P) != self.shape(Q):
            return None
        idP = self.D.identity[P]
        idQ = self.D.identity[Q]
        for alpha in self.subtypings(P, Q):
            for beta in self.subtypings(Q, P):
                if (
                    self.D.compose(alpha, beta) == idP
                    and self.D.compose(beta, alpha) == idQ
                ):
                    return (alpha, beta)
        return None

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


class LiftCertificate:
    """Witness that a derivation is a (op)cartesian lift.

    For direction "pullback": `structural` is ell : result -> subject over c,
    and every derivation (P, d;c, subject) factors uniquely as sigma ; ell
    with sigma over d.  For "pushforward": `structural` is ell : subject ->
    result over c, factoring on the other side.  `tests` counts the
    factoring problems that were solved during certification.
    """

    __slots__ = ("direction", "c", "subject", "result", "structural", "tests")

    def __init__(
        self, direction: str, c: int, subject: int, result: int, structural: int, tests: int
    ):
        self.direction = direction  # "pullback" | "pushforward"
        self.c = c
        self.subject = subject
        self.result = result
        self.structural = structural
        self.tests = tests


def _by_source_and_base(sys: RefinementSystem, Q: int) -> dict[tuple[int, int], list[int]]:
    """The derivations into Q grouped by (source, base morphism)."""
    dom, image = sys.D.mor_dom, sys.t.morphism_map
    groups: dict[tuple[int, int], list[int]] = {}
    for beta in sys.D.mor_in(Q):
        groups.setdefault((dom[beta], image[beta]), []).append(beta)
    return groups


def _cartesian_tests(
    sys: RefinementSystem, c: int, Q: int, P0: int, ell: int
) -> int | None:
    """The number of derivations (P, d;c, Q) that factor through ell, if
    every one factors uniquely (ell is cartesian), else None.  That is:
    for every (P, d) with d : t(P) -> dom c, postcomposition with ell is
    a bijection derivations(P, d, P0) -> derivations(P, d;c, Q).  Only
    the (P, d) where one set is nonempty are visited: those under the
    betas grouped by (P, x), with d;c = x read from c's inverted row in
    the opposite base, and those of the sigmas, which must all be met."""
    # With (P0, c, Q) a judgment, so is every (P, d;c, Q) and (P, d, P0)
    # below: d runs over the morphisms into dom c.
    if not sys.valid_judgment(P0, c, Q):
        raise sys._not_a_judgment(P0, c, Q)
    compose = sys.D.compose
    sigmas = _by_source_and_base(sys, P0)
    before = sys.op().T._inverse_row(c)
    tests = reached = 0
    for (P, x), betas in _by_source_and_base(sys, Q).items():
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
            return LiftCertificate(
                direction="pullback",
                c=c,
                subject=Q,
                result=P0,
                structural=ell,
                tests=tests,
            )
    return None


def find_pushforward(sys: RefinementSystem, c: int, P: int) -> LiftCertificate | None:
    """Opcartesian lift of c at P, found by running the cartesian search in
    the opposite system.  Indices are shared, so the certificate reads
    directly as a pushforward witness in `sys`."""
    if sys.T.dom(c) != sys.shape(P):
        raise StructuralError(
            f"{sys.name}: {sys.D.object_name(P)} does not refine the domain "
            f"of {sys.T.morphism_name(c)}"
        )
    cert_op = find_pullback(sys.op(), c, P)
    if cert_op is None:
        return None
    return LiftCertificate(
        direction="pushforward",
        c=c,
        subject=P,
        result=cert_op.result,
        structural=cert_op.structural,
        tests=cert_op.tests,
    )


def is_fibration(sys: RefinementSystem) -> tuple[bool, list[tuple[int, int]]]:
    """True when every (c, Q) with Q refining cod c has a pullback.
    Returns the list of missing pairs."""
    missing = []
    for c in range(sys.T.n_morphisms):
        for Q in sys.fiber(sys.T.cod(c)):
            if find_pullback(sys, c, Q) is None:
                missing.append((c, Q))
    return (not missing, missing)


def pullpush_laws_check(sys: RefinementSystem) -> CheckReport:
    """Functoriality and monotonicity of pullback and pushforward.

    Whenever both sides exist: pulling along d then c agrees with pulling
    along d;c up to vertical iso, identities pull to the same type up to
    vertical iso, pulling preserves subtyping; dually for pushing, which
    is pulling in the opposite system.  Instances where a needed lift does
    not exist are skipped, since the laws only speak about types the
    system can actually form.
    """
    report = CheckReport(
        name="pull-push-laws",
        statement="pullbacks and pushforwards compose, respect identities, "
        "and are monotone in the subject",
    )
    T = sys.T
    nm, nc = sys.D.object_name, T.morphism_name
    # Subtyping in the opposite system runs the other way.
    sides = (
        (sys, "pull", "pullback", "<="),
        (sys.op(), "push", "pushforward", ">="),
    )

    # identity laws
    for A in range(T.n_objects):
        for Q in sys.fiber(A):
            for s, verb, lift, _ in sides:
                cert = find_pullback(s, T.identity[A], Q)
                if cert is None:
                    report.record_skip(f"identity {lift} missing")
                    continue
                report.check(
                    sys.vertical_iso(cert.result, Q) is not None,
                    f"{verb} along id_{T.object_name(A)} of {nm(Q)} gave "
                    f"{nm(cert.result)}, not iso to {nm(Q)}",
                )

    # composition laws: pull along c then d, push along d then c
    for d in range(T.n_morphisms):
        for c in T.mor_out(T.cod(d)):
            dc = T.compose(d, c)
            for (s, verb, lift, _), first, then in zip(sides, (c, d), (d, c)):
                for X in s.fiber(s.T.cod(first)):
                    inner, whole = find_pullback(s, first, X), find_pullback(s, dc, X)
                    outer = (
                        None
                        if inner is None or whole is None
                        else find_pullback(s, then, inner.result)
                    )
                    if outer is None:
                        report.record_skip(f"composite {lift} instance missing")
                        continue
                    report.check(
                        sys.vertical_iso(whole.result, outer.result) is not None,
                        f"{verb} {nc(d)};{nc(c)} of {nm(X)}: {nm(whole.result)} "
                        f"vs staged {nm(outer.result)}",
                    )

    # monotonicity
    for c in range(T.n_morphisms):
        for s, verb, lift, le in sides:
            fib = s.fiber(s.T.cod(c))
            for X1 in fib:
                for X2 in fib:
                    if not s.subtypings(X1, X2):
                        continue
                    c1, c2 = find_pullback(s, c, X1), find_pullback(s, c, X2)
                    if c1 is None or c2 is None:
                        report.record_skip(f"monotonicity {lift} instance missing")
                        continue
                    report.check(
                        bool(s.subtypings(c1.result, c2.result)),
                        f"{nm(X1)} {le} {nm(X2)} but {verb}_{nc(c)} results "
                        f"{nm(c1.result)} !{le} {nm(c2.result)}",
                    )
    return report


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


def fully_faithful_check(m: RefSysMorphism) -> CheckReport:
    """Does m act bijectively on derivations, judgment by judgment?

    For every source judgment (P, c, Q), applying on_ref must map its
    derivation set bijectively onto derivations of (on_ref P, on_base c,
    on_ref Q) in the target.
    """
    report = CheckReport(
        name=f"fully-faithful:{m.name}",
        statement="the morphism restricts to a bijection on each derivation set",
    )
    s, t = m.source, m.target
    for (P, c, Q) in s.judgments():
        src = s.derivations(P, c, Q)
        tgt = t.derivations(m.on_ref.obj(P), m.on_base.mor(c), m.on_ref.obj(Q))
        image = sorted(m.on_ref.mor(a) for a in src)
        if len(set(image)) == len(src) and set(image) == set(tgt):
            report.record_pass()
        else:
            report.record_fail(
                f"judgment {s.judgment_name(P, c, Q)}: {len(src)} derivations map "
                f"to {len(set(image))} distinct images out of {len(tgt)} in target"
            )
    return report


# ---------------------------------------------------------------------------
# adjunctions of refinement systems


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


def lapp_check(adj: RefSysAdjunction) -> CheckReport:
    """Left adjoints preserve pushforwards: `rapp_check` on the opposite
    adjunction, where pushforwards become pullbacks and the left adjoint
    becomes the right one."""
    report = rapp_check(adj.op())
    report.name = f"lapp:{adj.name}"
    report.statement = "the left adjoint maps certified pushforwards to certified pushforwards"
    return report


# ---------------------------------------------------------------------------
# monoidal structure


class MonoidalStructure:
    """Strict monoidal structure on a finite category: a unit object and a
    tensor functor cat x cat -> cat.  `pair` is product(cat, cat), and
    obj(a, b) and mor(f, g) give the tensor at each object and morphism
    of it; they are read once, into the tables of `tensor`.  Strictness
    means the tensor is literally associative and unital, which
    validate() checks along with its functor laws.
    """

    def __init__(self, pair: ProductCategory, unit: int, obj: Callable, mor: Callable):
        cat = pair.left
        if pair.right is not cat:
            raise StructuralError(f"tensor: {pair.name} is not the square of one category")
        n, m = cat.n_objects, cat.n_morphisms
        self.cat, self.unit, self._n, self._m = cat, unit, n, m
        self.tensor = FunctorData(
            f"tensor[{cat.name}]",
            pair,
            cat,
            tuple(obj(a, b) for a in range(n) for b in range(n)),
            tuple(mor(f, g) for f in range(m) for g in range(m)),
        )
        self._reversed: MonoidalStructure | None = None

    def reversed(self) -> MonoidalStructure:
        """The tensor with its arguments swapped, a (x)' b = b (x) a, on the
        same product category.  Every right-hand construction is the
        left-hand one here.  Built once; reversing it again gives back
        this structure."""
        if self._reversed is None:
            self._reversed = MonoidalStructure(
                self.tensor.source,
                self.unit,
                lambda a, b: self.tobj(b, a),
                lambda f, g: self.tmor(g, f),
            )
            self._reversed._reversed = self
        return self._reversed

    def tobj(self, a: int, b: int) -> int:
        return self.tensor.object_map[a * self._n + b]

    def tmor(self, f: int, g: int) -> int:
        return self.tensor.morphism_map[f * self._m + g]

    def validate(self) -> ValidationReport:
        """The functor laws of the tensor (endpoints, identities and
        interchange), then its unit and associativity laws.  The category
        is validated first if it has not been: when it is lawful, so is
        cat x cat, and `validate_functor` decides interchange on the
        generators of the product.

        Once those laws and associativity on objects hold, both sides of
        morphism associativity, (f (x) g) (x) h and f (x) (g (x) h), are
        functors cat x cat x cat -> cat that agree on objects, so they
        agree everywhere iff they agree on the generators (a, id, id),
        (id, a, id) and (id, id, a) of the triple product, a a generator
        of cat (`_associative_on_generators`).  Only when that test fails,
        or an earlier law does, are all triples swept, so that every
        failing triple is listed."""
        report = ValidationReport(subject=f"monoidal structure on {self.cat.name}")
        cat = self.cat
        if cat._lawful is None:
            validate_category(cat)
        report.violations.extend(validate_functor(self.tensor).violations)
        n = cat.n_objects
        for a in range(n):
            if self.tobj(self.unit, a) != a or self.tobj(a, self.unit) != a:
                report.add("tensor unit", f"unit law fails at object {cat.object_name(a)}")
            for b in range(n):
                for c in range(n):
                    if self.tobj(self.tobj(a, b), c) != self.tobj(a, self.tobj(b, c)):
                        report.add(
                            "tensor associativity",
                            f"object associativity fails at "
                            f"({cat.object_name(a)}, {cat.object_name(b)}, "
                            f"{cat.object_name(c)})"
                        )
        m = cat.n_morphisms
        if report.violations or cat._lawful is None or not self._associative_on_generators():
            for f in range(m):
                for g in range(m):
                    fg = self.tmor(f, g)
                    for h in range(m):
                        if self.tmor(fg, h) != self.tmor(f, self.tmor(g, h)):
                            report.add(
                                "tensor associativity",
                                f"morphism associativity fails at "
                                f"({cat.morphism_name(f)}, {cat.morphism_name(g)}, "
                                f"{cat.morphism_name(h)})"
                            )
        for f in range(m):
            fg = self.tmor(f, cat.identity[self.unit])
            gf = self.tmor(cat.identity[self.unit], f)
            if fg != f or gf != f:
                report.add("tensor unit", f"unit law fails at morphism {cat.morphism_name(f)}")
        return report

    def _associative_on_generators(self) -> bool:
        """(f (x) g) (x) h = f (x) (g (x) h) for every generator of the
        triple product: one of f, g, h a generator of the lawful category,
        the other two identities."""
        tmor, ids = self.tmor, self.cat.identity
        return all(
            tmor(tmor(f, g), h) == tmor(f, tmor(g, h))
            for a in self.cat._lawful
            for x in ids
            for y in ids
            for f, g, h in ((a, x, y), (x, a, y), (x, y, a))
        )


def find_left_residual(
    mon: MonoidalStructure, a: int, c: int
) -> tuple[int, int] | None:
    """The left residual of a and c: an object x with a plug morphism
    a (x) x -> c such that u |-> (id_a (x) u) ; plug is a bijection
    hom(b, x) -> hom(a (x) b, c) for every object b.  Returns the first
    certified (x, plug) pair in index order, or None."""
    cat = mon.cat
    ida = cat.identity[a]
    for x in range(cat.n_objects):
        for plug in cat.hom(mon.tobj(a, x), c):
            if all(
                _bijective_by_composite(
                    [cat.compose(mon.tmor(ida, u), plug) for u in cat.hom(b, x)],
                    cat.hom(mon.tobj(a, b), c),
                )
                for b in range(cat.n_objects)
            ):
                return (x, plug)
    return None


def _bijective_by_composite(images: list[int], target: tuple[int, ...]) -> bool:
    """Do the composites `images` list every morphism of `target` once?"""
    return len(set(images)) == len(images) and set(images) == set(target)


def left_curry(
    mon: MonoidalStructure, p: int, a: int, b: int, x: int, plug: int
) -> int:
    """Transpose p : a (x) b -> c through a certified left residual (x, plug
    : a (x) x -> c): the unique u : b -> x with (id_a (x) u) ; plug = p.
    The decomposition (a, b) of dom(p) must be supplied; tensor tables are
    not injective in general."""
    cat = mon.cat
    found = None
    for u in cat.hom(b, x):
        if cat.compose(mon.tmor(cat.identity[a], u), plug) == p:
            if found is not None:
                raise StructuralError("left residual transpose is not unique")
            found = u
    if found is None:
        raise StructuralError(
            f"no left-residual transpose for {cat.morphism_name(p)}"
        )
    return found


class MonoidalRefinementSystem:
    """A refinement system whose projection is a strict monoidal functor."""

    __slots__ = ("sys", "mon_ref", "mon_base", "_reversed")

    def __init__(
        self, sys: RefinementSystem, mon_ref: MonoidalStructure, mon_base: MonoidalStructure
    ):
        self.sys = sys
        self.mon_ref = mon_ref  # on D
        self.mon_base = mon_base  # on T
        self._reversed: MonoidalRefinementSystem | None = None

    def reversed(self) -> MonoidalRefinementSystem:
        """The same system with both tensors reversed, built once."""
        if self._reversed is None:
            self._reversed = MonoidalRefinementSystem(
                self.sys, self.mon_ref.reversed(), self.mon_base.reversed()
            )
            self._reversed._reversed = self
        return self._reversed

    def validate(self) -> ValidationReport:
        report = self.sys.validate()
        report.violations.extend(self.mon_ref.validate().violations)
        report.violations.extend(self.mon_base.validate().violations)
        t, D = self.sys.t, self.sys.D
        pair, base_pair = self.mon_ref.tensor.source, self.mon_base.tensor.source
        objs, mors = range(D.n_objects), range(D.n_morphisms)
        t_squared = FunctorData(
            f"{t.name}x{t.name}",
            pair,
            base_pair,
            tuple(base_pair.pair_obj(t.obj(P), t.obj(Q)) for P in objs for Q in objs),
            tuple(base_pair.pair_mor(t.mor(f), t.mor(g)) for f in mors for g in mors),
        )
        for kind, x, _, _ in _differences(
            compose_functors(self.mon_ref.tensor, t),
            compose_functors(t_squared, self.mon_base.tensor),
        ):
            x1, x2 = pair.split_obj(x) if kind == "object" else pair.split_mor(x)
            names = _names(D, kind)
            report.add(
                "monoidal projection",
                f"projection not monoidal at {kind}s ({names[x1]}, {names[x2]})",
            )
        if t.obj(self.mon_ref.unit) != self.mon_base.unit:
            report.add("monoidal projection", "projection does not preserve the monoidal unit")
        return report


class MonoidObject:
    """A monoid in the base of a monoidal refinement system: an object W
    with multiplication p : W (x) W -> W, and optionally a unit morphism
    from the tensor unit.  Laws are validated, never assumed."""

    __slots__ = ("mrs", "W", "p", "unit_mor")

    def __init__(self, mrs, W: int, p: int, unit_mor: int | None = None):
        self.mrs = mrs
        self.W = W
        self.p = p
        self.unit_mor = unit_mor

    def validate(self) -> ValidationReport:
        T = self.mrs.sys.T
        mon = self.mrs.mon_base
        report = ValidationReport(f"monoid {T.objects[self.W]}")
        if T.dom(self.p) != mon.tobj(self.W, self.W) or T.cod(self.p) != self.W:
            report.add("endpoints", "multiplication has wrong endpoints")
            return report
        idw = T.identity[self.W]
        lhs = T.compose(mon.tmor(self.p, idw), self.p)
        rhs = T.compose(mon.tmor(idw, self.p), self.p)
        if lhs != rhs:
            report.add("associativity", "p is not associative")
        if self.unit_mor is not None:
            u = self.unit_mor
            if T.dom(u) != mon.unit or T.cod(u) != self.W:
                report.add("unit endpoints", "unit morphism has wrong endpoints")
                return report
            if mon.tobj(mon.unit, self.W) != self.W or mon.tobj(self.W, mon.unit) != self.W:
                report.add("strict unit", "tensor unit is not strict at W")
                return report
            if T.compose(mon.tmor(u, idw), self.p) != idw:
                report.add("left unit", "unit law (u (x) id) ; p = id fails")
            if T.compose(mon.tmor(idw, u), self.p) != idw:
                report.add("right unit", "unit law (id (x) u) ; p = id fails")
        return report
