"""Strict monoidal structure on finite categories and on refinement
systems, residuals in it, and monoid objects in the base.  Only the
lattice fixtures carry it."""

from __future__ import annotations

from .fincat import (
    FunctorData, StructuralError, ValidationReport, compose_functors, validate_category,
    validate_functor,
)
from .refsys import _differences, _names


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
