"""Product categories, strict monoidal structure on finite categories
and on refinement systems, residuals in it, and monoid objects in the
base.  Only the lattice fixtures carry monoidal structure; `day` also
reads products of slices."""

from __future__ import annotations

from .fincat import FinCategory, FunctorData, StructuralError, _lawful


class ProductCategory(FinCategory):
    """Product category with pair indices decodable via divmod."""

    def __init__(self, left: FinCategory, right: FinCategory):
        self.left = left
        self.right = right
        objects = [
            f"({left.objects[i]},{right.objects[j]})"
            for i in range(left.n_objects)
            for j in range(right.n_objects)
        ]
        morphisms = []
        for f in range(left.n_morphisms):
            for g in range(right.n_morphisms):
                morphisms.append(
                    (
                        f"({left.mor_names[f]},{right.mor_names[g]})",
                        left.dom(f) * right.n_objects + right.dom(g),
                        left.cod(f) * right.n_objects + right.cod(g),
                    )
                )
        identity = [
            left.id_of(i) * right.n_morphisms + right.id_of(j)
            for i in range(left.n_objects)
            for j in range(right.n_objects)
        ]

        n = right.n_morphisms

        def compose(m1: int, m2: int) -> int:
            f1, g1 = divmod(m1, n)
            f2, g2 = divmod(m2, n)
            return left.compose(f1, f2) * n + right.compose(g1, g2)

        super().__init__(f"{left.name}x{right.name}", objects, morphisms, identity, compose)

    def pair_obj(self, a: int, b: int) -> int:
        return a * self.right.n_objects + b

    def split_obj(self, x: int) -> tuple[int, int]:
        return divmod(x, self.right.n_objects)

    def pair_mor(self, f: int, g: int) -> int:
        return f * self.right.n_morphisms + g

    def split_mor(self, m: int) -> tuple[int, int]:
        return divmod(m, self.right.n_morphisms)

    def _derived_generators(self) -> tuple[int, ...] | None:
        """For lawful factors, the pairs (a, id) and (id, b), a and b
        generators of the factors: a product's laws hold factor by factor,
        and (f, g) = (f, id);(id, g)."""
        left, right = _lawful(self.left), _lawful(self.right)
        if left is None or right is None:
            return None
        return tuple(self.pair_mor(a, e) for a in left for e in self.right.identity) + tuple(
            self.pair_mor(e, b) for e in self.left.identity for b in right
        )


def product(left: FinCategory, right: FinCategory) -> ProductCategory:
    return ProductCategory(left, right)


class MonoidalStructure:
    """Strict monoidal structure on a finite category: a unit object and a
    tensor functor cat x cat -> cat.  `pair` is product(cat, cat), and
    obj(a, b) and mor(f, g) give the tensor at each object and morphism
    of it; they are read once, into the tables of `tensor`.  Strictness
    means the tensor is literally associative and unital.  The structure
    is taken as given: its only builder, `lattice`, tensors by meet, which
    has these laws by construction, and `tests/` decides them.
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


class MonoidObject:
    """A monoid in the base of a monoidal refinement system: an object W
    with multiplication p : W (x) W -> W, and optionally a unit morphism
    from the tensor unit.  Its laws hold by construction where it is
    built (`lattice`: the idempotent meet); `tests/` decides them."""

    __slots__ = ("mrs", "W", "p", "unit_mor")

    def __init__(self, mrs, W: int, p: int, unit_mor: int | None = None):
        self.mrs = mrs
        self.W = W
        self.p = p
        self.unit_mor = unit_mor
