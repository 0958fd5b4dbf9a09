"""Finite categories and functors as index tables.

Objects and morphisms are dense integer indices in insertion order.  All
enumerations iterate in index order, which is what makes every construction
in this package reproducible byte-for-byte.  Composition is total on
composable pairs; asking for a non-composable composite is a structural
error, never a silent None.  The constructions only some commands read live
with their users: products in `monoidal`, the comma category in
`repchecks`, natural transformations in `adjunction`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


class StructuralError(Exception):
    """Malformed data: bad index, missing table entry, wrong arity.

    Distinct from a law violation, which is a *finding* reported by a
    validator on structurally well-formed data.
    """


class SizeGuardExceeded(Exception):
    """A derived construction would exceed its size guard."""

    def __init__(self, message: str, estimate: int, guard: int):
        super().__init__(f"{message}: estimated {estimate} > guard {guard}")
        self.estimate = estimate
        self.guard = guard


# The default bound on a guarded construction (the comma category's objects
# and morphisms): past it, the construction is skipped with the size it
# would have.
SIZE_GUARD = 60000


class Violation:
    __slots__ = ("law", "detail")

    def __init__(self, law: str, detail: str):
        self.law = law
        self.detail = detail

    def __str__(self) -> str:
        return f"{self.law}: {self.detail}"


class ValidationReport:
    __slots__ = ("subject", "violations")

    def __init__(self, subject: str):
        self.subject = subject
        self.violations: list[Violation] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, law: str, detail: str) -> None:
        self.violations.append(Violation(law, detail))

    def __str__(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


class Table:
    """A read-only table of n entries, each computed by fill(i) when it is
    first read and kept.  It stands in for a tuple where a table is read
    sparsely: it supports indexing by 0..n-1, len, iteration and ==
    (entry by entry, against any sequence).  Only the entries read are
    stored, so an unread table of any length costs nothing."""

    __slots__ = ("_fill", "_got", "_n")

    def __init__(self, n: int, fill: Callable[[int], object]):
        self._fill = fill
        self._got: dict = {}
        self._n = n

    def __getitem__(self, i: int):
        try:
            return self._got[i]
        except KeyError:
            if not 0 <= i < self._n:
                raise IndexError(f"table index {i} out of range") from None
        got = self._got[i] = self._fill(i)
        return got

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator:
        return map(self.__getitem__, range(self._n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Table, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(x == y for x, y in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Table({self._n} entries, {len(self._got)} filled)"


class Triples:
    """The triples (a[i], b[i], c[i]) of three columns of one length, made
    when read and not kept: a read-only sequence that supports indexing,
    len, iteration and == (entry by entry, against any sequence)."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: Sequence, b: Sequence, c: Sequence):
        self.a, self.b, self.c = a, b, c

    def __getitem__(self, i: int) -> tuple:
        return (self.a[i], self.b[i], self.c[i])

    def __len__(self) -> int:
        return len(self.a)

    def __iter__(self) -> Iterator[tuple]:
        return zip(self.a, self.b, self.c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Triples, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(x == y for x, y in zip(self, other))

    __hash__ = None  # type: ignore[assignment]


class Arrows(NamedTuple):
    """The morphisms of a category as three columns: names (a tuple, or a
    `Table` whose names are formatted when read), domains and codomains."""

    names: Sequence[str]
    dom: Sequence[int]
    cod: Sequence[int]


class FinCategory:
    """A finite category given by explicit tables.

    `compose` may be a dict over composable pairs (hand-written tables), a
    callable (opposites, products, slices and `tagged_category`), or None
    for a subclass that fills its rows itself by overriding `_row`
    (`repchecks.CommaCategory`).  Either way composition is read from one
    row per morphism f: the composites f;g for g in mor_out(cod f), in
    that order.
    A row is filled once, on first use, so a large derived table is only
    ever computed for the morphisms something composes.  A pair missing
    from a dict is stored as -1 and raises on use.

    Morphisms are given as (name, dom, cod) triples or as `Arrows`
    columns, which are kept as given; object names may be a `Table`.
    The index lists mor_out(a) and mor_in(b); a hom-set is read from
    mor_out(a) the first time it is asked for, and kept.
    """

    def __init__(
        self,
        name: str,
        objects: Sequence[str],
        morphisms: Sequence[tuple[str, int, int]] | Arrows,
        identity: Sequence[int],
        compose: dict[tuple[int, int], int] | Callable[[int, int], int] | None,
    ):
        self.name = name
        self.objects = objects if isinstance(objects, Table) else tuple(objects)
        if not isinstance(morphisms, Arrows):
            morphisms = Arrows(*(tuple(m[k] for m in morphisms) for k in range(3)))
        self.mor_names, self.mor_dom, self.mor_cod = morphisms
        self.identity = tuple(identity)
        if isinstance(compose, dict):
            compose = lambda f, g, _table=compose: _table.get((f, g), -1)
        self._compose = compose
        self._rows: list[tuple[int, ...] | None] = [None] * len(self.mor_dom)
        self._inverted: dict[int, dict[int, tuple[int, ...]]] = {}
        # The generators of a category known lawful, else None (`_lawful`).
        self._lawful: tuple[int, ...] | None = None
        self._in_positions: tuple[int, ...] | None = None
        self._check_indices()
        self._hom: dict[tuple[int, int], tuple[int, ...]] = {}
        self._mor_out: dict[int, tuple[int, ...]] = {}
        self._mor_in: dict[int, tuple[int, ...]] = {}
        self._build_hom_index()

    def _check_indices(self) -> None:
        n_obj, n_mor = len(self.objects), len(self.mor_dom)
        if len(self.identity) != n_obj:
            raise StructuralError(f"{self.name}: identity table has wrong length")
        if not len(self.mor_names) == len(self.mor_cod) == n_mor:
            raise StructuralError(f"{self.name}: morphism columns have different lengths")
        for i in range(n_mor):
            if not (0 <= self.mor_dom[i] < n_obj and 0 <= self.mor_cod[i] < n_obj):
                raise StructuralError(f"{self.name}: morphism {i} has endpoint out of range")
        for a, e in enumerate(self.identity):
            if e == -1:  # a tag no morphism carries (`tagged_category`, a comma category)
                raise StructuralError(f"{self.name}: identity of object {a} is not listed")
            if not (0 <= e < n_mor):
                raise StructuralError(f"{self.name}: identity of object {a} out of range")

    def _build_hom_index(self) -> None:
        out: dict[int, list[int]] = {}
        inc: dict[int, list[int]] = {}
        out_pos = []
        for i in range(self.n_morphisms):
            from_dom = out.setdefault(self.mor_dom[i], [])
            out_pos.append(len(from_dom))
            from_dom.append(i)
            inc.setdefault(self.mor_cod[i], []).append(i)
        self._mor_out = {k: tuple(v) for k, v in out.items()}
        self._mor_in = {k: tuple(v) for k, v in inc.items()}
        # g's position in mor_out(dom g): the index of f;g in the row of f.
        self._out_pos = tuple(out_pos)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_morphisms(self) -> int:
        return len(self.mor_dom)

    def dom(self, f: int) -> int:
        return self.mor_dom[f]

    def cod(self, f: int) -> int:
        return self.mor_cod[f]

    def id_of(self, a: int) -> int:
        return self.identity[a]

    def is_identity(self, f: int) -> bool:
        return self.identity[self.mor_dom[f]] == f

    def object_name(self, a: int) -> str:
        return self.objects[a]

    def morphism_name(self, f: int) -> str:
        return self.mor_names[f]

    def validate(self) -> ValidationReport:
        return validate_category(self)

    def hom(self, a: int, b: int) -> tuple[int, ...]:
        got = self._hom.get((a, b))
        if got is None:
            cod = self.mor_cod
            got = self._hom[(a, b)] = tuple(f for f in self.mor_out(a) if cod[f] == b)
        return got

    def mor_out(self, a: int) -> tuple[int, ...]:
        return self._mor_out.get(a, ())

    def mor_in(self, b: int) -> tuple[int, ...]:
        return self._mor_in.get(b, ())

    def _in_pos(self) -> tuple[int, ...]:
        """f's position in mor_in(cod f), computed on first use and kept."""
        if self._in_positions is None:
            pos = [0] * self.n_morphisms
            for fs in self._mor_in.values():
                for k, f in enumerate(fs):
                    pos[f] = k
            self._in_positions = tuple(pos)
        return self._in_positions

    def _row(self, f: int) -> tuple[int, ...]:
        """The composites f;g for g in mor_out(cod f), -1 where a dict has
        no entry; filled on first use."""
        row = self._rows[f]
        if row is None:
            outs = self.mor_out(self.mor_cod[f])
            row = self._rows[f] = tuple(self._compose(f, g) for g in outs)
        return row

    def _inverse_row(self, c: int) -> dict[int, tuple[int, ...]]:
        """The row of c inverted: x |-> the morphisms e out of cod c with
        c;e = x, in index order; filled on first use.  Read in the
        opposite category it gives the d into dom c with d;c = x."""
        got = self._inverted.get(c)
        if got is None:
            inverse: dict[int, list[int]] = {}
            for e, x in zip(self.mor_out(self.mor_cod[c]), self._row(c)):
                inverse.setdefault(x, []).append(e)
            got = self._inverted[c] = {x: tuple(es) for x, es in inverse.items()}
        return got

    def _missing(self, f: int, g: int) -> StructuralError:
        return StructuralError(
            f"{self.name}: missing composite {self.mor_names[f]};{self.mor_names[g]}"
        )

    def _not_composable(self, f: int, g: int) -> StructuralError:
        return StructuralError(
            f"{self.name}: compose({self.mor_names[f]}, {self.mor_names[g]}) is not composable"
        )

    def compose(self, f: int, g: int) -> int:
        """Diagrammatic composite f;g, defined when cod(f) = dom(g)."""
        if self.mor_cod[f] != self.mor_dom[g]:
            raise self._not_composable(f, g)
        h = (self._rows[f] or self._row(f))[self._out_pos[g]]
        if h < 0:
            raise self._missing(f, g)
        return h

    def _derived_generators(self) -> tuple[int, ...] | None:
        """Generators known from the categories this one is made from, if
        they are lawful (`_lawful`); a table given outright has none."""
        return None

    def composable_pairs(self) -> Iterator[tuple[int, int]]:
        for b in range(self.n_objects):
            for f in self.mor_in(b):
                for g in self.mor_out(b):
                    yield (f, g)

    def __repr__(self) -> str:
        return f"FinCategory({self.name}: {self.n_objects} objects, {self.n_morphisms} morphisms)"


def _generators(cat: FinCategory) -> tuple[int, ...]:
    """A generating set of a category whose identity laws hold: every
    morphism is a composite of generators.  Morphisms are taken in index
    order, identities count as reached, and a morphism not reached yet
    becomes a generator a; the closure then adds a;b for every reached b
    and g;h for every generator g and newly reached h, each read from the
    row of a or g: one row lookup per reached morphism and generator."""
    dom, cod, pos = cat.mor_dom, cat.mor_cod, cat._out_pos
    reached = bytearray(cat.n_morphisms)
    for e in cat.identity:
        reached[e] = 1
    gens: list[int] = []
    gens_into: dict[int, list[int]] = {}
    for a in range(cat.n_morphisms):
        if reached[a]:
            continue
        gens.append(a)
        gens_into.setdefault(cod[a], []).append(a)
        # a;b for every reached b, a = a;id among them.
        todo = [h for b, h in zip(cat.mor_out(cod[a]), cat._row(a)) if reached[b]]
        while todo:
            h = todo.pop()
            if reached[h]:
                continue
            reached[h] = 1
            todo += [cat._row(g)[pos[h]] for g in gens_into.get(dom[h], ())]
    return tuple(gens)


def validate_category(cat: FinCategory) -> ValidationReport:
    """Check the identity, endpoint and associativity laws, exactly, once.

    A category whose laws are already known (`_lawful`: it validated ok
    before, it was built lawful, or it is an opposite or product of
    lawful categories) gets an empty report and no sweep.

    Identity and associativity are only checked once every identity is an
    endomorphism and every composite exists with the right endpoints;
    otherwise the report stops at those structural violations.

    Once the identity laws hold, associativity is decided on a generating
    set (`_generators`): it is checked for every (f, g, h) whose middle g
    is a generator.  That is exact, by induction on words: if it holds
    with middles a and b, it holds with middle a;b, since (f;(a;b));h =
    ((f;a);b);h = (f;a);(b;h) = f;(a;(b;h)) = f;((a;b);h).  Only when that
    test fails, or an identity law does, are all triples swept, so the
    violations are listed triple by triple.  A lawful category
    keeps its generators (`_lawful`), which `validate_functor` reads."""
    report = ValidationReport(f"category {cat.name}")
    if _lawful(cat) is not None:
        return report
    names, dom, cod = cat.mor_names, cat.mor_dom, cat.mor_cod
    for a in range(cat.n_objects):
        e = cat.id_of(a)
        if dom[e] != a or cod[e] != a:
            report.add("identity-endpoints", f"id of {cat.objects[a]} is not an endomorphism")
    # Totality and endpoints a row at a time: the composites in the row of
    # f must have f's domain and the codomains of mor_out(cod f), in order.
    for b in range(cat.n_objects):
        cods = _gather(cat.mor_out(b))(cod)
        for f in cat.mor_in(b):
            row = cat._row(f)
            read = _gather(row)
            if -1 not in row and read(cod) == cods and read(dom) == (dom[f],) * len(row):
                continue
            for g, h in zip(cat.mor_out(b), row):
                if h < 0:
                    report.add("composition-totality", str(cat._missing(f, g)))
                elif dom[h] != dom[f] or cod[h] != cod[g]:
                    report.add(
                        "composition-endpoints",
                        f"{names[f]};{names[g]} = {names[h]} has wrong endpoints",
                    )
    if report.violations:
        return report
    for f in range(cat.n_morphisms):
        left = cat.compose(cat.id_of(dom[f]), f)
        right = cat.compose(f, cat.id_of(cod[f]))
        if left != f:
            report.add("left-identity", f"id;{names[f]} = {names[left]}")
        if right != f:
            report.add("right-identity", f"{names[f]};id = {names[right]}")
    if not report.violations:
        gens = _generators(cat)
        gen_pos = [_row_positions(cat, g) for g in gens]
        if all(
            _associative(cat, f, g, g_pos)
            for g, g_pos in zip(gens, gen_pos)
            for f in cat.mor_in(dom[g])
        ):
            cat._lawful = gens
            return report
    row_pos = [_row_positions(cat, g) for g in range(cat.n_morphisms)]
    for b in range(cat.n_objects):
        for f in cat.mor_in(b):
            for g in cat.mor_out(b):
                if _associative(cat, f, g, row_pos[g]):
                    continue
                fg = cat.compose(f, g)
                for h in cat.mor_out(cod[g]):
                    if cat.compose(fg, h) != cat.compose(f, cat.compose(g, h)):
                        report.add(
                            "associativity",
                            f"({names[f]};{names[g]});{names[h]} != "
                            f"{names[f]};({names[g]};{names[h]})",
                        )
    return report


def _row_positions(cat: FinCategory, g: int) -> tuple[int, ...]:
    """pos(g;h) for g;h in row(g): where each composite sits in a row."""
    return tuple(map(cat._out_pos.__getitem__, cat._row(g)))


def _associative(cat: FinCategory, f: int, g: int, g_pos: tuple[int, ...]) -> bool:
    """Whether (f;g);h = f;(g;h) for every h, one row at a time: with the
    endpoint laws in hand, row(f;g) and row(g) are both indexed by
    mor_out(cod g), and the law for every h is
    row(f;g) == [row(f)[pos(g;h)] for g;h in row(g)]."""
    row_f = cat._row(f)
    return cat._row(row_f[cat._out_pos[g]]) == tuple(map(row_f.__getitem__, g_pos))


class FunctorData:
    """A functor as object and morphism index tables, tuples checked for
    length and range when the functor is made.  A slice action
    (`represent.SliceAction`) sets both maps itself, computed when read
    and in range by construction, and takes neither check."""

    __slots__ = ("name", "source", "target", "object_map", "morphism_map")

    def __init__(
        self,
        name: str,
        source: FinCategory,
        target: FinCategory,
        object_map: Sequence[int],
        morphism_map: Sequence[int],
    ):
        self.name = name
        self.source = source
        self.target = target
        self.object_map = object_map
        self.morphism_map = morphism_map
        if len(object_map) != source.n_objects:
            raise StructuralError(f"functor {name}: object map has wrong length")
        if len(morphism_map) != source.n_morphisms:
            raise StructuralError(f"functor {name}: morphism map has wrong length")
        if object_map and not (0 <= min(object_map) and max(object_map) < target.n_objects):
            raise StructuralError(f"functor {name}: object image out of range")
        for x in morphism_map:
            if not (0 <= x < target.n_morphisms):
                raise StructuralError(f"functor {name}: morphism image out of range")

    def obj(self, a: int) -> int:
        return self.object_map[a]

    def mor(self, f: int) -> int:
        return self.morphism_map[f]

    def preimage(self, objs: Iterable[int]) -> tuple[int, ...]:
        """The source objects sent into `objs`, in index order.  A slice
        action reads them from an index instead (`SliceAction`)."""
        wanted = set(objs)
        return tuple(a for a, b in enumerate(self.object_map) if b in wanted)


def validate_functor(F: FunctorData) -> ValidationReport:
    """Check that F preserves endpoints, identities and composites, exactly.

    When both categories are known lawful (`_lawful`: they validated ok,
    were built lawful, or are opposites or products of lawful
    categories) and F preserves endpoints and identities, F(a;b) =
    F(a);F(b) is checked for every generator a only.  That is exact, by
    induction on words: if it holds for a and for m, it holds for a;m,
    since F((a;m);b) = F(a;(m;b)) = F(a);F(m;b) = F(a);(F(m);F(b)) =
    (F(a);F(m));F(b) = F(a;m);F(b), and F(id) = id covers the empty
    word.  Otherwise, and on any failure, every composable pair is
    checked, so the violations are listed pair by pair; a pair whose
    composite is missing is left to its category's validation."""
    report = ValidationReport(f"functor {F.name}")
    S, T = F.source, F.target
    for f in range(S.n_morphisms):
        g = F.mor(f)
        if T.dom(g) != F.obj(S.dom(f)) or T.cod(g) != F.obj(S.cod(f)):
            report.add("endpoints", f"image of {S.mor_names[f]} has wrong endpoints")
    for a in range(S.n_objects):
        if F.mor(S.id_of(a)) != T.id_of(F.obj(a)):
            report.add("identities", f"image of id_{S.objects[a]} is not an identity")
    if (
        not report.violations
        and _lawful(S) is not None
        and _lawful(T) is not None
        and all(_preserves_row(F, a) for a in S._lawful)
    ):
        return report
    for f, g in S.composable_pairs():
        ff, gg = F.mor(f), F.mor(g)
        if T.cod(ff) != T.dom(gg):
            continue  # endpoint violation already recorded above
        try:
            fg, image_fg = S.compose(f, g), T.compose(ff, gg)
        except StructuralError:
            continue  # a missing composite is its category's violation
        if F.mor(fg) != image_fg:
            report.add("composition", f"image of {S.mor_names[f]};{S.mor_names[g]} breaks")
    return report


def _lawful(cat: FinCategory) -> tuple[int, ...] | None:
    """The generators of a lawful category, or None: those recorded by
    validate_category or by a construction that is lawful as built
    (`linctx.fin_skeleton`), or those a category made from lawful ones
    reads off them (`_derived_generators`: an opposite here, a product
    in `monoidal`)."""
    if cat._lawful is None:
        cat._lawful = cat._derived_generators()
    return cat._lawful


def _preserves_row(F: FunctorData, a: int) -> bool:
    """Whether F(a;b) = F(a);F(b) for every b, read from the rows of a in
    the source and of F(a) in the target; F must preserve endpoints."""
    S, T, image = F.source, F.target, F.morphism_map
    row_t, pos_t = T._row(image[a]), T._out_pos
    return all(
        image[ab] == row_t[pos_t[image[b]]]
        for b, ab in zip(S.mor_out(S.cod(a)), S._row(a))
    )


def identity_functor(cat: FinCategory) -> FunctorData:
    return FunctorData(
        f"id[{cat.name}]",
        cat,
        cat,
        tuple(range(cat.n_objects)),
        tuple(range(cat.n_morphisms)),
    )


def compose_functors(F: FunctorData, G: FunctorData) -> FunctorData:
    """Diagrammatic composite: apply F, then G.  F must land in the very
    category G starts from, not in a copy of it."""
    if F.target is not G.source:
        raise StructuralError(f"compose_functors: {F.name} then {G.name} do not meet")
    return FunctorData(
        f"{F.name};{G.name}",
        F.source,
        G.target,
        tuple(G.obj(x) for x in F.object_map),
        tuple(G.mor(x) for x in F.morphism_map),
    )


class OppositeCategory(FinCategory):
    """Same object and morphism indices as `original`, arrows reversed,
    sharing its name and endpoint columns.  The composite f;g is g;f, read
    from the row of g in the original: composing fills no table of the
    opposite.  A row of the opposite, a column of the original, is filled
    only for the laws (`_row`)."""

    def __init__(self, original: FinCategory):
        self._original = original
        row, pos = original._row, original._out_pos
        super().__init__(
            f"{original.name}^op",
            original.objects,
            Arrows(original.mor_names, original.mor_cod, original.mor_dom),
            original.identity,
            lambda f, g: row(g)[pos[f]],
        )
        # mor_in(b) here is mor_out(b) in the original.
        self._in_positions = pos

    def _derived_generators(self) -> tuple[int, ...] | None:
        """The original's generators, each a word of them reversed."""
        return _lawful(self._original)

    def compose(self, f: int, g: int) -> int:
        if self.mor_cod[f] != self.mor_dom[g]:
            raise self._not_composable(f, g)
        cat = self._original
        h = (cat._rows[g] or cat._row(g))[cat._out_pos[f]]
        if h < 0:
            raise self._missing(f, g)
        return h


def opposite(cat: FinCategory) -> OppositeCategory:
    """The opposite of cat: f;g there is g;f read from cat's row of g."""
    return OppositeCategory(cat)


def tagged_category(
    name: str,
    objects: Sequence[str],
    tags: Sequence[tuple],
    names: Sequence[str],
    identity: Iterable[tuple],
    combine: Callable[[tuple, tuple], tuple],
) -> FinCategory:
    """The category whose morphisms are the distinct `tags` (dom, cod, ...),
    in order, named by `names`.  The identity of object a is the morphism
    tagged identity[a]; an identity tag no morphism carries is a
    StructuralError.  f;g is the morphism tagged combine(tag f, tag g),
    read when a row is filled; a composite tag no morphism carries is
    stored as -1, so `validate_category` reports it as a
    composition-totality violation.  The tags and their index are kept
    as `mor_tags` and `mor_index`."""
    tags = tuple(tags)
    index = _tag_index(name, tags)
    get = index.get
    cat = FinCategory(
        name,
        objects,
        Arrows(tuple(names), tuple(tag[0] for tag in tags), tuple(tag[1] for tag in tags)),
        [get(tag, -1) for tag in identity],
        lambda f, g: get(combine(tags[f], tags[g]), -1),
    )
    cat.mor_tags, cat.mor_index = tags, index
    return cat


def _tag_index(name: str, tags: tuple) -> dict:
    """tag |-> its morphism; a repeated tag is a StructuralError."""
    index = {tag: k for k, tag in enumerate(tags)}
    if len(index) != len(tags):
        raise StructuralError(f"{name}: {len(tags) - len(index)} tag(s) repeated")
    return index


def _gather(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """seq |-> (seq[p] for p in positions) as a tuple, read in one C call
    when there are two positions or more."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda seq: tuple(seq[p] for p in positions)


def _backtrack(
    steps: int,
    candidates: Callable[[int, list], Iterable],
    closes: Callable[[int, list], bool],
) -> Iterator[tuple]:
    """Depth-first search, lazily and in candidate order: every tuple whose
    value at step k is drawn from candidates(k, assigned) and passes
    closes(k, assigned), where `assigned` holds the values of steps 0..k.
    closes(k, ...) checks the constraints whose last variable is step k,
    so a prefix dies as soon as one of them fails."""
    if steps == 0:
        yield ()
        return
    assigned: list = [None] * steps
    pending: list[Iterator] = [iter(candidates(0, assigned))] * steps
    k = 0
    while k >= 0:
        for x in pending[k]:
            assigned[k] = x
            if closes(k, assigned):
                break
        else:
            k -= 1
            continue
        if k + 1 == steps:
            yield tuple(assigned)
        else:
            k += 1
            pending[k] = iter(candidates(k, assigned))
