"""Presheaves of sets over finite categories, and natural families
between them.

This is what the representations and the dualizers read: the `Presheaf`
tables, presheaf derivations, the natural-family search on the support
of a presheaf, and the curried residual the dualizers are made of.
Pullback, pushforward, isomorphism and tensor of presheaves, and the
checks on them, are in `psh`, which the queries never execute.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Sequence

from .fincat import FinCategory, FunctorData, StructuralError, Table, _backtrack


class Presheaf:
    """Contravariant set-valued functor on a finite category.

    `elements[a]` names the elements at object a, and `action[f]` maps
    element indices at cod(f) to element indices at dom(f).  `payloads`,
    when present, carries opaque per-element data (the derivations of a
    representation, the natural families of a dual); it never takes part
    in equality or validation.  Both tables have one entry per object,
    as tuples or as `Table`s filled on first read: the presheaves built
    from others read theirs on demand.

    The action comes from a source: a table with one row per morphism,
    or a function f |-> row, which is asked only for morphisms into a
    nonempty element set (every other row is empty).  Either way
    `action` is a `Table`: each row is read from its source on first
    use and checked there for arity and range, so a presheaf built on
    its support does work only where it is nonempty, and a bad row
    raises when it is read.  The check names the presheaf as it was
    built and holds no reference to it, so a presheaf whose source does
    not read the presheaf itself is no reference cycle and is freed as
    soon as it is dropped; `represent.pos_rep`, whose rows read its own
    positions, is kept for the system's life anyway.  The family
    searches and `validate_psh_derivation` read a row only where a
    naturality constraint can fail on it: a constraint into a
    one-element set holds whatever the rows are (`_checks`).  The iso
    test (`psh.generated_iso`) reads, besides, only the rows of the
    morphisms into its point whose domain has two or more elements.  A
    row read by nothing else is never filled, nor checked.
    """

    def __init__(
        self,
        name: str,
        base: FinCategory,
        elements: Sequence[tuple[str, ...]],
        action: Sequence[tuple[int, ...]] | Callable[[int], tuple[int, ...]],
        payloads: Sequence[tuple[object, ...]] | None = None,
        support: tuple[int, ...] | None = None,
    ):
        self.name = name
        self.base = base
        self.elements = elements
        self.payloads = payloads
        self._support = support
        self._positions: dict[int, dict[object, int]] = {}
        if len(elements) != base.n_objects:
            raise StructuralError(f"presheaf {name}: element table has wrong length")
        if callable(action):
            fill, cod = action, base.mor_cod
            source = lambda f: fill(f) if elements[cod[f]] else ()
        elif len(action) != base.n_morphisms:
            raise StructuralError(f"presheaf {name}: action table has wrong length")
        else:
            source = action.__getitem__
        self.action = Table(base.n_morphisms, lambda f: _checked(name, base, elements, f, source(f)))

    def size(self, a: int) -> int:
        return len(self.elements[a])

    def total_elements(self) -> int:
        return sum(len(e) for e in self.elements)

    def support(self) -> tuple[int, ...]:
        """The objects with a nonempty element set, in index order: the
        `support` given when it was built, or else read once from the
        payloads (one per element) or the element sets."""
        if self._support is None:
            sets = self.elements if self.payloads is None else self.payloads
            self._support = tuple(a for a, e in enumerate(sets) if e)
        return self._support

    def position(self, a: int) -> dict[object, int]:
        """Payload -> element index at a, built on first use; a presheaf
        without payloads raises a StructuralError naming it."""
        got = self._positions.get(a)
        if got is None:
            if self.payloads is None:
                raise StructuralError(f"{self.name} has no payloads")
            got = self._positions[a] = {p: k for k, p in enumerate(self.payloads[a])}
        return got

    def apply(self, f: int, x: int) -> int:
        return self.action[f][x]

    def __repr__(self) -> str:
        return f"Presheaf({self.name} over {self.base.name}, {self.total_elements()} elements)"


def _checked(name: str, base: FinCategory, elements, f: int, row: tuple[int, ...]) -> tuple[int, ...]:
    """The row of f in the presheaf `name`, once its arity and range are
    checked.  A module function, so a presheaf's action table holds no
    reference back to the presheaf."""
    if len(row) != len(elements[base.mor_cod[f]]):
        raise StructuralError(f"presheaf {name}: action at {base.mor_names[f]} has wrong arity")
    n = len(elements[base.mor_dom[f]])
    for v in row:
        if not (0 <= v < n):
            raise StructuralError(f"presheaf {name}: action at {base.mor_names[f]} hits a bad index")
    return row


class PshDerivation:
    """A derivation between presheaves: base functor plus component tables,
    one per point of the source's support, in order."""

    __slots__ = ("name", "source", "target", "functor", "components")

    def __init__(
        self,
        name: str,
        source: Presheaf,
        target: Presheaf,
        functor: FunctorData | None,
        components: tuple[tuple[int, ...], ...],
    ):
        self.name = name
        self.source = source
        self.target = target
        self.functor = functor  # None means vertical (identity on a shared base)
        self.components = components


def _closing(phi: Presheaf, support: tuple[int, ...]) -> list[list[tuple[int, int, int]]]:
    """The naturality constraints of a family out of phi, grouped by the
    step of a backtracking search over `support` at which they close.

    A constraint is (u, k, k2) for u : a -> a2 with a2 the k2-th support
    point; a is then the k-th, since phi(a2) nonempty forces phi(a)
    nonempty.  Morphisms into the complement constrain nothing.  No row
    is read here: a reader asks for phi's row and the target's row of u
    only where the constraint can fail, that is where the target set at
    step k has at least two elements (`_checks`).  A support that is not
    a sieve raises a StructuralError naming phi."""
    pos = {a: k for k, a in enumerate(support)}
    closing: list[list[tuple[int, int, int]]] = [[] for _ in support]
    A = phi.base
    for k2, a2 in enumerate(support):
        for u in A.mor_in(a2):
            try:
                k = pos[A.dom(u)]
            except KeyError:
                raise _not_a_sieve(phi, u) from None
            closing[max(k, k2)].append((u, k, k2))
    return closing


def _not_a_sieve(phi: Presheaf, u: int) -> StructuralError:
    """The error for a morphism u into the support of phi that starts off it."""
    A = phi.base
    off = f"{A.mor_names[u]} into {A.objects[A.cod(u)]} starts off it"
    return StructuralError(f"the support of {phi.name} is not a sieve: {off}")


def _checks(phi: Presheaf, closing, targets: list[int], row) -> list[list[tuple]]:
    """The constraints of `closing` that can fail, step by step, as
    (k, k2, phi row, target row) for `_closes`.  A constraint u : a -> a2
    compares t_a . phi(u) with row(u) . t_a2, and both sides land in the
    target set at step k: when that set has one element they agree
    whatever the rows are, so neither row is read."""
    action = phi.action
    return [[(k, k2, action[u], row(u)) for (u, k, k2) in cl if targets[k] > 1] for cl in closing]


def _families_on_support(
    phi: Presheaf,
    targets: list[int],
    closing,
    row,
) -> list[tuple[tuple[int, ...], ...]]:
    """`natural_families` on support-indexed tables, searched by `_backtrack`.

    Step k picks a component t_k from phi at the k-th support point to
    targets[k]; the constraints closing()[k] (as from `_closing`) are
    checked as soon as their step is reached: t_k[phi_row[x]] ==
    row(u)[t_k2[x]] for every x.  The constraints are asked for only if
    no target is empty, and the rows of phi and of the target only for a
    constraint into a target of two or more elements (`_checks`); when
    every target is a singleton no row is read.  A step's candidates are
    drawn one at a time when the search reaches it, never listed up
    front.  Families come back as one component per step, in candidate
    order.  When every target is a singleton the only family is the
    constant one, returned once `closing` has checked the sieve."""
    if 0 in targets:
        return []
    support = phi.support()
    if targets.count(1) == len(targets):
        closing()
        return [tuple((0,) * phi.size(a) for a in support)]
    checks = _checks(phi, closing(), targets, row)
    return list(
        _backtrack(
            len(targets),
            lambda k, _a: itertools.product(range(targets[k]), repeat=phi.size(support[k])),
            lambda k, a: _closes(checks[k], a),
        )
    )


def _closes(checks, assigned: list[tuple[int, ...]]) -> bool:
    """Do the constraints closing at this step hold for the components
    assigned so far?"""
    for k, k2, prow, qrow in checks:
        t = assigned[k]
        if any(t[p] != qrow[y] for p, y in zip(prow, assigned[k2])):
            return False
    return True


def curried_residual(
    phi: Presheaf,
    right: FinCategory,
    size: Callable[[int, int], int],
    row: Callable[[int, int], tuple[int, ...]],
    points: Iterable[int] | None = None,
) -> Presheaf:
    """The closed-structure residual of phi and a presheaf omega pulled
    back along a currying, over `right`.  omega is given as two-argument
    tables on phi's base and `right`: size(a, b) elements at the image of
    (a, b), and the action row(f, g) of the image of (f, g).  The currying
    sends b to the functor G_b : a |-> (a, b), f |-> (f, id_b), and
    g : b -> b2 to the components a |-> (id_a, g), so row is asked only
    for (u, id_b) and (id_a, g).  The elements at b, named s{b}.{k}, are
    the natural families phi(a) -> omega(a, b) along G_b, searched on the
    support of phi and only at `points` (every object by default: the
    caller vouches that no family lands elsewhere); they are the payloads,
    one component per support point of phi, and the element and payload
    tables are read from them on demand.  g moves a family at
    b2 by postcomposing each component with row(id_a, g); a row is
    computed, and the moved families checked to be natural, when it is
    first read.  The residual over the whole functor category is never
    listed.  The left and the right residual differ only in the currying."""
    A = phi.base
    support = phi.support()
    closing = functools.cache(lambda: _closing(phi, support))
    fams_at: dict[int, list] = {}
    for b in range(right.n_objects) if points is None else points:
        fams_at[b] = _families_on_support(
            phi,
            [size(a, b) for a in support],
            closing,
            lambda u, _id=right.id_of(b): row(u, _id),
        )
    index: dict[int, dict] = {}  # families by their support components

    def act(g: int) -> tuple[int, ...]:
        s = right.dom(g)
        rows = [row(A.id_of(a), g) for a in support]
        at = index.get(s)
        if at is None:
            at = index[s] = {fam: k for k, fam in enumerate(fams_at.get(s, ()))}
        out = []
        for fam in fams_at[right.cod(g)]:
            k = at.get(tuple(tuple(r[v] for v in comp) for r, comp in zip(rows, fam)))
            if k is None:
                raise StructuralError(
                    f"curried_residual: moved family not natural along {right.mor_names[g]}"
                )
            out.append(k)
        return tuple(out)

    n = right.n_objects
    return Presheaf(
        f"res({phi.name})",
        right,
        Table(n, lambda b: tuple(f"s{b}.{k}" for k in range(len(fams_at.get(b, ()))))),
        act,
        Table(n, lambda b: tuple(fams_at.get(b, ()))),
        tuple(sorted(b for b, fams in fams_at.items() if fams)),
    )
