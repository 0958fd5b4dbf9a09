"""Concrete refinement systems to verify things on.

Four families, one module each: Hoare logic over a finite state space
(`hoare`: predicates over a one-object transformer monoid), truncated
linear contexts over a finite multicategory whose rules compose only
through identities (`linctx`: multisets of formulas over the skeleton of
finite sets), monotone lattice maps as posetal monoidal systems
(`lattice`: every element a monoid via idempotent meet, and a Galois
connection lifted to a full adjunction of systems), and a seeded random
generator for property tests (`randsys`).  This module holds what they
share, and resolves their public names on first read, so that
`fixtures.build_hoare` compiles the Hoare family and no other.

All builders are deterministic: element orders come from the input data,
never from hashing.  Every category but the point is a
`fincat.tagged_category`: its morphisms are tags (dom, cod, ...) and a
composite is the morphism carrying the combined tag, so no builder
writes a composition table.
"""

from __future__ import annotations

from importlib import import_module

from .fincat import FinCategory, FunctorData, StructuralError, ValidationReport
from .refsys import RefinementSystem

FAMILIES = ("hoare", "linctx", "lattice", "randsys")


def __getattr__(name: str):
    from . import _HOME

    if _HOME.get(name) in FAMILIES:
        return getattr(import_module(f".{_HOME[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _raise_if_invalid(report: ValidationReport) -> None:
    if not report.ok:
        first = report.violations[0]
        raise StructuralError(f"{report.subject}: {first.law}: {first.detail}")


def _then(f: tuple, g: tuple) -> tuple:
    """The tag of f;g for maps tagged (dom, cod, image tuple): g after f."""
    return (f[0], g[1], tuple(g[2][x] for x in f[2]))


def linctx_data(sys: RefinementSystem, data: tuple | None = None):
    """(mc, K, ctx_index, u_index) of a `linctx.build_linctx` system, else
    None; the builder records it by passing `data`."""
    return sys.memo(("linctx data",), lambda: data)


def bang_system(cat: FinCategory) -> RefinementSystem:
    """A category over the point: refinements of a single shape.

    Slices of the result are the category again and judgments are plain
    hom-sets, so presheaf-level facts can be compared against their
    unrefined counterparts."""
    pt = FinCategory("pt", ("*",), (("id*", 0, 0),), (0,), {(0, 0): 0})
    t = FunctorData(
        f"!{cat.name}",
        cat,
        pt,
        (0,) * cat.n_objects,
        (0,) * cat.n_morphisms,
    )
    return RefinementSystem(f"bang({cat.name})", t)
