"""Truncated linear contexts over a finite multicategory whose rules
compose only through identities: multisets of formulas over the
skeleton of finite sets."""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .fincat import (
    SIZE_GUARD, FinCategory, FunctorData, SizeGuardExceeded, StructuralError, ValidationReport,
    _backtrack, tagged_category,
)
from .fixtures import _raise_if_invalid, _then, linctx_data
from .refsys import RefinementSystem


class MultiMorphism(NamedTuple):
    """A rule with a multiset of source formulas and one target formula.
    Sources are canonicalized: sorted by formula declaration order."""

    name: str
    source: tuple[str, ...]
    target: str


class TensorDecl:
    """A declared tensor A (x) B with its left-introduction bijection:
    `table` maps each rule consuming both A and B to the rule consuming
    A (x) B instead, and must be a bijection between those two rule sets."""

    __slots__ = ("left", "right", "tensor", "table")

    def __init__(self, left: str, right: str, tensor: str, table: dict[str, str]):
        self.left = left
        self.right = right
        self.tensor = tensor
        self.table = table


class MulticategorySpec:
    """Formulas and rules, with the identity rule of each formula named in
    `identities`.

    Rules compose only through identities: no non-identity rule consumes
    a formula that a non-identity rule produces (`validate_multicategory`).
    So a family of identities under a rule composes to that rule, a rule
    under an identity to that rule, and there is no other composite.
    """

    __slots__ = ("formulas", "multimorphisms", "identities", "tensors")

    def __init__(self, formulas, multimorphisms, identities, tensors=()):
        self.formulas: tuple[str, ...] = formulas
        self.multimorphisms: tuple[MultiMorphism, ...] = multimorphisms
        self.identities: dict[str, str] = identities
        self.tensors: tuple[TensorDecl, ...] = tensors


def validate_multicategory(mc: MulticategorySpec) -> ValidationReport:
    report = ValidationReport(subject="multicategory")
    if len(set(mc.formulas)) != len(mc.formulas):
        report.add("naming", "duplicate formulas")
        return report
    rules = {mm.name: mm for mm in mc.multimorphisms}
    if len(rules) != len(mc.multimorphisms):
        report.add("naming", "duplicate multimorphism names")
        return report
    order = {f: i for i, f in enumerate(mc.formulas)}
    for mm in mc.multimorphisms:
        if mm.target not in mc.formulas or not set(mm.source) <= set(mc.formulas):
            report.add("typing", f"{mm.name} mentions unknown formulas")
            return report
        if tuple(sorted(mm.source, key=order.get)) != mm.source:
            report.add(
                "canonical form",
                f"{mm.name} source is not sorted in formula order",
            )
    for X in mc.formulas:
        if X not in mc.identities:
            report.add("identities", f"no identity declared for {X}")
            continue
        one = rules.get(mc.identities[X])
        if one is None or one.source != (X,) or one.target != X:
            report.add("identities", f"identity of {X} has the wrong type")
    if report.violations:
        return report

    # Rules compose only through identities.
    ids = {mc.identities[X] for X in mc.formulas}
    proper = [mm for mm in mc.multimorphisms if mm.name not in ids]
    producer: dict[str, str] = {}
    for mm in proper:
        producer.setdefault(mm.target, mm.name)
    for mm in proper:
        for f in dict.fromkeys(mm.source):
            if f in producer:
                report.add(
                    "composition",
                    f"{mm.name} consumes {f}, which {producer[f]} produces",
                )

    for decl in mc.tensors:
        for f in (decl.left, decl.right, decl.tensor):
            if f not in mc.formulas:
                report.add("tensor declaration", f"unknown formula {f}")
                return report
        need = 2 if decl.left == decl.right else 1
        domain = [
            mm.name
            for mm in mc.multimorphisms
            if mm.source.count(decl.left) >= need and decl.right in mm.source
        ]
        codomain = [
            mm.name for mm in mc.multimorphisms if decl.tensor in mm.source
        ]
        if sorted(decl.table) != sorted(domain):
            report.add(
                "tensor bijection",
                f"table domain is not the rules consuming ({decl.left},{decl.right})",
            )
            continue
        if sorted(set(decl.table.values())) != sorted(codomain) or len(
            set(decl.table.values())
        ) != len(decl.table):
            report.add(
                "tensor bijection",
                f"table is not a bijection onto the rules consuming {decl.tensor}",
            )
            continue
        for src_name, dst_name in decl.table.items():
            src, dst = rules[src_name], rules[dst_name]
            reduced = list(src.source)
            reduced.remove(decl.left)
            reduced.remove(decl.right)
            reduced.append(decl.tensor)
            if dst.target != src.target or dst.source != tuple(
                sorted(reduced, key=order.get)
            ):
                report.add(
                    "tensor bijection",
                    f"{src_name} -> {dst_name} does not replace "
                    f"({decl.left},{decl.right}) by {decl.tensor}",
                )
    return report


def fin_skeleton(K: int) -> FinCategory:
    """The skeleton of finite sets up to size K: objects 0..K, morphisms
    all functions u : m -> n, tagged (m, n, u) with u written as its
    image tuple.  There are sum n^m of them over m, n <= K, counted
    before any is listed: 5,705 at K=5 and 82,207 at K=6, past
    SIZE_GUARD."""
    estimate = sum(n**m for m in range(K + 1) for n in range(K + 1))
    if estimate > SIZE_GUARD:
        raise SizeGuardExceeded(f"Fin<={K} has too many morphisms", estimate, SIZE_GUARD)
    tags = [
        (m, n, u)
        for m in range(K + 1)
        for n in range(K + 1)
        for u in itertools.product(range(n), repeat=m)
    ]
    return tagged_category(
        f"Fin<={K}",
        [str(n) for n in range(K + 1)],
        tags,
        [f"{m}>{n}[{','.join(map(str, u))}]" for m, n, u in tags],
        [(m, m, tuple(range(m))) for m in range(K + 1)],
        _then,
    )


def _rule_maps(by_type, prefixes, delta, gamma):
    """The maps u from the positions of delta to those of gamma that carry
    a family of rules, each with the rules at every position j of gamma
    for the formulas u sends to j, in `itertools.product` order.

    u is searched by `_backtrack`, one position of delta at a time: step
    i sends delta[i] to j and carries the fibres so far, and j is a
    candidate only while its fibre stays in `prefixes`, the prefixes
    (with their target) of the rule sources.  delta is sorted, so a fibre
    grows in sorted order and is a prefix of what it becomes; a full map
    is kept when every fibre, an empty one too, is a rule source."""
    empty = ((),) * len(gamma)

    def step(i: int, path):
        fibres = path[i - 1][1] if i else empty
        for j, tgt in enumerate(gamma):
            fibre = fibres[j] + (delta[i],)
            if (fibre, tgt) in prefixes:
                yield j, fibres[:j] + (fibre,) + fibres[j + 1 :]

    for path in _backtrack(len(delta), step, lambda _i, _path: True):
        fibres = path[-1][1] if path else empty
        choice = [by_type.get(key) for key in zip(fibres, gamma)]
        if None not in choice:
            yield tuple(j for j, _ in path), choice


def build_linctx(mc: MulticategorySpec, K: int) -> RefinementSystem:
    """Contexts of at most K formulas over the finite-set skeleton.

    A morphism Delta -> Gamma is a function u between the positions
    together with one rule per Gamma-position, consuming the formulas u
    sends there.  Rules compose only through identities
    (`validate_multicategory`), so a composite keeps, at each position,
    the outer rule unless it is an identity, and then the one inner rule
    under it.  The projection keeps u and the context sizes.  All
    category laws are re-validated after construction.
    """
    _raise_if_invalid(validate_multicategory(mc))
    for mm in mc.multimorphisms:
        if len(mm.source) > K:
            raise StructuralError(
                f"multimorphism {mm.name} needs a context of size {len(mm.source)} > K={K}"
            )
    T = fin_skeleton(K)
    u_index = T.mor_index
    fidx = {f: i for i, f in enumerate(mc.formulas)}
    contexts: list[tuple[int, ...]] = []
    for size in range(K + 1):
        contexts.extend(
            itertools.combinations_with_replacement(range(len(mc.formulas)), size)
        )
    ctx_index = {c: i for i, c in enumerate(contexts)}
    ctx_names = tuple(
        "[" + ",".join(mc.formulas[f] for f in ctx) + "]" for ctx in contexts
    )

    # rules indexed by (source, target), in declaration order; a source is
    # sorted in formula order (`validate_multicategory`), as a fibre is
    by_type: dict[tuple[tuple[int, ...], int], list[int]] = {}
    for k, mm in enumerate(mc.multimorphisms):
        key = (tuple(fidx[f] for f in mm.source), fidx[mm.target])
        by_type.setdefault(key, []).append(k)

    # (Delta, Gamma, u, one rule per position of Gamma)
    tags: list[tuple[int, int, tuple[int, ...], tuple[int, ...]]] = []
    prefixes = {(src[:i], tgt) for (src, tgt) in by_type for i in range(len(src) + 1)}
    for di, delta in enumerate(contexts):
        for gi, gamma in enumerate(contexts):
            for u, choice in _rule_maps(by_type, prefixes, delta, gamma):
                tags += [(di, gi, u, fam) for fam in itertools.product(*choice)]
    sizes = tuple(len(c) for c in contexts)
    u_of = [u_index[(sizes[di], sizes[gi], u)] for (di, gi, u, _) in tags]
    rule_names = [mm.name for mm in mc.multimorphisms]
    id_rule = [rule_names.index(mc.identities[f]) for f in mc.formulas]
    ids = set(id_rule)

    def combine(f, g):
        di, _, u, fam = f
        _, ti, v, gam = g
        out_fam = list(gam)
        for j2, k in enumerate(v):
            if gam[k] in ids:
                out_fam[k] = fam[j2]
        return (di, ti, tuple(v[x] for x in u), tuple(out_fam))

    D = tagged_category(
        "Ctx",
        ctx_names,
        tags,
        [
            f"{T.mor_names[k]}|{','.join(rule_names[r] for r in fam)}"
            for k, (_, _, _, fam) in zip(u_of, tags)
        ],
        [
            (di, di, tuple(range(len(delta))), tuple(id_rule[f] for f in delta))
            for di, delta in enumerate(contexts)
        ],
        combine,
    )
    t = FunctorData("size", D, T, sizes, tuple(u_of))
    sys = RefinementSystem("linctx", t)
    _raise_if_invalid(sys.validate())
    linctx_data(sys, (mc, K, ctx_index, u_index))
    return sys


def default_linear_spec() -> MulticategorySpec:
    """Four formulas, six rules: identities, pairing into the tensor, and
    a closed constant.  The tensor bijection sends pairing to the tensor
    identity."""
    return MulticategorySpec(
        formulas=("A", "B", "A*B", "C"),
        multimorphisms=(
            MultiMorphism("1A", ("A",), "A"),
            MultiMorphism("1B", ("B",), "B"),
            MultiMorphism("1T", ("A*B",), "A*B"),
            MultiMorphism("1C", ("C",), "C"),
            MultiMorphism("pair", ("A", "B"), "A*B"),
            MultiMorphism("k", (), "C"),
        ),
        identities={"A": "1A", "B": "1B", "A*B": "1T", "C": "1C"},
        tensors=(TensorDecl("A", "B", "A*B", {"pair": "1T"}),),
    )
