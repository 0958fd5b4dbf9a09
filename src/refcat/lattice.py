"""Monotone lattice maps as posetal monoidal systems, with every element
a monoid via idempotent meet, and a Galois connection lifted to a full
adjunction of systems."""

from __future__ import annotations

from typing import NamedTuple

from .fincat import (
    FinCategory, FunctorData, StructuralError, compose_functors, identity_functor, tagged_category,
)
from .monoidal import MonoidalRefinementSystem, MonoidalStructure, MonoidObject, product
from .refsys import RefinementSystem, RefSysMorphism


class LatticeSpec(NamedTuple):
    """A finite meet-semilattice with top, as elements and the full order
    relation (pairs (x, y) with x <= y, reflexive and transitive)."""

    name: str
    elements: tuple[str, ...]
    leq: frozenset[tuple[str, str]]


def powerset_lattice(atoms: tuple[str, ...]) -> LatticeSpec:
    elems = []
    sets = []
    for mask in range(1 << len(atoms)):
        members = tuple(a for i, a in enumerate(atoms) if mask >> i & 1)
        sets.append(frozenset(members))
        elems.append("{" + ",".join(members) + "}")
    leq = frozenset(
        (elems[i], elems[j])
        for i in range(len(elems))
        for j in range(len(elems))
        if sets[i] <= sets[j]
    )
    return LatticeSpec(f"P({','.join(atoms)})", tuple(elems), leq)


def chain_lattice(n: int) -> LatticeSpec:
    elems = tuple(f"c{i}" for i in range(n))
    leq = frozenset((elems[i], elems[j]) for i in range(n) for j in range(i, n))
    return LatticeSpec(f"chain{n}", elems, leq)


def _lattice_tables(spec: LatticeSpec):
    """Index the order, compute binary meets and the top element.
    Rejects non-posets and posets without meets or top."""
    idx = {e: i for i, e in enumerate(spec.elements)}
    n = len(spec.elements)
    leq = [[False] * n for _ in range(n)]
    for x, y in spec.leq:
        leq[idx[x]][idx[y]] = True
    for i in range(n):
        if not leq[i][i]:
            raise StructuralError(f"{spec.name}: order not reflexive at {spec.elements[i]}")
        for j in range(n):
            if leq[i][j] and leq[j][i] and i != j:
                raise StructuralError(f"{spec.name}: order not antisymmetric")
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    raise StructuralError(f"{spec.name}: order not transitive")
    meet = {}
    for i in range(n):
        for j in range(n):
            lower = [k for k in range(n) if leq[k][i] and leq[k][j]]
            best = [k for k in lower if all(leq[m][k] for m in lower)]
            if len(best) != 1:
                raise StructuralError(
                    f"{spec.name}: no meet of {spec.elements[i]} and {spec.elements[j]}"
                )
            meet[(i, j)] = best[0]
    tops = [i for i in range(n) if all(leq[j][i] for j in range(n))]
    if len(tops) != 1:
        raise StructuralError(f"{spec.name}: no top element")
    return idx, leq, meet, tops[0]


def _lattice_category(spec: LatticeSpec):
    """The order as a category: a morphism tagged (i, j) for each i <= j."""
    idx, leq, meet, top = _lattice_tables(spec)
    n = len(spec.elements)
    tags = [(i, j) for i in range(n) for j in range(n) if leq[i][j]]
    cat = tagged_category(
        spec.name,
        spec.elements,
        tags,
        [f"{spec.elements[i]}<={spec.elements[j]}" for i, j in tags],
        [(i, i) for i in range(n)],
        lambda f, g: (f[0], g[1]),
    )
    return cat, idx, meet, top


def _meet_monoid(cat: FinCategory, meet, top) -> MonoidalStructure:
    """Meet as a tensor: a <= b and c <= d give a meet c <= b meet d."""
    dom, cod, mindex = cat.mor_dom, cat.mor_cod, cat.mor_index
    return MonoidalStructure(
        product(cat, cat),
        top,
        lambda a, b: meet[a, b],
        lambda f, g: mindex[meet[dom[f], dom[g]], meet[cod[f], cod[g]]],
    )


class LatticeSystem:
    """A monotone meet-preserving map as a monoidal refinement system,
    with every element carrying its idempotent-meet monoid structure.
    The indexes map element names to the objects of the refinement and
    base categories; their morphisms are tagged by order pairs (i, j)."""

    __slots__ = ("mrs", "monoids", "ref_index", "base_index")

    def __init__(self, mrs, monoids, ref_index, base_index):
        self.mrs: MonoidalRefinementSystem = mrs
        self.monoids: tuple[MonoidObject, ...] = monoids
        self.ref_index, self.base_index = ref_index, base_index

    @property
    def sys(self) -> RefinementSystem:
        return self.mrs.sys


def build_lattice(src: LatticeSpec, tgt: LatticeSpec, t_map: dict[str, str]) -> LatticeSystem:
    """A lattice map as a refinement system with meet as tensor.

    The map must be monotone and preserve binary meets and the top
    element, so the projection is strict monoidal.  Residuals, where the
    target lattice has them, are found by search, and every element is a
    monoid object through its idempotent meet.  Only the specs and the
    map are checked: the orders compose their pairs, and the meets exist
    (`_lattice_tables`), so the categories, the meet tensors and the
    monoids are lawful as built and none is swept."""
    D, didx, dmeet, dtop = _lattice_category(src)
    T, tidx, tmeet, ttop = _lattice_category(tgt)
    if sorted(t_map) != sorted(src.elements):
        raise StructuralError("t_map is not total on the source lattice")
    obj_map = []
    for e in src.elements:
        if t_map[e] not in tidx:
            raise StructuralError(f"t_map sends {e} outside the target lattice")
        obj_map.append(tidx[t_map[e]])
    t = _poset_functor(f"{src.name}->{tgt.name}", D, T, obj_map, "t_map")
    for (i, j), m in dmeet.items():
        if tmeet[(obj_map[i], obj_map[j])] != obj_map[m]:
            raise StructuralError(
                f"t_map does not preserve the meet of {src.elements[i]} "
                f"and {src.elements[j]}"
            )
    if obj_map[dtop] != ttop:
        raise StructuralError("t_map does not preserve the top element")
    sys = RefinementSystem(f"{src.name}/{tgt.name}", t)
    mrs = MonoidalRefinementSystem(sys, _meet_monoid(D, dmeet, dtop), _meet_monoid(T, tmeet, ttop))
    tmors = T.mor_index
    monoids = tuple(
        MonoidObject(
            mrs,
            W,
            tmors[(W, W)],
            tmors[(ttop, W)] if W == ttop else None,
        )
        for W in range(T.n_objects)
    )
    return LatticeSystem(mrs, monoids, didx, tidx)


def collapse_lattice_fixture() -> LatticeSystem:
    """The two-atom powerset collapsed onto a three-chain: counts atoms,
    except that the first atom is invisible."""
    return build_lattice(
        powerset_lattice(("a", "b")),
        chain_lattice(3),
        {"{}": "c0", "{a}": "c0", "{b}": "c1", "{a,b}": "c2"},
    )


def identity_lattice_fixture(atoms: tuple[str, ...] = ("a", "b")) -> LatticeSystem:
    """A powerset over itself: every hypothesis holds strictly."""
    spec = powerset_lattice(atoms)
    return build_lattice(spec, spec, {e: e for e in spec.elements})


def _poset_functor(name: str, src: FinCategory, tgt: FinCategory, obj_map, what: str = "") -> FunctorData:
    """The functor between orders (`_lattice_category`) that maps objects
    by obj_map, so each i <= j to obj_map[i] <= obj_map[j]; raises, naming
    the map as `what` (else `name`), where that is no order pair."""
    mor_map = []
    for i, j in src.mor_tags:
        f = tgt.mor_index.get((obj_map[i], obj_map[j]))
        if f is None:
            raise StructuralError(
                f"{what or name} is not monotone at {src.objects[i]} <= {src.objects[j]}"
            )
        mor_map.append(f)
    return FunctorData(name, src, tgt, tuple(obj_map), tuple(mor_map))


def galois_fixture() -> RefSysAdjunction:
    """A Galois connection between the collapse system and the identity
    two-chain system, lifted to an adjunction of refinement systems.

    The left adjoint truncates (zero stays low, everything else goes
    high); the right adjoint picks the largest element sent low or high.
    Units and counits are the order witnesses.  Only this builder reads
    the adjunction module."""
    from .adjunction import NatTransData, RefSysAdjunction

    s = collapse_lattice_fixture()
    e = build_lattice(chain_lattice(2), chain_lattice(2), {"c0": "c0", "c1": "c1"})
    sD, sT = s.sys.D, s.sys.T
    eD, eT = e.sys.D, e.sys.T

    f_t_obj = [e.base_index[x] for x in ("c0", "c1", "c1")]
    F_T = _poset_functor("F_T", sT, eT, f_t_obj)
    f_d_obj = [f_t_obj[s.sys.shape(P)] for P in range(sD.n_objects)]
    F_D = _poset_functor("F_D", sD, eD, f_d_obj)

    g_t_obj = [s.base_index[x] for x in ("c0", "c2")]
    G_T = _poset_functor("G_T", eT, sT, g_t_obj)
    g_d_obj = [s.ref_index[x] for x in ("{a}", "{a,b}")]
    G_D = _poset_functor("G_D", eD, sD, g_d_obj)

    left = RefSysMorphism("F", s.sys, e.sys, F_D, F_T)
    right = RefSysMorphism("G", e.sys, s.sys, G_D, G_T)

    unit_ref = NatTransData(
        "eta",
        identity_functor(sD),
        compose_functors(F_D, G_D),
        tuple(sD.mor_index[P, g_d_obj[f_d_obj[P]]] for P in range(sD.n_objects)),
    )
    counit_ref = NatTransData(
        "eps",
        compose_functors(G_D, F_D),
        identity_functor(eD),
        tuple(eD.mor_index[f_d_obj[g_d_obj[R]], R] for R in range(eD.n_objects)),
    )
    unit_base = NatTransData(
        "eta0",
        identity_functor(sT),
        compose_functors(F_T, G_T),
        tuple(sT.mor_index[X, g_t_obj[f_t_obj[X]]] for X in range(sT.n_objects)),
    )
    counit_base = NatTransData(
        "eps0",
        compose_functors(G_T, F_T),
        identity_functor(eT),
        tuple(eT.mor_index[f_t_obj[g_t_obj[Y]], Y] for Y in range(eT.n_objects)),
    )
    return RefSysAdjunction(
        name="galois",
        left=left,
        right=right,
        unit_ref=unit_ref,
        counit_ref=counit_ref,
        unit_base=unit_base,
        counit_base=counit_base,
    )
