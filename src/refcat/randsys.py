"""Seeded random refinement systems for property tests."""

from __future__ import annotations

import random

from .fincat import FinCategory, FunctorData, StructuralError, tagged_category
from .fixtures import _then
from .refsys import RefinementSystem


# Bounds of the generator, small enough to keep every derived
# construction exhaustively checkable: objects of T and of D, morphisms
# per hom-set, elements per carrier, generating arrows per category, and
# draws per seed.
T_OBJECTS, D_OBJECTS, HOM_BOUND, CARRIER, GENERATORS, RETRIES = 3, 6, 3, 3, 3, 80


def _close_concrete(name: str, objects: list[str], ids, seeds, hom_bound, combine) -> FinCategory | None:
    """Close a set of concrete arrows under composition.

    Arrows are tags (dom, cod, data): ids[a] is the identity of object a,
    and combine(f, g) is the tag of f;g, associative by construction.
    Identities are added first, so arrow a is the identity of object a.
    Returns the category of the arrows, arrow i named `{name.lower()}{i}`,
    or None when a hom-set overflows the bound."""
    arrows: list[tuple[int, int, tuple]] = []
    index: dict[tuple[int, int, tuple], int] = {}
    hom_count: dict[tuple[int, int], int] = {}

    def add(tag):
        if tag in index:
            return None
        if hom_count.get(tag[:2], 0) >= hom_bound:
            return False
        index[tag] = len(arrows)
        arrows.append(tag)
        hom_count[tag[:2]] = hom_count.get(tag[:2], 0) + 1
        return index[tag]

    for tag in (*ids, *seeds):
        if add(tag) is False:
            return None
    frontier = list(range(len(arrows)))
    while frontier:
        fresh = []
        snapshot = len(arrows)
        for i in frontier:
            for j in range(snapshot):
                for f, g in ((arrows[i], arrows[j]), (arrows[j], arrows[i])):
                    if f[1] != g[0]:
                        continue
                    got = add(combine(f, g))
                    if got is False:
                        return None
                    if got is not None:
                        fresh.append(got)
        frontier = fresh
    mor_names = [f"{name.lower()}{i}" for i in range(len(arrows))]
    return tagged_category(name, objects, arrows, mor_names, ids, combine)


def _try_random(rng: random.Random):
    nt = rng.randint(1, T_OBJECTS)
    t_car = [rng.randint(1, CARRIER) for _ in range(nt)]
    seeds = []
    for _ in range(rng.randint(0, GENERATORS)):
        a, b = rng.randrange(nt), rng.randrange(nt)
        seeds.append((a, b, tuple(rng.randrange(t_car[b]) for _ in range(t_car[a]))))
    t_ids = [(a, a, tuple(range(k))) for a, k in enumerate(t_car)]
    T = _close_concrete("T", [f"X{a}" for a in range(nt)], t_ids, seeds, HOM_BOUND, _then)
    if T is None:
        return None

    nd = rng.randint(1, D_OBJECTS)
    shape = [rng.randrange(nt) for _ in range(nd)]
    d_car = [rng.randint(1, CARRIER) for _ in range(nd)]
    d_seeds = []
    for _ in range(rng.randint(0, GENERATORS)):
        P, Q = rng.randrange(nd), rng.randrange(nd)
        over = T.hom(shape[P], shape[Q])
        if not over:
            continue
        u = over[rng.randrange(len(over))]
        e = tuple(rng.randrange(d_car[Q]) for _ in range(d_car[P]))
        d_seeds.append((P, Q, (u, e)))

    # arrows carry their base morphism; composition pairs the base
    # composite with the function composite, so laws hold by construction
    def combine_d(f, g):
        (u, e), (u2, e2) = f[2], g[2]
        return (f[0], g[1], (T.compose(u, u2), tuple(e2[x] for x in e)))

    d_ids = [(P, P, (T.id_of(shape[P]), tuple(range(d_car[P])))) for P in range(nd)]
    D = _close_concrete("D", [f"P{P}" for P in range(nd)], d_ids, d_seeds, HOM_BOUND, combine_d)
    if D is None:
        return None
    t = FunctorData("proj", D, T, tuple(shape), tuple(data[0] for (_, _, data) in D.mor_tags))
    return RefinementSystem("random", t)


def random_refsys(seed: int) -> RefinementSystem:
    """A small random refinement system, deterministic in the seed.

    Both categories are built as concrete categories (objects carry
    finite sets, morphisms carry functions) closed under composition, so
    the laws are inherited and nothing is swept; the projection forgets
    the extra data.  Samples whose hom-sets overflow HOM_BOUND are
    rejected and redrawn, up to RETRIES draws."""
    rng = random.Random(seed)
    for _ in range(RETRIES):
        sys = _try_random(rng)
        if sys is not None:
            return sys
    raise StructuralError(
        f"no valid system within {RETRIES} draws for seed {seed}"
    )
