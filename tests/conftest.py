"""Shared fixtures.  Everything expensive is session scoped."""

import pytest
from hypothesis import settings

from refcat.fincat import FinCategory, FunctorData
from refcat.fixtures import (
    build_hoare,
    build_linctx,
    collapse_lattice_fixture,
    default_hoare_spec,
    default_linear_spec,
    galois_fixture,
    identity_lattice_fixture,
)
from refcat.refsys import RefinementSystem

# Deterministic example selection so test output is reproducible run to run.
settings.register_profile("repro", derandomize=True, max_examples=40)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def hoare():
    return build_hoare(default_hoare_spec())


@pytest.fixture(scope="session")
def linctx():
    return build_linctx(default_linear_spec(), 3)


@pytest.fixture(scope="session")
def collapse():
    return collapse_lattice_fixture()


@pytest.fixture(scope="session")
def ident():
    return identity_lattice_fixture()


@pytest.fixture(scope="session")
def galois():
    return galois_fixture()


# Hand-derived transition table for the default two-state machine: `swap`
# exchanges the states, `set0` forces s0, and their only composite up to
# equality forces s1.  Everything downstream (images, preimages, slice sizes)
# is recomputed from this table, never from the library.
HOARE_FN = {
    "id": {"s0": "s0", "s1": "s1"},
    "set0": {"s0": "s0", "s1": "s0"},
    "swap": {"s0": "s1", "s1": "s0"},
    "set0;swap": {"s0": "s1", "s1": "s1"},
}


def pred_set(name):
    """Parse a predicate name like '{s0,s1}' into a frozenset of states."""
    inner = name.strip("{}")
    return frozenset(s for s in inner.split(",") if s)


def pred_name(states):
    return "{" + ",".join(sorted(states)) + "}"


def image_oracle(c, P):
    return frozenset(HOARE_FN[c][s] for s in P)


def preimage_oracle(c, Q):
    return frozenset(s for s in ("s0", "s1") if HOARE_FN[c][s] in Q)


def dmor(sys, name):
    """Index of a refinement-side morphism by printed name."""
    return sys.D.mor_names.index(name)


def dobj(sys, name):
    return sys.D.objects.index(name)


def tmor(sys, name):
    return sys.T.mor_names.index(name)


def judgments(sys):
    """All valid judgments (P, c, Q) of sys, derivable or not, in
    (P, Q, c) index order."""
    for P in range(sys.D.n_objects):
        for Q in range(sys.D.n_objects):
            for c in sys.T.hom(sys.shape(P), sys.shape(Q)):
                yield (P, c, Q)


def bang_system(cat):
    """A category over the point: refinements of a single shape.

    Slices of the result are the category again and judgments are plain
    hom-sets, so presheaf-level facts can be compared against their
    unrefined counterparts."""
    pt = FinCategory("pt", ("*",), (("id*", 0, 0),), (0,), {(0, 0): 0})
    t = FunctorData(f"!{cat.name}", cat, pt, (0,) * cat.n_objects, (0,) * cat.n_morphisms)
    return RefinementSystem(f"bang({cat.name})", t)
