"""Type refinement systems as functors between finite categories.

The library computes with refinement systems t : D -> T presented by
explicit composition tables: derivability, subtyping, pullback and
pushforward lifts, positive and negative presheaf representations over
slice-style categories of refined contexts, and the dualisation maps
between them.  Every theorem-level fact ships with a verification
routine returning a CheckReport, and the bundled fixtures (a Hoare-style
state system, a resource-counting sequent system, lattice collapses, and
a Galois adjunction between them) exercise all of them.
"""

from .duality import (
    dual_adjunction_check,
    dual_cross_check,
    dual_left,
    dual_right,
    duality_check,
    negative_encoding_check,
    notnottensor_check,
    notpush_check,
)
from .fincat import (
    FinCategory,
    FunctorData,
    NatTransData,
    SizeGuardExceeded,
    StructuralError,
    ValidationReport,
)
from .fixtures import (
    HoareSpec,
    LatticeSpec,
    MulticategorySpec,
    MultiMorphism,
    RandomBounds,
    TensorDecl,
    bang_system,
    build_hoare,
    build_lattice,
    build_linctx,
    collapse_lattice_fixture,
    default_hoare_spec,
    default_linear_spec,
    fin_skeleton,
    galois_fixture,
    hoare_sp,
    hoare_wp,
    identity_lattice_fixture,
    random_refsys,
    tensorL_check,
    validate_multicategory,
)
from .psh import Presheaf, PshDerivation, pull_psh, push_psh
from .refsys import (
    LiftCertificate,
    MonoidalRefinementSystem,
    MonoidalStructure,
    RefinementSystem,
    RefSysAdjunction,
    RefSysMorphism,
    adjunction_check,
    find_pullback,
    find_pushforward,
    rapp_check,
)
from .reports import CheckReport
from .represent import (
    MonoidObject,
    coslice_of,
    factorization_check,
    genday_check,
    monoid_lax_check,
    neg_rep,
    pos_rep,
    preservation_check,
    representation_ff_check,
    slice_of,
)
from .textio import LoadError, Workspace, load, loads

__all__ = [
    "FinCategory",
    "FunctorData",
    "NatTransData",
    "SizeGuardExceeded",
    "StructuralError",
    "ValidationReport",
    "LiftCertificate",
    "MonoidalRefinementSystem",
    "MonoidalStructure",
    "RefinementSystem",
    "RefSysAdjunction",
    "RefSysMorphism",
    "adjunction_check",
    "find_pullback",
    "find_pushforward",
    "rapp_check",
    "CheckReport",
    "Presheaf",
    "PshDerivation",
    "pull_psh",
    "push_psh",
    "MonoidObject",
    "slice_of",
    "coslice_of",
    "pos_rep",
    "neg_rep",
    "representation_ff_check",
    "preservation_check",
    "factorization_check",
    "genday_check",
    "monoid_lax_check",
    "dual_left",
    "dual_right",
    "dual_cross_check",
    "duality_check",
    "dual_adjunction_check",
    "negative_encoding_check",
    "notpush_check",
    "notnottensor_check",
    "HoareSpec",
    "MultiMorphism",
    "MulticategorySpec",
    "TensorDecl",
    "LatticeSpec",
    "RandomBounds",
    "build_hoare",
    "hoare_sp",
    "hoare_wp",
    "default_hoare_spec",
    "build_linctx",
    "default_linear_spec",
    "validate_multicategory",
    "tensorL_check",
    "fin_skeleton",
    "build_lattice",
    "collapse_lattice_fixture",
    "identity_lattice_fixture",
    "galois_fixture",
    "random_refsys",
    "bang_system",
    "Workspace",
    "LoadError",
    "load",
    "loads",
]

__version__ = "0.1.0"
