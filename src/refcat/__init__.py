"""Type refinement systems as functors between finite categories.

The library computes with refinement systems t : D -> T presented by
explicit composition tables: derivability, subtyping, pullback and
pushforward lifts, positive and negative presheaf representations over
slice-style categories of refined contexts, and the dualisation maps
between them.  Every theorem-level fact ships with a verification
routine returning a CheckReport, and the bundled fixtures (a Hoare-style
state system, a resource-counting sequent system, lattice collapses, and
a Galois adjunction between them) exercise all of them.

Importing the package executes none of its layers.  Each layer module is
registered in `sys.modules` and as an attribute of the package, and is
compiled and run when one of its attributes is first read; the public
names below resolve through the layer that defines them.
"""

import importlib.util as _util
import sys as _sys

# layer module -> the public names it defines
_PUBLIC = {
    "fincat": """FinCategory FunctorData NatTransData SizeGuardExceeded
        StructuralError ValidationReport""",
    "refsys": """LiftCertificate MonoidalRefinementSystem MonoidalStructure
        MonoidObject RefinementSystem RefSysAdjunction RefSysMorphism
        adjunction_check find_pullback find_pushforward rapp_check""",
    "reports": "CheckReport",
    "psh": "Presheaf PshDerivation pull_psh push_psh",
    "represent": """slice_of coslice_of pos_rep neg_rep
        representation_ff_check preservation_check factorization_check
        genday_check monoid_lax_check""",
    "duality": """dual_left dual_right dual_cross_check duality_check
        dual_adjunction_check negative_encoding_check notpush_check
        notnottensor_check tensorL_check""",
    "fixtures": """HoareSpec MultiMorphism MulticategorySpec TensorDecl
        LatticeSpec RandomBounds build_hoare hoare_sp hoare_wp
        default_hoare_spec build_linctx default_linear_spec
        validate_multicategory fin_skeleton build_lattice
        collapse_lattice_fixture identity_lattice_fixture galois_fixture
        random_refsys bang_system""",
    "textio": "Workspace LoadError load loads",
}
_HOME = {name: layer for layer, names in _PUBLIC.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def _register(layer: str):
    """The layer module, bound in `sys.modules` but not yet executed
    (the `importlib.util.LazyLoader` recipe)."""
    spec = _util.find_spec(f"{__name__}.{layer}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in _PUBLIC:
    globals()[_layer] = _register(_layer)
del _layer


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
