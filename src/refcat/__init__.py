"""Type refinement systems as functors between finite categories.

The library computes with refinement systems t : D -> T presented by
explicit composition tables: derivability, subtyping, pullback and
pushforward lifts, positive and negative presheaf representations over
slice-style categories of refined contexts, and the dualisation maps
between them.  Every theorem-level fact ships with a verification
routine returning a CheckReport, and the bundled fixtures (a Hoare-style
state system, a resource-counting sequent system, lattice collapses, and
a Galois adjunction between them) exercise all of them.

Importing the package executes none of its modules.  Each one is
registered in `sys.modules` and as an attribute of the package, and is
compiled and run when one of its attributes is first read, so
`from . import render` binds a module without running it.  The public
names below resolve through the module that defines them; `fixtures`
also resolves those of its four families.
"""

import importlib.util as _util
import sys as _sys

# every module but the entry points `cli` and `__main__` -> the public
# names it defines
_PUBLIC = {
    "fincat": """FinCategory FunctorData NatTransData SizeGuardExceeded
        StructuralError ValidationReport""",
    "refsys": """LiftCertificate RefinementSystem RefSysMorphism find_pullback
        find_pushforward rapp_check""",
    "monoidal": "MonoidalRefinementSystem MonoidalStructure MonoidObject",
    "adjunction": "RefSysAdjunction adjunction_check",
    "reports": "CheckReport",
    "psh": "Presheaf PshDerivation pull_psh push_psh",
    "represent": """slice_of coslice_of pos_rep neg_rep
        representation_ff_check preservation_check factorization_check""",
    "day": "genday_check monoid_lax_check notnottensor_check",
    "duality": """dual_left dual_right duality_check negative_encoding_check
        tensorL_check""",
    "fixtures": "",
    "hoare": "HoareSpec build_hoare hoare_sp hoare_wp default_hoare_spec",
    "linctx": """MultiMorphism MulticategorySpec TensorDecl build_linctx
        default_linear_spec validate_multicategory fin_skeleton""",
    "lattice": """LatticeSpec build_lattice collapse_lattice_fixture
        identity_lattice_fixture galois_fixture""",
    "randsys": "RandomBounds random_refsys",
    "textio": "Workspace LoadError load loads",
    "blocks": "", "render": "", "suites": "",
}
_HOME = {name: layer for layer, names in _PUBLIC.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def _register(layer: str):
    """The module, bound in `sys.modules` but not yet executed (the
    `importlib.util.LazyLoader` recipe)."""
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
