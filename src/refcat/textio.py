"""Line-oriented text format for workspaces.

A file is a sequence of blocks.  A block starts with one of the keywords
`category`, `functor`, `refsys`, `presheaf`, `fixture` and owns every
following line up to the next keyword.  Tokens are whitespace-separated;
punctuation (`:`, `->`, `=`, `;`) must be surrounded by spaces.  Blank
lines and `#` comments are ignored.

    category C
      objects a b
      mor f : a -> b
      id ida : a            # optional; missing identities are created
      compose f ; g = h     # required for all non-identity pairs

    functor F : C -> D
      obj a = x
      mor f = u             # identity images are filled in

    refsys S : F

    presheaf phi : C
      at a : e1 e2
      act f : e1 = e2       # action of f sends e1 (at cod f) to e2 (at dom f)

    fixture h hoare         # builder fixtures: hoare, linctx K=N,
                            # lattice-collapse, lattice-identity,
                            # galois, random seed=N

Loading is atomic: nothing is registered unless the whole file parses
and every value validates.  The `category`, `functor` and `presheaf`
blocks are parsed in `blocks`, and each fixture kind is built by the
module `FIXTURE_KINDS` names, so a workspace compiles the parsers and
builders it uses.  The text and JSON forms are written by `render`.
"""

from __future__ import annotations

from importlib import import_module

from . import blocks
from .fincat import SizeGuardExceeded, StructuralError
from .refsys import RefinementSystem

_BLOCK_KEYWORDS = ("category", "functor", "refsys", "presheaf", "fixture")

# Every builder fixture kind: the module that builds it, and the
# parameters it accepts.
FIXTURE_KINDS = {
    "hoare": ("hoare", ()),
    "linctx": ("linctx", ("K",)),
    "lattice-collapse": ("lattice", ()),
    "lattice-identity": ("lattice", ()),
    "galois": ("lattice", ()),
    "random": ("randsys", ("seed",)),
}


class LoadError(Exception):
    """A parse or validation failure, located by file and line; line 0
    stands for the whole file."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}" if line else f"{path}: {message}")
        self.path = path
        self.line = line
        self.message = message


class Workspace:
    """Named values with provenance; names are unique across kinds."""

    __slots__ = (
        "categories", "functors", "systems", "presheaves",
        "monoidal", "monoids", "adjunctions", "provenance",
    )

    def __init__(self) -> None:
        self.categories: dict[str, FinCategory] = {}
        self.functors: dict[str, FunctorData] = {}
        self.systems: dict[str, RefinementSystem] = {}
        self.presheaves: dict[str, Presheaf] = {}
        self.monoidal: dict[str, MonoidalRefinementSystem] = {}
        self.monoids: dict[str, tuple[MonoidObject, ...]] = {}
        self.adjunctions: dict[str, RefSysAdjunction] = {}
        self.provenance: dict[str, str] = {}

    def claim(self, name: str, where: str) -> None:
        if name in self.provenance:
            raise ValueError(f"name {name!r} already defined at {self.provenance[name]}")
        self.provenance[name] = where

    def the_system(self, name: str | None) -> RefinementSystem:
        """The named system, or the only one when the name is omitted."""
        if name is not None:
            if name not in self.systems:
                raise KeyError(f"unknown system {name!r}")
            return self.systems[name]
        if not self.systems:
            raise KeyError("workspace defines no refinement system")
        if len(self.systems) != 1:
            raise KeyError(
                f"workspace has {len(self.systems)} systems; pick one with --system"
            )
        return next(iter(self.systems.values()))


def _scan_blocks(text: str, path: str):
    found: list[tuple[int, list[str], list[tuple[int, list[str]]]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] in _BLOCK_KEYWORDS:
            found.append((lineno, tokens, []))
        elif not found:
            raise LoadError(path, lineno, f"expected a block keyword, got {tokens[0]!r}")
        else:
            found[-1][2].append((lineno, tokens))
    return found


def _expect(cond: bool, path: str, lineno: int, message: str) -> None:
    if not cond:
        raise LoadError(path, lineno, message)


def _parse_params(tokens, path, lineno) -> dict[str, int]:
    params = {}
    for tok in tokens:
        _expect("=" in tok, path, lineno, f"expected key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        _expect(key not in params, path, lineno, f"parameter {key} given twice")
        try:
            params[key] = int(value)
        except ValueError:
            raise LoadError(path, lineno, f"parameter {key} must be an integer") from None
    return params


def build_fixture(ws: Workspace, name: str, kind: str, params: dict[str, int], where: str) -> None:
    """Construct a named builder fixture into the workspace."""
    if kind not in FIXTURE_KINDS:
        raise ValueError(f"unknown fixture kind {kind!r} (one of {', '.join(FIXTURE_KINDS)})")
    module, accepts = FIXTURE_KINDS[kind]
    for key in params:
        if key not in accepts:
            listed = ", ".join(accepts) or "none"
            raise ValueError(f"fixture {kind} has no parameter {key!r} (accepts: {listed})")
    fx = import_module(f".{module}", __package__)
    if kind == "hoare":
        ws.claim(name, where)
        ws.systems[name] = fx.build_hoare(fx.default_hoare_spec())
    elif kind == "linctx":
        ws.claim(name, where)
        ws.systems[name] = fx.build_linctx(fx.default_linear_spec(), params.get("K", 3))
    elif kind in ("lattice-collapse", "lattice-identity"):
        ls = (
            fx.collapse_lattice_fixture()
            if kind == "lattice-collapse"
            else fx.identity_lattice_fixture()
        )
        ws.claim(name, where)
        ws.systems[name] = ls.sys
        ws.monoidal[name] = ls.mrs
        ws.monoids[name] = ls.monoids
    elif kind == "galois":
        adj = fx.galois_fixture()
        ws.claim(name, where)
        ws.claim(f"{name}.e", where)
        ws.systems[name] = adj.s
        ws.systems[f"{name}.e"] = adj.e
        ws.adjunctions[name] = adj
    else:
        ws.claim(name, where)
        ws.systems[name] = fx.random_refsys(params.get("seed", 0))


def loads(text: str, path: str = "<string>") -> Workspace:
    """Parse and validate a workspace from text; all-or-nothing."""
    ws = Workspace()
    for header_line, header, body in _scan_blocks(text, path):
        where = f"{path}:{header_line}"
        kind = header[0]
        try:
            if kind == "category":
                _expect(len(header) == 2, path, header_line, "expected: category NAME")
                ws.claim(header[1], where)
                ws.categories[header[1]] = blocks.build_category(header[1], header_line, body, path)
            elif kind == "functor":
                _expect(
                    len(header) == 6 and header[2] == ":" and header[4] == "->",
                    path,
                    header_line,
                    "expected: functor NAME : CAT -> CAT",
                )
                for cname in (header[3], header[5]):
                    _expect(cname in ws.categories, path, header_line, f"unknown category {cname}")
                ws.claim(header[1], where)
                ws.functors[header[1]] = blocks.build_functor(
                    header[1],
                    header_line,
                    ws.categories[header[3]],
                    ws.categories[header[5]],
                    body,
                    path,
                )
            elif kind == "refsys":
                _expect(
                    len(header) == 4 and header[2] == ":" and not body,
                    path,
                    header_line,
                    "expected a bodyless line: refsys NAME : FUNCTOR",
                )
                _expect(header[3] in ws.functors, path, header_line, f"unknown functor {header[3]}")
                ws.claim(header[1], where)
                ws.systems[header[1]] = RefinementSystem(header[1], ws.functors[header[3]])
            elif kind == "presheaf":
                _expect(
                    len(header) == 4 and header[2] == ":",
                    path,
                    header_line,
                    "expected: presheaf NAME : CAT",
                )
                _expect(header[3] in ws.categories, path, header_line, f"unknown category {header[3]}")
                ws.claim(header[1], where)
                ws.presheaves[header[1]] = blocks.build_presheaf(
                    header[1], header_line, ws.categories[header[3]], body, path
                )
            elif kind == "fixture":
                _expect(len(header) >= 3, path, header_line, "expected: fixture NAME KIND [key=value ...]")
                _expect(not body, path, header_line, "fixture blocks have no body")
                params = _parse_params(header[3:], path, header_line)
                build_fixture(ws, header[1], header[2], params, where)
        except (ValueError, KeyError, StructuralError, SizeGuardExceeded) as exc:
            raise LoadError(path, header_line, str(exc)) from None
    return ws


def load(path: str) -> Workspace:
    """Read and load a workspace file.  A file that cannot be read, or is
    not UTF-8 text, is a load error of the whole file (line 0)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise LoadError(path, 0, exc.strerror or str(exc)) from None
    except UnicodeDecodeError as exc:
        raise LoadError(path, 0, f"not UTF-8 text at byte {exc.start}") from None
    return loads(text, path)
