"""Line-oriented text format for workspaces, plus a JSON mirror.

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
and every value validates.
"""

from __future__ import annotations

from .fincat import (
    FinCategory,
    FunctorData,
    SizeGuardExceeded,
    StructuralError,
    validate_functor,
)
from .refsys import RefinementSystem
from . import fixtures as fx

_BLOCK_KEYWORDS = ("category", "functor", "refsys", "presheaf", "fixture")

# Every builder fixture kind, with the parameters it accepts.
FIXTURE_KINDS = {
    "hoare": (),
    "linctx": ("K",),
    "lattice-collapse": (),
    "lattice-identity": (),
    "galois": (),
    "random": ("seed",),
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
        if len(self.systems) != 1:
            raise KeyError(
                f"workspace has {len(self.systems)} systems; pick one with --system"
            )
        return next(iter(self.systems.values()))


def _scan_blocks(text: str, path: str):
    blocks: list[tuple[int, list[str], list[tuple[int, list[str]]]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] in _BLOCK_KEYWORDS:
            blocks.append((lineno, tokens, []))
        elif not blocks:
            raise LoadError(path, lineno, f"expected a block keyword, got {tokens[0]!r}")
        else:
            blocks[-1][2].append((lineno, tokens))
    return blocks


def _expect(cond: bool, path: str, lineno: int, message: str) -> None:
    if not cond:
        raise LoadError(path, lineno, message)


def _build_category(name: str, header_line: int, body, path: str) -> FinCategory:
    objects: list[str] = []
    mor_decl: list[tuple[str, str, str]] = []  # (name, dom, cod)
    id_decl: dict[str, str] = {}  # object -> morphism name
    comp_decl: list[tuple[int, str, str, str]] = []
    for lineno, tok in body:
        if tok[0] == "objects":
            for o in tok[1:]:
                _expect(o not in objects, path, lineno, f"duplicate object {o}")
                objects.append(o)
        elif tok[0] == "mor":
            _expect(
                len(tok) == 6 and tok[2] == ":" and tok[4] == "->",
                path,
                lineno,
                "expected: mor NAME : OBJ -> OBJ",
            )
            mor_decl.append((tok[1], tok[3], tok[5]))
        elif tok[0] == "id":
            _expect(
                len(tok) == 4 and tok[2] == ":",
                path,
                lineno,
                "expected: id NAME : OBJ",
            )
            _expect(tok[3] not in id_decl, path, lineno, f"two identities for {tok[3]}")
            id_decl[tok[3]] = tok[1]
            mor_decl.append((tok[1], tok[3], tok[3]))
        elif tok[0] == "compose":
            _expect(
                len(tok) == 6 and tok[2] == ";" and tok[4] == "=",
                path,
                lineno,
                "expected: compose F ; G = H",
            )
            comp_decl.append((lineno, tok[1], tok[3], tok[5]))
        else:
            raise LoadError(path, lineno, f"unknown line {tok[0]!r} in category block")

    obj_index = {o: i for i, o in enumerate(objects)}
    for nm, a, b in mor_decl:
        _expect(a in obj_index, path, header_line, f"morphism {nm} uses unknown object {a}")
        _expect(b in obj_index, path, header_line, f"morphism {nm} uses unknown object {b}")
    for o in objects:
        if o not in id_decl:
            auto = f"id_{o}"
            _expect(
                all(nm != auto for nm, _, _ in mor_decl),
                path,
                header_line,
                f"morphism {auto} clashes with the generated identity of {o}",
            )
            id_decl[o] = auto
            mor_decl.append((auto, o, o))
    names = [nm for nm, _, _ in mor_decl]
    _expect(len(set(names)) == len(names), path, header_line, "duplicate morphism names")
    mor_index = {nm: i for i, nm in enumerate(names)}
    identity = tuple(mor_index[id_decl[o]] for o in objects)
    ids = set(identity)

    compose: dict[tuple[int, int], int] = {}
    dom = {nm: a for nm, a, _ in mor_decl}
    cod = {nm: b for nm, _, b in mor_decl}
    for lineno, f, g, h in comp_decl:
        for nm in (f, g, h):
            _expect(nm in mor_index, path, lineno, f"unknown morphism {nm}")
        _expect(cod[f] == dom[g], path, lineno, f"{f} and {g} are not composable")
        key = (mor_index[f], mor_index[g])
        _expect(key not in compose, path, lineno, f"composite {f};{g} declared twice")
        compose[key] = mor_index[h]
    for i in range(len(names)):
        a, b = obj_index[dom[names[i]]], obj_index[cod[names[i]]]
        for key, want in (((identity[a], i), i), ((i, identity[b]), i)):
            if key in compose:
                _expect(
                    compose[key] == want,
                    path,
                    header_line,
                    f"declared composite breaks the identity law at {names[i]}",
                )
            compose[key] = want
    for f in names:
        for g in names:
            if cod[f] == dom[g] and (mor_index[f], mor_index[g]) not in compose:
                raise LoadError(path, header_line, f"missing composite {f};{g}")

    cat = FinCategory(
        name,
        tuple(objects),
        tuple((nm, obj_index[a], obj_index[b]) for nm, a, b in mor_decl),
        identity,
        compose,
    )
    report = cat.validate()
    if not report.ok:
        v = report.violations[0]
        raise LoadError(path, header_line, f"category {name}: {v.law}: {v.detail}")
    return cat


def _build_functor(
    name: str, header_line: int, src: FinCategory, tgt: FinCategory, body, path: str
) -> FunctorData:
    obj_map: dict[str, str] = {}
    mor_map: dict[str, str] = {}
    for lineno, tok in body:
        _expect(
            len(tok) == 4 and tok[0] in ("obj", "mor") and tok[2] == "=",
            path,
            lineno,
            "expected: obj X = Y or mor f = g",
        )
        table = obj_map if tok[0] == "obj" else mor_map
        _expect(tok[1] not in table, path, lineno, f"{tok[1]} mapped twice")
        table[tok[1]] = tok[3]
    s_obj = {o: i for i, o in enumerate(src.objects)}
    t_obj = {o: i for i, o in enumerate(tgt.objects)}
    s_mor = {m: i for i, m in enumerate(src.mor_names)}
    t_mor = {m: i for i, m in enumerate(tgt.mor_names)}
    objects = []
    for o in src.objects:
        _expect(o in obj_map, path, header_line, f"functor {name} missing image of object {o}")
        _expect(obj_map[o] in t_obj, path, header_line, f"unknown target object {obj_map[o]}")
        objects.append(t_obj[obj_map[o]])
    morphisms = []
    for i, m in enumerate(src.mor_names):
        if m in mor_map:
            _expect(mor_map[m] in t_mor, path, header_line, f"unknown target morphism {mor_map[m]}")
            morphisms.append(t_mor[mor_map[m]])
        elif src.is_identity(i):
            morphisms.append(tgt.id_of(objects[src.dom(i)]))
        else:
            raise LoadError(path, header_line, f"functor {name} missing image of {m}")
    F = FunctorData(name, src, tgt, tuple(objects), tuple(morphisms))
    report = validate_functor(F)
    if not report.ok:
        v = report.violations[0]
        raise LoadError(path, header_line, f"functor {name}: {v.law}: {v.detail}")
    return F


def _build_presheaf(name: str, header_line: int, base: FinCategory, body, path: str) -> Presheaf:
    from .psh import Presheaf, validate_presheaf

    elements: dict[str, list[str]] = {}
    acts: dict[str, dict[str, str]] = {}
    for lineno, tok in body:
        if tok[0] == "at":
            _expect(len(tok) >= 3 and tok[2] == ":", path, lineno, "expected: at OBJ : elements")
            _expect(tok[1] not in elements, path, lineno, f"elements of {tok[1]} listed twice")
            els = tok[3:]
            _expect(len(set(els)) == len(els), path, lineno, "duplicate element names")
            elements[tok[1]] = els
        elif tok[0] == "act":
            _expect(
                len(tok) == 6 and tok[2] == ":" and tok[4] == "=",
                path,
                lineno,
                "expected: act MOR : EL = EL",
            )
            acts.setdefault(tok[1], {})
            _expect(tok[3] not in acts[tok[1]], path, lineno, f"action of {tok[1]} at {tok[3]} given twice")
            acts[tok[1]][tok[3]] = tok[5]
        else:
            raise LoadError(path, lineno, f"unknown line {tok[0]!r} in presheaf block")
    for o in elements:
        _expect(o in base.objects, path, header_line, f"unknown object {o}")
    table = tuple(tuple(elements.get(o, ())) for o in base.objects)
    pos = [{e: k for k, e in enumerate(row)} for row in table]
    for m in acts:
        _expect(m in base.mor_names, path, header_line, f"unknown morphism {m}")
    action = []
    for f in range(base.n_morphisms):
        nm = base.mor_names[f]
        a, b = base.dom(f), base.cod(f)
        if base.is_identity(f) and nm not in acts:
            action.append(tuple(range(len(table[b]))))
            continue
        given = acts.get(nm, {})
        row = []
        for e in table[b]:
            if e not in given:
                raise LoadError(path, header_line, f"missing action of {nm} at element {e}")
            out = given[e]
            _expect(
                out in pos[a],
                path,
                header_line,
                f"action of {nm} sends {e} to unknown element {out}",
            )
            row.append(pos[a][out])
        _expect(
            set(given) <= set(table[b]),
            path,
            header_line,
            f"action of {nm} given at elements not in {base.objects[b]}",
        )
        action.append(tuple(row))
    phi = Presheaf(name, base, table, tuple(action))
    report = validate_presheaf(phi)
    if not report.ok:
        v = report.violations[0]
        raise LoadError(path, header_line, f"presheaf {name}: {v.law}: {v.detail}")
    return phi


def _parse_params(tokens, path, lineno) -> dict[str, int]:
    params = {}
    for tok in tokens:
        _expect("=" in tok, path, lineno, f"expected key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        try:
            params[key] = int(value)
        except ValueError:
            raise LoadError(path, lineno, f"parameter {key} must be an integer") from None
    return params


def build_fixture(ws: Workspace, name: str, kind: str, params: dict[str, int], where: str) -> None:
    """Construct a named builder fixture into the workspace."""
    if kind not in FIXTURE_KINDS:
        raise ValueError(f"unknown fixture kind {kind!r} (one of {', '.join(FIXTURE_KINDS)})")
    for key in params:
        if key not in FIXTURE_KINDS[kind]:
            accepts = ", ".join(FIXTURE_KINDS[kind]) or "none"
            raise ValueError(f"fixture {kind} has no parameter {key!r} (accepts: {accepts})")
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
                ws.categories[header[1]] = _build_category(header[1], header_line, body, path)
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
                ws.functors[header[1]] = _build_functor(
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
                ws.presheaves[header[1]] = _build_presheaf(
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


# ---------------------------------------------------------------------------
# Rendering: stable text and JSON forms


def render_category(cat: FinCategory) -> str:
    lines = [f"category {cat.name}"]
    if cat.n_objects:
        lines.append("  objects " + " ".join(cat.objects))
    for i in range(cat.n_morphisms):
        if cat.is_identity(i):
            lines.append(f"  id {cat.mor_names[i]} : {cat.objects[cat.dom(i)]}")
        else:
            lines.append(
                f"  mor {cat.mor_names[i]} : {cat.objects[cat.dom(i)]} -> {cat.objects[cat.cod(i)]}"
            )
    for f, g in cat.composable_pairs():
        if cat.is_identity(f) or cat.is_identity(g):
            continue
        lines.append(
            f"  compose {cat.mor_names[f]} ; {cat.mor_names[g]} = {cat.mor_names[cat.compose(f, g)]}"
        )
    return "\n".join(lines)


def render_functor(F: FunctorData) -> str:
    lines = [f"functor {F.name} : {F.source.name} -> {F.target.name}"]
    for a in range(F.source.n_objects):
        lines.append(f"  obj {F.source.objects[a]} = {F.target.objects[F.obj(a)]}")
    for f in range(F.source.n_morphisms):
        if F.source.is_identity(f):
            continue
        lines.append(f"  mor {F.source.mor_names[f]} = {F.target.mor_names[F.mor(f)]}")
    return "\n".join(lines)


def render_system(sys: RefinementSystem) -> str:
    parts = [
        render_category(sys.D),
        render_category(sys.T),
        render_functor(sys.t),
        f"refsys {sys.name} : {sys.t.name}",
    ]
    return "\n\n".join(parts)


def render_presheaf(phi: Presheaf) -> str:
    base = phi.base
    lines = [f"presheaf {phi.name} : {base.name}"]
    for a in range(base.n_objects):
        lines.append(f"  at {base.objects[a]} : " + " ".join(phi.elements[a]))
    for f in range(base.n_morphisms):
        if base.is_identity(f):
            continue
        a, b = base.dom(f), base.cod(f)
        for k, e in enumerate(phi.elements[b]):
            lines.append(
                f"  act {base.mor_names[f]} : {e} = {phi.elements[a][phi.action[f][k]]}"
            )
    return "\n".join(lines)


def category_to_dict(cat: FinCategory) -> dict:
    return {
        "name": cat.name,
        "objects": list(cat.objects),
        "morphisms": [
            {"name": cat.mor_names[i], "dom": cat.objects[cat.dom(i)], "cod": cat.objects[cat.cod(i)]}
            for i in range(cat.n_morphisms)
        ],
        "identity": {cat.objects[a]: cat.mor_names[cat.id_of(a)] for a in range(cat.n_objects)},
        "compose": [
            [cat.mor_names[f], cat.mor_names[g], cat.mor_names[cat.compose(f, g)]]
            for f, g in cat.composable_pairs()
        ],
    }


def functor_to_dict(F: FunctorData) -> dict:
    return {
        "name": F.name,
        "source": F.source.name,
        "target": F.target.name,
        "objects": {F.source.objects[a]: F.target.objects[F.obj(a)] for a in range(F.source.n_objects)},
        "morphisms": {
            F.source.mor_names[f]: F.target.mor_names[F.mor(f)]
            for f in range(F.source.n_morphisms)
        },
    }


def system_to_dict(sys: RefinementSystem) -> dict:
    return {
        "name": sys.name,
        "refinements": category_to_dict(sys.D),
        "base": category_to_dict(sys.T),
        "projection": functor_to_dict(sys.t),
    }


def presheaf_to_dict(phi: Presheaf) -> dict:
    base = phi.base
    return {
        "name": phi.name,
        "base": base.name,
        "elements": {base.objects[a]: list(phi.elements[a]) for a in range(base.n_objects)},
        "action": {
            base.mor_names[f]: {
                phi.elements[base.cod(f)][k]: phi.elements[base.dom(f)][phi.action[f][k]]
                for k in range(len(phi.elements[base.cod(f)]))
            }
            for f in range(base.n_morphisms)
        },
    }


def to_json(value: dict | list) -> str:
    import json

    return json.dumps(value, indent=2, sort_keys=True)
