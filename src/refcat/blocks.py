"""The explicit blocks of a workspace file: `category`, `functor` and
`presheaf` (see `textio` for the format), each parsed and validated into
its value.  A workspace of fixtures alone never reads this module."""

from __future__ import annotations

from .fincat import FinCategory, FunctorData, validate_functor
from .textio import LoadError, _expect


def build_category(name: str, header_line: int, body, path: str) -> FinCategory:
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


def build_functor(
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


def build_presheaf(name: str, header_line: int, base: FinCategory, body, path: str) -> Presheaf:
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
