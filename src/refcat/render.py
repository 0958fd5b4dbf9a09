"""Stable text and JSON forms of categories, functors, systems and
presheaves.  The text forms are the block syntax `textio` reads."""

from __future__ import annotations


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
