"""The line format: parsing, validation-at-load, rendering back out."""

import json

import pytest

from refcat.fincat import validate_category, validate_functor
from refcat.fixtures import linctx_data, random_refsys
from refcat.psh import validate_presheaf
from refcat.render import (
    render_category,
    render_functor,
    render_presheaf,
    render_system,
    system_to_dict,
    to_json,
)
from refcat.textio import LoadError, Workspace, load, loads

ARROW = """
category C
  objects a b
  mor f : a -> b
"""


def test_minimal_category_gets_identities_for_free():
    ws = loads(ARROW)
    cat = ws.categories["C"]
    assert cat.n_objects == 2 and cat.n_morphisms == 3
    assert validate_category(cat).ok


def test_category_roundtrip_through_render():
    ws = loads(ARROW)
    text = render_category(ws.categories["C"])
    again = loads(text).categories["C"]
    assert again.objects == ws.categories["C"].objects
    assert sorted(again.mor_names) == sorted(ws.categories["C"].mor_names)


def test_hoare_shaped_names_survive_a_roundtrip(hoare):
    # morphism names contain ';', ':', '{', '}' and must tokenize as one word
    text = render_category(hoare.D)
    again = loads(text).categories[hoare.D.name]
    assert again.mor_names == hoare.D.mor_names
    assert again.mor_dom == hoare.D.mor_dom
    for f, g in hoare.D.composable_pairs():
        assert again.compose(f, g) == hoare.D.compose(f, g)


def test_missing_composite_is_a_located_error():
    text = """
category M
  objects x
  mor g : x -> x
  mor h : x -> x
  compose g ; g = h
  compose g ; h = g
  compose h ; g = g
"""
    with pytest.raises(LoadError) as err:
        loads(text, "broken.fix")
    assert "broken.fix:" in str(err.value)
    assert "missing composite h;h" in str(err.value)


def test_composite_contradicting_an_identity_is_rejected():
    text = """
category M
  objects x
  mor g : x -> x
  id e : x
  compose e ; g = e
  compose g ; g = g
  compose g ; e = g
"""
    with pytest.raises(LoadError, match="identity law"):
        loads(text)


def test_nonassociative_table_is_rejected_at_load():
    text = """
category M
  objects x
  mor g : x -> x
  mor h : x -> x
  compose g ; g = h
  compose g ; h = g
  compose h ; g = g
  compose h ; h = g
"""
    with pytest.raises(LoadError, match="assoc"):
        loads(text)


def test_functor_block_and_missing_image():
    text = ARROW + """
category D
  objects u
functor F : C -> D
  obj a = u
  obj b = u
  mor f = id_u
"""
    ws = loads(text)
    assert validate_functor(ws.functors["F"]).ok
    with pytest.raises(LoadError, match="missing"):
        loads(ARROW + """
category D
  objects u
functor F : C -> D
  obj a = u
  obj b = u
""")


def test_refsys_block():
    text = ARROW + """
category T
  objects w
functor t : C -> T
  obj a = w
  obj b = w
  mor f = id_w
refsys S : t
"""
    ws = loads(text)
    sys = ws.systems["S"]
    assert sys.validate().ok
    assert sys.D.name == "C" and sys.T.name == "T"
    rendered = render_system(sys)
    again = loads(rendered)
    assert again.the_system(None).D.n_morphisms == sys.D.n_morphisms


def test_presheaf_block_and_its_action_direction():
    text = ARROW + """
presheaf phi : C
  at a : x0 x1
  at b : y
  act f : y = x1
"""
    ws = loads(text)
    phi = ws.presheaves["phi"]
    assert validate_presheaf(phi).ok
    f = ws.categories["C"].mor_names.index("f")
    assert phi.apply(f, 0) == 1  # y pulls back to x1
    again = loads(ARROW + render_presheaf(phi)).presheaves["phi"]
    assert again.elements == phi.elements and again.action == phi.action


def test_presheaf_missing_action_row():
    with pytest.raises(LoadError, match="action"):
        loads(ARROW + """
presheaf phi : C
  at a : x0
  at b : y
""")


def test_duplicate_names_collide_across_kinds():
    with pytest.raises(LoadError, match="already"):
        loads(ARROW + "\ncategory C\n  objects z\n")


def test_loading_is_atomic():
    # the category parses, the functor fails; nothing may leak out
    bad = ARROW + """
functor F : C -> Nowhere
  obj a = u
"""
    with pytest.raises(LoadError):
        loads(bad)


def test_load_from_disk(tmp_path):
    p = tmp_path / "ws.fix"
    p.write_text(ARROW)
    ws = load(str(p))
    assert "C" in ws.categories


def test_fixture_blocks(tmp_path):
    ws = loads("""
fixture h hoare
fixture cl lattice-collapse
fixture il lattice-identity
fixture g galois
fixture r random seed=3
fixture lin linctx K=2
""")
    assert set(ws.systems) >= {"h", "cl", "il", "g", "g.e", "r", "lin"}
    assert "g" in ws.adjunctions
    assert {"cl", "il"} <= set(ws.monoidal)
    for name in ("h", "cl", "il", "r", "lin"):
        assert ws.systems[name].validate().ok
    # truncation parameter was honored: contexts of size <= 2 over 4 formulas
    assert ws.systems["lin"].D.n_objects == 1 + 4 + 10


@pytest.mark.parametrize(
    "line, message",
    [
        ("fixture h hoare foo=1", "fixture hoare has no parameter 'foo' (accepts: none)"),
        ("fixture r random sed=5", "fixture random has no parameter 'sed' (accepts: seed)"),
        ("fixture l linctx seed=2", "fixture linctx has no parameter 'seed' (accepts: K)"),
        ("fixture l linctx K=2 K=3", "parameter K given twice"),
    ],
)
def test_unknown_fixture_parameters_are_rejected_at_their_line(line, message):
    with pytest.raises(LoadError) as err:
        loads(f"fixture ok hoare\n\n{line}\n", "params.fix")
    assert str(err.value) == f"params.fix:3: {message}"


def test_fixture_parameters_reach_the_builders():
    ws = loads("fixture r random seed=5\nfixture l linctx K=2\n")
    assert render_system(ws.systems["r"]) == render_system(random_refsys(5))
    assert render_system(ws.systems["r"]) != render_system(random_refsys(0))
    assert linctx_data(ws.systems["l"])[1] == 2


def test_the_system_selection():
    ws = loads("fixture h hoare\nfixture r random seed=1")
    assert ws.the_system("h").name
    with pytest.raises(KeyError):
        ws.the_system(None)  # ambiguous
    with pytest.raises(KeyError):
        ws.the_system("nope")
    only = loads("fixture h hoare")
    assert only.the_system(None) is only.systems["h"]


def test_json_mirror(hoare):
    text = to_json(system_to_dict(hoare))
    data = json.loads(text)
    assert data["refinements"]["objects"] == list(hoare.D.objects)
    assert data["base"]["objects"] == list(hoare.T.objects)
    assert data["projection"]["source"] == hoare.D.name
