"""What a fresh process pays for before it does any work.

Importing `refcat` executes none of its modules: each one is bound in
`sys.modules` and on the package, and runs when one of its attributes is
first read.  So a command compiles only the modules it reaches: a Hoare
query no other fixture family, and no monoidal, adjunction, block-parser,
renderer or suite module.  These run in a subprocess, since the test
process has loaded every module already.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src"
LAYERS = ("fincat", "reports", "refsys", "psh", "represent", "duality", "fixtures", "textio")

# What every command executes: the command line, the loader, and the
# category and refinement-system layers.  The check reports are executed
# only where a report is built.
BASE = {"cli", "textio", "fincat", "refsys"}
# The slices, and the presheaf tables and family search the
# representations are made of.
PRESHEAF = {"pshcore", "represent"}
# The presheaf algebra and the theorems about the representations.
CHECKS = {"psh", "repchecks"}
LATTICE = {"lattice", "monoidal"}
# What loading a fixture family executes: its module, and the helpers
# the other families share through `fixtures` (lattice shares none).
FAMILY = {
    "hoare": {"hoare", "fixtures"},
    "linctx": {"linctx", "fixtures"},
    "random": {"randsys", "fixtures"},
    "lattice": LATTICE,
}
# `suites` reads the linctx data through `fixtures`.
VERIFY = PRESHEAF | CHECKS | {"duality", "suites", "reports", "fixtures"}
# The homes of the comma category, of products and of natural
# transformations.
COMMA_PRODUCT_NAT = {"repchecks", "monoidal", "adjunction"}

# Every query kind the benchmark's query mix runs -> (its arguments on
# hoare and on linctx, what it executes besides BASE and the family).
QUERIES = {
    "derive": (("{s0} swap {s1}", "[A,B] 2>1[0,0] [A*B]"), set()),
    "pushforward": (("set0 {s1}", "2>1[0,0] [A,B]"), set()),
    "pullback": (("set0 {s1}", "2>1[0,0] [A*B]"), set()),
    "slice": (("W", "1"), {"represent"}),
    "coslice": (("W", "1"), {"represent"}),
    "represent --pos": (("{s0}", "[A,B]"), PRESHEAF | {"render"}),
    "represent --neg": (("{s0}", "[A,B]"), PRESHEAF | {"render"}),
    "dual --left": (("{s0}", "[A]"), PRESHEAF | {"duality", "render"}),
    "dual --right": (("{s0}", "[A]"), PRESHEAF | {"duality", "render"}),
}

# (workspace line, command after the file) -> the modules it executes
# besides BASE.  `verify` on hoare skips genday, notnot-tensor and rapp
# before importing their checks, and on the lattice it skips rapp.
EXECUTED = {
    **{
        (f"fixture {family[0]} {family}", f"{kind} {args[k]}"): FAMILY[family] | extra
        for kind, (args, extra) in QUERIES.items()
        for k, family in enumerate(("hoare", "linctx"))
    },
    ("fixture h hoare", "validate"): FAMILY["hoare"],
    ("fixture l linctx", "validate"): FAMILY["linctx"],
    ("fixture l lattice-collapse", "validate"): FAMILY["lattice"],
    ("fixture l lattice-identity", "validate"): FAMILY["lattice"],
    ("fixture g galois", "validate"): FAMILY["lattice"] | {"adjunction", "reports"},
    ("fixture r random seed=3", "validate"): FAMILY["random"],
    ("fixture h hoare", "verify all"): FAMILY["hoare"] | VERIFY,
    ("fixture l linctx", "verify all"): FAMILY["linctx"] | VERIFY,
    ("fixture l lattice-collapse", "verify all"): FAMILY["lattice"] | VERIFY | {"day"},
}


def command_id(workspace: str, command: str) -> str:
    """The subcommand, its side flag if any, and the fixture family."""
    words = command.split()
    flag = [words[1].lstrip("-")] if words[1:2] and words[1].startswith("--") else []
    return "-".join([words[0], *flag, workspace.split()[2]])


def run_fresh(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, check=False
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# Runs one command in a fresh process and prints the refcat modules that
# executed, one line; `refcat` itself is left out.
EXECUTE = """
import contextlib, io, sys, types
import refcat.cli
argv = sys.argv[2].split()
with contextlib.redirect_stdout(io.StringIO()):
    rc = refcat.cli.main([argv[0], sys.argv[1], *argv[1:]])
assert rc == 0, rc
print(sorted(n[7:] for n, m in sys.modules.items() if n.startswith("refcat.") and type(m) is types.ModuleType))
"""


def test_a_derive_query_executes_only_the_layers_it_reaches(tmp_path):
    path = tmp_path / "h.fix"
    path.write_text("fixture h hoare\n")
    out = run_fresh(
        f"""
import sys, types
import refcat, refcat.cli
layers = {LAYERS!r}
# the benchmark's tracer reads every layer from sys.modules after this import
assert all(sys.modules["refcat." + m] is getattr(refcat, m) for m in layers)
print(sorted(m for m in ("dataclasses", "json") if m in sys.modules))
assert refcat.cli.main(["derive", sys.argv[1], "{{s0}}", "swap", "{{s1}}"]) == 0
print(sorted(n[7:] for n, m in sys.modules.items() if n.startswith("refcat.") and type(m) is types.ModuleType))
""",
        str(path),
    )
    assert out == f"[]\nswap:{{s0}}>{{s1}}\n{sorted(BASE | FAMILY['hoare'])}\n"


@pytest.mark.parametrize(
    "workspace, command",
    sorted(EXECUTED),
    ids=[command_id(w, c) for w, c in sorted(EXECUTED)],
)
def test_a_command_executes_exactly_the_modules_it_reaches(tmp_path, workspace, command):
    path = tmp_path / "w.fix"
    path.write_text(workspace + "\n")
    assert run_fresh(EXECUTE, str(path), command) == f"{sorted(BASE | EXECUTED[workspace, command])}\n"


def test_no_query_executes_the_presheaf_algebra_or_the_checks():
    # Every query kind is pinned on hoare and on linctx; none of them
    # compiles pull, push, iso or tensor of presheaves, or a theorem.
    queries = {key: mods for key, mods in EXECUTED.items() if key[1].split()[0] not in ("validate", "verify")}
    assert sorted(command_id(*key) for key in queries) == sorted(
        command_id(f"fixture - {family}", f"{kind} X") for family in ("hoare", "linctx") for kind in QUERIES
    )
    assert {key: mods & CHECKS for key, mods in queries.items() if mods & CHECKS} == {}


def test_derive_lifts_and_validate_execute_no_comma_product_or_nat_trans_home():
    # Only the lattice fixtures, which are monoidal, and the galois
    # adjunction read a product or a natural transformation.
    light = {
        key: mods
        for key, mods in EXECUTED.items()
        if key[1].split()[0] in ("derive", "pushforward", "pullback", "validate")
        and key[0].split()[2] in ("hoare", "linctx", "random")
    }
    assert len(light) == 9
    assert {key: mods & COMMA_PRODUCT_NAT for key, mods in light.items() if mods & COMMA_PRODUCT_NAT} == {}


def test_every_module_stays_under_the_parser_token_step():
    # CPython 3.11's parser grows its token array in steps of 8,192, and a
    # module compiled past the first step costs about 0.5 MB more peak
    # RSS.  Comments and non-logical newlines never reach the parser.
    # Every module under src/refcat counts, in subpackages too.
    root = SRC / "refcat"
    counts = {}
    for path in sorted(root.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            tokens = tokenize.generate_tokens(fh.readline)
            counts[path.relative_to(root).as_posix()] = sum(
                t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens
            )
    assert {"fixtures.py", "hoare.py", "day.py"} <= set(counts)
    assert {name: n for name, n in counts.items() if n >= 8192} == {}


def test_public_names_resolve_through_their_layers():
    out = run_fresh(
        """
import sys, types
import refcat
assert refcat.psh.pull_psh is refcat.pull_psh
assert type(sys.modules["refcat.psh"]) is types.ModuleType
assert type(sys.modules["refcat.hoare"]) is not types.ModuleType
assert refcat.fixtures.build_hoare is refcat.hoare.build_hoare
assert type(sys.modules["refcat.linctx"]) is not types.ModuleType
for name in refcat.__all__:
    obj = getattr(refcat, name)
    assert getattr(sys.modules[obj.__module__], name) is obj, name
from refcat import *
print(len(refcat.__all__), sorted({getattr(refcat, n).__module__[7:] for n in refcat.__all__}))
"""
    )
    assert out == (
        "59 ['adjunction', 'day', 'duality', 'fincat', 'hoare', 'lattice', "
        "'linctx', 'monoidal', 'psh', 'pshcore', 'randsys', 'refsys', "
        "'repchecks', 'reports', 'represent', 'textio']\n"
    )


def functions_defined(module) -> set[str]:
    """The functions a module defines, with the methods of its classes."""
    out = set()
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            out.add(name)
        elif inspect.isclass(value):
            out.update(n for n, v in vars(value).items() if inspect.isfunction(v))
    return out


def test_every_function_a_benchmark_metric_names_stays_in_its_layer():
    # The benchmark's tracer names a span `<layer>.<function>` after the
    # module that defines the function, so a function that a per-layer
    # metric of BENCHMARK.json names must stay defined in that layer.
    # Names no module defines (a deleted construction, or a count such as
    # `cli.import`) are left out.
    import refcat

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    found = pkgutil.walk_packages(refcat.__path__, "refcat.")
    layers = {m.name.split(".", 1)[1]: importlib.import_module(m.name) for m in found}
    anywhere = set().union(*map(functions_defined, layers.values()))
    named = {tuple(m["name"].split(".")[:2]) for m in metrics}
    checked = {(layer, fn) for layer, fn in named if layer in layers and fn in anywhere}
    assert {
        ("represent", "comma_system"),
        ("represent", "pos_rep"),
        ("psh", "natural_families"),
        ("psh", "push_psh"),
        ("fincat", "compose"),
        ("duality", "dual_left"),
    } <= checked
    moved = sorted(f"{layer}.{fn}" for layer, fn in checked if fn not in functions_defined(layers[layer]))
    assert moved == []
