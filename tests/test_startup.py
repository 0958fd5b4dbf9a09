"""What a fresh process pays for before it does any work.

Importing `refcat` executes none of its modules: each one is bound in
`sys.modules` and on the package, and runs when one of its attributes is
first read.  So a command compiles only the modules it reaches: a Hoare
query no other fixture family, and no monoidal, adjunction, block-parser,
renderer or suite module.  These run in a subprocess, since the test
process has loaded every module already.
"""

import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
LAYERS = ("fincat", "reports", "refsys", "psh", "represent", "duality", "fixtures", "textio")

# What every command executes: the command line, the loader, the
# category and refinement-system layers, and the shared fixture helpers.
BASE = {"cli", "textio", "fincat", "refsys", "reports", "fixtures"}
PRESHEAF = {"psh", "represent"}
LATTICE = {"lattice", "monoidal"}
VERIFY = PRESHEAF | {"duality", "suites"}

# (workspace line, command after the file) -> the modules it executes
# besides BASE.  `verify` on hoare skips genday, notnot-tensor and rapp
# before importing their checks, and on the lattice it skips rapp.
EXECUTED = {
    ("fixture h hoare", "pullback set0 {s1}"): {"hoare"},
    ("fixture l linctx", "dual --left [A]"): {"linctx", "duality", "render"} | PRESHEAF,
    ("fixture h hoare", "validate"): {"hoare"},
    ("fixture l linctx", "validate"): {"linctx"},
    ("fixture l lattice-collapse", "validate"): LATTICE,
    ("fixture l lattice-identity", "validate"): LATTICE,
    ("fixture g galois", "validate"): LATTICE | {"adjunction"},
    ("fixture r random seed=3", "validate"): {"randsys"},
    ("fixture h hoare", "verify all"): {"hoare"} | VERIFY,
    ("fixture l linctx", "verify all"): {"linctx"} | VERIFY,
    ("fixture l lattice-collapse", "verify all"): LATTICE | VERIFY | {"day"},
}


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
    assert out == f"[]\nswap:{{s0}}>{{s1}}\n{sorted(BASE | {'hoare'})}\n"


@pytest.mark.parametrize(
    "workspace, command",
    sorted(EXECUTED),
    ids=[f"{c.split()[0]}-{w.split()[2]}" for w, c in sorted(EXECUTED)],
)
def test_a_command_executes_exactly_the_modules_it_reaches(tmp_path, workspace, command):
    path = tmp_path / "w.fix"
    path.write_text(workspace + "\n")
    assert run_fresh(EXECUTE, str(path), command) == f"{sorted(BASE | EXECUTED[workspace, command])}\n"


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
        "60 ['adjunction', 'day', 'duality', 'fincat', 'hoare', 'lattice', "
        "'linctx', 'monoidal', 'psh', 'randsys', 'refsys', 'reports', "
        "'represent', 'textio']\n"
    )
