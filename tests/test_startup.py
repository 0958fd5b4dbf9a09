"""What a fresh process pays for before it does any work.

Importing `refcat` executes none of its layers: each one is bound in
`sys.modules` and on the package, and runs when one of its attributes is
first read.  So a query compiles only the layers it reaches.  These run
in a subprocess, since the test process has loaded every layer already.
"""

import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

LAYERS = ("fincat", "reports", "refsys", "psh", "represent", "duality", "fixtures", "textio")


def run_fresh(script: str, *args: str) -> str:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, check=False
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


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
print(sorted(m for m in layers if type(sys.modules["refcat." + m]) is not types.ModuleType))
""",
        str(path),
    )
    assert out == "[]\nswap:{s0}>{s1}\n['duality', 'psh', 'represent']\n"


@pytest.mark.parametrize("kind", ["lattice-collapse", "galois"])
def test_a_lattice_validate_executes_no_presheaf_layer(tmp_path, kind):
    # The lattice builders stand on fincat and refsys alone.
    path = tmp_path / "l.fix"
    path.write_text(f"fixture l {kind}\n")
    out = run_fresh(
        f"""
import sys, types
import refcat.cli
assert refcat.cli.main(["validate", sys.argv[1]]) == 0
print(sorted(m for m in {LAYERS!r} if type(sys.modules["refcat." + m]) is not types.ModuleType))
""",
        str(path),
    )
    assert out.endswith("ok\n['duality', 'psh', 'represent']\n")


def test_every_module_stays_under_the_parser_token_step():
    # CPython 3.11's parser grows its token array in steps of 8,192, and a
    # module compiled past the first step costs about 0.5 MB more peak
    # RSS.  Comments and non-logical newlines never reach the parser.
    counts = {}
    for path in sorted((Path(__file__).parent.parent / "src" / "refcat").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            tokens = tokenize.generate_tokens(fh.readline)
            counts[path.name] = sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)
    assert "fixtures.py" in counts
    assert {name: n for name, n in counts.items() if n >= 8192} == {}


def test_public_names_resolve_through_their_layers():
    out = run_fresh(
        """
import sys, types
import refcat
assert refcat.psh.pull_psh is refcat.pull_psh
assert type(sys.modules["refcat.psh"]) is types.ModuleType
for name in refcat.__all__:
    obj = getattr(refcat, name)
    assert getattr(sys.modules[obj.__module__], name) is obj, name
from refcat import *
print(len(refcat.__all__), sorted({getattr(refcat, n).__module__ for n in refcat.__all__}))
"""
    )
    assert out == (
        "64 ['refcat.duality', 'refcat.fincat', 'refcat.fixtures', 'refcat.psh', "
        "'refcat.refsys', 'refcat.reports', 'refcat.represent', 'refcat.textio']\n"
    )
