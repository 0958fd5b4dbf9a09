"""Golden transcripts, compared byte for byte.

Most files under tests/golden/ are the default-format stdout of
`refcat verify <file> all` on the shipped fixtures.  A refactor that
changes any count, skip reason, note or counterexample shows up here as
a diff.  To regenerate one after an intended change, run for example

    refcat verify h.fix all > tests/golden/hoare.txt

with `h.fix` holding `fixture h hoare`, and review the diff.

The `query-*.txt` files hold the query commands (slice, coslice,
represent, dual, pushforward, pullback): for each command a `$` line
with its arguments and exit code, then its stdout.  They pin the order
in which slice morphisms and presheaf elements are listed.  Regenerate
one with `python tests/test_golden.py NAME`.
"""

import contextlib
import hashlib
import importlib
import inspect
import io
import pkgutil
import sys
from pathlib import Path

import pytest

import refcat
import refcat.represent as represent_mod
from refcat.cli import main

GOLDEN = Path(__file__).parent / "golden"

# golden file -> (workspace line, extra verify arguments)
CASES = {
    "hoare": ("fixture hoare hoare", []),
    "linctx": ("fixture linctx linctx", []),
    "lattice-collapse": ("fixture collapse lattice-collapse", []),
    "lattice-identity": ("fixture identity lattice-identity", []),
    "galois": ("fixture galois galois", ["--system", "galois"]),
    "galois.e": ("fixture galois galois", ["--system", "galois.e"]),
    "random": ("fixture random random seed=5", []),
    # the one golden system with a judgment of several derivations, so
    # the only one whose searches read a naturality constraint
    "random-3": ("fixture random random seed=3", []),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_all_matches_the_golden_transcript(name, tmp_path, capsys):
    body, extra = CASES[name]
    path = tmp_path / f"{name.split('.')[0]}.fix"
    path.write_text(body + "\n")
    assert main(["verify", str(path), "all", *extra]) == 0
    got = capsys.readouterr().out
    assert got == (GOLDEN / f"{name}.txt").read_text()


def test_a_reversed_derivation_row_turns_random_3_red(tmp_path, monkeypatch, capsys):
    # Every other golden system has at most one derivation per judgment,
    # so no family search there reads a naturality constraint and a
    # wrong action row of a representation stays green; random-3 has a
    # judgment with three derivations.
    real = represent_mod._derivation_row
    monkeypatch.setattr(represent_mod, "_derivation_row", lambda *a: real(*a)[::-1])
    path = tmp_path / "random-3.fix"
    path.write_text(CASES["random-3"][0] + "\n")
    assert main(["verify", str(path), "all"]) == 1
    capsys.readouterr()


def test_verify_all_reaches_every_public_check(tmp_path, monkeypatch, capsys):
    # Every module under src/refcat, in subpackages too: a check moved into
    # one must stay in this bookkeeping.
    found = pkgutil.walk_packages(refcat.__path__, f"{refcat.__name__}.")
    modules = [importlib.import_module(m.name) for m in found]
    root = Path(refcat.__file__).parent
    files = {
        ".".join(("refcat", *p.relative_to(root).with_suffix("").parts)).removesuffix(".__init__")
        for p in root.rglob("*.py")
    }
    assert {m.__name__ for m in modules} == files - {"refcat"}
    checks = {
        name: fn
        for mod in modules
        for name, fn in vars(mod).items()
        if name.endswith("_check")
        and not name.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == mod.__name__
    }
    reached = set()
    for mod in modules:
        for name, fn in list(vars(mod).items()):
            if name in checks and fn is checks[name]:

                def seen(*args, _name=name, _fn=fn, **kwargs):
                    reached.add(_name)
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(mod, name, seen)
    for name, (body, extra) in CASES.items():
        path = tmp_path / f"{name.split('.')[0]}.fix"
        path.write_text(body + "\n")
        assert main(["verify", str(path), "all", *extra]) == 0
    capsys.readouterr()
    assert reached == set(checks)


def test_linctx_k4_verify_all_keeps_its_transcript(tmp_path, capsys):
    # The largest shipped-size run (28,662 lines, seconds) is pinned by
    # its digest rather than a golden file.
    path = tmp_path / "k4.fix"
    path.write_text("fixture l linctx K=4\n")
    assert main(["verify", str(path), "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 28662
    assert hashlib.sha256(out.encode()).hexdigest() == K4_SHA256


K4_SHA256 = "390155e008bc3a2767d570f8dd7ebf1525664b74ac7c72eef1f3e951d9d7b448"


HOARE = "fixture h hoare"
HOARE_REFS = ("{}", "{s0}", "{s1}", "{s0,s1}")
HOARE_MORS = ("id", "set0", "swap", "set0;swap")

# golden file -> (workspace line, list of query argument lists)
QUERIES = {
    "query-hoare-slice": (HOARE, [["slice", "W"], ["coslice", "W"]]),
    "query-linctx-slice": ("fixture l linctx", [["slice", "1"], ["coslice", "1"]]),
    "query-hoare-represent": (
        HOARE,
        [["represent", f"--{side}", X] for X in HOARE_REFS for side in ("pos", "neg")],
    ),
    "query-hoare-dual": (
        HOARE,
        [["dual", f"--{side}", X] for X in HOARE_REFS for side in ("left", "right")],
    ),
    "query-hoare-lifts": (
        HOARE,
        [[cmd, c, X] for cmd in ("pushforward", "pullback") for c in HOARE_MORS for X in HOARE_REFS],
    ),
    "query-hoare-lifts-json": (
        HOARE,
        [
            [cmd, c, X, "--json"]
            for cmd in ("pushforward", "pullback")
            for c in HOARE_MORS
            for X in HOARE_REFS
        ],
    ),
}


def query_transcript(name: str, tmp: Path) -> str:
    body, commands = QUERIES[name]
    path = tmp / "w.fix"
    path.write_text(body + "\n")
    out = []
    for args in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main([args[0], str(path), *args[1:]])
        out.append(f"$ {' '.join(args)}  [exit {rc}]\n{buf.getvalue()}")
    return "".join(out)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_queries_match_the_golden_transcript(name, tmp_path):
    assert query_transcript(name, tmp_path) == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    import tempfile

    for name in sys.argv[1:]:
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{name}.txt").write_text(query_transcript(name, Path(tmp)))
