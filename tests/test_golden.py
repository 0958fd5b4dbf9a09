"""Golden transcripts, compared byte for byte.

Most files under tests/golden/ are the default-format stdout of
`refcat verify <file> all` on the shipped fixtures.  A refactor that
changes any count, skip reason, note or counterexample shows up here as
a diff.  To regenerate one after an intended change, run for example

    refcat verify h.fix all > tests/golden/hoare.txt

with `h.fix` holding `fixture h hoare`, and review the diff.

The `query-*.txt` files hold the query commands (slice, coslice,
represent, dual, derive, pushforward, pullback): for each command a `$`
line with its arguments and exit code, then its stdout.  They pin the
order in which slice morphisms and presheaf elements are listed.
`cli-usage.txt` holds the help and usage-error texts of the parser, with
stderr.  Regenerate one with `python tests/test_golden.py NAME`.
"""

import contextlib
import hashlib
import importlib
import inspect
import io
import os
import pkgutil
import sys
from pathlib import Path
from unittest import mock

import pytest

import refcat
import refcat.represent as represent_mod
from refcat.cli import COMMANDS, main

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

LINCTX = "fixture l linctx"
# One refinement per context length, a tensor in each from length 1 on;
# the duals take those of length 2 or less.
LINCTX_REFS = ("[]", "[A*B]", "[B,A*B]", "[A,A,B]")
# (P, c, Q): judgments with their one derivation, and three without one.
LINCTX_JUDGMENTS = (
    ("[]", "0>0[]", "[]"),
    ("[A]", "1>1[0]", "[A]"),
    ("[B]", "1>2[0]", "[B,C]"),
    ("[A*B]", "1>3[0]", "[A*B,C,C]"),
    ("[A,B]", "2>2[0,1]", "[A,B]"),
    ("[B,B]", "2>3[1,0]", "[B,B,C]"),
    ("[A,A,B]", "3>2[1,0,1]", "[A,A*B]"),
    ("[A,B,C]", "3>2[0,0,1]", "[A*B,C]"),
    ("[]", "0>1[]", "[A]"),
    ("[A]", "1>1[0]", "[B]"),
    ("[A,B]", "2>2[1,0]", "[A,B]"),
    ("[A,B]", "2>1[0,0]", "[A*B]"),
)
# base morphism -> (dom, cod) context lengths; the lifts take every
# refinement at the end they start from.
LINCTX_MORS = {"0>1[]": (0, 1), "1>2[1]": (1, 2), "2>1[0,0]": (2, 1), "2>2[1,0]": (2, 2)}
LINCTX_CONTEXTS = {
    0: ("[]",),
    1: ("[A]", "[B]", "[A*B]", "[C]"),
    2: ("[A,A]", "[A,B]", "[A,A*B]", "[A,C]", "[B,B]", "[B,A*B]", "[B,C]", "[A*B,A*B]", "[A*B,C]", "[C,C]"),
}

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
    "query-linctx-represent": (
        LINCTX,
        [["represent", f"--{side}", X] for X in LINCTX_REFS for side in ("pos", "neg")],
    ),
    "query-linctx-dual": (
        LINCTX,
        [["dual", f"--{side}", X] for X in LINCTX_REFS[:-1] for side in ("left", "right")],
    ),
    "query-linctx-derive": (LINCTX, [["derive", *judgment] for judgment in LINCTX_JUDGMENTS]),
    "query-linctx-lifts": (
        LINCTX,
        [
            [cmd, c, X]
            for cmd, end in (("pushforward", 0), ("pullback", 1))
            for c, shapes in LINCTX_MORS.items()
            for X in LINCTX_CONTEXTS[shapes[end]]
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


# The parser's own answers: help, and the usage errors it raises before a
# command runs (no file is read, so none needs to exist).
USAGE = (
    ["--help"],
    [],
    ["frobnicate", "w.fix"],
    *([cmd, "--help"] for cmd in COMMANDS),
    *([cmd] for cmd in COMMANDS),
    ["slice", "w.fix", "W", "extra"],
    ["derive", "w.fix", "P", "c", "Q", "--system"],
    ["represent", "w.fix"],
    ["dual", "w.fix", "--left", "X", "--right", "Y"],
    ["verify", "w.fix", "nosuch"],
    ["fixtures", "emit", "hoare"],
)


def usage_transcript() -> str:
    """For each argument list of USAGE, a `$` line with the arguments and
    the exit code, then stdout and stderr, with help laid out for 80
    columns."""
    out = []
    for args in USAGE:
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    rc = main(args)
                except SystemExit as exc:
                    rc = exc.code
        out.append(
            f"$ refcat {' '.join(args)}  [exit {rc}]\n[stdout]\n{stdout.getvalue()}[stderr]\n{stderr.getvalue()}"
        )
    return "".join(out)


def test_usage_texts_match_the_golden_transcript():
    assert usage_transcript() == (GOLDEN / "cli-usage.txt").read_text()


if __name__ == "__main__":
    import tempfile

    for name in sys.argv[1:]:
        if name == "cli-usage":
            (GOLDEN / f"{name}.txt").write_text(usage_transcript())
            continue
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{name}.txt").write_text(query_transcript(name, Path(tmp)))


# Every producer of a family or a derivation, and the reader of the tables
# the iso test builds, with the (source presheaf, table) pairs to read off
# its arguments and result.
def _derivation_tables(_args, d):
    return [(d.source, d.components)]


SUPPORT_INDEXED = {
    "pos_rep_derivation": _derivation_tables,
    "push_transpose": _derivation_tables,
    "m_derivation": _derivation_tables,
    "_pulled_residual": lambda _args, out: [] if out[0] is None else _derivation_tables(_args, out[0]),
    "natural_families": lambda args, fams: [(args[0], fam) for fam in fams],
    "is_vertical_iso": lambda args, _ok: [(args[1], args[0])],
    "curried_residual": lambda args, res: [
        (args[0], fam) for b in res.support() for fam in res.payloads[b]
    ],
}


def test_every_family_and_derivation_is_indexed_by_the_support(tmp_path, monkeypatch, capsys):
    # On every shipped fixture, both sides: each table a producer returns
    # has one entry per point of its source's support, with that point's
    # element count of values.  Each producer returns some table out of a
    # presheaf whose support misses an object, so a producer that returned
    # one entry per object would turn this red.
    modules = [importlib.import_module(m.name) for m in pkgutil.walk_packages(refcat.__path__, "refcat.")]
    wrong, narrow = [], set()
    for mod in modules:
        for name, read in SUPPORT_INDEXED.items():
            real = vars(mod).get(name)
            if real is None:
                continue

            def recording(*args, _real=real, _read=read, _name=name):
                out = _real(*args)
                for phi, table in _read(args, out):
                    support = phi.support()
                    if [len(entry) for entry in table] != [phi.size(a) for a in support]:
                        wrong.append((_name, phi.name))
                    if len(support) < phi.base.n_objects:
                        narrow.add(_name)
                return out

            monkeypatch.setattr(mod, name, recording)
    codes = []
    for name, (body, extra) in CASES.items():
        path = tmp_path / f"{name.split('.')[0]}.fix"
        path.write_text(body + "\n")
        codes.append(main(["verify", str(path), "all", *extra]))
    capsys.readouterr()
    assert wrong == []
    assert narrow == set(SUPPORT_INDEXED)
    assert codes == [0] * len(CASES)
