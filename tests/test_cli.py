"""The batch interface: exit codes, output shapes, determinism.

Conventions under test: 0 for answered queries and green suites, 1 when a
verification suite reports a failure, 2 for usage and load problems.
"""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import refcat.cli as cli_mod
import refcat.hoare as hoare_mod
import refcat.pshcore as pshcore_mod
import refcat.repchecks as repchecks_mod
import refcat.represent as represent_mod
from refcat.cli import main
from refcat.fincat import FinCategory, OppositeCategory
from refcat.reports import CheckReport
from tests.test_duality import reversed_derivation_row
from tests.test_represent import (
    CORRUPTED_REP_FAILURES,
    corrupt_representation,
    empty_last_support_point,
)

SKEW = """
category D
  objects a b
  mor e : a -> a
  mor f : a -> b
  mor g : a -> b
  compose e ; e = e
  compose e ; f = f
  compose e ; g = f
category T
  objects w
functor t : D -> T
  obj a = w
  obj b = w
  mor e = id_w
  mor f = id_w
  mor g = id_w
refsys S : t
"""


@pytest.fixture()
def hoare_file(tmp_path):
    p = tmp_path / "h.fix"
    p.write_text("fixture h hoare\n")
    return str(p)


@pytest.fixture()
def skew_file(tmp_path):
    p = tmp_path / "skew.fix"
    p.write_text(SKEW)
    return str(p)


def test_validate_text(hoare_file, capsys):
    assert main(["validate", hoare_file]) == 0
    out = capsys.readouterr().out
    assert "refsys h: 4/38 over 1/4 (objects/morphisms)" in out
    assert "ok" in out


def test_validate_json(hoare_file, capsys):
    assert main(["validate", hoare_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data


def test_derive_reports_no_derivations(hoare_file, capsys):
    assert main(["derive", hoare_file, "{s0}", "swap", "{s0}"]) == 0
    assert capsys.readouterr().out.strip() == "no derivations"


def test_derive_lists_the_witness(hoare_file, capsys):
    assert main(["derive", hoare_file, "{s0,s1}", "set0", "{s0}"]) == 0
    assert capsys.readouterr().out.strip() == "set0:{s0,s1}>{s0}"


def test_derive_unknown_name_is_usage_error(hoare_file, capsys):
    assert main(["derive", hoare_file, "{s9}", "swap", "{s0}"]) == 2
    assert "unknown refinement" in capsys.readouterr().err


def test_missing_file_is_a_load_error(capsys):
    assert main(["validate", "/nonexistent.fix"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unreadable_workspaces_are_load_errors(tmp_path, capsys):
    # A directory, or a file that is not UTF-8, is reported like any other
    # load error: one `error:` line and exit 2, no traceback.
    assert main(["validate", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")
    p = tmp_path / "utf16.fix"
    p.write_bytes(b"\xff\xfef\x00i\x00")
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {p}: not UTF-8 text at byte 0\n"


def test_unknown_system_names_the_system_in_quotes(hoare_file, capsys):
    assert main(["derive", hoare_file, "{s0}", "swap", "{s1}", "--system", "nope"]) == 2
    assert capsys.readouterr().err == "error: unknown system 'nope'\n"


@pytest.mark.parametrize(
    "body, message",
    [
        ("category C\n  objects a\n", "workspace defines no refinement system"),
        ("fixture x galois\n", "workspace has 2 systems; pick one with --system"),
    ],
    ids=["none", "two"],
)
def test_a_workspace_without_exactly_one_system_needs_a_name(tmp_path, capsys, body, message):
    p = tmp_path / "w.fix"
    p.write_text(body)
    assert main(["verify", str(p), "all"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_suite_is_rejected_by_the_parser(hoare_file):
    with pytest.raises(SystemExit) as err:
        main(["verify", hoare_file, "nonsense"])
    assert err.value.code == 2


def test_slice_and_coslice(hoare_file, capsys):
    assert main(["slice", hoare_file, "W"]) == 0
    out = capsys.readouterr().out
    assert "slice(hoare,W): 16 objects, 152 morphisms" in out
    assert main(["coslice", hoare_file, "W"]) == 0
    assert "16 objects" in capsys.readouterr().out


def test_represent_positive(hoare_file, capsys):
    assert main(["represent", hoare_file, "--pos", "{s0}"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("presheaf rep({s0}) : slice(hoare,W)")
    assert "at ({s0},id) : id:{s0}>{s0}" in out


def test_pushforward_certificate(hoare_file, capsys):
    assert main(["pushforward", hoare_file, "set0", "{s0,s1}"]) == 0
    out = capsys.readouterr().out
    assert "pushforward set0!{s0,s1} = {s0}" in out
    assert "factoring problems solved: 8" in out


def test_pullback_certificate(hoare_file, capsys):
    assert main(["pullback", hoare_file, "set0", "{s1}"]) == 0
    assert "pullback set0*{s1} = {}" in capsys.readouterr().out


def test_dual_commands(hoare_file, capsys):
    assert main(["dual", hoare_file, "--left", "{s0}"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("presheaf dualL(rep({s0})) : slice(hoare^op,W)")
    assert main(["dual", hoare_file, "--right", "{s0}"]) == 0
    assert "dualR" in capsys.readouterr().out


def test_verify_all_on_hoare(hoare_file, capsys):
    assert main(["verify", hoare_file, "all"]) == 0
    out = capsys.readouterr().out
    assert "suite all: 8/8 reports ok" in out


def test_verify_all_on_the_other_fixtures(tmp_path, capsys):
    for kind in ("lattice-collapse", "lattice-identity", "galois", "random"):
        p = tmp_path / f"{kind}.fix"
        body = f"fixture x {kind}\n" if kind != "random" else "fixture x random seed=5\n"
        p.write_text(body)
        args = ["verify", str(p), "all"]
        if kind == "galois":
            args += ["--system", "x"]
        assert main(args) == 0, kind
        assert "reports ok" in capsys.readouterr().out


def test_verify_json_shape(hoare_file, capsys):
    assert main(["verify", hoare_file, "duality", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert isinstance(reports, list) and reports
    keys = set(reports[0])
    assert {"name", "statement", "passed", "failed", "skipped", "notes"} <= keys
    assert "wall" not in " ".join(keys)


def test_verify_skew_system_is_green(skew_file, capsys):
    assert main(["verify", skew_file, "duality"]) == 0
    capsys.readouterr()


def test_corrupted_tables_turn_the_suite_red(skew_file, capsys, monkeypatch):
    # A reversed row of a representation is read by every suite that
    # reads a representation's rows, and each records it as a failure.
    reversed_derivation_row(monkeypatch)
    for suite in ("ff", "factorization", "duality", "negative-encoding"):
        assert main(["verify", skew_file, suite]) == 1, suite
        assert capsys.readouterr().err == ""


def test_verify_hoare_reads_only_rows_a_check_can_fail_on(hoare_file, monkeypatch, capsys):
    # Presheaf rows are read only for constraints into sets of two or more
    # elements, and the opposite of a comma category composes through the
    # comma's own rows, which are filled only where the lift and transport
    # clauses compose: a return to eager row reads fails here, with no
    # timing involved.
    filled = []
    checked = pshcore_mod._checked
    monkeypatch.setattr(pshcore_mod, "_checked", lambda *args: filled.append(args[3]) or checked(*args))
    commas = []
    build = repchecks_mod.comma_system
    monkeypatch.setattr(
        repchecks_mod, "comma_system", lambda *args: commas.append(build(*args)) or commas[-1]
    )
    assert main(["verify", hoare_file, "all"]) == 0
    capsys.readouterr()
    assert 0 < len(filled) <= 304
    assert len(commas) == 2
    for cs in commas:
        assert 0 < sum(row is not None for row in cs.sys.D._rows) < cs.sys.D.n_morphisms
        assert all(row is None for row in cs.sys.op().D._rows)


@pytest.fixture()
def linctx_file(tmp_path):
    p = tmp_path / "l.fix"
    p.write_text("fixture l linctx\n")
    return str(p)


def test_verify_linctx_ff_searches_only_judgments_that_can_have_a_family(
    linctx_file, monkeypatch, capsys
):
    # A judgment whose source support is not sent into rep(Q2)'s support
    # has no family, and with no derivation it is counted in bulk, not
    # searched or visited; a slice is built with one composite per
    # (derivation, c2), not one per (point, derivation, c2).
    searched = []
    search = repchecks_mod._families_on_support
    monkeypatch.setattr(
        repchecks_mod, "_families_on_support", lambda *a: searched.append(1) or search(*a)
    )
    bulk, visited = [], []
    real_passes, real_pass = CheckReport.record_passes, CheckReport.record_pass
    monkeypatch.setattr(
        CheckReport, "record_passes", lambda self, n: bulk.append(n) or real_passes(self, n)
    )
    monkeypatch.setattr(
        CheckReport, "record_pass", lambda self: visited.append(1) or real_pass(self)
    )
    composed = Counter()
    for cls in (FinCategory, OppositeCategory):
        real = cls.__dict__["compose"]
        monkeypatch.setattr(
            cls, "compose", lambda self, f, g, _real=real: composed.update((id(self),)) or _real(self, f, g)
        )
    built = []
    build = represent_mod.SliceCategory

    def counted(sys, B):
        before = composed[id(sys.T)]
        S = build(sys, B)
        built.append((sys, B, composed[id(sys.T)] - before))
        return S

    monkeypatch.setattr(represent_mod, "SliceCategory", counted)
    assert main(["verify", linctx_file, "ff"]) == 0
    assert "attempted 30182 passed 30182" in capsys.readouterr().out
    assert len(searched) == 248
    assert (len(visited), sum(bulk)) == (248, 29934)
    assert built
    for sys, B, n in built:
        pairs = sum(len(sys.T.hom(sys.shape(sys.D.cod(a)), B)) for a in range(sys.D.n_morphisms))
        assert n <= pairs


@pytest.mark.parametrize("which", ["hoare", "linctx"])
def test_a_preimage_that_drops_a_point_turns_preservation_red(
    which, hoare_file, linctx_file, monkeypatch, capsys
):
    # The support of a pull along a slice action is read from the inverse
    # of its object map: a wrong index must fail the comparisons, not
    # shrink what preservation decides.
    path = hoare_file if which == "hoare" else linctx_file
    assert main(["verify", path, "preservation"]) == 0
    clean = capsys.readouterr().out
    real = represent_mod.SliceAction.preimage
    monkeypatch.setattr(represent_mod.SliceAction, "preimage", lambda self, pts: real(self, pts)[:-1])
    assert main(["verify", path, "preservation"]) == 1
    out = capsys.readouterr().out
    attempted = lambda text: text.split("attempted ", 1)[1].split()[0]
    assert attempted(out) == attempted(clean)
    assert "failed 0" in clean and "failed 0" not in out


def test_composite_with_wrong_endpoints_is_named(tmp_path, capsys):
    # e;e lands in hom(a, b); validation reports that, not the
    # non-composable pair an associativity sweep would then ask for.
    p = tmp_path / "endpoints.fix"
    p.write_text(
        "category D\n"
        "  objects a b\n"
        "  mor e : a -> a\n"
        "  mor f : a -> b\n"
        "  compose e ; e = f\n"
        "  compose e ; f = f\n"
        "category T\n"
        "  objects w\n"
        "functor t : D -> T\n"
        "  obj a = w\n"
        "  obj b = w\n"
        "  mor e = id_w\n"
        "  mor f = id_w\n"
        "refsys S : t\n"
    )
    assert main(["verify", str(p), "all"]) == 2
    err = capsys.readouterr().err
    assert "category D: composition-endpoints: e;e = f has wrong endpoints" in err


def test_fixture_gen_roundtrips(tmp_path, capsys):
    for kind, extra in (
        ("hoare", []),
        ("linctx", []),
        ("lattice-collapse", []),
        ("lattice-identity", []),
        ("galois", []),
        ("random", ["--seed", "5"]),
    ):
        assert main(["fixtures", "gen", kind] + extra) == 0
        out = capsys.readouterr().out
        p = tmp_path / f"{kind}.gen.fix"
        p.write_text(out)
        assert main(["validate", str(p)]) == 0
        capsys.readouterr()


def test_global_flags_may_follow_the_subcommand(capsys):
    # the seed flag belongs to the fixtures subparser and follows it
    assert main(["fixtures", "gen", "random", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert "seed=9" in first
    assert main(["fixtures", "gen", "random", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("kind, accepts", [("hoare", "none"), ("linctx", "K"), ("galois", "none")])
def test_a_seed_for_a_fixture_without_one_is_a_usage_error(kind, accepts, capsys):
    assert main(["fixtures", "gen", kind, "--seed", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: fixture {kind} has no parameter 'seed' (accepts: {accepts})\n"


def test_the_random_fixture_is_generated_at_seed_0_by_default(capsys):
    assert main(["fixtures", "gen", "random"]) == 0
    default = capsys.readouterr().out
    assert "fixture random random seed=0\n" in default
    assert main(["fixtures", "gen", "random", "--seed", "0"]) == 0
    assert capsys.readouterr().out == default


def run_cli(args, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-m", "refcat", *args],
        capture_output=True,
        env=env,
        check=False,
    )


def test_output_is_stable_across_hash_randomization(tmp_path):
    p = tmp_path / "c.fix"
    p.write_text("fixture c lattice-collapse\n")
    runs = [run_cli(["verify", str(p), "all"], hs) for hs in ("1", "99")]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout  # nonempty


def test_a_reader_closing_the_pipe_early_gets_no_traceback(hoare_file):
    # The read end is closed before the child prints anything, so its
    # write fails with a broken pipe whatever the timing.
    proc = subprocess.Popen(
        [sys.executable, "-m", "refcat", "verify", hoare_file, "all"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_verify_builds_no_judgment_category_and_no_product(hoare_file, capsys, monkeypatch):
    # verify reads the pairing from the derivation index and puts it on
    # no product category.
    import refcat.monoidal as monoidal_mod

    calls = {"ProductCategory": 0}
    real_init = monoidal_mod.ProductCategory.__init__

    def counted_init(self, *args):
        calls["ProductCategory"] += 1
        real_init(self, *args)

    monkeypatch.setattr(monoidal_mod.ProductCategory, "__init__", counted_init)
    assert main(["verify", hoare_file, "all"]) == 0
    assert "suite all: 8/8 reports ok" in capsys.readouterr().out
    assert calls == {"ProductCategory": 0}


def test_size_guard_reaches_the_comma_guard(tmp_path, capsys):
    # The comma routes of factorization are the guarded constructions
    # that verify reaches; the default guard is the one in the goldens.
    p = tmp_path / "l.fix"
    p.write_text("fixture l linctx\n")
    assert main(["verify", str(p), "factorization", "--size-guard", "10"]) == 0
    out = capsys.readouterr().out
    assert "  skip: pos comma route: comma category objects: estimated 888 > guard 10" in out
    assert "  skip: neg comma route: comma category objects: estimated 967 > guard 10" in out
    assert main(["verify", str(p), "factorization"]) == 0
    assert "> guard 60000" in capsys.readouterr().out


def test_a_negative_size_guard_is_a_usage_error(hoare_file, capsys):
    # A negative guard would skip every guarded build as "estimated n >
    # guard -1" and still exit 0; 0 is a legal guard.
    assert main(["verify", hoare_file, "factorization", "--size-guard", "-1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --size-guard must be 0 or more, got -1\n")
    assert main(["verify", hoare_file, "factorization", "--size-guard", "0"]) == 0
    assert "estimated 16 > guard 0" in capsys.readouterr().out


def test_a_linctx_past_the_size_guard_exits_2(tmp_path, capsys):
    # Fin<=6 has 82,207 morphisms: refused before any is listed.
    p = tmp_path / "l.fix"
    p.write_text("fixture l linctx K=6\n")
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {p}:1: Fin<=6 has too many morphisms: estimated 82207 > guard 60000\n"


def test_a_fixture_builder_refusal_names_the_file_and_line(tmp_path, capsys):
    # A StructuralError from a fixture builder is a load error of its block.
    p = tmp_path / "l.fix"
    p.write_text("# contexts of negative length\n\nfixture l linctx K=-1\n")
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {p}:3: multimorphism 1A needs a context of size 1 > K=-1\n"


def test_scripts_run_from_a_plain_checkout(tmp_path, capsys):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = tmp_path / "fixtures"
    done = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "gen_fixtures.py"), str(out)],
        capture_output=True,
        cwd=tmp_path,
        env=env,
        check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    files = sorted(out.glob("*.fix"))
    assert len(files) == 6
    for path in files:
        assert main(["validate", str(path)]) == 0, path.name
    capsys.readouterr()


def test_flags_are_rejected_where_nothing_reads_them(hoare_file, capsys):
    # --seed is read by `fixtures` only and --size-guard by `verify` only;
    # no command reads --cross-check.
    for argv in (
        ["verify", hoare_file, "ff", "--seed", "3"],
        ["fixtures", "gen", "hoare", "--size-guard", "10"],
        ["derive", hoare_file, "{s0}", "swap", "{s0}", "--cross-check"],
        ["dual", hoare_file, "--left", "{s0}", "--size-guard", "10"],
        ["verify", hoare_file, "duality", "--cross-check"],
        ["dual", hoare_file, "--left", "{s0}", "--cross-check"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_ff_exits_1_on_a_representation_missing_an_element(hoare_file, capsys, monkeypatch):
    build = hoare_mod.build_hoare

    def tampered(spec):
        sys = build(spec)
        empty_last_support_point(sys, "{s0,s1}")
        return sys

    monkeypatch.setattr(hoare_mod, "build_hoare", tampered)
    assert main(["verify", hoare_file, "ff"]) == 1
    out = capsys.readouterr().out
    assert "  attempted 128 passed 121 failed 7 skipped 0" in out
    assert "image of swap:{s0}>{s0,s1} has no element at ({s0,s1},set0;swap)" in out
    assert out.endswith("suite ff: 0/1 reports ok\n")


@pytest.mark.parametrize("tamper", sorted(CORRUPTED_REP_FAILURES))
def test_verify_ff_exits_1_on_a_corrupted_representation(hoare_file, capsys, monkeypatch, tamper):
    build = hoare_mod.build_hoare

    def tampered(spec):
        sys = build(spec)
        corrupt_representation(sys, tamper)
        return sys

    monkeypatch.setattr(hoare_mod, "build_hoare", tampered)
    assert main(["verify", hoare_file, "ff"]) == 1
    out = capsys.readouterr().out
    failed, counterexample = CORRUPTED_REP_FAILURES[tamper]
    assert f"  attempted 128 passed {128 - failed} failed {failed} skipped 0" in out
    assert counterexample.split(": ", 1)[1] in out
    assert out.endswith("suite ff: 0/1 reports ok\n")


def test_verify_factorization_compares_the_supports_of_a_representation(
    hoare_file, capsys, monkeypatch
):
    # rep({s0,s1}) loses the first point of its support and keeps its
    # payloads and rows: only a comparison of supports tells it from the
    # hom presheaf of its point.
    build = hoare_mod.build_hoare

    def tampered(spec):
        sys = build(spec)
        corrupt_representation(sys, "sieve")
        return sys

    monkeypatch.setattr(hoare_mod, "build_hoare", tampered)
    assert main(["verify", hoare_file, "factorization"]) == 1
    out = capsys.readouterr().out
    assert (
        "    pos representability of {s0,s1}: "
        "the support of rep({s0,s1}) is not that of its point\n"
    ) in out


# tamper -> ff's first counterexample on hoare
TAMPERED_FF = {
    "empty": "pos {s0} =swap=> {s0,s1}: image of swap:{s0}>{s0,s1} has no element at "
    "({s0,s1},set0;swap): rep({s0,s1}) lacks set0;swap:{s0,s1}>{s0,s1}",
    **{tamper: failure[1] for tamper, failure in CORRUPTED_REP_FAILURES.items()},
}


@pytest.mark.parametrize("suite", [*cli_mod.SUITES, "all"])
@pytest.mark.parametrize("tamper", sorted(TAMPERED_FF))
def test_a_corrupted_representation_is_a_failed_report_in_every_suite(
    hoare_file, capsys, monkeypatch, tamper, suite
):
    # A lookup that a corrupted rep({s0,s1}) breaks raises a
    # StructuralError naming it, and the suite it stopped is one failed
    # report: no suite exits 2 or raises, and `all` still prints ff's
    # counterexample.
    build = hoare_mod.build_hoare

    def tampered(spec):
        sys = build(spec)
        if tamper == "empty":
            empty_last_support_point(sys, "{s0,s1}")
        else:
            corrupt_representation(sys, tamper)
        return sys

    monkeypatch.setattr(hoare_mod, "build_hoare", tampered)
    rc = main(["verify", hoare_file, suite])
    out, err = capsys.readouterr()
    assert err == ""
    if suite == "all":
        assert rc == 1 and f"    {TAMPERED_FF[tamper]}\n" in out
    else:
        assert rc in (0, 1)
