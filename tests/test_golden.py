"""Golden `verify all` transcripts, compared byte for byte.

The files under tests/golden/ are the default-format stdout of
`refcat verify <file> all` on the shipped fixtures.  A refactor that
changes any count, skip reason, note or counterexample shows up here as
a diff.  To regenerate one after an intended change, run for example

    refcat verify h.fix all > tests/golden/hoare.txt

with `h.fix` holding `fixture h hoare`, and review the diff.
"""

from pathlib import Path

import pytest

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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_all_matches_the_golden_transcript(name, tmp_path, capsys):
    body, extra = CASES[name]
    path = tmp_path / f"{name.split('.')[0]}.fix"
    path.write_text(body + "\n")
    assert main(["verify", str(path), "all", *extra]) == 0
    got = capsys.readouterr().out
    assert got == (GOLDEN / f"{name}.txt").read_text()
