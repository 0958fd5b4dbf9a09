#!/usr/bin/env python3
"""Run every verification suite on every shipped fixture.

Writes the fixture files into a scratch directory, drives the `refcat`
command line against each, then runs `duality --cross-check` on the
fixtures in CROSS_CHECK, and exits nonzero if any suite reports a
failure.  Pass --out DIR to keep the generated files.
"""

import argparse
import sys
import tempfile
from pathlib import Path

# Run from a plain checkout: the checkout's sources come first.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from refcat.cli import main as refcat  # noqa: E402

# the galois fixture registers both ends of the adjunction, so the suite
# needs to be pointed at one of them explicitly
FIXTURES = (
    ("hoare", "fixture hoare hoare\n", []),
    ("linctx", "fixture linctx linctx\n", []),
    ("lattice-collapse", "fixture collapse lattice-collapse\n", []),
    ("lattice-identity", "fixture identity lattice-identity\n", []),
    ("galois", "fixture galois galois\n", ["--system", "galois"]),
    ("galois.e", "fixture galois galois\n", ["--system", "galois.e"]),
    ("random", "fixture random random seed=5\n", []),
)
# fixtures whose duals are also recomputed from the slice x coslice
# pairing's own rows at every point
CROSS_CHECK = ("hoare", "linctx", "lattice-collapse", "lattice-identity")


def run(out_dir: Path) -> int:
    worst = 0
    for name, body, extra in FIXTURES:
        path = out_dir / f"{name.split('.')[0]}.fix"
        path.write_text(body)
        print(f"== {name}")
        rc = refcat(["verify", str(path), "all", *extra])
        worst = max(worst, rc)
        print()
    for name in CROSS_CHECK:
        print(f"== {name} duality --cross-check")
        rc = refcat(["verify", str(out_dir / f"{name}.fix"), "duality", "--cross-check"])
        worst = max(worst, rc)
        print()
    return worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", help="directory for the generated fixture files")
    args = ap.parse_args()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return run(out)
    with tempfile.TemporaryDirectory(prefix="refcat-") as tmp:
        return run(Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
