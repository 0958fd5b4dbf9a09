#!/usr/bin/env python3
"""Run every verification suite on every shipped fixture.

Writes the fixture files into a scratch directory, runs the `refcat`
command line against each, then `verify all` on linctx at K=4 and
`validate` on linctx at K=5, and exits with the worst exit code of the
runs: nonzero if any suite reports a failure or a load fails.  Each run
is a fresh child process, so its wall time and its own peak RSS (from
`os.wait4`) go to stderr, and stdout holds the transcripts only.  Pass
--out DIR to keep the generated files.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Run from a plain checkout: the checkout's sources come first.
SRC = str(Path(__file__).resolve().parent.parent / "src")

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
    # a judgment with three derivations: the naturality constraints and
    # the representations' action rows are read here
    ("random-3", "fixture random random seed=3\n", []),
)


def timed(title: str, argv: list[str]) -> int:
    """Run one refcat command in a child process under a `== title`
    header, and return its exit code; its wall time and peak RSS go to
    stderr."""
    print(f"== {title}", flush=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "refcat", *argv], env=env)
    _pid, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so it does not wait again.
    child.returncode = rc = os.waitstatus_to_exitcode(status)
    print(flush=True)
    print(f"{title}: {wall:.2f} s, {usage.ru_maxrss / 1024:.1f} MB peak RSS", file=sys.stderr)
    return rc


def run(out_dir: Path) -> int:
    worst = 0
    for name, body, extra in FIXTURES:
        path = out_dir / f"{name.split('.')[0]}.fix"
        path.write_text(body)
        worst = max(worst, timed(name, ["verify", str(path), "all", *extra]))
    # linctx at K=4, the largest on which `verify all` runs here, and at
    # K=5, the largest a workspace loads: Fin<=5 is lawful as built, so
    # the load validates Ctx and the projection only
    k4, k5 = out_dir / "linctx-k4.fix", out_dir / "linctx-k5.fix"
    k4.write_text("fixture l linctx K=4\n")
    k5.write_text("fixture l linctx K=5\n")
    worst = max(worst, timed("linctx K=4 all", ["verify", str(k4), "all"]))
    worst = max(worst, timed("linctx K=5 validate", ["validate", str(k5)]))
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
