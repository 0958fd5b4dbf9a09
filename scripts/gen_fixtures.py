#!/usr/bin/env python3
"""Write all shipped fixtures to a directory as loadable .fix files."""

import argparse
import sys
from pathlib import Path

# Run from a plain checkout: the checkout's sources come first.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from refcat.cli import main as refcat  # noqa: E402
from refcat.textio import FIXTURE_KINDS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out", help="target directory")
    ap.add_argument("--seed", type=int, default=5, help="seed for the random fixture")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    import contextlib
    import io

    for kind in FIXTURE_KINDS:
        buf = io.StringIO()
        argv = ["fixtures", "gen", kind]
        if kind == "random":
            argv += ["--seed", str(args.seed)]
        with contextlib.redirect_stdout(buf):
            rc = refcat(argv)
        if rc != 0:
            print(f"generation failed for {kind}", file=sys.stderr)
            return rc
        path = out / f"{kind}.fix"
        path.write_text(buf.getvalue())
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
