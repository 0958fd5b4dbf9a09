#!/usr/bin/env python3
"""Self-test of the benchmark's own checks and trace.

    python3 perfbench/selftest.py

Run from the root of a checkout (about a minute).  It shows that:
- a wrong known answer, a red report, a nonzero exit and a transcript that
  changes between passes each count as a failed operation;
- two traced runs of the same commit give identical counts, every span
  nests inside its parent with non-negative self time, and a span that
  does not nest is caught;
- BENCHMARK.json declares exactly the per-layer metrics the trace yields
  (run.py refuses to print a result when an end-to-end one is missing).
Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import sys
import time
from pathlib import Path

import layers
import run
import workloads
from procs import Runner

ROOT = run.ROOT
failures: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


class CannedRunner:
    """Answers every command with one fixed process result."""

    def __init__(self, proc):
        self.proc = proc

    def refcat(self, _args):
        return self.proc


def known_answers(runner: Runner, work: Path) -> None:
    hoare = workloads.write_input(work, "hoare.fix", "fixture hoare hoare\n")
    # set0 sends both states to s0: sp(set0, {s0,s1}) = {s0}.
    good = workloads.Query("pushforward", ("pushforward", hoare, "set0", "{s0,s1}"), "{s0}")
    bad = dataclasses.replace(good, expect="{s1}")
    for q, want in ((good, 0), (bad, 1)):
        tally = run.Tally()
        run.query_round(runner, [q], None, tally)
        check(tally.failed == want, f"query with expected answer {q.expect}: {tally.failed} failed")

    call = workloads.VerifyCall("hoare", hoare)
    tally = run.Tally()
    first = run.verify_pass(runner, [call], None, tally)
    check(tally.failed == 0, "a green verify pass on hoare does not fail")
    run.verify_pass(runner, [call], first.outputs, tally)
    check(tally.failed == 0, "a second pass under another hash seed repeats the transcript")

    real = runner.refcat(call.argv())
    text = real.stdout.decode()
    line = "  attempted 1 passed 1 failed 0 skipped 0"
    check(line in text, "the hoare transcript has a one-check report to turn red")
    red = text.replace(line, "  attempted 1 passed 0 failed 1 skipped 0", 1)
    cases = {
        "a red report": dataclasses.replace(real, stdout=red.encode(), rc=1),
        "a nonzero exit": dataclasses.replace(real, rc=1),
        "a traceback": dataclasses.replace(real, rc=1, stderr=b"Traceback (most recent call last):\n"),
        "a transcript that differs from the first pass": dataclasses.replace(
            real, stdout=text.replace("hoare", "h0are").encode()
        ),
    }
    for what, proc in cases.items():
        tally = run.Tally()
        run.verify_pass(CannedRunner(proc), [call], first.outputs, tally)
        check(tally.failed == 1 and tally.attempted == 1, f"{what} counts as a failed pass")


def trace(runner: Runner, work: Path) -> None:
    hoare = workloads.write_input(work, "hoare.fix", "fixture hoare hoare\n")
    collapse = workloads.write_input(work, "collapse.fix", "fixture c lattice-collapse\n")
    calls = [workloads.VerifyCall("hoare", hoare), workloads.VerifyCall("collapse", collapse)]
    passes = []
    for k in range(2):
        tally = run.Tally()
        passes.append(run.verify_pass(runner, calls, None, tally, work, k))
        check(tally.failed == 0, f"traced pass {k} is green")
    metrics = []
    for k, p in enumerate(passes):
        m, problems = layers.layer_metrics(p.traces)
        check(not problems, f"traced pass {k}: every span nests, self time >= 0 ({problems[:1]})")
        metrics.append(m)
    a, b = (layers.exact_counts(m) for m in metrics)
    check(a == b, "two traced runs give identical counts")
    check(a["fincat.compose.calls"] > 8_300_000, "compose calls are counted")

    broken = json.loads(json.dumps(passes[0].traces[0]))
    child = next(s for s in broken["spans"] if s[3] >= 0)
    child[2] = broken["spans"][child[3]][2] + 1.0
    _, problems = layers.analyse(broken)
    check(bool(problems), "a child span that ends after its parent is caught")

    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    computed = set(metrics[0]) | {"reports.checks_decided", "reports.attempted", "trace.overhead_s"}
    check(declared == computed, f"per_layer metrics match ({sorted(declared ^ computed)})")


def main() -> int:
    os.chdir(ROOT)
    work = Path(".bench_build") / f"selftest-{time.time_ns()}"
    work.mkdir(parents=True)
    rng = random.Random(0)
    runner = Runner(ROOT, work, iter(lambda: rng.randrange(1, 2**32), None))
    try:
        known_answers(runner, work)
        trace(runner, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
