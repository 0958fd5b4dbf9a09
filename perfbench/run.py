#!/usr/bin/env python3
"""The refcat benchmark: drives the `refcat` command line from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run it from the root of a checkout; it runs `src/refcat` from there.  One
client, closed loop: each pass or query is its own process, started after
the previous one ended, with its own PYTHONHASHSEED.  Workloads, metrics
and bounds are declared in BENCHMARK.json; perfbench/README.md says why.

With --trace 0 the run measures end-to-end metrics.  With --trace 1 it
alternates untraced passes with passes under perfbench/tracer.py and
reports per-layer metrics and the tracing overhead.  Every run checks
the program's answers; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import layers
import transcripts
import workloads
from procs import Proc, Runner

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hoare-verify", "linctx-verify", "lattice-verify", "query-mix")

# Set-up is repeated until this much of it is measured, at least
# SETUP_MIN_REPS and at most SETUP_MAX_REPS times; a validate process
# takes 0.2-0.4 s and spreads by a third, so one sample is not enough.
SETUP_SECONDS = 2.0
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
# Passes compared byte for byte need at least two of them.
MIN_PASSES = 2
# p90 needs ten samples beyond it.
MIN_QUERIES = 100
# No operation starts if the longest one so far would end past this.
HARD_LIMIT_S = 150.0
# End-to-end times are rescaled to a host on which perfbench/reference.py
# takes REF_NOMINAL_S.  On a shared host the speed drifts by a third for
# minutes at a time; the reference, run between operations, moves with it.
# A reference point is REF_SAMPLES runs, taken before set-up, after an
# operation once REF_EVERY_S have passed since the last point, and at the end.
REF_NOMINAL_S = 0.110
REF_SAMPLES = 2
REF_EVERY_S = 2.0
REF_CHECKSUM = b"115200"


@dataclass
class Tally:
    """Operations attempted and failed; an operation is a pass or a query."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


class HostSpeed:
    """Samples of the reference program's wall time during one run."""

    def __init__(self, runner: Runner, tally: Tally):
        self.runner, self.tally = runner, tally
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self.last < REF_EVERY_S:
            return
        for _ in range(REF_SAMPLES):
            p = self.runner.run([sys.executable, str(HERE / "reference.py")])
            if p.rc != 0 or p.stdout.strip() != REF_CHECKSUM:
                self.tally.record([f"reference program: exit {p.rc}, output {p.stdout[:40]!r}"])
            else:
                self.samples.append(p.wall_s)
        self.last = time.perf_counter()

    def scale(self) -> float:
        """Factor from this run's wall seconds to nominal-host seconds."""
        return REF_NOMINAL_S / median(self.samples)


def pass_time(walls: list[list[float]]) -> float:
    """The wall time of one pass, robust to a slow process: each process's
    median over the passes, summed over the processes of a pass."""
    return sum(median(col) for col in zip(*walls))


def percentile(xs, q: float) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def proc_problems(label: str, p: Proc) -> list[str]:
    """A nonzero exit or a traceback, with the last line of stderr."""
    if p.rc == 0 and b"Traceback" not in p.stderr:
        return []
    lines = p.stderr.decode(errors="replace").strip().splitlines()
    return [f"{label}: exit {p.rc}: {lines[-1] if lines else ''}"]


def keep_going(t0: float, seconds: float, done: int, minimum: int, longest: float) -> bool:
    elapsed = time.perf_counter() - t0
    if elapsed + longest > HARD_LIMIT_S:
        return False
    return done < minimum or elapsed < seconds


# ---------------------------------------------------------------------------
# Set-up


def measure_setup(runner: Runner, files: list[str], tally: Tally, timed: bool = True):
    """The wall time to validate every input, by `pass_time` over the
    rounds.  One untimed round first compiles the sources, as an
    installed package would be; with timed=False that is all."""

    def validate_all() -> list[float]:
        times, problems = [], []
        for f in files:
            p = runner.refcat(["validate", f])
            times.append(p.wall_s)
            problems += proc_problems(f"validate {f}", p)
            if p.rc == 0 and not p.stdout.decode().rstrip().endswith("ok"):
                problems.append(f"validate {f}: no 'ok' line")
        if problems:
            tally.record(problems)
        return times

    validate_all()
    if not timed:
        return None
    walls = [validate_all() for _ in range(SETUP_MIN_REPS)]
    while len(walls) < SETUP_MAX_REPS and sum(map(sum, walls)) < SETUP_SECONDS:
        walls.append(validate_all())
    return pass_time(walls)


# ---------------------------------------------------------------------------
# verify workloads


@dataclass
class Pass:
    walls: list[float]
    rss_mb: float
    outputs: list[bytes]
    traces: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.walls)


def launch(runner: Runner, argv: list[str], trace_dir: Path | None, pass_id: int, k: int):
    """Run one refcat command, under the tracer when trace_dir is given.
    Returns the process, its spans (None untraced) and any problem."""
    if trace_dir is None:
        return runner.refcat(argv), None, []
    out = trace_dir / f"pass{pass_id}-{k}.json"
    p = runner.traced(argv, out, pass_id)
    if not out.exists():
        return p, None, [f"{' '.join(argv)}: the tracer wrote no spans"]
    trace = json.loads(out.read_text())
    out.unlink()
    return p, trace, []


def verify_pass(runner: Runner, calls, reference: list[bytes] | None, tally: Tally,
                trace_dir: Path | None = None, pass_id: int = 0) -> Pass:
    procs, traces, problems = [], [], []
    for k, call in enumerate(calls):
        p, trace, problems_k = launch(runner, call.argv(), trace_dir, pass_id, k)
        procs.append(p)
        traces += [trace] if trace else []
        problems += problems_k
        problems += proc_problems(f"verify {call.label}", p)
        try:
            reports = transcripts.parse(p.stdout.decode())
        except ValueError as exc:
            problems.append(f"verify {call.label}: {exc}")
        else:
            red = [r.name for r in reports if r.failed]
            if red:
                problems.append(f"verify {call.label}: red reports {', '.join(red)}")
        if reference is not None and p.stdout != reference[k]:
            problems.append(f"verify {call.label}: transcript differs from the first pass")
    tally.record(problems)
    return Pass(
        [p.wall_s for p in procs], max(p.rss_mb for p in procs), [p.stdout for p in procs], traces
    )


def pass_checks(outputs: list[bytes]) -> tuple[int, int, list[transcripts.Report]]:
    reports: list[transcripts.Report] = []
    for out in outputs:
        try:
            reports += transcripts.parse(out.decode())
        except ValueError:
            pass
    decided, attempted = transcripts.decided(reports)
    return decided, attempted, reports


def run_verify(runner: Runner, inputs: workloads.Inputs, seconds: float, tally: Tally,
               notes: list[str], work: Path):
    speed = HostSpeed(runner, tally)
    speed.sample(force=True)
    setup = measure_setup(runner, inputs.setup_files, tally)
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while keep_going(t0, seconds, len(passes), MIN_PASSES, max((p.wall_s for p in passes), default=0)):
        ref = passes[0].outputs if passes else None
        passes.append(verify_pass(runner, inputs.calls, ref, tally))
        speed.sample()
    speed.sample(force=True)
    decided, attempted, reports = pass_checks(passes[0].outputs)
    scale = speed.scale()
    latency = pass_time([p.walls for p in passes]) * scale
    notes.append(f"passes {len(passes)}: " + " ".join(f"{p.wall_s:.3f}" for p in passes) + " s")
    notes.append(host_note(speed, setup))
    notes.append(f"checks decided {decided} of {attempted}")
    notes += skip_table(reports)
    return {
        "setup_s": setup * scale,
        "latency_s.p50": latency,
        "peak_rss_mb": median([p.rss_mb for p in passes]),
        "checks_decided": decided,
        "decided_share": decided / attempted if attempted else 0.0,
        "checks_per_s": decided / latency,
    }


def host_note(speed: HostSpeed, setup: float) -> str:
    return (
        f"reference {median(speed.samples):.4f} s over {len(speed.samples)} samples: "
        f"times x {speed.scale():.4f}; raw set-up {setup:.4f} s"
    )


def skip_table(reports) -> list[str]:
    rows = transcripts.skip_rows(reports)
    lines = [f"skips by reason ({sum(r[2] for r in rows)}):"] if rows else []
    for family, tmpl, n, example in rows:
        lines.append(f"  {n:6d}  {family}: {tmpl}" + (f"   e.g. {example}" if example not in ("", tmpl) else ""))
    return lines


def trace_verify(runner: Runner, inputs: workloads.Inputs, seconds: float, tally: Tally,
                 notes: list[str], work: Path):
    measure_setup(runner, inputs.setup_files, tally, timed=False)
    plain: list[Pass] = []
    traced: list[Pass] = []
    t0 = time.perf_counter()
    longest = 0.0
    while keep_going(t0, seconds, len(traced), 1, longest):
        ref = plain[0].outputs if plain else None
        plain.append(verify_pass(runner, inputs.calls, ref, tally))
        ref = plain[0].outputs
        traced.append(verify_pass(runner, inputs.calls, ref, tally, work, len(traced)))
        longest = plain[-1].wall_s + traced[-1].wall_s
    metrics = traced_layers([p.traces for p in traced], tally, notes)
    decided, attempted, _ = pass_checks(traced[0].outputs)
    metrics["reports.checks_decided"] = decided
    metrics["reports.attempted"] = attempted
    metrics["trace.overhead_s"] = pass_time([p.walls for p in traced]) - pass_time([p.walls for p in plain])
    notes.append(
        f"untraced passes {' '.join(f'{p.wall_s:.3f}' for p in plain)} s; "
        f"traced {' '.join(f'{p.wall_s:.3f}' for p in traced)} s"
    )
    return metrics


def traced_layers(pass_traces: list[list[dict]], tally: Tally, notes: list[str]):
    """Layer metrics of the first traced pass; every traced pass must nest
    its spans and repeat its exact counts."""
    first, counts = None, None
    for k, traces in enumerate(pass_traces):
        metrics, problems = layers.layer_metrics(traces)
        if problems:
            tally.record([f"traced pass {k}: {p}" for p in problems[:5]])
        if first is None:
            first, counts = metrics, layers.exact_counts(metrics)
            continue
        diff = sorted(key for key, v in layers.exact_counts(metrics).items() if counts.get(key) != v)
        if diff:
            tally.record([f"traced pass {k}: counts differ from pass 0: {', '.join(diff)}"])
    for fn, msgs in layers.guard_messages(pass_traces[0]).items():
        for msg, n in msgs.items():
            notes.append(f"guard {fn}: {n} x '{msg}'")
    if first["duality.judgment_category.true_size"]:
        notes.append(f"judgment category true size {first['duality.judgment_category.true_size']}")
    return first


# ---------------------------------------------------------------------------
# query-mix


def query_round(runner: Runner, queries, reference: list[bytes] | None, tally: Tally,
                trace_dir: Path | None = None, pass_id: int = 0, speed: HostSpeed | None = None):
    procs, traces = [], []
    for k, q in enumerate(queries):
        p, trace, problems = launch(runner, list(q.argv), trace_dir, pass_id, k)
        procs.append(p)
        traces += [trace] if trace else []
        problems += proc_problems(" ".join(q.argv), p)
        text = p.stdout.decode()
        if p.rc == 0 and not text.strip():
            problems.append(f"{' '.join(q.argv)}: empty answer")
        if q.expect is not None and workloads.lift_answer(text) != q.expect:
            problems.append(
                f"{' '.join(q.argv)}: answered {workloads.lift_answer(text)!r}, "
                f"the state-machine semantics gives {q.expect!r}"
            )
        if reference is not None and p.stdout != reference[k]:
            problems.append(f"{' '.join(q.argv)}: answer differs from the first round")
        tally.record(problems)
        if speed is not None:
            speed.sample()
    return procs, traces


def run_queries(runner: Runner, inputs: workloads.Inputs, seconds: float, tally: Tally,
                notes: list[str], work: Path):
    speed = HostSpeed(runner, tally)
    speed.sample(force=True)
    setup = measure_setup(runner, inputs.setup_files, tally)
    rounds: list[list[Proc]] = []
    t0 = time.perf_counter()
    per_round = len(inputs.queries)
    min_rounds = -(-MIN_QUERIES // per_round)
    longest = 0.0
    while keep_going(t0, seconds, len(rounds), min_rounds, longest):
        ref = [p.stdout for p in rounds[0]] if rounds else None
        procs, _ = query_round(runner, inputs.queries, ref, tally, speed=speed)
        rounds.append(procs)
        longest = sum(p.wall_s for p in procs)
    speed.sample(force=True)
    scale = speed.scale()
    walls = [p.wall_s * scale for r in rounds for p in r]
    answered = sum(1 for p in rounds[0] if p.rc == 0)
    notes.append(
        f"queries {len(walls)} in {len(rounds)} rounds of {per_round}, rescaled: "
        f"p50 {median(walls) * 1000:.1f} ms, p90 {percentile(walls, 0.9) * 1000:.1f} ms"
    )
    notes.append(host_note(speed, setup))
    return {
        "setup_s": setup * scale,
        "latency_s.p50": median(walls),
        # The median query's: which query of a round is largest depends on
        # the arguments the seed drew.
        "peak_rss_mb": median([p.rss_mb for r in rounds for p in r]),
        "checks_decided": answered,
        "decided_share": answered / per_round,
        # Queries answered per second at the median latency: the round's
        # total depends on which heavy queries the seed drew.
        "checks_per_s": answered / per_round / median(walls),
    }


def trace_queries(runner: Runner, inputs: workloads.Inputs, seconds: float, tally: Tally,
                  notes: list[str], work: Path):
    measure_setup(runner, inputs.setup_files, tally, timed=False)
    plain, traced, pass_traces = [], [], []
    t0 = time.perf_counter()
    longest = 0.0
    while keep_going(t0, seconds, len(traced), 1, longest):
        ref = [p.stdout for p in plain[0]] if plain else None
        procs, _ = query_round(runner, inputs.queries, ref, tally)
        plain.append(procs)
        ref = [p.stdout for p in plain[0]]
        procs, traces = query_round(runner, inputs.queries, ref, tally, work, len(traced))
        traced.append(procs)
        pass_traces.append(traces)
        longest = sum(p.wall_s for p in plain[-1] + traced[-1])
    metrics = traced_layers(pass_traces, tally, notes)
    metrics["reports.checks_decided"] = sum(1 for p in traced[0] if p.rc == 0)
    metrics["reports.attempted"] = len(traced[0])
    metrics["trace.overhead_s"] = median([p.wall_s for r in traced for p in r]) - median(
        [p.wall_s for r in plain for p in r]
    )
    return metrics


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and human-readable notes."""
    # Relative to the checkout root, the working directory of every child.
    work = Path(".bench_build") / f"perfbench-{name}-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        hash_rng = random.Random(f"hash:{name}:{seed}:{int(trace)}")
        runner = Runner(ROOT, work, iter(lambda: hash_rng.randrange(1, 2**32), None))
        tally, notes = Tally(), []
        if name == "query-mix":
            inputs = workloads.query_inputs(seed, work, ROOT / "src")
            run = trace_queries if trace else run_queries
        else:
            inputs = workloads.verify_inputs(name, seed, work)
            run = trace_verify if trace else run_verify
        metrics = run(runner, inputs, seconds, tally, notes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    notes.append(f"failed_share {tally.failed}/{tally.attempted}")
    notes += [f"FAILED {p}" for p in tally.problems[:20]]
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}, notes


def with_units(metrics: dict, declared: list[dict]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not computed: {', '.join(missing)}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "refcat" / "cli.py").is_file():
        print(f"error: no refcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, notes = run_workload(name, args.seed, seconds, bool(args.trace))
        result["metrics"] = with_units(result["metrics"], declared)
        results[name] = result
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for line in notes:
            print(f"  {line}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:44s} {m['value']:>16.6g} {m['unit']}")
    sys.stdout.flush()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
