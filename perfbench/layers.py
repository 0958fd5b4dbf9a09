"""Per-layer metrics from the spans the tracer wrote.

A span's self time is its duration minus the durations of its child
spans.  Every `.s` metric is a self time, except `cli.import.s` (a span
with no children) and `cli.suite.<suite>.s`, which is the whole suite span:
its children are the layers it calls, and the point of the metric is to
attribute a pass's time to a suite.
"""

from __future__ import annotations

from collections import defaultdict

SUITES = (
    "laws", "ff", "preservation", "factorization", "genday",
    "duality", "negative-encoding", "notnot-tensor", "rapp",
)

# Self times of single functions: metric `<name>.s`.
SELF_TIMED = (
    "fincat.validate_category", "fincat.functor_category", "psh.residual_psh",
    "duality.judgment_category", "represent.comma_system", "represent.slice_of",
    "represent.pos_rep", "represent.neg_rep", "psh.natural_families", "psh.push_psh",
    "refsys.find_pullback", "refsys.find_pushforward", "refsys.rapp_check",
    "duality.dual_left", "duality.dual_right", "duality.negative_encoding_check",
)
# Call counts: metric `<name>.calls`.
CALLED = (
    "fincat.validate_category", "fincat.functor_category", "psh.residual_psh",
    "duality.judgment_category", "represent.comma_system", "represent.slice_of",
    "represent.pos_rep", "psh.natural_families", "refsys.find_pullback",
    "refsys.find_pushforward",
)
# Counts the tracer records itself, reported under the same key.
RECORDED = (
    "fincat.compose.calls", "fincat.functor_category.morphisms",
    "duality.judgment_category.guard_trips", "duality.judgment_category.morphisms",
    "duality.judgment_category.true_size", "represent.comma_system.guard_trips",
    "represent.comma_system.morphisms", "represent.slice_of.built",
    "refsys.find_pullback.none",
) + tuple(f"cli.suite.{s}.skipped" for s in SUITES)

# Slack for float rounding when checking that spans nest.
_EPS = 1e-9


def analyse(trace: dict) -> tuple[dict[str, float], list[str]]:
    """Totals for one traced process: `name.calls`, `name.s` (self),
    `name.incl_s` and the recorded counts; plus nesting problems."""
    names, spans = trace["names"], trace["spans"]
    child_time = [0.0] * len(spans)
    problems: list[str] = []
    for i, (_nid, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({names[_nid]}) ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if not (parent < i and start >= p[1] and end <= p[2]):
                problems.append(f"span {i} ({names[_nid]}) lies outside its parent {parent}")
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    in_build = [False] * len(spans)
    for i, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        own = end - start - child_time[i]
        if own < -_EPS:
            problems.append(f"span {i} ({name}) has negative self time {own}")
        totals[f"{name}.calls"] += 1
        totals[f"{name}.s"] += own
        totals[f"{name}.incl_s"] += end - start
        in_build[i] = name == "textio.build_fixture" or (parent >= 0 and in_build[parent])
        if in_build[i] and (name.startswith("fixtures.") or name == "textio.build_fixture"):
            totals["fixtures.build.s"] += own
    for key, value in trace["counts"].items():
        totals[key] += value
    return totals, problems


def layer_metrics(traces: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one pass (one or more traced processes)."""
    totals: dict[str, float] = defaultdict(float)
    problems: list[str] = []
    for trace in traces:
        t, p = analyse(trace)
        for key, value in t.items():
            totals[key] += value
        problems += p
    out: dict[str, float] = {}
    for name in SELF_TIMED:
        out[f"{name}.s"] = totals[f"{name}.s"]
    for name in CALLED:
        out[f"{name}.calls"] = int(totals[f"{name}.calls"])
    for key in RECORDED:
        out[key] = int(totals[key])
    out["textio.load.s"] = totals["textio.load.s"] + totals["textio.loads.s"]
    out["fixtures.build.s"] = totals["fixtures.build.s"]
    out["cli.import.s"] = totals["cli.import.incl_s"]
    for s in SUITES:
        out[f"cli.suite.{s}.s"] = totals[f"cli.suite.{s}.incl_s"]
    out["trace.spans"] = int(sum(len(t["spans"]) for t in traces))
    return out, problems


def exact_counts(metrics: dict[str, float]) -> dict[str, int]:
    """The metrics that must repeat exactly between traced runs."""
    suffixes = (".calls", ".built", ".guard_trips", ".morphisms", ".none", ".true_size", ".skipped")
    return {k: v for k, v in metrics.items() if k.endswith(suffixes) or k == "trace.spans"}


def guard_messages(traces: list[dict]) -> dict[str, dict[str, int]]:
    """Size-guard messages as raised, per function, with their counts."""
    out: dict[str, dict[str, int]] = {}
    for trace in traces:
        for fn, msgs in trace["guard_messages"].items():
            for msg, n in msgs.items():
                out.setdefault(fn, {})
                out[fn][msg] = out[fn].get(msg, 0) + n
    return out
