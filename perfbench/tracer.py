"""Run one `refcat` command with spans around every public function.

Usage: python3 perfbench/tracer.py OUT.json PASS_ID -- REFCAT_ARGS...

The `refcat` package must be importable (the benchmark puts the checkout's
`src` on PYTHONPATH).  Before `refcat.cli.main` runs, every public
module-level function of the layer modules is replaced by a wrapper in
every `refcat.*` namespace that binds it (`cli` and `duality` import many
of them by name), and `FinCategory.compose` gets a bare call counter; it
runs millions of times, so it records no spans.  Spans stay in memory and
are written to OUT.json when the command returns, with the exit code,
counts and size-guard messages.  The program's own code is not changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time

LAYERS = ("textio", "fixtures", "fincat", "psh", "refsys", "represent", "duality", "cli")

# Functions whose distinct results are categories worth sizing.
SIZED = {
    "fincat.functor_category": lambda r: r.cat.n_morphisms,
    "duality.judgment_category": lambda r: r.cat.n_morphisms,
    "represent.comma_system": lambda r: len(r.mor_tags),
    "represent.slice_of": lambda r: r.cat.n_morphisms,
}


def judgment_true_size(sys_) -> int:
    """Morphisms of the judgment category of `sys_`, counted without
    building it: one per (beta, gamma, c2) with c2 in
    T.hom(shape(cod beta), shape(dom gamma))."""
    D, T = sys_.D, sys_.T
    cod_shapes = [sys_.shape(D.cod(b)) for b in range(D.n_morphisms)]
    dom_shapes = [sys_.shape(D.dom(g)) for g in range(D.n_morphisms)]
    return sum(len(T.hom(a, b)) for a in cod_shapes for b in dom_shapes)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # [name id, start, end, parent span index or -1]
        self.spans: list[list] = []
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.guard_messages: dict[str, dict[str, int]] = {}
        self._results: dict[str, dict[int, object]] = {}
        self._true_sizes: dict[int, int] = {}
        self.compose_calls = itertools.count()
        self.guard_error: type | tuple = ()

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append([self._nid(name), time.perf_counter(), 0.0, stack[-1]])
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            # Counted once, by the innermost span it leaves.
            if isinstance(exc, self.guard_error) and not hasattr(exc, "_perfbench_seen"):
                exc._perfbench_seen = True
                self._bump(f"{name}.guard_trips")
                msgs = self.guard_messages.setdefault(name, {})
                msgs[str(exc)] = msgs.get(str(exc), 0) + 1
            raise
        finally:
            stack.pop()
            spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        observe = self._observer(name)

        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        return functools.update_wrapper(traced, fn)

    def _observer(self, name: str):
        """What to count about a function's result, if anything."""
        if name == "refsys.find_pullback":
            def count_none(result):
                if result is None:
                    self._bump(f"{name}.none")

            return count_none
        if name in SIZED:
            return lambda result: self._distinct(name, result, SIZED[name])
        return None

    def _distinct(self, name: str, result, sized) -> None:
        seen = self._results.setdefault(name, {})
        if id(result) not in seen:
            # Holding the result keeps its id from being reused.
            seen[id(result)] = result
            self._bump(f"{name}.built")
            self._bump(f"{name}.morphisms", sized(result))

    def judgment_system(self, sys_) -> None:
        """Record the true judgment-category size of a system once."""
        if id(sys_) not in self._true_sizes:
            self._true_sizes[id(sys_)] = judgment_true_size(sys_)
            self._bump("duality.judgment_category.true_size", self._true_sizes[id(sys_)])

    def suite_wrapper(self, fn):
        """`cli.run_suite`, spanned per suite with its skip count."""

        def traced(ws, system, suite, *args, **kwargs):
            name = f"cli.suite.{suite}"
            reports = self.span(name, fn, ws, system, suite, *args, **kwargs)
            self._bump(f"{name}.skipped", sum(r.skipped for r in reports))
            return reports

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        fincat = sys.modules["refcat.fincat"]
        self.guard_error = fincat.SizeGuardExceeded
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"refcat.{layer}"]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name == "cli.run_suite":
                    originals[id(value)] = self.suite_wrapper(value)
                elif name == "duality.judgment_category":
                    originals[id(value)] = self._judgment_wrapper(value)
                else:
                    originals[id(value)] = self.wrap(name, value)
        for modname, mod in list(sys.modules.items()):
            if modname != "refcat" and not modname.startswith("refcat."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and inspect.isfunction(value):
                    setattr(mod, attr, originals[id(value)])

        compose = fincat.FinCategory.compose
        tick = self.compose_calls.__next__

        def counted_compose(self_, f, g):
            tick()
            return compose(self_, f, g)

        fincat.FinCategory.compose = counted_compose

    def _judgment_wrapper(self, fn):
        inner = self.wrap("duality.judgment_category", fn)

        def traced(sys_, *args, **kwargs):
            self.judgment_system(sys_)
            return inner(sys_, *args, **kwargs)

        return functools.update_wrapper(traced, fn)

    def dump(self, path: str, pass_id: int, rc: int) -> None:
        counts = dict(self.counts)
        counts["fincat.compose.calls"] = next(self.compose_calls)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "pass": pass_id,
                    "rc": rc,
                    "names": self.names,
                    "spans": self.spans,
                    "counts": counts,
                    "guard_messages": self.guard_messages,
                },
                fh,
            )


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py OUT.json PASS_ID -- REFCAT_ARGS...", file=sys.stderr)
        return 2
    out, pass_id, refcat_args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer()
    cli = tracer.span("cli.import", importlib.import_module, "refcat.cli")
    tracer.install()
    try:
        rc = cli.main(refcat_args)
    finally:
        sys.stdout.flush()
    tracer.dump(out, pass_id, rc)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
