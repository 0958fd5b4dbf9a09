"""Run one child process at a time and measure it from outside.

Each child gets a fresh interpreter, the checkout's `src` on PYTHONPATH and
its own PYTHONHASHSEED, so no cache survives from one process to the next
and every pass re-checks that output does not depend on hash order.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

# A child still running after this many seconds is killed and counted as
# failed, so one hang cannot push a run past its time limit.
PROCESS_TIMEOUT_S = 120.0


@dataclass
class Proc:
    argv: list[str]
    rc: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


class Runner:
    """Launches `refcat` children from a checkout, one at a time."""

    def __init__(self, root: Path, work: Path, hash_seeds):
        self.root = root
        self.work = work
        self._hash_seeds = hash_seeds
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self._pythonpath = src if not old else src + os.pathsep + old

    def _env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = self._pythonpath
        env["PYTHONHASHSEED"] = str(next(self._hash_seeds))
        return env

    def refcat(self, args: list[str]) -> Proc:
        return self.run([sys.executable, "-m", "refcat", *args])

    def traced(self, args: list[str], trace_out: Path, pass_id: int) -> Proc:
        tracer = str(Path(__file__).resolve().parent / "tracer.py")
        return self.run([sys.executable, tracer, str(trace_out), str(pass_id), "--", *args])

    def run(self, argv: list[str]) -> Proc:
        """Run argv to completion; wall time and peak RSS come from wait4."""
        env = self._env()
        with tempfile.TemporaryFile(dir=self.work) as out, tempfile.TemporaryFile(dir=self.work) as err:
            t0 = time.perf_counter()
            child = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=self.root)

            def kill(_signum, _frame):
                child.kill()

            previous = signal.signal(signal.SIGALRM, kill)
            signal.setitimer(signal.ITIMER_REAL, PROCESS_TIMEOUT_S)
            try:
                _pid, status, usage = os.wait4(child.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0
            # wait4 reaped the child; tell Popen so it does not wait again.
            child.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Proc(argv, child.returncode, wall, usage.ru_maxrss / 1024.0, out.read(), err.read())
