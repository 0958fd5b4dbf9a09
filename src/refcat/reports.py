"""Uniform result records for every verification routine."""

from __future__ import annotations


class CheckReport:
    """Outcome of one verification pass.

    `statement` names the mathematical fact being checked, in words; it is
    the anchor a reader greps for.  Counts always satisfy
    passed + failed + skipped == attempted.  Only the first counterexample
    is kept, fully rendered.
    """

    __slots__ = (
        "name", "statement", "attempted", "passed", "failed", "skipped",
        "counterexample", "skip_reasons", "notes", "_skip_seen", "_notes_seen",
    )

    def __init__(self, name: str, statement: str):
        self.name = name
        self.statement = statement
        self.attempted = self.passed = self.failed = self.skipped = 0
        self.counterexample: str | None = None
        self.skip_reasons: list[str] = []
        self.notes: list[str] = []
        # The texts of the two lists as sets, so a repeat is found without a scan.
        self._skip_seen: set[str] = set()
        self._notes_seen: set[str] = set()

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record_pass(self) -> None:
        self.attempted += 1
        self.passed += 1

    def record_passes(self, n: int) -> None:
        """Record n checks that pass, counted in bulk by a caller that
        knows they hold without deciding each one."""
        self.attempted += n
        self.passed += n

    def record_fail(self, counterexample: str) -> None:
        self.attempted += 1
        self.failed += 1
        if self.counterexample is None:
            self.counterexample = counterexample

    def record_skip(self, reason: str) -> None:
        self.attempted += 1
        self.skipped += 1
        self._add_skip_reason(reason)

    def _add_skip_reason(self, reason: str) -> None:
        if reason not in self._skip_seen:
            self._skip_seen.add(reason)
            self.skip_reasons.append(reason)

    def note(self, text: str) -> None:
        """Record an observed fact that is reported but not asserted."""
        if text not in self._notes_seen:
            self._notes_seen.add(text)
            self.notes.append(text)

    def check(self, condition: bool, counterexample: str) -> bool:
        if condition:
            self.record_pass()
        else:
            self.record_fail(counterexample)
        return condition

    def absorb(self, other: "CheckReport", prefix: str) -> None:
        """Add other's counts, skip reasons and notes, in order, as if its
        checks had been recorded here: the first counterexample wins.
        Its counterexample and notes are read with `prefix` in front."""
        self.attempted += other.attempted
        self.passed += other.passed
        self.failed += other.failed
        self.skipped += other.skipped
        if self.counterexample is None and other.counterexample is not None:
            self.counterexample = prefix + other.counterexample
        for reason in other.skip_reasons:
            self._add_skip_reason(reason)
        for text in other.notes:
            self.note(prefix + text)

    def render(self) -> str:
        """Stable text form: identical runs stay byte-identical."""
        lines = [
            f"check {self.name} [{self.statement}]",
            f"  attempted {self.attempted} passed {self.passed} failed {self.failed} skipped {self.skipped}",
        ]
        for reason in self.skip_reasons:
            lines.append(f"  skip: {reason}")
        for text in self.notes:
            lines.append(f"  note: {text}")
        if self.counterexample is not None:
            lines.append("  counterexample:")
            for cl in self.counterexample.splitlines():
                lines.append(f"    {cl}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "attempted": self.attempted,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "counterexample": self.counterexample,
            "skip_reasons": list(self.skip_reasons),
            "notes": list(self.notes),
        }
