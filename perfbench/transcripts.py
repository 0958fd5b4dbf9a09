"""Read the default-format `verify` transcript: report counts and skips."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_CHECK = re.compile(r"^check (\S+) \[")
_COUNTS = re.compile(r"^  attempted (\d+) passed (\d+) failed (\d+) skipped (\d+)$")
_SKIP = re.compile(r"^  skip: (.*)$")
_FOOTER = re.compile(r"^suite \S+: (\d+)/(\d+) reports ok$")
# A token naming an object, a morphism or a number: masked in templates.
_NAMED = re.compile(r"[0-9\[\]{}()]")


@dataclass
class Report:
    name: str
    attempted: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    skips: list[str] = field(default_factory=list)

    @property
    def family(self) -> str:
        """The report name without its system or instance: `duality`,
        `representation-ff`, `tensorL`."""
        return re.split(r"[\[:]", self.name, maxsplit=1)[0]


def parse(text: str) -> list[Report]:
    """Every report of a transcript, in order.  Raises ValueError when the
    transcript is not a complete default-format `verify` output."""
    reports: list[Report] = []
    footer = None
    for line in text.splitlines():
        m = _CHECK.match(line)
        if m:
            reports.append(Report(m.group(1)))
            continue
        m = _COUNTS.match(line)
        if m and reports:
            r = reports[-1]
            r.attempted, r.passed, r.failed, r.skipped = map(int, m.groups())
            continue
        m = _SKIP.match(line)
        if m and reports:
            reports[-1].skips.append(m.group(1))
            continue
        m = _FOOTER.match(line)
        if m:
            footer = (int(m.group(1)), int(m.group(2)))
    if not reports or footer is None or footer[1] != len(reports):
        raise ValueError("not a complete verify transcript")
    return reports


def decided(reports: list[Report]) -> tuple[int, int]:
    """(checks decided, checks attempted): a skipped check is undecided."""
    attempted = sum(r.attempted for r in reports)
    return attempted - sum(r.skipped for r in reports), attempted


def template(reason: str) -> str:
    """A skip reason with its names and numbers masked."""
    return " ".join("X" if _NAMED.search(tok) else tok for tok in reason.split())


def skip_rows(reports: list[Report]) -> list[tuple[str, str, int, str]]:
    """Skips grouped by (report family, reason template): count and first
    example.  A report prints each distinct reason once, so when all of a
    report's skips share one template the report's whole skip count goes to
    it; otherwise the excess is listed as deduplicated."""
    rows: dict[tuple[str, str], list] = {}

    def add(family: str, tmpl: str, n: int, example: str) -> None:
        row = rows.setdefault((family, tmpl), [0, example])
        row[0] += n

    for r in reports:
        if not r.skipped:
            continue
        tmpls = [template(s) for s in r.skips]
        if len(set(tmpls)) == 1:
            add(r.family, tmpls[0], r.skipped, r.skips[0])
            continue
        for s, t in zip(r.skips, tmpls):
            add(r.family, t, 1, s)
        if r.skipped > len(r.skips):
            add(r.family, "(repeated reasons printed once)", r.skipped - len(r.skips), "")
    return [(fam, t, n, ex) for (fam, t), (n, ex) in rows.items()]
