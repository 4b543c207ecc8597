"""Line-delimited trace records and verification reports.

A trace file is JSONL: a header line describing the run, one line per
event with the fixed field set {stage, event_kind, requirement, old_value,
new_value}, and a final line carrying the end-of-run state snapshot.
Rationals are serialized as exact "p/q" strings, never decimals, so traces
are bit-identical across platforms and diffable as golden files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class TraceEvent:
    stage: int
    kind: str
    requirement: Optional[int] = None
    old: Optional[str] = None
    new: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "stage": self.stage,
                "event_kind": self.kind,
                "requirement": self.requirement,
                "old_value": self.old,
                "new_value": self.new,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_dict(cls, d: dict) -> "TraceEvent":
        return cls(
            stage=d["stage"],
            kind=d["event_kind"],
            requirement=d.get("requirement"),
            old=d.get("old_value"),
            new=d.get("new_value"),
        )

    def new_int(self) -> int:
        assert self.new is not None
        return int(self.new)


def write_trace(path: Path | str, header: dict, events: list[TraceEvent], final: dict) -> None:
    path = Path(path)
    with path.open("w") as fh:
        fh.write(json.dumps({"record": "header", **header}, separators=(",", ":")) + "\n")
        for ev in events:
            fh.write(ev.to_json() + "\n")
        fh.write(json.dumps({"record": "final", **final}, separators=(",", ":")) + "\n")


class TraceFormatError(Exception):
    pass


def read_trace(path: Path | str) -> tuple[dict, list[TraceEvent], dict]:
    path = Path(path)
    header: Optional[dict] = None
    final: Optional[dict] = None
    events: list[TraceEvent] = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError as e:
                raise TraceFormatError(f"{path}:{lineno}: bad JSON: {e}") from None
            if d.get("record") == "header":
                header = d
            elif d.get("record") == "final":
                final = d
            else:
                events.append(TraceEvent.from_dict(d))
    if header is None or final is None:
        raise TraceFormatError(f"{path}: missing header or final record")
    return header, events, final


@dataclass
class CheckResult:
    name: str
    passed: bool
    failures: list[str] = field(default_factory=list)
    count: int = 0  # every failure, though only the first 20 messages are kept

    def fail(self, message: str) -> None:
        self.passed = False
        self.count += 1
        if len(self.failures) < 20:  # keep reports readable
            self.failures.append(message)


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def check(self, name: str) -> CheckResult:
        c = CheckResult(name, True)
        self.checks.append(c)
        return c

    @property
    def all_green(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> Optional[str]:
        for c in self.checks:
            if not c.passed:
                detail = f": {c.failures[0]}" if c.failures else ""
                return f"{c.name}{detail}"
        return None

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"[PASS] {c.name}" if c.passed
                         else f"[FAIL] {c.name} (failures: {c.count})")
            for msg in c.failures:
                lines.append(f"    {msg}")
        for key, value in sorted(self.stats.items()):
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "all_green": self.all_green,
            "checks": [
                {"name": c.name, "passed": c.passed, "count": c.count,
                 "failures": c.failures}
                for c in self.checks
            ],
            "stats": self.stats,
        }


def check_final_stage(report: VerificationReport, name: str, last: int, final: dict) -> None:
    """Check that the final snapshot's stage is `last`, the last stage the
    events record: a verifier folds the trace as recorded, whatever stage
    the snapshot claims."""
    check = report.check(name)
    if final.get("stage") != last:
        check.fail(f"final stage {final.get('stage')!r}, but the events end at stage {last}")
