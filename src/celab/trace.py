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


class TraceFormatError(Exception):
    pass


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
    def from_dict(cls, d) -> "TraceEvent":
        """The event an event line holds; TraceFormatError if a field is
        missing or of the wrong type."""
        if not isinstance(d, dict) or "stage" not in d or "event_kind" not in d:
            raise TraceFormatError("an event must be an object with stage and event_kind")
        stage, kind, req = d["stage"], d["event_kind"], d.get("requirement")
        if not _is_int(stage) or stage < 0:
            raise TraceFormatError("stage is not a non-negative integer")
        if not isinstance(kind, str):
            raise TraceFormatError(f"stage {stage}: event_kind is not a string")
        if req is not None and not _is_int(req):
            raise TraceFormatError(f"stage {stage} {kind}: requirement is not an integer")
        old, new = d.get("old_value"), d.get("new_value")
        for name, value in (("old_value", old), ("new_value", new)):
            if value is not None and not isinstance(value, str):
                raise TraceFormatError(f"stage {stage} {kind}: {name} is not a string")
        return cls(stage, kind, req, old, new)

    def new_int(self) -> int:
        try:
            return int(self.new)
        except (TypeError, ValueError):
            raise TraceFormatError(
                f"stage {self.stage} {self.kind}: new_value is not an integer") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class OldValueChain:
    """The trace rule that a value record's old value is the last new value
    of its kind and requirement, checked as a fold reads: `first_old` maps
    each chained kind to the old value of its first record.  Keeps the last
    new value of each (kind, requirement) and a message per broken link."""

    def __init__(self, first_old: dict[str, Optional[str]]):
        self.first_old = first_old
        self.last: dict[tuple[str, Optional[int]], Optional[str]] = {}
        self.breaks: list[str] = []

    def read(self, ev: TraceEvent) -> None:
        if ev.kind not in self.first_old:
            return
        key = (ev.kind, ev.requirement)
        if ev.old != self.last.get(key, self.first_old[ev.kind]):
            req = "" if ev.requirement is None else f" req {ev.requirement}"
            self.breaks.append(f"stage {ev.stage}: {ev.kind}{req} old value is not "
                               f"the last new value of its kind")
        self.last[key] = ev.new


def write_trace(path: Path | str, header: dict, events: list[TraceEvent], final: dict) -> None:
    path = Path(path)
    with path.open("w") as fh:
        fh.write(json.dumps({"record": "header", **header}, separators=(",", ":")) + "\n")
        for ev in events:
            fh.write(ev.to_json() + "\n")
        fh.write(json.dumps({"record": "final", **final}, separators=(",", ":")) + "\n")


def read_trace(path: Path | str) -> tuple[dict, list[TraceEvent], dict]:
    """The header, events and final record of a trace file; the header and
    final record are returned without their framing "record" key."""
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
            record = d.pop("record", None) if isinstance(d, dict) else None
            if record == "header":
                header = d
            elif record == "final":
                final = d
            else:
                try:
                    events.append(TraceEvent.from_dict(d))
                except TraceFormatError as e:
                    raise TraceFormatError(f"{path}:{lineno}: {e}") from None
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
