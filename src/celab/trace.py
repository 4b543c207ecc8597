"""Line-delimited trace records and verification reports.

A trace file is JSONL: a header line describing the run, one line per
event with the fixed field set {stage, event_kind, requirement, old_value,
new_value}, and a final line carrying the end-of-run state snapshot.
Rationals are serialized as exact "p/q" strings, never decimals, so traces
are bit-identical across platforms and diffable as golden files.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple, Optional

from .rationals import Rational, parse_rational


class TraceFormatError(Exception):
    pass


class Kind(NamedTuple):
    """The layout of one event kind's records."""

    requirement: bool  # each names a requirement
    value: Optional[str]  # what its new value holds: "int", "p/q", or None for nothing
    chains: bool = False  # its old value is the last new value of its kind and requirement
    initial: Optional[str] = None  # the old value of the first, for a chained kind


KINDS = {
    **dict.fromkeys(("alpha", "eta", "beta"), Kind(False, "p/q", True)),
    "q": Kind(True, "p/q", True),
    **dict.fromkeys(("c", "d"), Kind(True, "int", True, "0")),
    "beta_i": Kind(True, "p/q", True, "0/1"),
    **dict.fromkeys(("gamma", "delta"), Kind(True, "p/q")),
    **dict.fromkeys(("define", "act", "enumerate_A", "enumerate_B", "restraint"),
                    Kind(True, "int")),
    "initialize": Kind(True, None),
}


def _json_text(text: Optional[str]) -> str:
    """`text` as `json.dumps` writes it: an ASCII-escaped JSON string, or null."""
    return "null" if text is None else encode_basestring_ascii(text)


@dataclass(frozen=True)
class TraceEvent:
    stage: int
    kind: str
    requirement: Optional[int] = None
    old: Optional[str] = None
    new: Optional[str] = None

    def to_json(self) -> str:
        """The event's line: the bytes of `json.dumps` of its fields with
        separators (",", ":"), formatted directly."""
        req = "null" if self.requirement is None else self.requirement
        return (f'{{"stage":{self.stage},"event_kind":{_json_text(self.kind)},'
                f'"requirement":{req},"old_value":{_json_text(self.old)},'
                f'"new_value":{_json_text(self.new)}}}')

    @classmethod
    def from_dict(cls, d) -> "TraceEvent":
        """The event an event line holds; TraceFormatError if a field is
        missing, of the wrong type, or not what `KINDS` lays out for its
        kind.  A p/q value is not scanned here: `rational` checks it where
        a verifier parses it."""
        if not isinstance(d, dict) or "stage" not in d or "event_kind" not in d:
            raise TraceFormatError("an event must be an object with stage and event_kind")
        stage, kind, req = d["stage"], d["event_kind"], d.get("requirement")
        old, new = d.get("old_value"), d.get("new_value")
        if type(stage) is not int or stage < 0:
            raise TraceFormatError("stage is not a non-negative integer")
        spec = KINDS.get(kind) if isinstance(kind, str) else None
        if spec is None:
            raise TraceFormatError(f"stage {stage}: unknown event_kind {kind!r:.40}")
        named, value, chains, _ = spec
        if not (type(req) is int and req >= 0 if named else req is None):
            problem = "requirement is not " + ("a non-negative integer" if named else "null")
        elif not (type(new) is str if value else new is None):
            problem = "new_value is not " + ("a string" if value else "null")
        elif value == "int" and not (new.isascii() and new.isdigit()):
            problem = "new_value is not an integer"
        elif not (old is None or chains and type(old) is str):
            problem = "old_value is not " + ("a string or null" if chains else "null")
        else:
            return cls(stage, kind, req, old, new)
        raise TraceFormatError(f"stage {stage} {kind}: {problem}")


_RATIONAL_TEXT = re.compile(r"\s*[+-]?\d+(/[+-]?\d+)?\s*")


def rational(text) -> Rational:
    """The value a record's p/q text holds; TraceFormatError if it holds
    none.  Text past the interpreter's int digit limit still raises its
    ValueError, as `parse_rational` does."""
    try:
        return parse_rational(text)
    except ValueError:
        if _RATIONAL_TEXT.fullmatch(text):
            raise
    except (AttributeError, ZeroDivisionError):
        pass
    raise TraceFormatError(f"value {text!r:.40} is not a p/q rational")


def _record_name(kind: str, req: Optional[int]) -> str:
    return kind if req is None else f"{kind} req {req}"


class OldValueChain:
    """The trace rule that a chained record's old value is the last new
    value of its kind and requirement, or `KINDS`' initial one, checked as
    a fold reads: keeps the last new value of each and a message per break."""

    def __init__(self):
        self.last: dict[tuple[str, Optional[int]], Optional[str]] = {}
        self.breaks: list[str] = []

    def read(self, ev: TraceEvent) -> None:
        spec = KINDS[ev.kind]
        if not spec.chains:
            return
        key = (ev.kind, ev.requirement)
        if ev.old != self.last.get(key, spec.initial):
            self.breaks.append(f"stage {ev.stage}: {_record_name(*key)} old value is not "
                               f"the last new value of its kind")
        self.last[key] = ev.new


def check_ratio_text(text: str) -> None:
    """TraceFormatError unless `text` is "p/q" text: an optional "-", ASCII
    digits, "/", ASCII digits.  Scanned by C-level methods and no int is
    built; the digits are tested as ASCII bytes, a table lookup per byte,
    where `str.isdigit` would look up each character's Unicode category."""
    num, slash, den = (text.encode() if text.isascii() else b"").partition(b"/")
    if not (slash and num.removeprefix(b"-").isdigit() and den.isdigit()):
        raise TraceFormatError(f"value {text!r:.40} is not p/q text")


class RecordRuns:
    """The trace rule that records of a kind come one a stage through the
    last stage, checked as a fold reads them: those of each of `stage_kinds`
    (kinds without a requirement) from stage 0, and requirement i's gamma
    (or delta) records from stage i + 1, where an engine first reads its
    adversary.  Keeps the last stage of each and a message per break;
    `close` checks where they end."""

    def __init__(self, stage_kinds: tuple[str, ...]):
        self.kinds = {*stage_kinds, "gamma", "delta"}
        self.last: dict[tuple[str, Optional[int]], int] = {
            (kind, None): -1 for kind in stage_kinds}
        self.breaks: list[str] = []

    def read(self, ev: TraceEvent) -> None:
        if ev.kind not in self.kinds:
            return
        key = (ev.kind, ev.requirement)
        expected = self.last.get(key, ev.requirement) + 1
        if ev.stage != expected:
            self.breaks.append(f"stage {ev.stage}: {_record_name(*key)} record, "
                               f"where its next record is due at stage {expected}")
        self.last[key] = ev.stage

    def close(self, last_stage: int) -> None:
        for key, stage in self.last.items():
            if stage < last_stage:
                self.breaks.append(f"{_record_name(*key)}: no records from stage {stage + 1} "
                                   f"through the last stage {last_stage}")


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
        return {"all_green": self.all_green,
                "checks": [{"name": c.name, "passed": c.passed, "count": c.count,
                            "failures": c.failures} for c in self.checks],
                "stats": self.stats}


def check_final_record(report: VerificationReport, name: str, folded: dict, final: dict):
    """Check that the final record is the one its trace folds to, naming keys, not values."""
    check = report.check(name)
    for key in sorted(set(folded) | set(final)):
        if folded.get(key) != final.get(key):
            check.fail(f"final record's {key!r} is not the folded trace's")
