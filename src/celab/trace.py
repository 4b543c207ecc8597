"""Line-delimited trace records and verification reports.

A trace file is UTF-8 JSONL: a header line describing the run, one line
per event with the fixed field set {stage, event_kind, requirement,
old_value, new_value} in non-decreasing stage order, and a final line
carrying the end-of-run state snapshot.  `read_trace` hands the events to a
fold one line at a time.
Rationals are serialized as exact "p/q" strings, never decimals, so traces
are bit-identical across platforms and diffable as golden files.

This module owns every rule of a single record: `KINDS` lays out each
kind's fields, and `TraceEvent.from_dict` refuses a record that breaks its
layout, an integer value that is not ASCII digits, or a p/q value that is
not p/q text, new or old, as each line is read.  `RecordRules` checks the rules between
records (stage order, the old-value chain, one record a stage), and
`stages` groups a fold's records by stage and reads them into its rules,
so the engines' folds keep only what their records mean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .rationals import Rational


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


def is_ratio_text(text) -> bool:
    """Whether `text` is p/q text: an optional "-", ASCII digits, "/", and
    ASCII digits not all zero.  Scanned by C-level methods and no int is
    built; the digits are tested as ASCII bytes, a table lookup per byte,
    where `str.isdigit` would look up each character's Unicode category."""
    num, _, den = (text.encode() if type(text) is str and text.isascii() else b"").partition(b"/")
    return num.removeprefix(b"-").isdigit() and den.isdigit() and den.lstrip(b"0") != b""


class TraceEvent(NamedTuple):
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
        kind, or if its new or old value is not the integer or p/q text
        its kind logs."""
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
        elif value == "p/q" and not is_ratio_text(new):
            problem = "new_value is not p/q text"
        elif value == "int" and not (new.isascii() and new.isdigit()):
            problem = "new_value is not an integer"
        elif not (old is None or chains and type(old) is str):
            problem = "old_value is not " + ("a string or null" if chains else "null")
        elif old is not None and not (is_ratio_text(old) if value == "p/q"
                                      else old.isascii() and old.isdigit()):
            problem = "old_value is not " + ("p/q text" if value == "p/q" else "an integer")
        else:
            return cls(stage, kind, req, old, new)
        raise TraceFormatError(f"stage {stage} {kind}: {problem}")


def rational(text) -> Rational:
    """The value p/q text holds; TraceFormatError if `text` is not p/q
    text.  Text past the interpreter's int digit limit raises its
    ValueError."""
    if not is_ratio_text(text):
        raise TraceFormatError(f"value {text!r:.40} is not p/q text")
    num, _, den = text.partition("/")
    return Rational(int(num), int(den))


def _record_name(kind: str, req: Optional[int]) -> str:
    return kind if req is None else f"{kind} req {req}"


class RecordRules:
    """The rules between a trace's records, checked as a fold reads them.
    Records come in non-decreasing stage order.  A chained record's old
    value is the last new value of its kind and requirement, or `KINDS`'
    initial one.  Records of a kind come one a stage through the last
    stage: those of each of `stage_kinds` (kinds without a requirement)
    from stage 0, and requirement i's gamma (or delta) records from stage
    i + 1, where an engine first reads its adversary.  Keeps the stage of
    the previous record and the last new value and last stage of each kind
    and requirement; `chain_breaks` and `run_breaks` hold a message per
    break, and `close` checks where the runs end."""

    def __init__(self, stage_kinds: tuple[str, ...]):
        self.run_kinds = {*stage_kinds, "gamma", "delta"}
        self.last_new: dict[tuple[str, Optional[int]], Optional[str]] = {}
        self.last_stage: dict[tuple[str, Optional[int]], int] = {
            (kind, None): -1 for kind in stage_kinds}
        self.stage = 0  # of the previous record
        self.chain_breaks: list[str] = []
        self.run_breaks: list[str] = []

    def read(self, ev: TraceEvent) -> None:
        stage, kind, req, old, new = ev
        if stage != self.stage:
            if stage < self.stage:
                self.run_breaks.append(f"stage {stage}: {_record_name(kind, req)} "
                                       f"record after a stage {self.stage} record")
            self.stage = stage
        key = (kind, req)
        spec = KINDS[kind]
        if spec.chains:
            if old != self.last_new.get(key, spec.initial):
                self.chain_breaks.append(f"stage {stage}: {_record_name(*key)} old value is "
                                         f"not the last new value of its kind")
            self.last_new[key] = new
        if kind in self.run_kinds:
            expected = self.last_stage.get(key, req) + 1
            if stage != expected:
                self.run_breaks.append(f"stage {stage}: {_record_name(*key)} record, "
                                       f"where its next record is due at stage {expected}")
            self.last_stage[key] = stage

    def close(self, last_stage: int) -> None:
        for key, stage in self.last_stage.items():
            if stage < last_stage:
                self.run_breaks.append(f"{_record_name(*key)}: no records from stage "
                                       f"{stage + 1} through the last stage {last_stage}")


def stages(events: Iterable[TraceEvent], rules: Optional[RecordRules] = None
           ) -> Iterator[tuple[int, list[TraceEvent]]]:
    """Each stage of `events` with its records, in order, from stage 0: a
    record of a later stage opens that stage, and a record of an earlier
    stage stays in the open one, after the records before it.  An empty
    input is the one stage (0, []).  Given `rules`, reads each record into
    them and closes them at the last stage."""
    stage, records = 0, []
    for ev in events:
        if ev.stage > stage:
            yield stage, records
            stage, records = ev.stage, []
        if rules is not None:
            rules.read(ev)
        records.append(ev)
    yield stage, records
    if rules is not None:
        rules.close(stage)


def write_trace(path: Path | str, header: dict, events: Iterable[TraceEvent],
                final: dict | Callable[[], dict]) -> None:
    """Write a trace, each event as it is drawn; `final` is the final record,
    or a function giving it after the last event.  Events that raise leave
    no final record, so no reader accepts the trace."""
    with Path(path).open("w") as fh:
        fh.write(json.dumps({"record": "header", **header}, separators=(",", ":")) + "\n")
        for ev in events:
            fh.write(ev.to_json() + "\n")
        if callable(final):
            final = final()
        fh.write(json.dumps({"record": "final", **final}, separators=(",", ":")) + "\n")


_scan = make_scanner(json.JSONDecoder())


def _text(raw: bytes) -> str:
    """A trace line's text, stripped as `str.strip` strips it: "" for a
    blank line; TraceFormatError if it is not UTF-8."""
    try:
        return raw.decode("utf-8").strip()
    except UnicodeDecodeError as e:
        raise TraceFormatError(f"not UTF-8: {e}") from None


def _json(line: str):
    """The JSON value of a stripped line, read as `json.loads` reads it;
    TraceFormatError if it holds not one JSON value.  One scanner call
    decodes a well-formed line; `json.loads` runs only to word the error."""
    try:
        value, end = _scan(line, 0)
    except (StopIteration, json.JSONDecodeError):
        end = -1
    if end != len(line):
        try:
            value = json.loads(line)
        except json.JSONDecodeError as e:
            raise TraceFormatError(f"bad JSON: {e}") from None
    return value


def _framing(value, record: str, where: str) -> dict:
    """The header or final record the first or last non-blank line holds,
    without its "record" key; TraceFormatError unless it holds one."""
    if not (isinstance(value, dict) and value.pop("record", None) == record):
        raise TraceFormatError(f"the {where} line is not a {record} record")
    return value


def _event(value) -> TraceEvent:
    """The event an event line's value holds; a header or final record,
    or any other framing "record", is refused."""
    if type(value) is dict and "record" in value:
        record = value["record"]
        if record == "header":
            raise TraceFormatError("a header record past the first line")
        if record == "final":
            raise TraceFormatError("a final record before the last line")
        raise TraceFormatError(f"unknown record {record!r:.40}")
    return TraceEvent.from_dict(value)


def _last_line(fh) -> tuple[int, bytes]:
    """The offset and bytes of the last non-blank line of a file opened in
    binary, or (-1, b"") if it has none; reads back from the end, a longer
    span each time, until the span holds the whole line."""
    end = fh.seek(0, 2)
    span = 1 << 12
    while True:
        start = max(0, end - span)
        fh.seek(start)
        lines = fh.read(end - start).split(b"\n")
        at = end
        for k in range(len(lines) - 1, 0 if start else -1, -1):  # lines[0] may be cut
            at -= len(lines[k])
            if lines[k].strip() and lines[k].decode("utf-8", "replace").strip():
                return at, lines[k]
            at -= 1
        if not start:
            return -1, b""
        span *= 4


def _events(path: Path, offset: int, first: int, stop: int) -> Iterator[TraceEvent]:
    """The events of the lines from byte `offset` up to byte `stop`, the
    first numbered `first`, read one line at a time."""
    with path.open("rb") as fh:
        fh.seek(offset)
        for lineno, raw in enumerate(fh, first):
            if offset >= stop:
                return
            offset += len(raw)
            try:
                line = _text(raw)
                if not line:
                    continue
                ev = _event(_json(line))
            except TraceFormatError as e:
                raise TraceFormatError(f"{path}:{lineno}: {e}") from None
            yield ev


def read_trace(path: Path | str) -> tuple[dict, Iterator[TraceEvent], dict]:
    """The header, events and final record of a UTF-8 trace file.  The
    header and the final record, its first and last non-blank lines, are
    read at once and returned without their framing "record" key.  The
    events are a one-pass iterator over the lines between them, decoded as
    it advances; it opens the file when first advanced and closes it when
    exhausted or closed.  A bad line raises TraceFormatError naming it."""
    path = Path(path)
    with path.open("rb") as fh:
        offset = 0
        for lineno, raw in enumerate(fh, 1):
            offset += len(raw)
            try:
                line = _text(raw)
                if not line:
                    continue
                header = _framing(_json(line), "header", "first")
            except TraceFormatError as e:
                raise TraceFormatError(f"{path}:{lineno}: {e}") from None
            break
        else:
            raise TraceFormatError(f"{path}: missing header or final record")
        final_at, raw = _last_line(fh)
        if final_at < offset:
            raise TraceFormatError(f"{path}: missing header or final record")
        try:
            final = _framing(_json(_text(raw)), "final", "last")
        except TraceFormatError as e:
            fh.seek(0)
            at = 0
            for lineno, raw in enumerate(fh, 1):  # only to name the line
                if at == final_at:
                    break
                at += len(raw)
            raise TraceFormatError(f"{path}:{lineno}: {e}") from None
    return header, _events(path, offset, lineno + 1, final_at), final


@dataclass
class CheckResult:
    name: str
    failures: list[str] = field(default_factory=list)
    count: int = 0  # every failure, though only the first 20 found are kept

    @property
    def passed(self) -> bool:
        return self.count == 0

    def fail(self, message: str) -> None:
        self.count += 1
        if len(self.failures) < 20:  # keep reports readable
            self.failures.append(message)


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def check(self, name: str, failures: Iterable[str] = ()) -> CheckResult:
        """A new check, failed once per message of `failures`."""
        c = CheckResult(name)
        for message in failures:
            c.fail(message)
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


def differing_keys(a: dict, b: dict) -> list:
    """The keys of either record whose values differ, in sorted order; a
    key one record lacks reads as None there."""
    return [key for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]


def check_final_record(report: VerificationReport, name: str, folded: dict, final: dict):
    """Check that the final record is the one its trace folds to, naming keys, not values."""
    report.check(name, (f"final record's {key!r} is not the folded trace's"
                        for key in differing_keys(folded, final)))
