"""Trace serialization round-trips and report rendering."""

import gc
import json
import os
import sys
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from celab.config import ENGINES, load_config
from celab.rationals import Rational
from celab.trace import (
    CheckResult,
    RecordRules,
    TraceEvent,
    TraceFormatError,
    VerificationReport,
    is_ratio_text,
    rational,
    read_trace,
    stages,
    write_trace,
)


class TestTraceEvents:
    def test_json_round_trip(self):
        ev = TraceEvent(3, "beta_i", 1, "1/16", "3/32")
        d = json.loads(ev.to_json())
        assert d == {
            "stage": 3,
            "event_kind": "beta_i",
            "requirement": 1,
            "old_value": "1/16",
            "new_value": "3/32",
        }
        assert TraceEvent.from_dict(d) == ev

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(stage=st.integers(0, 10**12), kind=st.text(),
           requirement=st.none() | st.integers(0, 10**12),
           old=st.none() | st.text(), new=st.none() | st.text())
    @example(stage=0, kind="gamma", requirement=None, old='"\\\x00\x1f\x7f',
             new="\u00e9\u2028\U0001f600\ud800")
    def test_line_is_json_dumps(self, stage, kind, requirement, old, new):
        # the directly formatted line has the bytes json.dumps writes
        ev = TraceEvent(stage, kind, requirement, old, new)
        assert ev.to_json() == json.dumps(
            {"stage": stage, "event_kind": kind, "requirement": requirement,
             "old_value": old, "new_value": new}, separators=(",", ":"))

    def test_typed_accessors(self):
        # integer and p/q values are both checked as the line is read, and
        # `rational` holds p/q text to the same rule
        line = {"stage": 1, "event_kind": "c", "requirement": 0, "old_value": "0"}
        assert TraceEvent.from_dict({**line, "new_value": "5"}).new == "5"
        for new in (None, "x", "1/2", "-1", " 5", "\u00b2"):
            with pytest.raises(TraceFormatError):
                TraceEvent.from_dict({**line, "new_value": new})
        line = {"stage": 1, "event_kind": "q", "requirement": 0, "old_value": "1/2"}
        assert TraceEvent.from_dict({**line, "new_value": "-1/4"}).new == "-1/4"
        for new in (None, "x", "5", "1/0", "+1/2", " 1/2", "1/2/3"):
            with pytest.raises(TraceFormatError):
                TraceEvent.from_dict({**line, "new_value": new})
        # an old value is held to its kind's rule too
        for kind, new, old in (("q", "1/2", "5"), ("q", "1/2", "1/0"), ("c", "2", "1/2"),
                               ("c", "2", " 1")):
            with pytest.raises(TraceFormatError, match="old_value"):
                TraceEvent.from_dict({**line, "event_kind": kind, "new_value": new,
                                      "old_value": old})
        assert rational("3/4") == Rational(3, 4) and rational("-6/4") == Rational(-3, 2)
        for text in (None, "x", "", "5", "1/0", "1/00", "1/2/3", "0x10"):
            with pytest.raises(TraceFormatError):
                rational(text)

    def test_digit_limit_stays_the_callers(self):
        # well-formed text past the int digit limit keeps the interpreter's
        # ValueError; malformed text of that length is a format error
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
            with pytest.raises(ValueError, match="limit"):
                rational("7" * 5000 + "/3")
            with pytest.raises(TraceFormatError):
                rational("7" * 5000 + "/x")
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("line", [
        [1, 2], "c", {"event_kind": "c"}, {"stage": 1},
        {"stage": True, "event_kind": "c"}, {"stage": -1, "event_kind": "c"},
        {"stage": "1", "event_kind": "c"}, {"stage": 1, "event_kind": 3},
        {"stage": 1, "event_kind": "c", "requirement": False},
        {"stage": 1, "event_kind": "c", "requirement": "0"},
        {"stage": 1, "event_kind": "c", "old_value": 0},
        {"stage": 1, "event_kind": "c", "new_value": ["1"]},
    ])
    def test_malformed_fields_refused(self, line):
        with pytest.raises(TraceFormatError):
            TraceEvent.from_dict(line)

    @pytest.mark.parametrize("line", [
        {"event_kind": "zeta", "requirement": 0, "new_value": "1/2"},
        {"event_kind": "gamma", "requirement": None, "new_value": "1/2"},
        {"event_kind": "define", "requirement": -1, "new_value": "0"},
        {"event_kind": "alpha", "requirement": 0, "new_value": "1/2"},
        {"event_kind": "eta", "new_value": None},
        {"event_kind": "act", "requirement": 0, "new_value": "1/2"},
        {"event_kind": "initialize", "requirement": 2, "new_value": "0"},
        {"event_kind": "gamma", "requirement": 0, "old_value": "1/3", "new_value": "1/2"},
        {"event_kind": "restraint", "requirement": 0, "old_value": "3", "new_value": "4"},
    ], ids=["unknown-kind", "null-requirement", "negative-requirement",
            "requirement-on-alpha", "null-rational", "rational-for-integer",
            "value-on-initialize", "old-on-gamma", "old-on-restraint"])
    def test_kind_layout_refused(self, line):
        with pytest.raises(TraceFormatError):
            TraceEvent.from_dict({"stage": 1, **line})


class TestAdversaryRuns:
    @staticmethod
    def breaks(stages, last_stage=4):
        rules = RecordRules(())
        for stage in stages:
            rules.read(TraceEvent(stage, "delta", 1, None, "1/2"))
        rules.close(last_stage)
        assert rules.chain_breaks == []  # adversary records do not chain
        return rules.run_breaks

    def test_one_record_a_stage_from_requirement_plus_one(self):
        assert self.breaks([2, 3, 4]) == []

    @pytest.mark.parametrize("stages", [[3, 4], [2, 4], [2, 3, 3, 4], [2, 3], [1, 2, 3, 4]],
                             ids=["late-start", "gap", "duplicate", "early-end", "early-start"])
    def test_broken_runs_flagged(self, stages):
        assert len(self.breaks(stages)) == 1


class TestStageValueRuns:
    """A kind without a requirement runs from stage 0 through the last
    stage; kinds the rule is not given are not audited."""

    @staticmethod
    def breaks(stages, last_stage=3):
        rules = RecordRules(("alpha", "beta"))
        for stage in range(last_stage + 1):  # in stage order
            for _ in range(stages.count(stage)):
                rules.read(TraceEvent(stage, "alpha", None, "0/1", "1/2"))
                rules.read(TraceEvent(stage, "q", 0, "0/1", "1/2"))
            rules.read(TraceEvent(stage, "beta", None, "0/1", "1/2"))
        rules.close(last_stage)
        return rules.run_breaks

    def test_one_record_a_stage_from_zero(self):
        assert self.breaks([0, 1, 2, 3]) == []

    @pytest.mark.parametrize("stages", [[1, 2, 3], [0, 2, 3], [0, 1, 1, 2, 3], [0, 1, 2]],
                             ids=["late-start", "gap", "duplicate", "early-end"])
    def test_broken_runs_flagged(self, stages):
        assert len(self.breaks(stages)) == 1

    def test_kind_with_no_records_flagged(self):
        assert self.breaks([]) == ["alpha: no records from stage 0 through the last stage 3"]


def records(kinds, requirement, old):
    return st.builds(TraceEvent, st.integers(0, 4), st.sampled_from(kinds), requirement, old,
                     st.sampled_from(["0/1", "1/2"]))


class TestStages:
    @staticmethod
    def at(*stage_of):
        return [TraceEvent(s, "alpha", None, None, f"{n}/1") for n, s in enumerate(stage_of)]

    def test_groups_in_order(self):
        evs = self.at(1, 1, 2, 4)
        assert list(stages(evs)) == [(0, []), (1, evs[:2]), (2, evs[2:3]), (4, evs[3:])]

    def test_earlier_record_stays_in_open_group(self):
        evs = self.at(0, 2, 1, 2, 0)
        assert list(stages(evs)) == [(0, evs[:1]), (2, evs[1:])]

    def test_empty_input_is_stage_zero(self):
        rules = RecordRules(("alpha",))
        assert list(stages([], rules)) == [(0, [])]
        assert rules.run_breaks == ["alpha: no records from stage 0 through the last stage 0"]

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(evs=st.lists(records(["alpha", "beta"], st.none(), st.sampled_from(["0/1", "1/2"]))
                        | records(["q", "gamma", "delta"], st.integers(0, 2),
                                  st.none() | st.sampled_from(["0/1", "1/2"])), max_size=30))
    def test_reads_rules_as_by_hand(self, evs):
        by_hand, rules = RecordRules(("alpha", "beta")), RecordRules(("alpha", "beta"))
        for ev in evs:
            by_hand.read(ev)
        by_hand.close(max((ev.stage for ev in evs), default=0))
        groups = list(stages(evs, rules))
        assert [ev for _, group in groups for ev in group] == evs
        assert all(a < b for (a, _), (b, _) in zip(groups, groups[1:]))
        assert all(ev.stage <= stage for stage, group in groups for ev in group)
        assert rules.chain_breaks == by_hand.chain_breaks
        assert rules.run_breaks == by_hand.run_breaks


class TestRatioText:
    @pytest.mark.parametrize("text", ["1/2", "-3/4", "0/1", "12345678901234567890/3"])
    def test_accepted(self, text):
        assert is_ratio_text(text)

    @pytest.mark.parametrize("text", ["x", "", "1", "/2", "1/", "-/2", "+1/2", "1/-2", " 1/2",
                                      "1/2 ", "1/2/3", "--1/2", "1.5/2", "\u00b2/3", "\u0663/4",
                                      "1/0", "3/000", None, 5])
    def test_refused(self, text):
        assert not is_ratio_text(text)


class TestTraceFiles:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        header = {"engine": "lemma2", "stages": 7}
        events = [TraceEvent(0, "alpha", None, None, "1/3"),
                  TraceEvent(1, "c", 0, "0", "1")]
        final = {"engine": "lemma2", "stage": 7, "beta": "1/16"}
        write_trace(path, header, events, final)
        h, evs, f = read_trace(path)
        assert list(evs) == events
        assert h == header and f == final  # without the framing "record" key
        # one JSON object per line: header + events + final
        assert len(path.read_text().splitlines()) == 4

    def test_missing_final_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record":"header","engine":"lemma2"}\n')
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceFormatError):
            read_trace(path)

    HEADER = b'{"record":"header","engine":"prop3"}'
    FINAL = b'{"record":"final","engine":"prop3","stage":0}'
    EVENT = (b'{"stage":0,"event_kind":"alpha","requirement":null,"old_value":null,'
             b'"new_value":"0/1"}')

    @pytest.mark.parametrize("line, problem", [
        (HEADER, "a header record past the first line"),
        (FINAL, "a final record before the last line"),
        (EVENT[:-1] + b',"record":"other"}', "unknown record 'other'"),
        (EVENT[:-1] + b',"record":null}', "unknown record None"),
        (EVENT.replace(b"alpha", b"alph\xff"), "not UTF-8"),
    ], ids=["header", "final", "record-other", "record-null", "byte-ff"])
    def test_misplaced_or_undecodable_line_named(self, tmp_path, line, problem):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\n".join([self.HEADER, self.EVENT, b"", line, self.EVENT,
                                      self.FINAL, b" "]) + b"\n")
        _, events, _ = read_trace(path)
        assert next(events).kind == "alpha"
        with pytest.raises(TraceFormatError, match=f"^{path}:4: {problem}"):
            next(events)

    def test_events_are_one_pass_and_close_their_file(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        events = [TraceEvent(s, "alpha", None, None, "0/1") for s in range(3)]
        write_trace(path, {"engine": "prop3"}, events, {"engine": "prop3"})
        _, read, _ = read_trace(path)
        assert iter(read) is read
        assert list(read) == events and list(read) == []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, read, _ = read_trace(path)
            next(read)
            del read  # abandoned part-way: closing it closes the file
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    @staticmethod
    def expected_events(path, line: str):
        """What an event line between header and final reads as, when read
        as `json.loads(line.strip())` reads it: a list of events, or the
        message of the TraceFormatError naming it."""
        try:
            d = json.loads(line.strip()) if line.strip() else None
        except json.JSONDecodeError as e:
            return f"{path}:2: bad JSON: {e}"
        if d is None and not line.strip():
            return []
        if isinstance(d, dict) and "record" in d:
            return None  # a framing record: refused, tested above
        try:
            return [TraceEvent.from_dict(d)]
        except TraceFormatError as e:
            return f"{path}:2: {e}"

    FRAGMENTS = ['{', '}', '[', ']', ':', ',', '"', '\\', ' ', '\t', '\r', '\xa0', '\u2028',
                 '\ufeff', '"stage"', '"event_kind"', '"alpha"', '"requirement"', '"new_value"',
                 '"old_value"', '"0/1"', 'null', 'NaN', 'true', '0', '1', '-', '.', 'e', 'x']

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(line=st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join)
           | st.builds(lambda pre, post: pre + TestTraceFiles.EVENT.decode() + post,
                       st.sampled_from(["", " ", "\t", "\ufeff", "\xa0", "\r"]),
                       st.sampled_from(["", " ", "\r", "\u2028", "x", "{}", " 1", "\x0c"])))
    def test_event_line_read_as_json_loads_reads_it(self, tmp_path_factory, line):
        path = tmp_path_factory.mktemp("line") / "t.jsonl"
        path.write_bytes(b"\n".join([self.HEADER, line.encode(), self.FINAL]) + b"\n")
        expected = self.expected_events(path, line)
        if expected is None:
            return
        try:
            got = list(read_trace(path)[1])
        except TraceFormatError as e:
            got = str(e)
        assert got == expected


class TestBoundedFoldMemory:
    """A run writes its trace, and verify and replay read it, in memory
    below the file's size: the records go to the file as they are logged,
    the events are read one line at a time, and the folds keep no stage's
    values once it has closed.  Six constant-target adversaries with rate
    1/7 make long values; over 300 stages the traced peak of verify or
    replay was at most 0.16 of the file for either engine (Python 3.10 and
    3.11), against 1.5 to 2.3 when every event was held in a list.  A run
    that writes its records as it logs them, and keeps only the last value
    of each stream and the last stage of alpha - beta, peaked at 0.045 to
    0.061 of the file for lemma2 and 0.13 to 0.23 for prop3 (Python 3.10
    to 3.13), against 0.63 to 0.82 when it kept every stream value and
    every stage of `diff_at`, and 1.60 to 2.05 when it also held every
    record until the trace was written.  Most of prop3's is its final
    state: here no requirement acts, so a position gains a parameter every
    stage."""

    BOUND = 0.25  # peak traced bytes / trace file bytes, verify or replay
    RUN_BOUND = 0.35  # the same for a run writing its trace

    @staticmethod
    def engine_config(tmp_path, engine):
        target = {"kind": "constant_target", "rate": "1/7"}
        config = {"engine": engine, "stages": 300,
                  "suite": [{**target, "index": i, "role": "LR"[i % 2], "limit": f"{i + 1}/8"}
                            for i in range(6)]}
        if engine == "lemma2":
            config |= {"alpha": {**target, "limit": "2/3"}, "eta": {**target, "limit": "1/2"}}
        (tmp_path / "run.json").write_text(json.dumps(config))
        return ENGINES[engine].build(load_config(tmp_path / "run.json"))

    @pytest.mark.parametrize("engine", ["lemma2", "prop3"])
    def test_run_peak_below_the_file(self, tmp_path, engine):
        config = self.engine_config(tmp_path, engine)
        path = tmp_path / "run.trace.jsonl"
        tracemalloc.start()
        try:
            run = ENGINES[engine].engine(config)
            write_trace(path, {"engine": engine}, run.records(), run.snapshot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.RUN_BOUND * os.path.getsize(path)

    @pytest.mark.parametrize("command", ["verify", "replay"])
    @pytest.mark.parametrize("engine", ["lemma2", "prop3"])
    def test_peak_below_a_fraction_of_the_file(self, tmp_path, engine, command):
        entry = ENGINES[engine]
        run = entry.engine(self.engine_config(tmp_path, engine))
        path = tmp_path / "run.trace.jsonl"
        write_trace(path, {"engine": engine}, run.records(), run.snapshot)
        final = run.snapshot()
        del run
        tracemalloc.start()
        try:
            _, events, recorded = read_trace(path)
            if command == "verify":
                assert entry.verify(events, recorded).all_green
            else:
                assert entry.replay(events) == final
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.BOUND * os.path.getsize(path)


class TestReports:
    def test_render_and_first_failure(self):
        report = VerificationReport()
        report.check("A ok")
        report.check("B broken", ["detail one"])
        report.stats["stages"] = 5
        text = report.render_text()
        assert "[PASS] A ok" in text
        assert "[FAIL] B broken" in text
        assert "detail one" in text
        assert "stages: 5" in text
        assert not report.all_green
        assert report.first_failure() == "B broken: detail one"

    def test_failure_detail_cap_keeps_reports_short(self):
        c = CheckResult("X")
        for k in range(100):
            c.fail(f"msg {k}")
        assert not c.passed
        assert len(c.failures) == 20
        assert c.count == 100
        report = VerificationReport(checks=[c])
        assert report.render_text().startswith("[FAIL] X (failures: 100)\n    msg 0\n")
        assert report.to_dict()["checks"][0]["count"] == 100

    def test_to_dict(self):
        report = VerificationReport()
        report.check("A")
        d = report.to_dict()
        assert d["all_green"] is True
        assert d["checks"][0] == {"name": "A", "passed": True, "count": 0, "failures": []}
