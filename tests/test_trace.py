"""Trace serialization round-trips and report rendering."""

import json

import pytest

from celab.trace import (
    CheckResult,
    TraceEvent,
    TraceFormatError,
    VerificationReport,
    read_trace,
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

    def test_typed_accessors(self):
        assert TraceEvent(0, "c", 0, None, "5").new_int() == 5
        for new in (None, "x", "1/2"):
            with pytest.raises(TraceFormatError):
                TraceEvent(0, "c", 0, None, new).new_int()

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


class TestTraceFiles:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        header = {"engine": "lemma2", "stages": 7}
        events = [TraceEvent(0, "alpha", None, None, "1/3"),
                  TraceEvent(1, "c", 0, "0", "1")]
        final = {"engine": "lemma2", "stage": 7, "beta": "1/16"}
        write_trace(path, header, events, final)
        h, evs, f = read_trace(path)
        assert evs == events
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


class TestReports:
    def test_render_and_first_failure(self):
        report = VerificationReport()
        report.check("A ok")
        bad = report.check("B broken")
        bad.fail("detail one")
        report.stats["stages"] = 5
        text = report.render_text()
        assert "[PASS] A ok" in text
        assert "[FAIL] B broken" in text
        assert "detail one" in text
        assert "stages: 5" in text
        assert not report.all_green
        assert report.first_failure() == "B broken: detail one"

    def test_failure_detail_cap_keeps_reports_short(self):
        c = CheckResult("X", True)
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
