"""Golden traces: bit-exact regeneration, hand-audited openings, replay.

The two files under tests/data/ are committed run records.  Any change to
engine semantics, event ordering, or serialization shows up as a diff here.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from celab.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from celab.expansion import ExpansionConfig, replay_expansion, run_expansion, verify_expansion
from celab.injury import InjuryConfig, replay_injury, run_injury, verify_injury
from celab.rationals import parse_rational as R
from celab.streams import (
    AdversarySuite,
    Direction,
    SuiteEntry,
    make_constant_target,
)
from celab.trace import TraceEvent, read_trace, write_trace

DATA = Path(__file__).parent / "data"
INC = Direction.INCREASING
DEC = Direction.DECREASING


def golden_lemma2_engine():
    return run_expansion(ExpansionConfig(
        alpha=make_constant_target(R("2/3"), INC, R("1/2"), label="alpha"),
        eta=make_constant_target(R("1/2"), INC, R("1/2"), label="eta"),
        suite=AdversarySuite([
            SuiteEntry(0, "L", make_constant_target(R("1/3"), INC, R("1/2"))),
            SuiteEntry(1, "R", make_constant_target(R("1/4"), DEC, R("1/2"))),
        ]),
        stages=50,
    ))


def golden_prop3_engine():
    return run_injury(InjuryConfig(
        suite=AdversarySuite([
            SuiteEntry(0, "L", make_constant_target(R("1/8"), INC, R("1/2"))),
            SuiteEntry(1, "R", make_constant_target(R("7/8"), DEC, R("1/2"))),
        ]),
        stages=50,
    ))


def events_of(path):
    return [json.loads(line) for line in path.read_text().splitlines()
            if json.loads(line).get("record") is None]


class TestBitExactRegeneration:
    def test_lemma2_trace_reproduces(self, tmp_path):
        engine = golden_lemma2_engine()
        fresh = tmp_path / "fresh.jsonl"
        write_trace(fresh, {"engine": "lemma2", "stages": 50},
                    engine.events, engine.snapshot())
        assert fresh.read_text() == (DATA / "golden_lemma2.trace.jsonl").read_text()

    def test_prop3_trace_reproduces(self, tmp_path):
        engine = golden_prop3_engine()
        fresh = tmp_path / "fresh.jsonl"
        write_trace(fresh, {"engine": "prop3", "stages": 50},
                    engine.events, engine.snapshot())
        assert fresh.read_text() == (DATA / "golden_prop3.trace.jsonl").read_text()


    @pytest.mark.parametrize("name", ["lemma2", "prop3"])
    def test_cli_run_of_the_committed_config_rewrites_it(self, name, tmp_path, capsys):
        # tests/data/golden_<name>.config.json is the config of each golden;
        # `celab run-<name>` on it writes the golden byte for byte
        config = DATA / f"golden_{name}.config.json"
        assert main([f"run-{name}", "--config", str(config), "--out-dir", str(tmp_path)]) == EXIT_OK
        written = (tmp_path / f"{name}.trace.jsonl").read_bytes()
        assert written == (DATA / f"golden_{name}.trace.jsonl").read_bytes()
        capsys.readouterr()

    def test_respelled_config_rewrites_it(self, tmp_path, capsys):
        # p/q text need not be in lowest terms: the lemma2 golden's config
        # with "2/6" for "1/3" and "2/4" for "1/2" still writes the golden
        text = (DATA / "golden_lemma2.config.json").read_text()
        respelled = text.replace('"1/3"', '"2/6"').replace('"1/2"', '"2/4"')
        assert respelled.count('"2/6"') == 1 and respelled.count('"2/4"') == 5
        config = tmp_path / "respelled.config.json"
        config.write_text(respelled)
        assert main(["run-lemma2", "--config", str(config), "--out-dir", str(tmp_path)]) == EXIT_OK
        written = (tmp_path / "lemma2.trace.jsonl").read_bytes()
        assert written == (DATA / "golden_lemma2.trace.jsonl").read_bytes()
        capsys.readouterr()


class TestHandAuditedOpenings:
    """[DERIVED by hand] the first stages of both golden files, recomputed
    on paper; see test_expansion.py / test_injury.py for the arithmetic."""

    def test_lemma2_first_stages(self):
        evs = events_of(DATA / "golden_lemma2.trace.jsonl")

        def pick(stage, kind):
            return [e for e in evs if e["stage"] == stage and e["event_kind"] == kind]

        assert pick(0, "alpha")[0]["new_value"] == "1/3"
        assert pick(0, "eta")[0]["new_value"] == "1/4"
        assert pick(1, "c")[0]["new_value"] == "1"
        assert pick(1, "beta_i")[0]["new_value"] == "1/16"
        assert pick(1, "d") == []  # index 1 not admitted before stage 2
        assert pick(2, "d")[0]["new_value"] == "1"
        assert pick(2, "beta_i")[0]["new_value"] == "3/32"
        assert pick(3, "d")[0]["new_value"] == "2"
        assert pick(3, "beta_i")[0]["new_value"] == "7/64"
        assert pick(4, "c") == [] and pick(4, "d") == []  # nothing expansionary
        assert pick(1, "q")[0]["new_value"] == "1/2"

    def test_prop3_first_stages(self):
        evs = events_of(DATA / "golden_prop3.trace.jsonl")

        def pick(stage, kind):
            return [e for e in evs if e["stage"] == stage and e["event_kind"] == kind]

        assert pick(1, "define")[0]["requirement"] == 0
        assert pick(1, "define")[0]["new_value"] == "0"
        assert pick(2, "act")[0]["requirement"] == 0
        assert pick(2, "enumerate_B")[0]["new_value"] == "0"
        assert pick(2, "restraint")[0]["new_value"] == "3"
        assert pick(2, "beta")[0]["new_value"] == "1/2"
        assert pick(3, "define")[0]["requirement"] == 1  # d_0 = 4
        assert pick(3, "define")[0]["new_value"] == "4"
        assert pick(4, "define")[0]["new_value"] == "7"   # c_1
        assert pick(5, "define")[0]["new_value"] == "11"  # d_1
        assert pick(6, "define")[0]["new_value"] == "16"  # c_2


class TestGoldenFilesStillVerify:
    @pytest.mark.parametrize("name", ["golden_lemma2", "golden_prop3"])
    def test_cli_verify_and_replay(self, name, capsys):
        trace = str(DATA / f"{name}.trace.jsonl")
        assert main(["verify", "--trace", trace]) == EXIT_OK
        assert main(["replay", "--trace", trace]) == EXIT_OK
        capsys.readouterr()

    def test_verifiers_green_on_recorded_events(self):
        h, evs, final = read_trace(DATA / "golden_lemma2.trace.jsonl")
        assert verify_expansion(evs, final).all_green
        h, evs, final = read_trace(DATA / "golden_prop3.trace.jsonl")
        assert verify_injury(evs, final).all_green


class TestAlteredFinalStage:
    """A final snapshot whose stage is not the trace's last fails V0/W0,
    the comparison of the final record with the snapshot the trace folds
    to, naming the key; the verifiers fold the trace as recorded and never
    raise."""

    MESSAGE = "final record is the folded trace's: final record's 'stage' is not the folded trace's"

    CASES = [("golden_lemma2", verify_expansion, "V0"),
             ("golden_prop3", verify_injury, "W0")]

    @pytest.mark.parametrize("name, verify, tag", CASES)
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_verifier_fails_named_check(self, name, verify, tag, delta):
        _, evs, final = read_trace(DATA / f"{name}.trace.jsonl")
        final["stage"] += delta
        report = verify(evs, final)
        assert not report.all_green
        assert report.first_failure() == f"{tag} {self.MESSAGE}"
        assert [c.name[:2] for c in report.checks if not c.passed] == [tag]

    @pytest.mark.parametrize("name, tag", [(name, tag) for name, _, tag in CASES])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_cli_verify_exits_check_failed(self, name, tag, delta, tmp_path, capsys):
        lines = (DATA / f"{name}.trace.jsonl").read_text().splitlines()
        final = json.loads(lines[-1])
        final["stage"] += delta
        trace = tmp_path / f"{name}.trace.jsonl"
        trace.write_text("\n".join(lines[:-1] + [json.dumps(final)]) + "\n")
        assert main(["verify", "--trace", str(trace)]) == EXIT_CHECK_FAILED
        assert f"first violated invariant: {tag} {self.MESSAGE}" in capsys.readouterr().out


class TestDeletedLemma2Record:
    """Deleting a stage record the lemma2 verifier reads fails the check
    that reads it, naming the record and its stage, instead of raising;
    deleting one with a successor also breaks the old-value chain (V6),
    deleting the last eta changes the folded final record (V0), and every
    deletion breaks the run of its kind's records (V7)."""

    FINAL_ETA = '{"stage":50,"event_kind":"eta"'
    BUMP_BETA = '{"stage":2,"event_kind":"beta"'
    CASES = [
        (FINAL_ETA, ["V0", "V2", "V7"], "no eta record at final stage 50"),
        (BUMP_BETA, ["V4", "V6", "V7"], "req 0, stages 1->2: no beta record at stage 2"),
    ]
    IDS = ["final-eta", "bump-beta"]

    @staticmethod
    def trace_without(prefix, tmp_path):
        lines = (DATA / "golden_lemma2.trace.jsonl").read_text().splitlines()
        kept = [line for line in lines if not line.startswith(prefix)]
        assert len(kept) == len(lines) - 1
        trace = tmp_path / "lemma2.trace.jsonl"
        trace.write_text("\n".join(kept) + "\n")
        return trace

    @pytest.mark.parametrize("prefix, tags, message", CASES, ids=IDS)
    def test_verifier_fails_named_check(self, prefix, tags, message, tmp_path):
        _, evs, final = read_trace(self.trace_without(prefix, tmp_path))
        report = verify_expansion(evs, final)
        failed = [c for c in report.checks if not c.passed]
        assert [c.name[:2] for c in failed] == tags
        assert report.first_failure().startswith(tags[0])
        assert message in [m for c in failed for m in c.failures]

    @pytest.mark.parametrize("prefix, tags, message", CASES, ids=IDS)
    def test_cli_verify_exits_check_failed(self, prefix, tags, message, tmp_path, capsys):
        trace = self.trace_without(prefix, tmp_path)
        assert main(["verify", "--trace", str(trace)]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert f"first violated invariant: {tags[0]} " in out and f"    {message}\n" in out


class TestSingleEventMutations:
    """Every single-event deletion, duplication, swap with the next event,
    and move one stage back in place of a golden trace goes through its
    verifier and replay without raising.  `flagged` counts the mutations
    that fail a check or replay to another state; its deletion and
    duplication count and its swap count may only grow.  Every deletion and
    duplication of an alpha, eta, beta or gamma/delta record is flagged
    (V7/W7), and so is every record moved back.  In prop3 every deletion
    and duplication is flagged: the deletion of the define before the only
    act fails W1 as well as W0, and the deletion of the act or the
    duplication of its enumeration or restraint fails W8.  A swap within a
    stage goes unflagged where no check reads the order of its records."""

    CASES = [("golden_lemma2", verify_expansion, replay_expansion, 522, 50),
             ("golden_prop3", verify_injury, replay_injury, 506, 51)]

    @pytest.mark.parametrize("name, verify, replay, floor, swap_floor", CASES,
                             ids=[c[0] for c in CASES])
    def test_no_raise_and_detection_floor(self, name, verify, replay, floor, swap_floor):
        _, evs, final = read_trace(DATA / f"{name}.trace.jsonl")
        evs = list(evs)
        flagged = {}
        for n, ev in enumerate(evs):
            mutations = [("del", evs[:n] + evs[n + 1:]), ("dup", evs[:n + 1] + evs[n:])]
            if n + 1 < len(evs):
                mutations.append(("swap", evs[:n] + [evs[n + 1], ev] + evs[n + 2:]))
            if ev.stage:
                mutations.append(("back", evs[:n] + [ev._replace(stage=ev.stage - 1)]
                                  + evs[n + 1:]))
            for op, mutated in mutations:
                report = verify(mutated, final)
                if not report.all_green or replay(mutated) != final:
                    flagged[op, n] = report
        ops = Counter(op for op, _ in flagged)
        assert ops["del"] + ops["dup"] >= floor
        assert ops["swap"] >= swap_floor
        assert all(("back", n) in flagged for n, ev in enumerate(evs) if ev.stage)
        runs = [n for n, ev in enumerate(evs)
                if ev.kind in ("alpha", "eta", "beta", "gamma", "delta")]
        assert runs and all((op, n) in flagged for op in ("del", "dup") for n in runs)
        if name == "golden_prop3":
            assert ops["del"] + ops["dup"] == 2 * len(evs)
            (act,) = [ev for ev in evs if ev.kind == "act"]
            (n,) = [n for n, ev in enumerate(evs) if ev.kind == "define"
                    and ev.requirement == act.requirement and ev.stage < act.stage]
            report = flagged["del", n]
            assert report.first_failure().startswith("W0 ")
            (w1,) = [c for c in report.checks if c.name.startswith("W1 ")]
            assert "position 0: act at stage 2 with no parameter in effect" in w1.failures

    def test_missing_alpha_or_beta_record_fails_w7_not_w3_or_w10(self):
        """A prop3 stage without its alpha or beta record holds the last
        stage's value, so the gap is W7's alone: the golden without the
        alpha record of stage 20 and the beta record of stage 30 fails W7
        only, and so does each single deletion of an alpha or beta record
        after stage 2, the last stage whose value changes.  Read as 0, such
        a gap was a drop and a rise that W10 failed."""
        _, evs, final = read_trace(DATA / "golden_prop3.trace.jsonl")
        evs = list(evs)
        both = [ev for ev in evs if (ev.kind, ev.stage) not in {("alpha", 20), ("beta", 30)}]
        report = verify_injury(both, final)
        assert [c.name[:2] for c in report.checks if not c.passed] == ["W7"]
        singles = [n for n, ev in enumerate(evs) if ev.kind in ("alpha", "beta") and ev.stage > 2]
        assert len(singles) == 96
        for n in singles:
            report = verify_injury(evs[:n] + evs[n + 1:], final)
            assert [c.name[:2] for c in report.checks if not c.passed] == ["W7"], evs[n]

    def test_record_moved_a_stage_back_in_place(self, tmp_path, capsys):
        """The folds read records in stage order: the prop3 golden's 6th
        define moved from stage 7 to 6 where it stands fails W7 alone, and
        `celab verify` exits 1 on it; replay folds to the recorded state."""
        lines = (DATA / "golden_prop3.trace.jsonl").read_text().splitlines()
        n = [n for n, line in enumerate(lines) if '"event_kind":"define"' in line][5]
        assert lines[n].startswith('{"stage":7,')
        lines[n] = lines[n].replace('{"stage":7,', '{"stage":6,')
        trace = tmp_path / "moved.trace.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        _, evs, final = read_trace(trace)
        report = verify_injury(evs, final)
        assert [c.name[:2] for c in report.checks if not c.passed] == ["W7"]
        assert report.first_failure() == ("W7 one record a stage of alpha, beta and each "
                                           "adversary: stage 6: define req 5 record after a "
                                           "stage 7 record")
        assert main(["verify", "--trace", str(trace)]) == EXIT_CHECK_FAILED
        assert main(["replay", "--trace", str(trace)]) == EXIT_OK
        capsys.readouterr()


def stage_end(evs, stage, *records):
    """`evs` with `records` after the last record of `stage`."""
    n = max(n for n, ev in enumerate(evs) if ev.stage == stage) + 1
    return evs[:n] + list(records) + evs[n:]


BIG = 10**15  # 2^BIG would take 125 TB


class TestNumbersOffTheTrace:
    """A check never builds 2^n from a number a record holds: each golden
    edit below, with a requirement, position or parameter of 10^15, fails
    the named checks with these messages instead of raising MemoryError,
    and replay folds it without raising."""

    CASES = {
        "lemma2-contribution": (
            "golden_lemma2", lambda evs: evs + [TraceEvent(50, "beta_i", BIG, "0/1", "1/64")],
            ["V0", "V2", "V8"], "V2", [f"beta_{BIG} = 1/64 > 2^-{BIG + 1} * eta_T"]),
        "lemma2-pacing": (
            "golden_lemma2",
            lambda evs: stage_end(stage_end(evs, 50, TraceEvent(50, "c", BIG, "1", "2")),
                                  49, TraceEvent(49, "c", BIG, "0", "1")),
            ["V0", "V4"], "V4",
            [f"req {BIG}, stages 49->50: 0 < 2^-{BIG + 3} * 1/4503599627370496"]),
        "prop3-initialization": (
            "golden_prop3", lambda evs: evs + [TraceEvent(50, "initialize", BIG)],
            ["W9"], "W9", [f"position {BIG}: initialized at stage 50 with no parameter in effect"]),
        "prop3-parameter": (
            "golden_prop3",
            lambda evs: [ev._replace(new=str(BIG)) if ev.kind in ("define", "act")
                         and ev.requirement == 0 else ev for ev in evs],
            ["W0", "W5", "W8"], "W5", None),
        "prop3-enumeration": (
            "golden_prop3",
            lambda evs: [ev._replace(new=str(BIG)) if ev.kind == "enumerate_B" else ev
                         for ev in evs],
            ["W0", "W8", "W10"], "W10",
            [f"stage 2: beta changed by 1/2, not by the weights of bits [{BIG}]"]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_named_failure(self, case):
        name, edit, failing, check, failures = self.CASES[case]
        verify, replay = ((verify_expansion, replay_expansion) if name == "golden_lemma2"
                          else (verify_injury, replay_injury))
        _, evs, final = read_trace(DATA / f"{name}.trace.jsonl")
        evs = edit(list(evs))
        report = verify(evs, final)
        assert [c.name.split()[0] for c in report.checks if not c.passed] == failing
        if failures is not None:
            (found,) = [c for c in report.checks if c.name.startswith(f"{check} ")]
            assert found.failures == failures
        replay(evs)


def test_stray_initialization_fails_w9(tmp_path, capsys):
    """The engine initializes only positions with a parameter in effect:
    an initialize record for position 60, which has none at stage 50 of
    the prop3 golden, fails W9 alone; replay still reproduces the final
    record, since an undefined position has nothing to clear."""
    lines = (DATA / "golden_prop3.trace.jsonl").read_text().splitlines()
    lines.insert(-1, json.dumps({"stage": 50, "event_kind": "initialize", "requirement": 60,
                                 "old_value": None, "new_value": None}))
    trace = tmp_path / "stray.trace.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    _, evs, final = read_trace(trace)
    report = verify_injury(evs, final)
    assert report.first_failure() == ("W9 each initialization of a position with a parameter: "
                                      "position 60: initialized at stage 50 with no parameter "
                                      "in effect")
    assert [c.name[:2] for c in report.checks if not c.passed] == ["W9"]
    assert main(["verify", "--trace", str(trace)]) == EXIT_CHECK_FAILED
    assert main(["replay", "--trace", str(trace)]) == EXIT_OK
    capsys.readouterr()


class TestProp3ActRecords:
    """W8 ties the only act of the prop3 golden (position 0, bit 0, stage 2)
    to its parameter, its enumerate_B and its restraint, naming the broken
    record; no other check reads the act's value."""

    @staticmethod
    def edit(evs, kind, new):
        return [ev._replace(new=new) if ev.kind == kind else ev for ev in evs]

    CASES = {
        "act-deleted": (lambda evs: [ev for ev in evs if ev.kind != "act"],
                        ["enumerate_B req 0 at stage 2 without its act",
                         "restraint req 0 at stage 2 without its act"]),
        "restraint-duplicated": (lambda evs: [ev for ev in evs for _ in
                                              range(2 if ev.kind == "restraint" else 1)],
                                 ["restraint req 0 at stage 2 without its act"]),
        "enumeration-deleted": (lambda evs: [ev for ev in evs if ev.kind != "enumerate_B"],
                                ["position 0: act at stage 2 without its enumeration "
                                 "and restraint"]),
        "act-value": (lambda evs: TestProp3ActRecords.edit(evs, "act", "1"),
                      ["position 0: act at stage 2 with bit 1, not its parameter 0",
                       "enumerate_B req 0 at stage 2: 0, not 1 from the act's bit",
                       "restraint req 0 at stage 2: 3, not 4 from the act's bit"]),
        "enumeration-value": (lambda evs: TestProp3ActRecords.edit(evs, "enumerate_B", "1"),
                              ["enumerate_B req 0 at stage 2: 1, not 0 from the act's bit"]),
        "restraint-value": (lambda evs: TestProp3ActRecords.edit(evs, "restraint", "4"),
                            ["restraint req 0 at stage 2: 4, not 3 from the act's bit"]),
    }

    def test_golden_passes(self):
        _, evs, final = read_trace(DATA / "golden_prop3.trace.jsonl")
        (w8,) = [c for c in verify_injury(evs, final).checks if c.name.startswith("W8 ")]
        assert w8.passed

    @pytest.mark.parametrize("case", list(CASES))
    def test_mutation_fails_w8(self, case):
        mutate, failures = self.CASES[case]
        _, evs, final = read_trace(DATA / "golden_prop3.trace.jsonl")
        report = verify_injury(mutate(evs), final)
        (w8,) = [c for c in report.checks if c.name.startswith("W8 ")]
        assert w8.failures == failures
