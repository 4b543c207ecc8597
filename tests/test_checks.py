"""Every named check of both verifiers fails somewhere.

`FAILING` is one registry of tampered traces, each with the check it must
fail and a message that check must list.  A guard test holds the registry
to every check a green golden report lists, V5's statistics aside, so a
check that no test sees fail cannot be dropped or added unnoticed.
"""

from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest

from celab import expansion
from celab.cli import EXIT_CHECK_FAILED, main
from celab.expansion import replay_expansion, run_expansion, verify_expansion
from celab.injury import InjuryConfig, replay_injury, run_injury, verify_injury
from celab.rationals import parse_rational as R
from celab.streams import AdversarySuite, Direction, SuiteEntry, make_constant_target
from celab.trace import TraceEvent, TraceFormatError, read_trace, write_trace
from test_acceptance import lemma2_config

DATA = Path(__file__).parent / "data"
ENGINES = {"lemma2": (verify_expansion, replay_expansion),
           "prop3": (verify_injury, replay_injury)}


def golden(name):
    def events():
        _, evs, _ = read_trace(DATA / f"golden_{name}.trace.jsonl")
        return list(evs)
    return events


def r_act_run():
    """A prop3 run whose only act is at an odd position: R_0 (position 1,
    bit 1) acts at stage 4, as delta_0 falls to 1/64, and enumerates bit 1
    into A, so alpha - beta is 1/4 from then on."""
    suite = AdversarySuite([
        SuiteEntry(0, "R", make_constant_target(R("1/64"), Direction.DECREASING, R("1/2")))])
    return run_injury(InjuryConfig(suite, 12)).events


def stage_end(evs, stage, *records):
    """`evs` with `records` after the last record of `stage`."""
    n = max(n for n, ev in enumerate(evs) if ev.stage == stage) + 1
    return evs[:n] + list(records) + evs[n:]


def set_new(evs, kind, new, stages):
    """`evs` with each `kind` record of `stages` holding `new`, and every
    later record of its kind and requirement the last new value as its old
    one."""
    out, last = [], {}
    for ev in evs:
        if ev.kind == kind:
            key = (kind, ev.requirement)
            ev = ev._replace(new=new if ev.stage in stages else ev.new,
                             old=last.get(key, ev.old))
            last[key] = ev.new
        out.append(ev)
    return out


def without(evs, kind, stage):
    """`evs` less the `kind` record of `stage`."""
    kept = [ev for ev in evs if (ev.kind, ev.stage) != (kind, stage)]
    assert len(kept) == len(evs) - 1
    return kept


def set_old(evs, kind, stage, old):
    """`evs` with the `kind` record of `stage` holding `old` as its old value."""
    return [ev._replace(old=old) if (ev.kind, ev.stage) == (kind, stage) else ev for ev in evs]


class Case(NamedTuple):
    engine: str
    events: Callable[[], list]
    edit: Callable[[list], list]
    check: str  # the tag of the check that must fail
    message: str  # the start of a failure that check must list
    final: Optional[Callable[[dict], dict]] = None  # edits the final record the events fold to


FAILING = {
    "lemma2-final-stage": Case(
        "lemma2", golden("lemma2"), lambda evs: evs, "V0",
        "final record's 'stage' is not the folded trace's",
        final=lambda final: {**final, "stage": 51}),
    "lemma2-total-past-one": Case(
        "lemma2", golden("lemma2"), lambda evs: set_new(evs, "beta", "5/4", [50]), "V1",
        "beta_T = 5/4 >= 1"),
    "lemma2-contribution": Case(
        "lemma2", golden("lemma2"),
        lambda evs: evs + [TraceEvent(50, "beta_i", 3, "0/1", "1/4")], "V2",
        "beta_3 = 1/4 > 2^-4 * eta_T"),
    "lemma2-growth-below-priority": Case(
        "lemma2", golden("lemma2"),
        lambda evs: stage_end(evs, 2, TraceEvent(2, "beta_i", 2, "0/1", "3/4")), "V3",
        "stage 2: growth below priority 1 is 3/4 > 2^-1"),
    "lemma2-growth-before-its-requirement": Case(
        "lemma2", golden("lemma2"),
        lambda evs: stage_end(stage_end(evs, 1, TraceEvent(1, "beta_i", 5, "0/1", "3/2")),
                              3, TraceEvent(3, "d", 4, "0", "1")), "V3",
        "stage 1: growth below priority 4 is 3/2 > 2^-0"),
    "lemma2-bump-without-beta": Case(
        "lemma2", golden("lemma2"), lambda evs: without(evs, "beta", 2), "V4",
        "req 0, stages 1->2: no beta record at stage 2"),
    "lemma2-chain": Case(
        "lemma2", golden("lemma2"), lambda evs: set_old(evs, "alpha", 20, "1/2"), "V6",
        "stage 20: alpha old value is not the last new value of its kind"),
    "lemma2-run": Case(
        "lemma2", golden("lemma2"), lambda evs: without(evs, "gamma", 10), "V7",
        "stage 11: gamma req 0 record, where its next record is due at stage 10"),
    "lemma2-beta-total": Case(
        "lemma2", golden("lemma2"), lambda evs: set_new(evs, "beta", "1/8", range(3, 51)), "V8",
        "stage 3: beta 1/8 is not 3/32 plus the growth 1/64"),
    "lemma2-beta-held": Case(
        "lemma2", golden("lemma2"), lambda evs: set_new(evs, "beta", "1/8", [4]), "V8",
        "stage 4: beta 1/8 with no growth since 7/64"),
    "lemma2-scale": Case(
        "lemma2", golden("lemma2"), lambda evs: set_new(evs, "q", "1/4", [1]), "V8",
        "stage 1: q req 0 is not 2^-1"),
    # q_2 = 2^-(2 + d_1 + 1) holds at stage 2, and is stale once d_1 grows at 3
    "lemma2-stale-scale": Case(
        "lemma2", golden("lemma2"),
        lambda evs: stage_end(evs, 2, TraceEvent(2, "q", 2, None, "1/16")), "V8",
        "stage 3: q req 2 is not 2^-5"),
    "prop3-final-stage": Case(
        "prop3", golden("prop3"), lambda evs: evs, "W0",
        "final record's 'stage' is not the folded trace's",
        final=lambda final: {**final, "stage": 49}),
    "prop3-act-without-define": Case(
        "prop3", golden("prop3"), lambda evs: without(evs, "define", 1), "W1",
        "position 0: act at stage 2 with no parameter in effect"),
    "prop3-separation-L": Case(
        "prop3", golden("prop3"), lambda evs: set_new(evs, "alpha", "3/8", range(3, 51)), "W2",
        "L_0 at stage 3: -1/8 not < "),
    "prop3-separation-R": Case(
        "prop3", r_act_run, lambda evs: set_new(evs, "alpha", "1/8", range(5, 13)), "W2",
        "R_0 at stage 5: 1/8 not > "),
    "prop3-restraint": Case(
        "prop3", golden("prop3"), lambda evs: set_new(evs, "alpha", "1/4", [10]), "W3",
        "position 0: growth 1/4 at stage 10 >= 2^-2"),
    "prop3-initializations": Case(
        "prop3", golden("prop3"),
        lambda evs: stage_end(evs, 5, TraceEvent(5, "initialize", 0)), "W4",
        "position 0: 1 initializations > 0"),
    "prop3-both-sets": Case(
        "prop3", golden("prop3"),
        lambda evs: stage_end(evs, 3, TraceEvent(3, "act", 1, None, "4"),
                              TraceEvent(3, "enumerate_A", 1, None, "0"),
                              TraceEvent(3, "restraint", 1, None, "7")), "W5",
        "values enumerated into both sets: [0]"),
    "prop3-chain": Case(
        "prop3", golden("prop3"), lambda evs: set_old(evs, "beta", 20, "0/1"), "W6",
        "stage 20: beta old value is not the last new value of its kind"),
    "prop3-run": Case(
        "prop3", golden("prop3"), lambda evs: without(evs, "delta", 10), "W7",
        "stage 11: delta req 1 record, where its next record is due at stage 10"),
    "prop3-act-bit": Case(
        "prop3", golden("prop3"),
        lambda evs: [ev._replace(new="1") if ev.kind == "act" else ev for ev in evs], "W8",
        "position 0: act at stage 2 with bit 1, not its parameter 0"),
    "prop3-stray-initialize": Case(
        "prop3", golden("prop3"), lambda evs: evs + [TraceEvent(50, "initialize", 60)], "W9",
        "position 60: initialized at stage 50 with no parameter in effect"),
    "prop3-beta-total": Case(
        "prop3", golden("prop3"), lambda evs: set_new(evs, "beta", "1/4", range(2, 51)), "W10",
        "stage 2: beta changed by 1/4, not by the weights of bits [0]"),
}


def tampered(case):
    """The case's events and final record: the one they fold to, edited
    by `case.final` if it has one."""
    evs = case.edit(case.events())
    final = ENGINES[case.engine][1](evs)
    return evs, case.final(final) if case.final else final


@pytest.mark.parametrize("name", list(FAILING))
def test_tampered_trace_fails_its_check(name, tmp_path, capsys):
    """The case fails its check with its message, in the verifier and
    under `celab verify` (exit 1)."""
    case = FAILING[name]
    evs, final = tampered(case)
    report = ENGINES[case.engine][0](evs, final)
    (check,) = [c for c in report.checks if c.name.split()[0] == case.check]
    assert any(m.startswith(case.message) for m in check.failures), check.failures
    trace = tmp_path / "tampered.trace.jsonl"
    write_trace(trace, {"engine": case.engine, "stages": evs[-1].stage}, evs, final)
    assert main(["verify", "--trace", str(trace)]) == EXIT_CHECK_FAILED
    assert f"[FAIL] {check.name} " in capsys.readouterr().out


def test_every_check_fails_in_some_case():
    """Each check a green golden report lists, but V5's statistics, is
    the check of some case of `FAILING`."""
    listed = set()
    for engine, (verify, _) in ENGINES.items():
        _, evs, final = read_trace(DATA / f"golden_{engine}.trace.jsonl")
        report = verify(evs, final)
        assert report.all_green
        listed.update(c.name.split()[0] for c in report.checks)
    assert listed - {"V5"} == {case.check for case in FAILING.values()}


def lemma2_verifier_inputs():
    """(events, final record) of both goldens, the prop3 one read as a
    lemma2 trace that fails, of each lemma2 case of `FAILING`, and of one
    lemma2 battery config."""
    for name in ENGINES:
        _, evs, final = read_trace(DATA / f"golden_{name}.trace.jsonl")
        yield list(evs), final
    for case in FAILING.values():
        if case.engine == "lemma2":
            yield tampered(case)
    engine = run_expansion(lemma2_config(0)[0])
    yield engine.events, engine.snapshot()


def test_lemma2_reports_do_not_depend_on_memo_hits(monkeypatch):
    """The lemma2 verifier reads every p/q text through a memo of the last
    `_PARSED` texts; with room for one text, so that it parses nearly every
    read again, each report is the one it gives at the bound, and a beta_i
    record whose old value is not p/q text, hashable or not, still fails
    to read."""
    inputs = list(lemma2_verifier_inputs())
    evs = golden("lemma2")()
    n = next(n for n, ev in enumerate(evs) if ev.kind == "beta_i")
    reports = []
    for bound in (expansion._PARSED, 1):
        monkeypatch.setattr(expansion, "_PARSED", bound)
        reports.append([verify_expansion(events, final).to_dict() for events, final in inputs])
        for old in ([1], None):
            with pytest.raises(TraceFormatError, match="is not p/q text"):
                verify_expansion(evs[:n] + [evs[n]._replace(old=old)] + evs[n + 1:],
                                 replay_expansion(evs))
    assert reports[0] == reports[1]
