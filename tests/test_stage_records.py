"""Per-stage trace records of both engines on random suites: every
participating adversary is logged once a stage, side by side in the
engine's order, each value record's old value is the last new value of its
kind and requirement, and lemma2's beta is the sum of its logged beta_i.
Every record reads back unchanged through the trace reader's layout check.
An engine's running difference is its logged alpha minus its logged beta."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celab.config import build_suite
from celab.expansion import ExpansionConfig, ExpansionEngine, run_expansion
from celab.injury import InjuryConfig, InjuryEngine, run_injury
from celab.rationals import ZERO, parse_rational
from celab.streams import Direction, make_constant_target
from celab.trace import TraceEvent

FRACTIONS = ["1/8", "1/4", "1/3", "1/2", "2/3", "3/4", "7/8"]
RATES = ["1/2", "1/3", "2/3", "3/4"]

adversary = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant_target"),
                           "limit": st.sampled_from(FRACTIONS),
                           "rate": st.sampled_from(RATES)}),
    st.fixed_dictionaries({"kind": st.just("tracker"), "lag": st.integers(0, 3),
                           "start": st.sampled_from(FRACTIONS)}),
)
# (index, role) -> spec: indices 0-4 with gaps, L and R may share an index
suites = st.dictionaries(st.tuples(st.integers(0, 4), st.sampled_from("LR")),
                         adversary, max_size=8)
stage_counts = st.integers(1, 150)


def target(limit_and_rate: tuple[str, str]):
    limit, rate = map(parse_rational, limit_and_rate)
    return make_constant_target(limit, Direction.INCREASING, rate)


def factory(table: dict):
    specs = [{"index": i, "role": role, **spec} for (i, role), spec in table.items()]
    return lambda view: build_suite(specs, view)


# engine -> chained kind -> the old value of its first record
FIRST_OLD = {
    "lemma2": {"alpha": None, "eta": None, "beta": None, "q": None,
               "c": "0", "d": "0", "beta_i": "0/1"},
    "prop3": {"alpha": None, "beta": None},
}


def check_chain(events, first_old: dict) -> None:
    """Every chained record's old value is the last new value of its kind
    and requirement, or the kind's first old value before its first."""
    last: dict = {}
    for ev in events:
        if ev.kind in first_old:
            key = (ev.kind, ev.requirement)
            assert ev.old == last.get(key, first_old[ev.kind]), f"stage {ev.stage} {key}"
            last[key] = ev.new


def check_round_trip(events) -> None:
    for ev in events:
        assert TraceEvent.from_dict(json.loads(ev.to_json())) == ev


def check_adversary_records(events, table: dict, stages: int, first: str) -> None:
    """At every stage s1 the gamma/delta records are exactly the adversaries
    with index <= s1 - 1, side `first` before the other, each by index."""
    logged: dict[int, list[tuple[str, int]]] = {}
    for ev in events:
        if ev.kind in ("gamma", "delta"):
            logged.setdefault(ev.stage, []).append((ev.kind, ev.requirement))
    sides = ("delta", "gamma") if first == "delta" else ("gamma", "delta")
    for s1 in range(stages + 1):
        expected = [(kind, i) for kind in sides
                    for i, role in sorted(table)
                    if role == ("L" if kind == "gamma" else "R") and i <= s1 - 1]
        assert logged.get(s1, []) == expected, f"stage {s1}"


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(table=suites, stages=stage_counts,
       alpha=st.tuples(st.sampled_from(FRACTIONS), st.sampled_from(RATES)),
       eta=st.tuples(st.sampled_from(FRACTIONS), st.sampled_from(RATES)))
def test_lemma2_records_and_beta_total(table, stages, alpha, eta):
    engine = run_expansion(ExpansionConfig(
        alpha=target(alpha), eta=target(eta),
        suite=factory(table), stages=stages))
    check_adversary_records(engine.events, table, stages, first="delta")
    check_chain(engine.events, FIRST_OLD["lemma2"])
    check_round_trip(engine.events)
    latest: dict[int, str] = {}  # i -> latest logged beta_i
    totals = 0
    for ev in engine.events:
        if ev.kind == "beta_i":
            latest[ev.requirement] = ev.new
        elif ev.kind == "beta":
            total = sum(map(parse_rational, latest.values()), start=ZERO)
            assert parse_rational(ev.new) == total, f"stage {ev.stage}"
            totals += 1
    assert totals == stages + 1


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(table=suites, stages=stage_counts)
def test_prop3_records(table, stages):
    engine = run_injury(InjuryConfig(suite=factory(table), stages=stages))
    check_adversary_records(engine.events, table, stages, first="gamma")
    check_chain(engine.events, FIRST_OLD["prop3"])
    check_round_trip(engine.events)


TRACKERS = {(0, "L"): {"kind": "tracker", "lag": 0, "start": "1/8"},
            (1, "R"): {"kind": "tracker", "lag": 1, "start": "7/8"},
            (2, "L"): {"kind": "tracker", "lag": 2, "start": "1/3"}}


@pytest.mark.parametrize("engine_name", ["lemma2", "prop3"])
def test_difference_is_logged_alpha_minus_beta(engine_name):
    # the engine keeps only the last stages of its difference, so each
    # stage is compared as its records are handed out: by then it has run,
    # and its beta record is the last of its alpha and beta records
    if engine_name == "lemma2":
        engine = ExpansionEngine(ExpansionConfig(
            alpha=target(("2/3", "1/2")), eta=target(("1/2", "1/2")),
            suite=factory(TRACKERS), stages=80))
    else:
        engine = InjuryEngine(InjuryConfig(suite=factory(TRACKERS), stages=80))
    logged = {}  # kind -> the value of the stage being read
    compared = []
    for ev in engine.records():
        if ev.kind in ("alpha", "beta"):
            logged[ev.kind] = parse_rational(ev.new)
        if ev.kind == "beta":
            assert engine.s == ev.stage
            assert engine.difference(ev.stage) == logged["alpha"] - logged["beta"], \
                f"stage {ev.stage}"
            compared.append(ev.stage)
    assert compared == list(range(81))


# constant targets, and a tracker that joins at stage 6 and reads alpha -
# beta two stages back
HISTORY = {(0, "L"): {"kind": "constant_target", "limit": "1/3", "rate": "1/2"},
           (1, "R"): {"kind": "constant_target", "limit": "3/4", "rate": "2/3"},
           (5, "L"): {"kind": "tracker", "lag": 2, "start": "1/8"}}


def history_engine(engine_name, stages, steps=None):
    """An engine on HISTORY with a budget of `stages`, run for `steps`
    (all of them if None)."""
    if engine_name == "lemma2":
        engine = ExpansionEngine(ExpansionConfig(
            alpha=target(("2/3", "1/2")), eta=target(("1/2", "1/3")),
            suite=factory(HISTORY), stages=stages))
    else:
        engine = InjuryEngine(InjuryConfig(suite=factory(HISTORY), stages=stages))
    for _ in range(stages if steps is None else steps):
        engine.step()
    return engine


def held_history(engine) -> list[int]:
    """The values each engine-owned stream holds, then the stages of alpha -
    beta the engine keeps."""
    streams = list(engine.suite.positions.values())
    if isinstance(engine, ExpansionEngine):
        streams += [engine.alpha, engine.eta]
    return [len(stream._prefix) for stream in streams] + [len(engine.diff_at)]


@pytest.mark.parametrize("engine_name", ["lemma2", "prop3"])
def test_history_does_not_grow_with_the_stage_count(engine_name):
    # each stream holds its last value, and alpha - beta its last lag + 1
    # stages, after 200 stages as after 800
    short, long = history_engine(engine_name, 200), history_engine(engine_name, 800)
    want = [1] * (5 if engine_name == "lemma2" else 3) + [3]
    assert held_history(short) == held_history(long) == want
    assert [long.difference(s) for s in (798, 799, 800)] == long.diff_at


@pytest.mark.parametrize("engine_name", ["lemma2", "prop3"])
def test_history_is_kept_whole_until_the_last_adversary_joins(engine_name):
    engine = history_engine(engine_name, 40, steps=5)
    assert len(engine.diff_at) == 6  # the tracker joins at stage 6 and reads stages 0..3
    engine.step()
    assert len(engine.diff_at) == 3
    assert engine.suite.positions[10].materialized == 7


@pytest.mark.parametrize("engine_name", ["lemma2", "prop3"])
def test_dropped_difference_is_refused_by_name(engine_name):
    engine = history_engine(engine_name, 40)
    engine.difference(38)
    for s in (0, 37):
        with pytest.raises(ValueError, match=rf"stage {s} of alpha - beta not kept"):
            engine.difference(s)
        with pytest.raises(ValueError, match=rf"stage {s} released"):
            engine.suite.positions[0].value(s)


@pytest.mark.parametrize("engine_name", ["lemma2", "prop3"])
def test_difference_refuses_every_stage_it_does_not_hold(engine_name):
    # after 5 stages with an empty suite only stage 5 is kept: a stage past
    # the last completed one is refused by name, like a dropped one
    if engine_name == "lemma2":
        engine = run_expansion(ExpansionConfig(
            alpha=target(("2/3", "1/2")), eta=target(("1/2", "1/3")),
            suite=factory({}), stages=5))
    else:
        engine = run_injury(InjuryConfig(suite=factory({}), stages=5))
    last = {ev.kind: parse_rational(ev.new) for ev in engine.events
            if ev.kind in ("alpha", "beta")}
    assert engine.difference(5) == last["alpha"] - last["beta"]
    for s in (-1, 4, 6, 10**6):
        with pytest.raises(ValueError, match=rf"stage {s} of alpha - beta not kept; "
                                             r"kept stages 5\.\.5$"):
            engine.difference(s)
