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
from celab.expansion import ExpansionConfig, run_expansion
from celab.injury import InjuryConfig, run_injury
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
    if engine_name == "lemma2":
        engine = run_expansion(ExpansionConfig(
            alpha=target(("2/3", "1/2")), eta=target(("1/2", "1/2")),
            suite=factory(TRACKERS), stages=80))
    else:
        engine = run_injury(InjuryConfig(suite=factory(TRACKERS), stages=80))
    logged = {kind: {} for kind in ("alpha", "beta")}  # kind -> stage -> value
    for ev in engine.events:
        if ev.kind in logged:
            logged[ev.kind][ev.stage] = parse_rational(ev.new)
    for s in range(engine.s + 1):
        assert engine.difference(s) == logged["alpha"][s] - logged["beta"][s], f"stage {s}"
