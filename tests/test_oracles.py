"""Each engine against its naive oracle (`oracles.py`), event for event: on
drawn suites, on a fixed set of gap tests that land exactly on their
threshold, and on both golden configs byte for byte."""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from celab.config import ENGINES, config_from_dict
from celab.injury import InjuryConfig, InjuryEngine
from test_injury import LIMITS, OFFSETS, RATES as INJURY_RATES, suite_from
from test_stage_records import FRACTIONS, RATES, suites

DATA = Path(__file__).parent / "data"


def engine_events(config: dict) -> list:
    entry = ENGINES[config["engine"]]
    engine = entry.engine(entry.build(config_from_dict(config)))
    engine.run()
    return engine.events


def target(limit: str, rate: str) -> dict:
    return {"kind": "constant_target", "limit": limit, "rate": rate}


def lemma2_config(stages: int, alpha: tuple, eta: tuple, suite: list) -> dict:
    return {"engine": "lemma2", "stages": stages, "alpha": target(*alpha),
            "eta": target(*eta), "suite": suite}


@pytest.mark.parametrize("name", ["lemma2", "prop3"])
def test_golden_config_gives_the_golden_events(name):
    config = json.loads((DATA / f"golden_{name}.config.json").read_text())
    lines = (DATA / f"golden_{name}.trace.jsonl").read_text().splitlines()
    assert [ev.to_json() for ev in getattr(oracles, name)(config)] == lines[1:-1]


def test_lemma2_matches_its_oracle_on_drawn_suites():
    seen = Counter()

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(table=suites, stages=st.integers(1, 150),
           alpha=st.tuples(st.sampled_from(FRACTIONS), st.sampled_from(RATES)),
           eta=st.tuples(st.sampled_from(FRACTIONS), st.sampled_from(RATES)))
    def check(table, stages, alpha, eta):
        config = lemma2_config(stages, alpha, eta, [{"index": i, "role": role, **spec}
                                                    for (i, role), spec in table.items()])
        events = oracles.lemma2(config)
        assert engine_events(config) == events
        seen.update(ev.kind for ev in events)

    check()
    assert seen["c"] and seen["d"]


# (alpha limit, eta limit, trackers as (index, role, lag, start)), every
# rate 1/2: each run has a gap test with |x - v| exactly 2^-k, which a
# gap test with <= for < would pass; the fourth at a d, the others at a c
BOUNDARIES = [
    ("1/2", "1/2", [(0, "L", 0, "7/8")]),
    ("1/2", "3/4", [(0, "L", 1, "7/8")]),
    ("1/2", "1/2", [(1, "L", 2, "1/2")]),
    ("1/2", "1/2", [(0, "L", 0, "1/8"), (0, "R", 2, "7/8")]),
    ("3/4", "3/4", [(0, "L", 0, "2/3"), (1, "L", 0, "1/2")]),
]


@pytest.mark.parametrize("alpha, eta, trackers", BOUNDARIES)
def test_lemma2_matches_its_oracle_on_exact_boundaries(alpha, eta, trackers, monkeypatch):
    config = lemma2_config(30, (alpha, "1/2"), (eta, "1/2"), [
        {"index": i, "role": role, "kind": "tracker", "lag": lag, "start": start}
        for i, role, lag, start in trackers])
    ties = []
    gap = oracles.gap

    def counting(x, v, k):
        ties.append(abs(x - v) == Fraction(1, 2**k))
        return gap(x, v, k)

    monkeypatch.setattr(oracles, "gap", counting)
    assert engine_events(config) == oracles.lemma2(config)
    assert any(ties)


def prop3_entry(index: int, role: str, kind: str, choice: int) -> dict:
    """The config entry of the stream `test_injury.suite_from` builds."""
    entry = {"index": index, "role": role}
    if kind == "constant":
        return {**entry, **target(LIMITS[choice % len(LIMITS)],
                                  INJURY_RATES[choice % len(INJURY_RATES)])}
    if kind == "tracker":
        return {**entry, "kind": "tracker", "lag": choice % 4,
                "start": "1/32" if role == "L" else "31/32"}
    return {**entry, "kind": "slow", "offset": OFFSETS[choice % len(OFFSETS)]}


def test_prop3_matches_its_oracle_on_drawn_suites():
    seen = Counter()

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(specs=st.lists(st.tuples(st.integers(0, 3), st.sampled_from("LR"),
                                    st.sampled_from(["constant", "tracker", "slow"]),
                                    st.integers(0, 59)),
                          max_size=6, unique_by=lambda spec: spec[:2]),
           stages=st.integers(1, 300))
    def check(specs, stages):
        engine = InjuryEngine(InjuryConfig(suite_from(specs), stages))
        while engine.s < stages:
            logged = len(engine.events)
            engine.step()
            (served,) = [ev.requirement for ev in engine.events[logged:]
                         if ev.kind in ("define", "act")]
            # parameters are defined exactly on the prefix [0, served + 1)
            assert set(engine.params) == set(range(served + 1))
        events = oracles.prop3({"stages": stages, "suite": [prop3_entry(*s) for s in specs]})
        assert engine.events == events
        seen.update(ev.kind for ev in events)

    check()
    assert seen["act"] and seen["initialize"]
