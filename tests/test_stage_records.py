"""Per-stage trace records of both engines on random suites: every
participating adversary is logged once a stage, side by side in the
engine's order, and lemma2's beta is the sum of its logged beta_i."""

from hypothesis import given, settings
from hypothesis import strategies as st

from celab.config import build_suite
from celab.expansion import ExpansionConfig, run_expansion
from celab.injury import InjuryConfig, run_injury
from celab.rationals import ZERO, parse_rational
from celab.streams import Direction, make_constant_target

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
