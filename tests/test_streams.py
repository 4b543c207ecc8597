"""Monotone stream machinery: targets, trackers, guards, suites."""

import gc
import json
import weakref
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import celab.streams
from celab.config import ENGINES, config_from_dict
from celab.rationals import ONE, ZERO, Rational, format_rational, parse_rational
from celab.streams import (
    AdversarySuite,
    ApproxStream,
    Direction,
    MonotonicityViolation,
    OutOfUnitInterval,
    SuiteEntry,
    make_constant_target,
    make_tracker,
)

INC = Direction.INCREASING
DEC = Direction.DECREASING


def R(text):
    return parse_rational(text)


def exact(examples):
    """Derandomized hypothesis settings: a run is reproducible."""
    return settings(max_examples=examples, deadline=None, database=None, derandomize=True)


def non_dyadic(low, high):
    """Fractions strictly between `low` and `high` whose denominator is not
    a power of two."""
    return st.builds(Rational, st.integers(-10**6, 10**6), st.integers(3, 10**6)).filter(
        lambda x: low < x < high and x.denominator & (x.denominator - 1))


def in_unit_interval(max_denominator):
    """Fractions strictly between 0 and 1, dyadic or not."""
    return st.fractions(0, 1, max_denominator=max_denominator).filter(lambda x: 0 < x < 1)


def closed_form(limit, direction, rate, s):
    """value(s) of a constant target, in Fraction arithmetic."""
    power = rate ** (s + 1)
    return limit * (ONE - power) if direction is INC else limit + (ONE - limit) * power


class TestApproxStream:
    def test_value_caches_and_is_reproducible(self):
        calls = []

        def gen(s, prefix):
            calls.append(s)
            return Rational(s, s + 1)

        st = ApproxStream(INC, gen, unit_interval=False)
        a = st.value(5)
        b = st.value(5)
        assert a == b == Rational(5, 6)
        assert calls == [0, 1, 2, 3, 4, 5]  # each stage generated once
        assert st.materialized == 6
        assert [st.value(k) for k in range(st.materialized)] == [Rational(s, s + 1)
                                                                 for s in range(6)]

    def test_monotonicity_guard_increasing(self):
        st = ApproxStream(INC, lambda s, _p: Rational(-s), unit_interval=False)
        st.value(0)
        with pytest.raises(MonotonicityViolation):
            st.value(1)

    def test_monotonicity_guard_decreasing(self):
        st = ApproxStream(DEC, lambda s, _p: Rational(s), unit_interval=False)
        st.value(0)
        with pytest.raises(MonotonicityViolation):
            st.value(1)

    def test_equal_values_allowed(self):
        st = ApproxStream(INC, lambda s, _p: Rational(1, 2))
        assert st.value(10) == Rational(1, 2)  # nonstrict monotone is fine

    def test_unit_interval_guard(self):
        st = ApproxStream(INC, lambda s, _p: Rational(s), unit_interval=True)
        with pytest.raises(OutOfUnitInterval):
            st.value(0)  # 0 is outside the open interval

    def test_negative_stage_rejected(self):
        st = ApproxStream(INC, lambda s, _p: Rational(1, 2))
        with pytest.raises(ValueError):
            st.value(-1)

    @pytest.mark.parametrize("direction", [INC, DEC], ids=["increasing", "decreasing"])
    @exact(150)
    @given(prev=st.fractions(-4, 4, max_denominator=10**12), k=st.integers(1, 10**6),
           m=st.integers(-10**13, 10**13), other=st.fractions(-4, 4, max_denominator=10**12),
           form=st.sampled_from(["divisible", "any", "equal"]))
    def test_direction_check_is_fraction_order(self, direction, prev, k, m, other, form):
        # the check raises exactly when Fraction order says the value moved
        # the wrong way, whether the previous denominator divides the new
        # one (m / (prev_d * k) in lowest terms), or not, or the new value
        # equals the previous one in a distinct object
        if form == "divisible":
            v = Rational(m, prev.denominator * k)
        elif form == "any":
            v = other
        else:
            v = Rational(prev.numerator, prev.denominator)
            assert v is not prev
        stream = ApproxStream(direction, lambda s, _p: (prev, v)[s], unit_interval=False)
        stream.value(0)
        if v < prev if direction is INC else v > prev:
            with pytest.raises(MonotonicityViolation):
                stream.value(1)
            assert stream.materialized == 1
        else:
            assert stream.value(1) is v

    @pytest.mark.parametrize("divides", [True, False])
    def test_direction_check_at_the_margin(self, divides):
        # the values next to prev at a large denominator, one on each side:
        # prev's denominator 3**199 divides 3**200, and not 7**150
        prev = Rational(3**199 + 1, 3**199)
        if divides:
            below, above = (Rational(prev.numerator * 3 + e, 3**200) for e in (-1, 1))
        else:
            below = Rational(prev.numerator * 7**150 // prev.denominator, 7**150)
            above = below + Rational(1, 7**150)
        assert below < prev < above
        assert {v.denominator % prev.denominator == 0 for v in (below, above)} == {divides}
        for v, wrong in ((below, INC), (above, DEC)):
            for direction in (INC, DEC):
                stream = ApproxStream(direction, lambda s, _p, v=v: (prev, v)[s],
                                      unit_interval=False)
                stream.value(0)
                if direction is wrong:
                    with pytest.raises(MonotonicityViolation):
                        stream.value(1)
                else:
                    assert stream.value(1) is v

    def test_held_value_is_appended_unchecked_and_keeps_its_text(self, monkeypatch):
        # a generator that returns the previous value's own object is
        # holding: the value passed both checks when it first appeared, so
        # it is appended as it is, and `text` reuses its text
        formatted = []

        def counting_fmt(x):
            formatted.append(x)
            return format_rational(x)

        monkeypatch.setattr(celab.streams, "fmt", counting_fmt)
        stream = ApproxStream(INC, lambda s, p: p[-1] if s % 3 else Rational(s + 1, s + 2),
                              unit_interval=True)
        texts = [stream.text(stream.value(s)) for s in range(9)]
        assert texts == [format_rational(Rational(3 * (s // 3) + 1, 3 * (s // 3) + 2))
                         for s in range(9)]
        assert formatted == [Rational(1, 2), Rational(4, 5), Rational(7, 8)]
        assert texts[1] is texts[0] and texts[5] is texts[3]
        # a check a held value skips: a value outside (0,1), let in while
        # the stream was not unit-interval flagged, is held unchecked; an
        # equal value in a new object is checked, and refused
        outside = Rational(3, 2)
        held = ApproxStream(INC, lambda s, p: p[-1] if s else outside, unit_interval=False)
        held.value(0)
        held.unit_interval = True
        assert held.value(1) is outside
        fresh = ApproxStream(INC, lambda s, p: Rational(3, 2), unit_interval=False)
        fresh.value(0)
        fresh.unit_interval = True
        with pytest.raises(OutOfUnitInterval):
            fresh.value(1)


class TestRelease:
    """An owner releases the stages it has read for the last time."""

    def test_released_stage_is_refused_by_name(self):
        st = ApproxStream(INC, lambda s, p: Rational(s, s + 1), unit_interval=False)
        st.value(5)
        st.release(4)
        assert st.value(4) == Rational(4, 5) and st.value(6) == Rational(6, 7)
        for s in (0, 3):
            with pytest.raises(ValueError, match=rf"stage {s} released"):
                st.value(s)
        with pytest.raises(ValueError, match="negative stage -1"):
            st.value(-1)

    def test_materialized_counts_released_stages(self):
        st = ApproxStream(INC, lambda s, p: Rational(s, s + 1), unit_interval=False)
        st.value(5)
        st.release(5)
        assert st.materialized == 6
        st.release(2)  # stages before 5 are released already
        assert st.materialized == 6
        st.value(9)
        assert st.materialized == 10

    def test_unmaterialized_stage_cannot_be_released(self):
        # the generator reads the last value, and a held value is the last
        # one's own object: a release always keeps a value
        st = ApproxStream(INC, lambda s, p: Rational(s, s + 1), unit_interval=False)
        st.value(2)
        with pytest.raises(ValueError, match="stage 3 not materialized"):
            st.release(3)

    def test_generator_sees_the_last_value_after_a_release(self):
        outside = Rational(3, 2)
        held = ApproxStream(INC, lambda s, p: p[-1] if s else outside, unit_interval=False)
        held.value(4)
        held.release(4)
        held.unit_interval = True
        # still the held object: appended unchecked, as without a release
        assert held.value(7) is outside
        stream = make_constant_target(R("2/3"), INC, R("1/2"))
        for s in range(30):
            assert stream.value(s) == closed_form(R("2/3"), INC, R("1/2"), s)
            stream.release(s)


class TestConstantTarget:
    # [DERIVED] closed forms: increasing limit*(1 - rate**(s+1)),
    # decreasing limit + (1-limit)*rate**(s+1); checked by hand.
    @pytest.mark.parametrize("limit,rate,stage,expect", [
        ("1/2", "1/2", 0, "1/4"),
        ("1/2", "1/2", 1, "3/8"),
        ("1/2", "1/2", 2, "7/16"),
        ("1/2", "1/2", 3, "15/32"),
        ("2/3", "1/2", 0, "1/3"),
        ("2/3", "1/4", 1, "5/8"),
    ])
    def test_increasing_values(self, limit, rate, stage, expect):
        st = make_constant_target(R(limit), INC, R(rate))
        assert st.value(stage) == R(expect)

    @pytest.mark.parametrize("limit,rate,stage,expect", [
        ("1/2", "1/2", 0, "3/4"),
        ("1/2", "1/2", 1, "5/8"),
        ("1/2", "1/2", 2, "9/16"),
        ("1/4", "1/2", 0, "5/8"),
        ("1/4", "1/2", 1, "7/16"),
    ])
    def test_decreasing_values(self, limit, rate, stage, expect):
        st = make_constant_target(R(limit), DEC, R(rate))
        assert st.value(stage) == R(expect)

    @pytest.mark.parametrize("direction", [INC, DEC], ids=["increasing", "decreasing"])
    @pytest.mark.parametrize("rate", ["1/3", "2/3", "3/4", "99/100"])
    @settings(max_examples=4, deadline=None, database=None, derandomize=True)
    @given(limit=in_unit_interval(10**9))
    def test_stepped_values_equal_closed_form(self, direction, rate, limit):
        # each value comes from powers kept between stages; the reference
        # computes rate**(s+1) afresh in Fractions
        rate = R(rate)
        stream = make_constant_target(limit, direction, rate)
        for s in range(300):
            if direction is INC:
                closed = limit - limit * rate ** (s + 1)
            else:
                closed = limit + (ONE - limit) * rate ** (s + 1)
            assert stream.value(s) == closed

    @pytest.mark.parametrize("direction", [INC, DEC], ids=["increasing", "decreasing"])
    @exact(80)
    @given(limit=st.one_of(non_dyadic(0, 1), in_unit_interval(10**6)),
           rate=st.one_of(non_dyadic(0, 1), in_unit_interval(10**3)))
    def test_values_equal_closed_form_at_any_rate(self, direction, limit, rate):
        # dyadic or not, each value is the canonical Fraction, in lowest
        # terms, so its p/q text is the closed form's too
        stream = make_constant_target(limit, direction, rate)
        power = ONE
        for s in range(81):
            power *= rate
            closed = limit * (ONE - power) if direction is INC else limit + (ONE - limit) * power
            v = stream.value(s)
            assert gcd(v.numerator, v.denominator) == 1
            assert v == closed
            assert format_rational(v) == format_rational(closed)

    @pytest.mark.parametrize("limit,direction,rate,divides", [
        # P = q - p = 3 and b = 3 share 3; 5 divides 3**n - 2**n at even n
        ("2/5", DEC, "2/3", {"P, b**n": 3, "X, q": 5}),
        # P = 6 and b = 21 share 3; X = 21**n - 10**n is prime to 35
        ("6/35", INC, "10/21", {"P, b**n": 3}),
    ], ids=["both-factors", "P-and-b-only"])
    def test_values_reduced_by_each_gcd_factor(self, limit, direction, rate, divides):
        limit, rate = R(limit), R(rate)
        p, q = limit.numerator, limit.denominator
        a, b = rate.numerator, rate.denominator
        big_p = p if direction is INC else q - p
        stream = make_constant_target(limit, direction, rate)
        seen = {"P, b**n": 1, "X, q": 1}
        for s in range(40):
            n = s + 1
            seen["P, b**n"] = max(seen["P, b**n"], gcd(big_p, b**n))
            seen["X, q"] = max(seen["X, q"], gcd(b**n - a**n, q))
            v = stream.value(s)
            assert gcd(v.numerator, v.denominator) == 1
            assert v == closed_form(limit, direction, rate, s)
        # the cases exercise exactly the factors they name
        assert {k: g for k, g in seen.items() if g > 1} == divides

    def test_generator_called_out_of_order_raises(self):
        stream = make_constant_target(R("2/3"), INC, Rational(1, 2))
        with pytest.raises(ValueError, match="stage 1 asked for, stage 0 due"):
            stream.generator(1, [])
        assert stream.value(2) == R("7/12")
        for s in (0, 2, 4):
            with pytest.raises(ValueError, match=f"stage {s} asked for, stage 3 due"):
                stream.generator(s, [stream.value(k) for k in range(stream.materialized)])
        # a refused call moves nothing: the stream goes on from stage 3
        assert stream.value(3) == closed_form(R("2/3"), INC, Rational(1, 2), 3)

    def test_freed_without_collector(self):
        # the generator keeps no reference to its stream, so a dropped
        # stream and every value in it go at once, with no cyclic collection
        stream = make_constant_target(R("2/3"), DEC, R("1/3"))
        stream.value(20)
        freed = weakref.ref(stream)
        gc.disable()
        try:
            del stream
            assert freed() is None
        finally:
            gc.enable()

    def test_converges_to_limit(self):
        for direction in (INC, DEC):
            st = make_constant_target(R("3/7"), direction, R("1/3"))
            gap = abs(st.value(40) - R("3/7"))
            assert gap < Rational(1, 3) ** 40

    def test_strictly_monotone_and_in_unit_interval(self):
        inc = make_constant_target(R("9/10"), INC, R("2/3"))
        dec = make_constant_target(R("1/10"), DEC, R("2/3"))
        for s in range(30):
            assert ZERO < inc.value(s) < R("9/10")
            assert R("1/10") < dec.value(s) < ONE
            if s:
                assert inc.value(s) > inc.value(s - 1)
                assert dec.value(s) < dec.value(s - 1)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_constant_target(ONE, INC, Rational(1, 2))
        with pytest.raises(ValueError):
            make_constant_target(Rational(1, 2), INC, ZERO)


class FakeView:
    """Scripted engine view for tracker tests."""

    def __init__(self, diffs):
        self.diffs = [parse_rational(d) for d in diffs]

    def difference(self, s):
        return self.diffs[s]

    def retain(self, lag):
        pass


class TestTracker:
    def test_chases_difference_with_lag(self):
        view = FakeView(["1/8", "1/4", "3/8", "1/2"])
        st = make_tracker(view, INC, lag=0, start=R("1/16"))
        # stage 0 is the start; stage s>0 chases difference(s-1)
        assert [st.value(s) for s in range(5)] == [
            R("1/16"), R("1/8"), R("1/4"), R("3/8"), R("1/2"),
        ]

    def test_lag_delays_the_chase(self):
        view = FakeView(["1/8", "1/4", "3/8", "1/2"])
        st = make_tracker(view, INC, lag=2, start=R("1/16"))
        assert [st.value(s) for s in range(5)] == [
            R("1/16"), R("1/16"), R("1/16"), R("1/8"), R("1/4"),
        ]

    def test_holds_and_records_fault_on_backward_target(self):
        view = FakeView(["1/4", "1/8", "1/2"])
        st = make_tracker(view, INC, lag=0, start=R("1/16"))
        assert st.value(1) == R("1/4")
        assert st.value(2) == R("1/4")  # held: 1/8 would decrease
        assert st.value(3) == R("1/2")
        assert len(st.faults) == 1 and "holding" in st.faults[0]

    @pytest.mark.parametrize("direction, targets, message", [
        (INC, ["1/4", "1/8"], "stage 2: target below increasing tracker; holding"),
        (DEC, ["3/4", "7/8"], "stage 2: target above decreasing tracker; holding"),
    ])
    def test_fault_message_quotes_no_values(self, direction, targets, message):
        start = R("1/16") if direction is INC else R("15/16")
        st = make_tracker(FakeView(targets), direction, lag=0, start=start)
        st.value(2)
        assert st.faults == [message]

    @pytest.mark.parametrize("direction", [INC, DEC], ids=["increasing", "decreasing"])
    @exact(100)
    @given(lag=st.integers(0, 2), start=non_dyadic(0, 1),
           diffs=st.lists(st.one_of(st.sampled_from([R("-1/3"), ZERO, R("1/3"), Rational(1, 2),
                                                     R("2/3"), ONE, R("4/3")]),
                                    st.fractions(-2, 2, max_denominator=60)),
                          min_size=1, max_size=40))
    def test_matches_fraction_reference(self, direction, lag, start, diffs):
        # the tracker compares on integers; the reference compares Fractions,
        # including the clamps at raw >= 1 and raw <= 0
        view = FakeView([])
        view.diffs = diffs
        stream = make_tracker(view, direction, lag, start)
        values, faults = [start], []
        for s in range(1, len(diffs) + lag + 1):
            prev, t = values[-1], s - 1 - lag
            raw = diffs[t] if t >= 0 else prev
            if direction is INC:
                if raw < prev:
                    faults.append(f"stage {s}: target below increasing tracker; holding")
                v = prev if raw <= prev else (prev + ONE) / 2 if raw >= ONE else raw
            else:
                if raw > prev:
                    faults.append(f"stage {s}: target above decreasing tracker; holding")
                v = prev if raw >= prev else prev / 2 if raw <= ZERO else raw
            values.append(v)
        assert [stream.value(s) for s in range(len(values))] == values
        assert stream.faults == faults

    def test_tracker_freed_without_collector(self):
        # the generator appends faults to the stream's list, not through the
        # stream, so a dropped tracker goes at once, as a constant target does
        st = make_tracker(FakeView(["1/4", "1/8", "1/2"]), INC, lag=0, start=R("1/16"))
        st.value(3)
        assert len(st.faults) == 1
        freed = weakref.ref(st)
        gc.disable()
        try:
            del st
            assert freed() is None
        finally:
            gc.enable()

    def test_decreasing_tracker_clamps_at_zero_target(self):
        view = FakeView(["0/1", "0/1"])
        st = make_tracker(view, DEC, lag=0, start=R("1/2"))
        assert st.value(1) == R("1/4")  # halves toward 0, never reaches it
        assert st.value(2) == R("1/8")

    def test_bad_parameters_rejected(self):
        view = FakeView([])
        with pytest.raises(ValueError):
            make_tracker(view, INC, lag=-1, start=Rational(1, 2))
        with pytest.raises(ValueError):
            make_tracker(view, INC, lag=0, start=ONE)


class TestSuite:
    def test_roles_imply_directions(self):
        inc = make_constant_target(Rational(1, 2), INC, Rational(1, 2))
        with pytest.raises(ValueError):
            SuiteEntry(0, "R", inc)  # R needs a decreasing stream
        with pytest.raises(ValueError):
            SuiteEntry(0, "X", inc)

    def test_lookup_and_indices(self):
        g0 = make_constant_target(R("1/3"), INC, Rational(1, 2))
        d1 = make_constant_target(R("1/4"), DEC, Rational(1, 2))
        suite = AdversarySuite([SuiteEntry(0, "L", g0), SuiteEntry(1, "R", d1)])
        assert suite.positions[0] is g0  # gamma_0 at 2 * 0
        assert suite.positions[3] is d1  # delta_1 at 2 * 1 + 1
        assert list(suite.positions) == [0, 3]
        assert len(suite) == 2

    def test_positions_in_priority_order(self):
        l0, l2 = (make_constant_target(R("1/3"), INC, Rational(1, 2)) for _ in range(2))
        r0, r2, extra = (make_constant_target(R("2/3"), DEC, Rational(1, 2)) for _ in range(3))
        # listed out of order; L_0 and R_0 take two positions
        suite = AdversarySuite([SuiteEntry(2, "R", r2), SuiteEntry(0, "R", r0),
                                SuiteEntry(2, "L", l2), SuiteEntry(0, "L", l0)])
        assert list(suite.positions) == [0, 1, 4, 5]
        assert suite.positions == {0: l0, 1: r0, 4: l2, 5: r2}
        with pytest.raises(ValueError, match="duplicate R entry at index 0"):
            AdversarySuite([SuiteEntry(0, "L", l0), SuiteEntry(0, "R", r0),
                            SuiteEntry(0, "R", extra)])

    def test_duplicate_entry_rejected(self):
        g = make_constant_target(Rational(1, 2), INC, Rational(1, 2))
        h = make_constant_target(R("1/3"), INC, Rational(1, 2))
        with pytest.raises(ValueError):
            AdversarySuite([SuiteEntry(0, "L", g), SuiteEntry(0, "L", h)])

    def test_empty_suite(self):
        suite = AdversarySuite(())
        assert suite.positions == {}
        assert len(suite) == 0


class TestRecords:
    """`StageEngine.records()` hands out each record as it is logged, stage
    by stage, on both golden configs."""

    @staticmethod
    def golden(name):
        """A fresh engine for the golden config, and the golden event lines."""
        data = Path(__file__).parent / "data"
        entry = ENGINES[name]
        config = config_from_dict(json.loads((data / f"golden_{name}.config.json").read_text()))
        lines = (data / f"golden_{name}.trace.jsonl").read_text().splitlines()
        return entry.engine(entry.build(config)), lines[1:-1]

    @pytest.mark.parametrize("name", ["lemma2", "prop3"])
    def test_golden_config_gives_the_golden_lines(self, name):
        engine, lines = self.golden(name)
        assert [ev.to_json() for ev in engine.records()] == lines
        assert engine.events == [] and engine.s == engine.config.stages

    @pytest.mark.parametrize("name", ["lemma2", "prop3"])
    def test_events_hold_one_stage_while_drawn(self, name):
        engine, _ = self.golden(name)
        for ev in engine.records():
            assert ev in engine.events
            assert {held.stage for held in engine.events} == {engine.s}

    @pytest.mark.parametrize("name", ["lemma2", "prop3"])
    def test_records_step_logged_come_first(self, name):
        engine, lines = self.golden(name)
        engine.step()
        engine.step()
        logged = [ev.to_json() for ev in engine.events]
        drawn = [ev.to_json() for ev in engine.records()]
        assert {json.loads(line)["stage"] for line in logged} == {0, 1, 2}
        assert drawn[:len(logged)] == logged and drawn == lines
