"""Finite-injury engine: pairing, hand-audited serves, injuries, replay."""

import pytest

import celab.injury
from celab.injury import (
    InjuryConfig,
    InjuryEngine,
    bit_weight,
    least_in_column_above,
    pair,
    replay_injury,
    run_injury,
    unpair,
    verify_injury,
)
from celab.rationals import ZERO, parse_rational, pow2_neg
from celab.streams import (
    AdversarySuite,
    ApproxStream,
    Direction,
    SuiteEntry,
    make_constant_target,
    make_tracker,
)
from conftest import constant
from oracles import requires_attention

INC = Direction.INCREASING
DEC = Direction.DECREASING


def R(text):
    return parse_rational(text)


class TestPairing:
    def test_known_values(self):
        # [TRIVIAL] diagonal enumeration
        assert pair(0, 0) == 0
        assert pair(1, 0) == 1
        assert pair(0, 1) == 2
        assert pair(2, 0) == 3
        assert pair(1, 1) == 4
        assert pair(0, 2) == 5

    def test_unpair_inverts(self):
        for v in range(2_000):
            k, n = unpair(v)
            assert pair(k, n) == v

    def test_columns_partition(self):
        seen = {pair(k, n) for k in range(20) for n in range(20)}
        assert len(seen) == 400  # injective

    def test_least_in_column_above(self):
        assert least_in_column_above(0, -1) == 0
        assert least_in_column_above(1, 3) == 4  # pair(1,1)
        assert least_in_column_above(3, 7) == 11  # pair(3,1)
        for column in range(6):
            for bound in range(-1, 60):
                v = least_in_column_above(column, bound)
                assert v > bound and unpair(v)[0] == column
                # minimality: the previous column member is <= bound
                _, n = unpair(v)
                assert n == 0 or pair(column, n - 1) <= bound

    def test_bit_weight(self):
        assert bit_weight(0) == R("1/2")
        assert bit_weight(3) == R("1/16")


def audit_suite():
    return AdversarySuite([
        SuiteEntry(0, "L", make_constant_target(R("1/8"), INC, R("1/2"))),
        SuiteEntry(1, "R", make_constant_target(R("7/8"), DEC, R("1/2"))),
    ])


class TestHandAuditedServes:
    """[DERIVED by hand] define/act sequence for the audit suite."""

    def test_serve_sequence(self):
        engine = InjuryEngine(InjuryConfig(audit_suite(), stages=6))
        engine.step()
        # stage 1: least position 0 (L_0) has undefined c_0 -> define the
        # least unused value in column 0: pair(0,0) = 0
        assert engine.params[0] == 0
        engine.step()
        # stage 2: gamma_0(2) = 7/64 and alpha - beta = 0; the gap 7/64 is
        # below 2^-(0+3) = 1/8, so L_0 acts: bit 0 into B, beta = 1/2,
        # restraint 0 + 3 = 3
        assert engine.b_bits == {0}
        assert engine.beta == R("1/2")
        assert engine.restraints[0] == 3
        engine.step()
        # stage 3: L_0 is now separated; position 1 (R_0, no adversary)
        # defines d_0 fresh in column 1 above used {0, 3}: pair(1,1) = 4
        assert engine.params[1] == 4
        engine.step()
        # stage 4: position 2 (L_1) defines c_1 in column 2 above 4: 7
        assert engine.params[2] == 7
        engine.step()
        # stage 5: position 3 (R_1) defines d_1 in column 3 above 7: 11
        assert engine.params[3] == 11
        engine.step()
        # stage 6: position 4 (L_2) defines c_2 in column 4 above 11: 16
        assert engine.params[4] == 16
        assert engine.a_bits == set()
        assert engine.alpha == ZERO

    def test_alpha_beta_are_bit_sums(self):
        engine = run_injury(InjuryConfig(audit_suite(), stages=30))
        assert engine.alpha == sum((bit_weight(n) for n in engine.a_bits), start=ZERO)
        assert engine.beta == sum((bit_weight(n) for n in engine.b_bits), start=ZERO)

    def test_acted_requirement_stays_quiet(self):
        engine = InjuryEngine(InjuryConfig(audit_suite(), stages=30))
        engine.step()
        engine.step()
        # L_0 acted at stage 2 and is never initialized; no later attention.
        # The engine keeps the last stage of its difference and of gamma_0,
        # so each stage s is read as it runs
        gamma_0 = engine.suite.positions[0]
        param = engine.params[0]
        for s in range(3, 31):
            diff = engine.difference(s - 1)
            engine.step()
            assert engine.params[0] == param
            assert not requires_attention(param, gamma_0.value(s), diff)


def slow_approach(offset, direction=INC):
    """Monotone stream creeping to offset -/+ 2^-40, from below when
    increasing and from above when decreasing; not unit-interval bound."""
    sign = 1 if direction is INC else -1
    target = R(offset) + sign * pow2_neg(40)

    def gen(s, _p):
        return target - sign * pow2_neg(min(s + 1, 39))

    return ApproxStream(direction, gen, unit_interval=False, label="slow")


class TestInjuryCascade:
    def make_engine(self, stages):
        # L_0 fires immediately (adversary pinned near the starting
        # difference 0); L_1 creeps toward the post-act difference -1/2 and
        # fires later, once lower-priority positions hold parameters.
        suite = AdversarySuite([
            SuiteEntry(0, "L", constant(pow2_neg(40), INC)),
            SuiteEntry(1, "L", slow_approach("-1/2")),
        ])
        return run_injury(InjuryConfig(suite, stages))

    def test_act_initializes_strictly_lower_priority(self):
        engine = self.make_engine(40)
        inits = [
            (ev.stage, ev.requirement)
            for ev in engine.events if ev.kind == "initialize"
        ]
        assert inits, "expected the late act to injure someone"
        act_stages = [ev.stage for ev in engine.events
                      if ev.kind == "act" and ev.requirement == 2]
        assert len(act_stages) == 1
        # every initialization happens at L_1's act stage, only below it
        assert {s for s, _ in inits} == set(act_stages)
        assert all(p > 2 for _, p in inits)
        # positions 0..2 keep their parameters
        assert engine.params.get(0) is not None
        assert engine.params.get(1) is not None
        assert engine.params.get(2) is not None

    def test_initialization_order_l_side_then_r_side(self):
        # L_1 (position 2) acts at stage 9 with positions 0..6 defined: it
        # initializes the L side (even positions) ascending, then the R side
        # (odd positions) ascending
        engine = self.make_engine(9)
        assert [(ev.kind, ev.requirement) for ev in engine.events
                if ev.kind in ("act", "initialize") and ev.stage == 9] == [
            ("act", 2), ("initialize", 4), ("initialize", 6),
            ("initialize", 3), ("initialize", 5)]
        snapshot = engine.snapshot()
        assert (snapshot["c"], snapshot["d"], snapshot["l"], snapshot["r"]) == (
            {"0": 0, "1": 7}, {"0": 4}, {"0": 3, "1": 10}, {})
        assert replay_injury(engine.events) == snapshot

    def test_injured_positions_get_fresh_parameters(self):
        engine = self.make_engine(40)
        act_stage = next(ev.stage for ev in engine.events
                         if ev.kind == "act" and ev.requirement == 2)
        injured = {ev.requirement for ev in engine.events
                   if ev.kind == "initialize"}
        redefined = {
            ev.requirement: int(ev.new)
            for ev in engine.events
            if ev.kind == "define" and ev.stage > act_stage
            and ev.requirement in injured
        }
        assert redefined, "injured positions are re-served eventually"
        first_values = {
            ev.requirement: int(ev.new)
            for ev in engine.events
            if ev.kind == "define" and ev.stage <= act_stage
        }
        for position, value in redefined.items():
            assert value > first_values[position]  # strictly fresh

    def test_verifier_green_on_injury_run(self):
        engine = self.make_engine(40)
        report = verify_injury(engine.events, engine.snapshot())
        assert report.all_green, report.render_text()
        assert report.stats["initializations"] > 0


class TestEngineBasics:
    def test_empty_suite_only_defines(self):
        engine = run_injury(InjuryConfig(AdversarySuite(()), stages=20))
        kinds = {ev.kind for ev in engine.events}
        assert "act" not in kinds and "initialize" not in kinds
        assert engine.alpha == ZERO and engine.beta == ZERO
        # positions are served in priority order, one define per stage
        defines = [ev.requirement for ev in engine.events if ev.kind == "define"]
        assert defines == sorted(defines)

    def test_stage_budget_enforced(self):
        engine = run_injury(InjuryConfig(AdversarySuite(()), stages=2))
        with pytest.raises(ValueError):
            engine.step()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="stage budget must be >= 0"):
            InjuryEngine(InjuryConfig(AdversarySuite(()), stages=-1))

    def test_determinism(self):
        a = run_injury(InjuryConfig(audit_suite(), stages=50))
        b = run_injury(InjuryConfig(audit_suite(), stages=50))
        assert a.snapshot() == b.snapshot()
        assert [e.to_json() for e in a.events] == [e.to_json() for e in b.events]

    def test_adaptive_tracker_suite_verifies(self):
        def suite_factory(engine):
            return AdversarySuite([
                SuiteEntry(0, "L", make_tracker(engine, INC, lag=0, start=R("1/32"))),
                SuiteEntry(1, "R", make_tracker(engine, DEC, lag=1, start=R("31/32"))),
            ])

        engine = run_injury(InjuryConfig(suite_factory, stages=120))
        report = verify_injury(engine.events, engine.snapshot())
        assert report.all_green, report.render_text()


class TestVerifyAndReplay:
    def test_audit_run_is_green(self):
        engine = run_injury(InjuryConfig(audit_suite(), stages=200))
        report = verify_injury(engine.events, engine.snapshot())
        assert report.all_green, report.render_text()
        text = report.render_text()
        for name in ("W1", "W2", "W3", "W4", "W5"):
            assert f"[PASS] {name}" in text

    def test_replay_matches_snapshot(self):
        engine = run_injury(InjuryConfig(audit_suite(), stages=80))
        assert replay_injury(engine.events) == engine.snapshot()

    def test_verifier_catches_forged_act(self):
        from celab.trace import TraceEvent

        engine = run_injury(InjuryConfig(audit_suite(), stages=40))
        events = list(engine.events)
        # forge a second act for L_0 in the same initialization segment
        events.append(TraceEvent(39, "act", 0, None, "0"))
        report = verify_injury(events, engine.snapshot())
        assert not report.all_green
        assert "W1" in report.first_failure()

    def test_failures_listed_in_the_order_found(self):
        from celab.trace import TraceEvent

        # acts with no parameter in effect: positions 0 and 1 at stage 1,
        # position 1 again at stage 2, and position 1 initialized at stage 3;
        # position 1's segment ends first, position 0's only with the trace
        acts = {1: (0, 1), 2: (1,)}
        events = []
        for stage in range(4):
            for kind in ("alpha", "beta"):
                events.append(TraceEvent(stage, kind, None, "0/1" if stage else None, "0/1"))
            events += [TraceEvent(stage, "act", n, None, "0") for n in acts.get(stage, ())]
        events.append(TraceEvent(3, "initialize", 1))
        report = verify_injury(events, replay_injury(events))
        (w1,) = [c for c in report.checks if c.name.startswith("W1 ")]
        assert w1.failures == ["position 1: acts at [1, 2] in one segment",
                               "position 1: act at stage 1 with no parameter in effect",
                               "position 0: act at stage 1 with no parameter in effect"]


# --------------------------------------------------------------------------
# least attention: the O(n) serve (the brute-force scan is the prop3 oracle,
# compared with the engine in test_oracles.py)
# --------------------------------------------------------------------------

LIMITS = [R(f"{k}/16") for k in range(1, 16)]
RATES = [R("1/2"), R("1/3"), R("2/3"), R("3/4")]
OFFSETS = ["-1/2", "-1/4", "0", "1/4", "1/2"]


def suite_from(specs):
    """Engine-adaptive suite factory from (index, role, kind, choice) specs."""
    def factory(engine):
        entries = []
        for index, role, kind, choice in specs:
            direction = INC if role == "L" else DEC
            if kind == "constant":
                stream = make_constant_target(
                    LIMITS[choice % len(LIMITS)], direction, RATES[choice % len(RATES)])
            elif kind == "tracker":
                start = R("1/32") if role == "L" else R("31/32")
                stream = make_tracker(engine, direction, lag=choice % 4, start=start)
            else:
                stream = slow_approach(OFFSETS[choice % len(OFFSETS)], direction)
            entries.append(SuiteEntry(index, role, stream))
        return AdversarySuite(entries)

    return factory


class TestLeastAttention:
    def test_gap_tests_per_stage_bounded_by_adversaries(self, monkeypatch):
        specs = [(0, "L", "slow", 2), (0, "R", "constant", 13),
                 (1, "L", "tracker", 0), (1, "R", "slow", 3),
                 (2, "L", "constant", 5), (3, "R", "tracker", 1)]
        reads, tests = {}, {}  # stage -> stream values read, gap tests made

        def counting(factory):
            def wrapped(engine):
                suite = factory(engine)
                for entry in suite.entries:
                    original = entry.stream.value

                    def value(s, original=original):
                        reads[s] = reads.get(s, 0) + 1
                        return original(s)

                    entry.stream.value = value

                def gap_below(*args):
                    s1 = engine.s + 1  # the stage being built
                    tests[s1] = tests.get(s1, 0) + 1
                    return injury_gap_below(*args)

                monkeypatch.setattr(celab.injury, "gap_below", gap_below)
                return suite
            return wrapped

        injury_gap_below = celab.injury.gap_below
        stages = 1000
        engine = run_injury(InjuryConfig(counting(suite_from(specs)), stages))
        logged = {}
        for ev in engine.events:
            if ev.kind in ("gamma", "delta"):
                logged[ev.stage] = logged.get(ev.stage, 0) + 1
        # every stream value read at stage s is logged: the gap tests read
        # the values the stage logged
        assert reads == logged
        gap_tests = [tests.get(s, 0) for s in range(1, stages + 1)]
        assert max(gap_tests) <= len(specs)
        # the late stages test every adversary, no more: cost flat in T
        assert max(gap_tests[-100:]) == len(specs)
        assert sum(gap_tests) <= len(specs) * stages
