"""Paced-growth stage engine: hand-audited stages, invariants, replay."""

import pytest

from celab.expansion import (
    ExpansionConfig,
    ExpansionEngine,
    replay_expansion,
    run_expansion,
    verify_expansion,
)
from celab.rationals import ZERO, Rational, parse_rational
from celab.streams import (
    AdversarySuite,
    Direction,
    SuiteEntry,
    make_constant_target,
    make_tracker,
)
from celab.trace import TraceEvent

INC = Direction.INCREASING
DEC = Direction.DECREASING


def R(text):
    return parse_rational(text)


def q_of(engine, i):
    """q_i by its definition at the engine's stage: 1/2 for i = 0, else the
    least 2^-(i + d_j + 1) over j < i, an absent d_j reading as 0."""
    return Rational(1, 2 ** (i + max((d for j, d in engine.d.items() if j < i), default=0) + 1))


def reference_config(stages):
    """The worked example used throughout: one increasing adversary at
    index 0, one decreasing adversary at index 1."""
    return ExpansionConfig(
        alpha=make_constant_target(R("2/3"), INC, R("1/2"), label="alpha"),
        eta=make_constant_target(R("1/2"), INC, R("1/2"), label="eta"),
        suite=AdversarySuite([
            SuiteEntry(0, "L", make_constant_target(R("1/3"), INC, R("1/2"))),
            SuiteEntry(1, "R", make_constant_target(R("1/4"), DEC, R("1/2"))),
        ]),
        stages=stages,
    )


class TestHandAuditedStages:
    """[DERIVED by hand] Every value below was recomputed on paper from the
    stage rules before the engine existed; see the inline arithmetic."""

    def test_stage_zero_state(self):
        engine = ExpansionEngine(reference_config(4))
        assert engine.s == 0
        assert engine.beta == ZERO
        # alpha_0 = (2/3)(1 - 1/2) = 1/3; eta_0 = (1/2)(1 - 1/2) = 1/4
        assert engine.alpha.value(0) == R("1/3")
        assert engine.eta.value(0) == R("1/4")

    def test_stage_one(self):
        engine = ExpansionEngine(reference_config(4))
        engine.step()
        # alpha_1 = 1/2, eta_1 = 3/8, gamma_0(1) = 1/4.  The decreasing
        # adversary at index 1 is not yet admitted (1 > previous stage 0).
        # L_0 gap: |1/2 - 0 - 1/4| = 1/4 < 2^0 -> expansionary.
        # increment = q_0 * (eta_1 - eta_0) = (1/2)(3/8 - 1/4) = 1/16.
        assert engine.c[0] == 1
        assert engine.d.get(1, 0) == 0
        assert engine.beta_i[0] == R("1/16")
        assert engine.beta == R("1/16")
        assert q_of(engine, 0) == R("1/2")

    def test_stage_two(self):
        engine = ExpansionEngine(reference_config(4))
        engine.step()
        engine.step()
        # alpha_2 = 7/12, eta_2 = 7/16, entry total B = 1/16.
        # R_1: delta_1(2) = 11/32; |7/12 - 1/16 - 11/32| = 17/96 < 2^0
        #   -> d_1 = 1.
        # L_0: gamma_0(2) = 7/24; |7/12 - 1/16 - 7/24| = 11/48 < 2^-1
        #   -> c_0 = 2, increment (1/2)(7/16 - 3/8) = 1/32.
        assert engine.d[1] == 1
        assert engine.c[0] == 2
        assert engine.beta_i[0] == R("3/32")
        assert engine.beta == R("3/32")
        assert engine.last_exp[0] == 2

    def test_stage_three(self):
        engine = ExpansionEngine(reference_config(4))
        for _ in range(3):
            engine.step()
        # alpha_3 = 5/8, eta_3 = 15/32, B = 3/32.
        # R_1: delta_1(3) = 19/64; |5/8 - 3/32 - 19/64| = 15/64 < 2^-1
        #   -> d_1 = 2.
        # L_0: gamma_0(3) = 5/16; |5/8 - 3/32 - 5/16| = 7/32 < 2^-2
        #   -> c_0 = 3, increment (1/2)(15/32 - 7/16) = 1/64.
        assert engine.d[1] == 2
        assert engine.c[0] == 3
        assert engine.beta_i[0] == R("7/64")

    def test_stage_four_nothing_expansionary(self):
        engine = ExpansionEngine(reference_config(4))
        for _ in range(4):
            engine.step()
        # alpha_4 = 31/48, B = 7/64.
        # R_1 gap 101/384 >= 2^-2 = 96/384; L_0 gap 82/384 >= 2^-3 = 48/384.
        assert engine.d[1] == 2
        assert engine.c[0] == 3
        assert engine.beta == R("7/64")

    def test_q_scale_reacts_to_d_bumps(self):
        cfg = ExpansionConfig(
            alpha=make_constant_target(R("2/3"), INC, R("1/2")),
            eta=make_constant_target(R("1/2"), INC, R("1/2")),
            suite=AdversarySuite([
                SuiteEntry(0, "R", make_constant_target(R("1/4"), DEC, R("1/2"))),
                SuiteEntry(2, "L", make_constant_target(R("1/3"), INC, R("1/2"))),
            ]),
            stages=8,
        )
        engine = run_expansion(cfg)
        # q_2 = 2^-(2 + max_{j<2} d_j + 1); with no bumps that is 1/8
        assert q_of(engine, 2) == Rational(1, 1 << (2 + engine.d[0] + 1))
        assert engine.q[2] == q_of(engine, 2)
        assert engine.d[0] >= 1  # the decreasing adversary does get hit

    def test_logged_q_is_q_of_at_every_stage(self):
        # the stage function finds every q_i in one pass over the positions;
        # q_of is the definition: at each stage every q_i present equals it,
        # and a q record is logged exactly where it changed
        def target(limit, direction, rate):
            return make_constant_target(R(limit), direction, R(rate))

        cfg = ExpansionConfig(
            alpha=target("5/7", INC, "1/3"),
            eta=target("1/2", INC, "2/3"),
            suite=lambda view: AdversarySuite([
                SuiteEntry(0, "R", target("1/5", DEC, "1/3")),
                SuiteEntry(1, "L", target("2/7", INC, "3/4")),
                SuiteEntry(1, "R", make_tracker(view, DEC, 0, R("15/16"))),
                SuiteEntry(2, "R", target("3/5", DEC, "2/3")),
                SuiteEntry(3, "L", make_tracker(view, INC, 1, R("1/16"))),
                SuiteEntry(4, "L", target("1/9", INC, "1/2")),
                SuiteEntry(4, "R", target("2/9", DEC, "1/2")),
            ]),
            stages=60,
        )
        engine = ExpansionEngine(cfg)
        before: dict = {}
        for _ in range(cfg.stages):
            engine.step()
            s = engine.s
            now = {i: q_of(engine, i) for i in (1, 3, 4) if i <= s}
            assert engine.q == now
            logged = {ev.requirement: R(ev.new) for ev in engine.events
                      if ev.stage == s and ev.kind == "q"}
            assert logged == {i: q for i, q in now.items() if before.get(i) != q}
            before = now
        assert len(engine.d) == 4 and len(set(before.values())) > 1


class TestEngineBasics:
    def test_zero_stage_run(self):
        engine = run_expansion(reference_config(0))
        assert engine.s == 0 and engine.beta == ZERO

    def test_stage_budget_enforced(self):
        engine = run_expansion(reference_config(2))
        with pytest.raises(ValueError):
            engine.step()

    def test_empty_suite_never_grows(self):
        cfg = ExpansionConfig(
            alpha=make_constant_target(R("2/3"), INC, R("1/2")),
            eta=make_constant_target(R("1/2"), INC, R("1/2")),
            suite=AdversarySuite(()),
            stages=30,
        )
        engine = run_expansion(cfg)
        assert engine.beta == ZERO
        assert engine.c == {} and engine.d == {}

    def test_inert_indices_have_uniform_defaults(self):
        engine = run_expansion(reference_config(5))
        for table in (engine.c, engine.d, engine.q, engine.beta_i, engine.last_exp):
            assert 7 not in table  # read as 0

    def test_determinism(self):
        a = run_expansion(reference_config(40))
        b = run_expansion(reference_config(40))
        assert a.snapshot() == b.snapshot()
        assert [e.to_json() for e in a.events] == [e.to_json() for e in b.events]

    def test_adaptive_tracker_suite(self):
        def suite_factory(engine):
            return AdversarySuite([
                SuiteEntry(0, "L", make_tracker(engine, INC, lag=0, start=R("1/8"))),
                SuiteEntry(1, "R", make_tracker(engine, DEC, lag=1, start=R("7/8"))),
            ])

        cfg = ExpansionConfig(
            alpha=make_constant_target(R("2/3"), INC, R("1/2")),
            eta=make_constant_target(R("1/2"), INC, R("1/2")),
            suite=suite_factory,
            stages=20,
        )
        engine = run_expansion(cfg)
        assert engine.s == 20
        report = verify_expansion(engine.events, engine.snapshot())
        assert report.all_green, report.render_text()


class TestVerifyAndReplay:
    def test_reference_run_is_green(self):
        engine = run_expansion(reference_config(200))
        report = verify_expansion(engine.events, engine.snapshot())
        assert report.all_green, report.render_text()
        text = report.render_text()
        for name in ("V1", "V2", "V3", "V4", "V5"):
            assert f"[PASS] {name}" in text

    def test_invariants_hold_numerically(self):
        engine = run_expansion(reference_config(200))
        # V1/V2 re-stated directly against engine state
        assert engine.beta < Rational(1)
        for i in engine.beta_i:
            assert engine.beta_i[i] <= Rational(1, 1 << (i + 1)) * engine.eta.value(engine.s)

    def test_replay_matches_snapshot(self):
        engine = run_expansion(reference_config(60))
        assert replay_expansion(engine.events) == engine.snapshot()

    def test_verifier_catches_tampering(self):
        engine = run_expansion(reference_config(60))
        final = engine.snapshot()
        final["beta"] = "5/4"  # out of range, and not the total the trace folds to
        report = verify_expansion(engine.events, final)
        assert [c.name[:2] for c in report.checks if not c.passed] == ["V0"]
        assert report.first_failure().endswith("final record's 'beta' is not the folded trace's")
        # the checks read the trace: the same total as its last beta record fails V1
        # too, and V8, as it is not the growth of the beta_i records
        *events, last = engine.events
        assert last.kind == "beta"
        report = verify_expansion([*events, last._replace(new="5/4")], engine.snapshot())
        assert [c.name[:2] for c in report.checks if not c.passed] == ["V0", "V1", "V8"]

    def test_failures_listed_in_the_order_found(self):
        # c records of requirement 1 at stages 1 and 2 and of requirement 0
        # at stages 1 and 3, while eta grows and beta stays 0: both pacing
        # pairs fail V4, requirement 1's at the earlier stage
        events, last, c = [], {("c", 0): "0", ("c", 1): "0"}, {}

        def log(stage, kind, i, new):
            events.append(TraceEvent(stage, kind, i, last.get((kind, i)), new))
            last[kind, i] = new

        for stage, eta in enumerate(("0/1", "1/4", "1/2", "3/4")):
            log(stage, "alpha", None, "0/1")
            log(stage, "eta", None, eta)
            for i in {1: (0, 1), 2: (1,), 3: (0,)}.get(stage, ()):
                c[i] = c.get(i, 0) + 1
                log(stage, "c", i, str(c[i]))
            log(stage, "beta", None, "0/1")
        report = verify_expansion(events, replay_expansion(events))
        (v4,) = [check for check in report.checks if not check.passed]
        assert v4.name.startswith("V4 ")
        assert v4.failures == ["req 1, stages 1->2: 0 < 1/16", "req 0, stages 1->3: 0 < 1/4"]
