"""Domination-witness checks and the paced speed-up stream."""

import random

import pytest

from celab.rationals import ONE, ZERO, Rational, parse_rational
from celab.solovay import (
    SolovayWitness,
    check_clause_a,
    check_clause_b_horizon,
    check_clause_c,
    speedup,
)
from celab.streams import (
    ApproxStream,
    Direction,
    make_constant_target,
)
from conftest import constant

INC = Direction.INCREASING


def R(text):
    return parse_rational(text)


def target(limit, rate="1/2"):
    return make_constant_target(R(limit), INC, R(rate))


def geometric(scale, ratio="1/2"):
    """value(s) = scale * (1 - ratio**s); starts at 0, increases to scale."""
    scale, ratio = R(str(scale)), R(ratio)

    def gen(s, _p):
        return scale * (ONE - ratio ** s)

    return ApproxStream(INC, gen, unit_interval=False, label=f"geo({scale})")


class TestWitnessValidation:
    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            SolovayWitness(ZERO, target("1/2"), target("1/3"))

    def test_rejects_decreasing_components(self):
        dec = make_constant_target(R("1/2"), Direction.DECREASING, R("1/2"))
        with pytest.raises(ValueError):
            SolovayWitness(ONE, dec, target("1/3"))


class TestClauseC:
    def test_geometric_pair_threshold(self):
        # [DERIVED] increments: alpha 2^-(s+3), beta (1/3)*2^-(s+2); the
        # ratio is constant 2/3, so q=3/4 holds and q=2/3 fails (strict).
        alpha, beta = target("1/2"), target("1/3")
        assert check_clause_c(SolovayWitness(R("3/4"), alpha, beta), 64).holds
        verdict = check_clause_c(SolovayWitness(R("2/3"), alpha, beta), 64)
        assert not verdict.holds and verdict.fails_at == 0

    def test_reports_least_failing_stage(self):
        # [DERIVED] beta jumps by 1/4 at stage 3 only; alpha's increment
        # there is 2^-5; with q=1 the first failure is exactly s=2.
        def beta_gen(s, _p):
            return ZERO if s < 3 else R("1/4")

        beta = ApproxStream(INC, beta_gen, unit_interval=False)
        w = SolovayWitness(ONE, target("1/2"), beta)
        verdict = check_clause_c(w, 64)
        assert not verdict.holds
        assert verdict.fails_at == 2

    def test_equality_fails_strict_clause(self):
        # identical streams with q = 1: increments equal, strict < fails at 0
        a = target("1/2")
        b = make_constant_target(R("1/2"), INC, R("1/2"))
        verdict = check_clause_c(SolovayWitness(ONE, a, b), 16)
        assert not verdict.holds and verdict.fails_at == 0

    def test_scan_oracle_agreement(self):
        # oracle: re-derive the verdict with a direct scan for random q
        rng = random.Random(11)
        alpha, beta = target("3/5", "1/3"), target("2/7", "1/2")
        for _ in range(50):
            q = Rational(rng.randint(1, 8), rng.randint(1, 8))
            verdict = check_clause_c(SolovayWitness(q, alpha, beta), 64)
            expect = None
            for s in range(64):
                db = beta.value(s + 1) - beta.value(s)
                da = alpha.value(s + 1) - alpha.value(s)
                if not db < q * da:
                    expect = s
                    break
            assert verdict.holds == (expect is None)
            assert verdict.fails_at == expect


class TestClauseA:
    def test_holds_iff_margin_nondecreasing(self):
        alpha, beta = target("1/2"), target("1/3")
        assert check_clause_a(SolovayWitness(ONE, alpha, beta), 64).holds
        # [DERIVED] with q=1/2 the margin (1/2)a_s - b_s decreases:
        # increments (1/2)2^-(s+2) < (1/3)2^-(s+1); fails at s=0
        verdict = check_clause_a(SolovayWitness(R("1/2"), alpha, beta), 64)
        assert not verdict.holds and verdict.fails_at == 0

    def test_constant_beta_always_dominated(self):
        beta = constant(R("1/5"), INC)
        w = SolovayWitness(R("1/8"), target("1/2"), beta)
        assert check_clause_a(w, 64).holds


class TestClauseBHorizon:
    def test_requires_horizon_beyond_prefix(self):
        w = SolovayWitness(ONE, target("1/2"), target("1/3"))
        with pytest.raises(ValueError):
            check_clause_b_horizon(w, 10, 10)

    def test_geometric_pair(self):
        # [DERIVED] tails: alpha_H - alpha_s ~ (1/2)2^-(s+1),
        # beta tail ~ (1/3)2^-(s+1); q=1 dominates, q=1/2 does not.
        alpha, beta = target("1/2"), target("1/3")
        assert check_clause_b_horizon(SolovayWitness(ONE, alpha, beta), 16, 64).holds
        assert not check_clause_b_horizon(
            SolovayWitness(R("1/2"), alpha, beta), 16, 64
        ).holds


class TestSpeedup:
    def test_worked_example_catches_alpha_everywhere(self):
        # [DERIVED by hand] alpha_s = (1 - 2^-s)/4, beta_s = (1 - 2^-s)/2,
        # p = 3/4: gamma_0 = min(0, 0) = 0; each budget step adds
        # (3/4)(2^-(s+1)/2) = 3*2^-(s+3) >= alpha increment 2^-(s+3),
        # so gamma_s = alpha_s for every s.
        alpha, beta = geometric("1/4"), geometric("1/2")
        gamma = speedup(alpha, beta, R("3/4"))
        for s in range(64):
            assert gamma.value(s) == alpha.value(s)

    def test_increments_never_exceed_pace(self):
        alpha, beta = target("2/3", "2/5"), target("1/2", "1/3")
        p = R("5/7")
        gamma = speedup(alpha, beta, p)
        for s in range(64):
            assert gamma.value(s) <= alpha.value(s)
            if s:
                dg = gamma.value(s) - gamma.value(s - 1)
                db = beta.value(s) - beta.value(s - 1)
                assert dg <= p * db
                assert dg >= ZERO

    def test_constant_beta_freezes_gamma(self):
        alpha = target("1/2")
        beta = constant(R("1/3"), INC)
        gamma = speedup(alpha, beta, R("10"))
        first = min(alpha.value(0), R("10") * R("1/3"))
        for s in range(20):
            assert gamma.value(s) == first

    def test_large_p_caps_at_alpha(self):
        alpha, beta = target("1/2"), target("1/3")
        gamma = speedup(alpha, beta, Rational(10))
        for s in range(32):
            assert gamma.value(s) == alpha.value(s)

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            speedup(target("1/2"), target("1/3"), ZERO)

    def test_random_pairs_satisfy_speedup_contract(self):
        # premise: alpha increments <= q * beta increments with q < p;
        # conclusion checked exactly: gamma increasing, <= alpha, p-paced
        rng = random.Random(20250817)
        for _ in range(40):
            a_lim = Rational(rng.randint(1, 20), 21)
            b_lim = Rational(rng.randint(1, 20), 21)
            alpha, beta = target(str(a_lim)), target(str(b_lim))
            q = (a_lim / b_lim) * R("1/2")  # alpha inc = (a_lim/b_lim) * beta inc
            p = q * 3  # any p > 2q gives catch-up for these geometrics
            gamma = speedup(alpha, beta, p)
            for s in range(48):
                assert gamma.value(s) <= alpha.value(s)
            assert gamma.value(47) == alpha.value(47)
