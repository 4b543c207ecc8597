"""Difference-of-increasing-streams arithmetic."""

import random

import pytest

from celab.dce import DcReal, dc_add, dc_mul, dc_neg, dc_sub, dc_zero
from celab.rationals import HALF, ZERO, Rational, parse_rational
from celab.streams import Direction, StreamError, make_constant_target
from conftest import constant

INC = Direction.INCREASING
DEC = Direction.DECREASING


def R(text):
    return parse_rational(text)


def target(limit, rate="1/2"):
    return make_constant_target(R(limit), INC, R(rate))


def dc(left_limit, right_limit, left_rate="1/2", right_rate="1/2"):
    return DcReal(target(left_limit, left_rate), target(right_limit, right_rate))


class TestDcReal:
    def test_value_at_is_difference(self):
        x = dc("1/2", "1/3")
        # [DERIVED] left(0)=1/4, right(0)=1/6 -> 1/12; left(1)=3/8, right(1)=1/4
        assert x.value_at(0) == R("1/12")
        assert x.value_at(1) == R("1/8")

    def test_components_must_increase(self):
        dec = make_constant_target(HALF, DEC, HALF)
        inc = target("1/2")
        with pytest.raises(ValueError):
            DcReal(inc, dec)
        with pytest.raises(ValueError):
            DcReal(dec, inc)

    def test_sign_can_be_negative(self):
        x = dc("1/4", "3/4")
        assert x.value_at(10) < ZERO


class TestOperations:
    def test_zero_is_identity_for_add(self):
        x = dc("2/3", "1/5")
        s = dc_add(x, dc_zero())
        for stage in range(20):
            assert s.value_at(stage) == x.value_at(stage)

    def test_add_homomorphism_at_stages(self):
        x, y = dc("1/2", "1/7"), dc("1/3", "2/5")
        s = dc_add(x, y)
        for stage in range(50):
            assert s.value_at(stage) == x.value_at(stage) + y.value_at(stage)

    def test_neg_and_sub(self):
        x, y = dc("3/5", "1/6"), dc("1/2", "1/3")
        n = dc_neg(x)
        d = dc_sub(x, y)
        for stage in range(30):
            assert n.value_at(stage) == -x.value_at(stage)
            assert d.value_at(stage) == x.value_at(stage) - y.value_at(stage)

    def test_neg_is_involutive(self):
        x = dc("3/5", "1/6")
        assert dc_neg(dc_neg(x)) is not x  # new wrapper…
        for stage in range(10):  # …same values
            assert dc_neg(dc_neg(x)).value_at(stage) == x.value_at(stage)

    def test_mul_homomorphism_at_stages(self):
        x, y = dc("1/2", "1/7"), dc("5/6", "2/5")
        p = dc_mul(x, y)
        for stage in range(50):
            assert p.value_at(stage) == x.value_at(stage) * y.value_at(stage)

    def test_mul_square_of_target(self):
        # [DERIVED] squaring a pure left stream: value_at(s) = left(s)**2
        x = DcReal(target("2/3"), dc_zero().right)
        sq = dc_mul(x, x)
        for stage in range(50):
            assert sq.value_at(stage) == target("2/3").value(stage) ** 2

    def test_mul_rejects_components_outside_unit(self):
        big = constant(Rational(2), INC)
        x = DcReal(big, dc_zero().right)
        y = dc("1/2", "1/3")
        with pytest.raises(StreamError):
            dc_mul(x, y).value_at(0)

    def test_mul_checks_the_components_each_side_reads(self):
        # x.left < 0: the right component reads it as much as the left does
        x = DcReal(constant(R("-1/2")), constant(ZERO))
        y = DcReal(constant(HALF), constant(R("1/4")))
        for component in (lambda p: p.left, lambda p: p.right, lambda p: dc_neg(p).left):
            with pytest.raises(StreamError, match="negative x.left"):
                component(dc_mul(x, y)).value(0)

    def test_random_pairs_all_ops(self):
        rng = random.Random(20250401)
        for _ in range(25):
            nums = [Rational(rng.randint(1, 30), 31) for _ in range(4)]
            x = DcReal(target(str(nums[0])), target(str(nums[1])))
            y = DcReal(target(str(nums[2])), target(str(nums[3])))
            s, d, p = dc_add(x, y), dc_sub(x, y), dc_mul(x, y)
            for stage in (0, 3, 17):
                xv, yv = x.value_at(stage), y.value_at(stage)
                assert s.value_at(stage) == xv + yv
                assert d.value_at(stage) == xv - yv
                assert p.value_at(stage) == xv * yv
