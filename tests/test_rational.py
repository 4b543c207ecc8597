"""Exact-rational helpers: parsing, dyadic powers, formatting."""

import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from celab.rationals import (
    HALF,
    ONE,
    ZERO,
    Rational,
    coprime,
    dyadic_sign,
    format_rational,
    gap_below,
    parse_rational,
    pow2_neg,
)

rationals = st.builds(Rational, st.integers(-10**40, 10**40), st.integers(1, 10**40))


class TestConstruction:
    def test_parse_from_string(self):
        assert parse_rational("3/4") == Rational(3, 4)
        assert parse_rational("5") == Rational(5)
        assert parse_rational(" -2/6 ") == Rational(-1, 3)

    def test_constants(self):
        assert ZERO == Rational(0)
        assert ONE == Rational(1)
        assert HALF == Rational(1, 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("1/0")


class TestCoprime:
    """A Fraction built from lowest terms without a gcd is `Fraction(n, d)`."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(x=rationals)
    @example(x=ZERO)
    @example(x=Rational(-7, 1))
    @example(x=Rational(3**200, 2**300))
    def test_equals_hashes_and_prints_as_fraction(self, x):
        n, d = x.numerator, x.denominator
        c = coprime(n, d)
        assert type(c) is Rational
        assert (c.numerator, c.denominator) == (n, d)
        assert c == x and hash(c) == hash(x)
        assert str(c) == str(x) and repr(c) == repr(x)
        assert format_rational(c) == format_rational(x)
        # arithmetic and order treat it as the same number
        assert c + HALF == x + HALF and c * 3 == x * 3 and c - x == 0
        assert (c < HALF) == (x < HALF)
        assert {c: 1}[x] == 1


class TestPow2Neg:
    # [TRIVIAL] 2^-n by definition
    @pytest.mark.parametrize("n,expect", [
        (0, Rational(1)),
        (1, Rational(1, 2)),
        (3, Rational(1, 8)),
        (10, Rational(1, 1024)),
    ])
    def test_values(self, n, expect):
        assert pow2_neg(n) == expect

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            pow2_neg(-1)

    def test_halving_law(self):
        for n in range(50):
            assert pow2_neg(n + 1) * 2 == pow2_neg(n)


class TestGapBelow:
    """The integer gap test is the Fraction one, |x - v| < 2^-k."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(x=rationals, v=rationals, k=st.integers(0, 140))
    @example(x=Rational(1, 3), v=Rational(1, 3), k=0)
    @example(x=Rational(-5, 7), v=Rational(-5, 7), k=99)
    @example(x=Rational(-1, 2), v=Rational(1, 2), k=0)
    @example(x=Rational(3, 4), v=Rational(-1, 4), k=0)
    def test_equals_fraction_form(self, x, v, k):
        assert gap_below(x, v, k) == (abs(x - v) < pow2_neg(k))

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(x=rationals, k=st.integers(0, 140), sign=st.sampled_from((-1, 1)))
    def test_exact_boundary_is_not_below(self, x, k, sign):
        # |x - v| = 2^-k exactly is not below it; a hair closer is
        edge = x + sign * pow2_neg(k)
        assert not gap_below(x, edge, k) and not gap_below(edge, x, k)
        inside = x + sign * (pow2_neg(k) - pow2_neg(k + 200))
        assert gap_below(x, inside, k) and gap_below(inside, x, k)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            gap_below(HALF, ONE, -1)

    def test_exponent_off_a_trace_builds_no_power(self):
        # 2^(10^15) would need 125 TB; past the denominators' bit length
        # only equal values are within 2^-k
        assert not gap_below(HALF, Rational(1, 3), 10**15)
        assert gap_below(Rational(1, 3), Rational(2, 6), 10**15)


class TestDyadicSign:
    """The sign of x - 2^-n * y, on integers, is the Fraction one."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(x=rationals, y=rationals, n=st.integers(0, 140))
    @example(x=ZERO, y=HALF, n=3)
    @example(x=Rational(1, 16), y=HALF, n=3)
    @example(x=Rational(-1, 3), y=ZERO, n=0)
    def test_equals_fraction_form(self, x, y, n):
        d = x - pow2_neg(n) * y
        assert dyadic_sign(x, y, n) == (d > 0) - (d < 0)

    @pytest.mark.parametrize("x, y, sign", [
        (Rational(1, 64), HALF, 1), (Rational(-1, 64), HALF, -1), (ZERO, HALF, -1),
        (ZERO, -HALF, 1), (ZERO, ZERO, 0), (Rational(-1, 3), -ONE, -1),
    ])
    def test_exponent_off_a_trace_builds_no_power(self, x, y, sign):
        assert dyadic_sign(x, y, 10**15) == sign


class TestFormatting:
    def test_always_slash_form(self):
        assert format_rational(Rational(1, 2)) == "1/2"
        assert format_rational(Rational(3)) == "3/1"
        assert format_rational(ZERO) == "0/1"
        assert format_rational(Rational(-2, 4)) == "-1/2"

    def test_round_trip(self):
        rng = random.Random(99)
        for _ in range(1_000):
            x = Rational(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            assert parse_rational(format_rational(x)) == x

    def test_parse_rejects_garbage(self):
        for bad in ("", "1/2/3", "a/b", "0.5"):
            with pytest.raises(ValueError):
                parse_rational(bad)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this build has no int/str digit limit")
def test_library_digit_limit_is_the_callers():
    # a library caller keeps its process's limit: past it both directions
    # raise, and once the caller lifts it a long value round-trips
    x = Rational(3**9100 + 1, 2**14500)  # numerator and denominator > 4300 digits
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        with pytest.raises(ValueError, match="limit"):
            format_rational(x)
        sys.set_int_max_str_digits(0)  # no limit
        text = format_rational(x)
        assert min(map(len, text.split("/"))) > 4300
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        with pytest.raises(ValueError, match="limit"):
            parse_rational(text)
        sys.set_int_max_str_digits(0)
        assert parse_rational(text) == x
    finally:
        sys.set_int_max_str_digits(saved)
