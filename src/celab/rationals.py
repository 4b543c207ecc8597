"""Exact rational scalars and their one text form, "p/q".

Every quantity in this package is a `fractions.Fraction`: arithmetic is
exact, results are kept in lowest terms with a positive denominator, and
comparison agrees with the order on the reals.  No floating point is used
anywhere in engine or verification paths.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def coprime(n: int, d: int) -> Rational:
    """The Fraction n/d for ints n, d with d > 0 and gcd(n, d) == 1, built
    without the gcd `Fraction(n, d)` computes: the caller vouches for lowest
    terms, and the result equals, hashes and prints as `Fraction(n, d)`.
    (Python 3.12's private `Fraction._from_coprime_ints` does the same.)"""
    x = object.__new__(Fraction)
    x._numerator = n
    x._denominator = d
    return x


def pow2_neg(n: int) -> Rational:
    """Exactly 1/2**n for n >= 0 (the ubiquitous dyadic threshold)."""
    if n < 0:
        raise ValueError(f"negative exponent: {n}")
    return Fraction(1, 1 << n)


def gap_below(x: Rational, v: Rational, k: int) -> bool:
    """Whether |x - v| < 2^-k, k >= 0: the integer compare
    |x_n*v_d - v_n*x_d| * 2^k < x_d*v_d, with no Fraction built and no gcd.
    A k past the bit length of x_d*v_d answers as that bit length does, so
    no 2^k is built from a k read off a trace."""
    xd, vd = x.denominator, v.denominator
    bound = xd * vd
    return abs(x.numerator * vd - v.numerator * xd) << min(k, bound.bit_length()) < bound


def dyadic_sign(x: Rational, y: Rational, n: int) -> int:
    """The sign of x - 2^-n * y, n >= 0, on integers: with a = x_n*y_d and
    b = y_n*x_d it is the sign of a * 2^n - b, which is a's once 2^n > |b|,
    so no 2^n is built from an n read off a trace."""
    a, b = x.numerator * y.denominator, y.numerator * x.denominator
    if a and n >= b.bit_length():  # |a| * 2^n >= 2^n > |b|
        return 1 if a > 0 else -1
    d = (a << n) - b
    return (d > 0) - (d < 0)


def format_rational(x: Rational) -> str:
    """Canonical "p/q" text form (denominator always present).  Raises
    ValueError past `sys.get_int_max_str_digits()` digits; a caller that
    needs longer values lifts that limit itself, as `celab.cli.main` does."""
    return f"{x.numerator}/{x.denominator}"


def is_ratio_text(text) -> bool:
    """Whether `text` is p/q text: an optional "-", ASCII digits, "/", and
    ASCII digits not all zero.  Scanned by C-level methods and no int is
    built; the digits are tested as ASCII bytes, a table lookup per byte,
    where `str.isdigit` would look up each character's Unicode category."""
    num, _, den = (text.encode() if type(text) is str and text.isascii() else b"").partition(b"/")
    return num.removeprefix(b"-").isdigit() and den.isdigit() and den.lstrip(b"0") != b""


def parse_rational(text) -> Rational:
    """The value p/q text holds, inverse to `format_rational` and under its
    digit limit; ValueError for all `is_ratio_text` refuses, as "5" or 5."""
    if not is_ratio_text(text):
        raise ValueError("not p/q text")
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den))
