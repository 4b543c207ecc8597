"""Arithmetic on differences of increasing streams.

A DcReal is a pair of increasing streams (left, right) standing for
lim(left) - lim(right); value_at(s) = left(s) - right(s) is exact at every
stage.  The operations below are componentwise and satisfy the per-stage
homomorphism identities exactly: the stage-s value of an op result equals
the op applied to the stage-s values of the arguments.

Derived component streams are not unit-interval flagged (sums of two unit
streams leave (0,1)); their monotonicity is asserted on materialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .rationals import ONE, ZERO, Rational
from .streams import ApproxStream, Direction, StreamError


@dataclass(frozen=True)
class DcReal:
    left: ApproxStream
    right: ApproxStream

    def __post_init__(self):
        for comp, name in ((self.left, "left"), (self.right, "right")):
            if comp.direction is not Direction.INCREASING:
                raise ValueError(f"{name} component must be increasing")

    def value_at(self, s: int) -> Rational:
        return self.left.value(s) - self.right.value(s)


def _derived(label: str, gen) -> ApproxStream:
    return ApproxStream(Direction.INCREASING, gen, unit_interval=False, label=label)


def dc_zero() -> DcReal:
    z = lambda s, _p: ZERO
    return DcReal(_derived("zero.left", z), _derived("zero.right", z))


def dc_add(x: DcReal, y: DcReal) -> DcReal:
    return DcReal(
        _derived("add.left", lambda s, _p: x.left.value(s) + y.left.value(s)),
        _derived("add.right", lambda s, _p: x.right.value(s) + y.right.value(s)),
    )


def dc_neg(x: DcReal) -> DcReal:
    """Negation swaps the components."""
    return DcReal(x.right, x.left)


def dc_sub(x: DcReal, y: DcReal) -> DcReal:
    return dc_add(x, dc_neg(y))


def _checked(stream: ApproxStream, s: int, what: str) -> Rational:
    v = stream.value(s)
    if v < ZERO:
        raise StreamError(f"dc_mul: negative {what} component value {v} at stage {s}")
    if v >= ONE:
        raise StreamError(f"dc_mul: {what} component value {v} at stage {s} not below 1")
    return v


def dc_mul(x: DcReal, y: DcReal) -> DcReal:
    """Product via the four-term expansion, restricted to nonnegative
    unit-interval components so the result components stay increasing."""

    def left_gen(s: int, _p: Sequence[Rational]) -> Rational:
        return (_checked(x.left, s, "x.left") * _checked(y.left, s, "y.left")
                + _checked(x.right, s, "x.right") * _checked(y.right, s, "y.right"))

    def right_gen(s: int, _p: Sequence[Rational]) -> Rational:
        return (_checked(x.left, s, "x.left") * _checked(y.right, s, "y.right")
                + _checked(x.right, s, "x.right") * _checked(y.left, s, "y.left"))

    return DcReal(_derived("mul.left", left_gen), _derived("mul.right", right_gen))
