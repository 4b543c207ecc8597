"""Monotone rational approximation streams, adversary suites, and the
skeleton of the stage engines that play against them.

An increasing stream is the computational stand-in for a left-c.e. real,
a decreasing one for a right-c.e. real.  Streams are materialized stage by
stage; the direction invariant and (optionally) membership in the open unit
interval are asserted on every new value, never assumed: only a held value,
the previous value's own object, which passed both when it first appeared,
is appended as it is.

A generator's value is fixed by (stage, materialized prefix, declared
engine view), so every run is bit-exact reproducible.  `ApproxStream` calls
its generator exactly once per stage, in stage order, so a generator may
keep state between calls: a constant target keeps the powers of its rate's
numerator and denominator and computes each value from its closed form on
integers, in lowest terms with no Fraction arithmetic (`make_constant_target`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Optional, Protocol, Sequence, Union

from .rationals import ONE, ZERO, Rational, coprime, format_rational as fmt
from .trace import KINDS, TraceEvent


class Direction(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


class StreamError(Exception):
    """Base class for stream faults."""


class MonotonicityViolation(StreamError):
    """A generator produced a value that breaks the direction invariant."""


class OutOfUnitInterval(StreamError):
    """A unit-interval stream produced a value outside (0, 1)."""


# Generator signature: (stage, materialized prefix) -> value at that stage.
# The prefix holds the values not yet released (`ApproxStream.release`), the
# last at stage - 1: a generator reads only prefix[-1].
Generator = Callable[[int, Sequence[Rational]], Rational]


class ApproxStream:
    """A monotone computable sequence of rationals, cached per stage.

    Re-querying a stage returns the identical Rational until its owner
    releases the stage (`release`); a released stage is refused.  A stream
    nobody releases keeps every value.
    """

    def __init__(
        self,
        direction: Direction,
        generator: Generator,
        unit_interval: bool = True,
        label: str = "",
    ):
        self.direction = direction
        self.generator = generator
        self.unit_interval = unit_interval
        self.label = label
        self._prefix: list[Rational] = []  # the values of stages _base, _base + 1, ...
        self._base = 0
        self.faults: list[str] = []
        self._last: tuple[Optional[Rational], str] = (None, "")  # see `text`

    def __repr__(self) -> str:
        return f"ApproxStream({self.direction.value}, {self.label!r}, |prefix|={len(self._prefix)})"

    @property
    def materialized(self) -> int:
        """Number of stages materialized so far, released ones included."""
        return self._base + len(self._prefix)

    def value(self, s: int) -> Rational:
        """Value at stage s, materializing all earlier stages as needed."""
        i, prefix = s - self._base, self._prefix
        if i < 0:
            if s < 0:
                raise ValueError(f"negative stage {s}")
            raise ValueError(f"{self.label}: stage {s} released; the stages before "
                             f"{self._base} are")
        while len(prefix) <= i:
            self._materialize_next()
        return prefix[i]

    def release(self, s: int) -> None:
        """Drop the values of the stages before s, a materialized stage: its
        owner reads none of them again.  The generator then sees the values
        from stage s on, and reads only the last.  An owner that releases
        the stages before each stage it reads drops one value of two: O(1)
        a stage."""
        k = s - self._base
        if k > 0:
            if k >= len(self._prefix):
                raise ValueError(f"{self.label}: stage {s} not materialized, cannot "
                                 f"release the stages before it")
            del self._prefix[:k]
            self._base = s

    def _materialize_next(self) -> None:
        s = self._base + len(self._prefix)
        v = self.generator(s, self._prefix)
        # a held value, the previous value's own object (a tracker holding),
        # passed both checks when it first appeared and can break neither:
        # only a new object is checked
        if s and v is self._prefix[-1]:
            self._prefix.append(v)
            return
        if not isinstance(v, Fraction):
            raise TypeError(f"{self.label}: generator returned {type(v).__name__}")
        # every check compares integers: v = n/d and prev in lowest terms, d > 0
        n, d = v.numerator, v.denominator
        if s:
            prev = self._prefix[-1]
            pn, pd = prev.numerator, prev.denominator
            k, r = divmod(d, pd)
            # the sign of v - prev: one big-by-small product when pd divides d
            rise = n - pn * k if not r else n * pd - pn * d
            if self.direction is Direction.INCREASING and rise < 0:
                raise MonotonicityViolation(
                    f"{self.label}: value({s}) = {v} < value({s - 1}) = {prev}"
                )
            if self.direction is Direction.DECREASING and rise > 0:
                raise MonotonicityViolation(
                    f"{self.label}: value({s}) = {v} > value({s - 1}) = {prev}"
                )
        if self.unit_interval and not 0 < n < d:
            raise OutOfUnitInterval(f"{self.label}: value({s}) = {v} not in (0,1)")
        self._prefix.append(v)

    def text(self, v: Rational) -> str:
        """`format_rational(v)` for a value of this stream, formatted once
        per distinct value: the last (value, text) pair is kept, so a held
        value reuses its text."""
        if v is not self._last[0]:
            self._last = (v, fmt(v))
        return self._last[1]


def make_constant_target(
    limit: Rational,
    direction: Direction,
    rate: Rational,
    label: str = "",
) -> ApproxStream:
    """Geometric approach to `limit` from inside the unit interval.

    Increasing: value(s) = limit * (1 - rate**(s+1));
    decreasing: value(s) = limit + (1 - limit) * rate**(s+1).
    Both stay in (0,1) and converge to limit.

    Each value is computed from its closed form on integers.  With
    limit = p/q, rate = a/b, n = s+1, X = b**n - a**n and P = p increasing,
    q - p decreasing, the value is P*X/(q*b**n) increasing and
    1 - P*X/(q*b**n) decreasing.  As gcd(P, q) = gcd(X, b) = 1, the gcd of
    P*X and q*b**n is gcd(P, b**n) * gcd(X, q): two gcds, each with a small
    argument, give the value in lowest terms, built with no further gcd by
    `rationals.coprime`.  The generator keeps a**n and b**n, so a stage
    costs two big-by-small products; it must be called once per stage, in
    order, as `ApproxStream` does, and raises ValueError otherwise.
    """
    if not (ZERO < limit < ONE):
        raise ValueError(f"limit {limit} not in (0,1)")
    if not (ZERO < rate < ONE):
        raise ValueError(f"rate {rate} not in (0,1)")
    p, q = limit.numerator, limit.denominator
    a, b = rate.numerator, rate.denominator
    increasing = direction is Direction.INCREASING
    big_p = p if increasing else q - p
    label = label or f"target({limit},{direction.value},{rate})"
    stage, an, bn = 0, 1, 1  # the stage due next, a**stage, b**stage

    def gen(s: int, prefix: Sequence[Rational]) -> Rational:
        nonlocal stage, an, bn
        if s != stage:
            raise ValueError(f"{label}: stage {s} asked for, stage {stage} due")
        stage += 1
        an *= a
        bn *= b
        x = bn - an
        g = gcd(big_p, bn) * gcd(x, q)
        num, den = big_p * x, q * bn
        if g != 1:
            num //= g
            den //= g
        return coprime(num if increasing else den - num, den)

    # gen reads no stream: a stream and its generator in a cycle would keep
    # every value alive until the cyclic collector runs
    return ApproxStream(direction, gen, unit_interval=True, label=label)


def make_tracker(
    engine_view: EngineView,
    direction: Direction,
    lag: int,
    start: Rational,
    label: str = "",
) -> ApproxStream:
    """Adaptive adversary chasing the engine's running alpha - beta.

    The value at stage s+1 moves toward the engine's difference at stage
    s - lag, clamped so that monotonicity and the (0,1) bound are never
    violated; when the raw target would break monotonicity the stream holds
    its previous value and records a fault.  The tracker tells the view how
    far back it reads (`EngineView.retain`).
    """
    if lag < 0:
        raise ValueError(f"negative lag {lag}")
    if not (ZERO < start < ONE):
        raise ValueError(f"start {start} not in (0,1)")
    engine_view.retain(lag)
    faults: list[str] = []  # the stream's: gen holds no reference to the stream, no cycle

    def gen(s: int, prefix: Sequence[Rational]) -> Rational:
        if s == 0:
            return start
        prev = prefix[-1]
        t = s - 1 - lag
        if t < 0:
            return prev
        raw = engine_view.difference(t)
        rn, rd = raw.numerator, raw.denominator
        rise = rn * prev.denominator - prev.numerator * rd  # the sign of raw - prev
        if direction is Direction.INCREASING:
            if rise <= 0:
                if rise:
                    faults.append(f"stage {s}: target below increasing tracker; holding")
                return prev
            if rn >= rd:  # raw >= 1
                return (prev + ONE) / 2
            return raw
        else:
            if rise >= 0:
                if rise:
                    faults.append(f"stage {s}: target above decreasing tracker; holding")
                return prev
            if rn <= 0:  # raw <= 0
                return prev / 2
            return raw

    stream = ApproxStream(direction, gen, unit_interval=True,
                          label=label or f"tracker(lag={lag},{direction.value})")
    stream.faults = faults
    return stream


@dataclass(frozen=True)
class SuiteEntry:
    """One adversary: role "L" plays an increasing stream against requirement
    L_i, role "R" plays a decreasing stream against R_i."""

    index: int
    role: str  # "L" or "R"
    stream: ApproxStream

    def __post_init__(self):
        if self.role not in ("L", "R"):
            raise ValueError(f"role must be 'L' or 'R', got {self.role!r}")
        if self.index < 0:
            raise ValueError(f"negative index {self.index}")
        want = Direction.INCREASING if self.role == "L" else Direction.DECREASING
        if self.stream.direction is not want:
            raise ValueError(
                f"entry {self.index}/{self.role}: stream direction "
                f"{self.stream.direction.value}, expected {want.value}"
            )


class AdversarySuite:
    """Adversary streams keyed by priority position, in priority order:
    L_i's increasing gamma_i at 2i, R_i's decreasing delta_i at 2i+1.
    Index i in the suite is requirement index i in an engine run."""

    def __init__(self, entries: Iterable[SuiteEntry]):
        self.entries = tuple(entries)
        positions: dict[int, ApproxStream] = {}
        for e in self.entries:
            position = 2 * e.index + (e.role == "R")
            if position in positions:
                raise ValueError(f"duplicate {e.role} entry at index {e.index}")
            positions[position] = e.stream
        self.positions = dict(sorted(positions.items()))

    def __len__(self) -> int:
        return len(self.entries)


class EngineView(Protocol):
    """Read-only handle a running engine exposes to adaptive adversaries."""

    def difference(self, s: int) -> Rational:
        """alpha_s - beta_s for a completed stage s the view still keeps;
        ValueError for any other stage."""
        ...

    def retain(self, lag: int) -> None:
        """An adversary will read difference(t - 1 - lag) at each stage t."""
        ...


# An engine config's suite: built already, or built from the running engine.
SuiteOrFactory = Union[AdversarySuite, Callable[[EngineView], AdversarySuite]]


class StageEngine:
    """The skeleton of a stage engine, and its EngineView.

    A subclass seeds `diff_at` with alpha_0 - beta_0 and builds stage s1 in
    `_stage(s1)` from the state through stage s1 - 1, returning
    alpha_s1 - beta_s1; `diff_at` then grows by that value and the stage
    counter moves.  Every record goes through `_log`, which chains one of a
    chained kind to the last record of its kind and requirement and keeps
    it in `events` until `records()` hands it out.  Its config carries a
    `suite` (or suite factory) and a `stages` budget.

    The engine keeps only the history its readers use.  A stage reads
    each participating adversary at that stage alone, so `_read_suite`
    releases its earlier values as it reads it.  Adversary i joins at
    stage i + 1, and its first read there materializes stages 0..i + 1,
    whose tracker values read alpha - beta at stages 0..i - lag: so
    `diff_at` keeps every stage until the last adversary has joined, then
    only the last (largest lag + 1) stages that the trackers declared
    (`retain`), and `difference` refuses every stage it does not keep.
    """

    def __init__(self, config):
        if config.stages < 0:
            raise ValueError(f"stage budget must be >= 0, got {config.stages}")
        self.config = config
        self.s = 0
        self.events: list[TraceEvent] = []
        self.diff_at: list[Rational] = []  # alpha_t - beta_t, the last stages through s
        self._depth = 1  # stages of diff_at kept: the engine reads the last
        # trackers see the engine through a weak proxy, so the engine and its
        # event log are in no cycle with the suite and free on their last use
        self.suite = config.suite(weakref.proxy(self)) if callable(config.suite) else config.suite
        # the stage that the last adversary joins at
        self._last_join = max((p // 2 + 1 for p in self.suite.positions), default=0)
        self._last_text: dict[tuple[str, Optional[int]], str] = {}  # (kind, req) -> new text

    def difference(self, s: int) -> Rational:
        base = self.s + 1 - len(self.diff_at)
        if not base <= s <= self.s:
            raise ValueError(f"stage {s} of alpha - beta not kept; kept stages {base}..{self.s}")
        return self.diff_at[s - base]

    def retain(self, lag: int) -> None:
        self._depth = max(self._depth, lag + 1)

    def step(self) -> None:
        s1 = self.s + 1
        if s1 > self.config.stages:
            raise ValueError(f"stage budget {self.config.stages} exhausted")
        self.diff_at.append(self._stage(s1))
        self.s = s1
        if s1 >= self._last_join and len(self.diff_at) > self._depth:
            del self.diff_at[:-self._depth]

    def records(self) -> Iterator[TraceEvent]:
        """Each record as it is logged, stage by stage up to the budget;
        `events` keeps only the records not yet handed out."""
        while True:
            yield from self.events
            self.events.clear()
            if self.s >= self.config.stages:
                return
            self.step()

    def run(self) -> None:
        self.events = list(self.records())

    def _read_suite(self, s1: int, first_side: int) -> dict[int, Rational]:
        """The value at stage s1 of every participating adversary (index at
        most s), by position.  Each is read and logged once, side by side:
        `first_side` (0 for gamma, 1 for delta) first, each by ascending
        index, and its values before s1 are released."""
        values = {}
        for side in (first_side, 1 - first_side):
            for position, stream in self.suite.positions.items():
                if position // 2 > self.s:
                    break
                if position % 2 == side:
                    values[position] = v = stream.value(s1)
                    stream.release(s1)
                    self._log(s1, ("gamma", "delta")[side], position // 2, stream.text(v))
        return values

    def _log(self, stage, kind, req, new=None) -> None:
        """Log a record; one of a chained kind (`trace.KINDS`) has the last
        text logged for (kind, req) as old value, or the kind's initial one."""
        spec, old = KINDS[kind], None
        if spec.chains:
            old = self._last_text.get((kind, req), spec.initial)
            self._last_text[kind, req] = new
        self.events.append(TraceEvent(stage, kind, req, old, new))
