"""Domination witnesses between increasing approximations, and the
approximation speed-up construction.

A witness (q, alpha, beta) asserts that beta's approximation is dominated
by q times alpha's, in one of three equivalent-in-the-limit senses:

  clause a: the sequence q*alpha_s - beta_s is nondecreasing;
  clause b: beta - beta_s < q * (alpha - alpha_s) for all s (a statement
            about the limits, checkable only against a horizon proxy);
  clause c: beta_{s+1} - beta_s < q * (alpha_{s+1} - alpha_s) for all s.

The clause is the checker a witness is passed to.  All checks here operate
on finite prefixes with exact comparisons; the clause-b checker substitutes
the value at a later horizon H for the limit and is explicitly a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .rationals import Rational
from .streams import ApproxStream, Direction


@dataclass(frozen=True)
class SolovayWitness:
    q: Rational
    alpha: ApproxStream
    beta: ApproxStream

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError(f"q must be positive, got {self.q}")
        for s, name in ((self.alpha, "alpha"), (self.beta, "beta")):
            if s.direction is not Direction.INCREASING:
                raise ValueError(f"{name} must be increasing")


@dataclass(frozen=True)
class ClauseVerdict:
    holds: bool
    fails_at: Optional[int] = None

    def __bool__(self) -> bool:
        return self.holds


def check_clause_c(w: SolovayWitness, T: int) -> ClauseVerdict:
    """beta_{s+1} - beta_s < q * (alpha_{s+1} - alpha_s) for all s < T,
    strict and exact; on failure reports the least failing s."""
    for s in range(T):
        db = w.beta.value(s + 1) - w.beta.value(s)
        da = w.alpha.value(s + 1) - w.alpha.value(s)
        if not (db < w.q * da):
            return ClauseVerdict(False, s)
    return ClauseVerdict(True)


def check_clause_a(w: SolovayWitness, T: int) -> ClauseVerdict:
    """q*alpha_s - beta_s nondecreasing on the prefix: the finite shadow of
    "q*alpha - beta is left-c.e. via these approximations"."""
    for s in range(T):
        lo = w.q * w.alpha.value(s) - w.beta.value(s)
        hi = w.q * w.alpha.value(s + 1) - w.beta.value(s + 1)
        if hi < lo:
            return ClauseVerdict(False, s)
    return ClauseVerdict(True)


def check_clause_b_horizon(w: SolovayWitness, T: int, H: int) -> ClauseVerdict:
    """Horizon-proxy diagnostic for the limit clause: substitutes the stage-H
    values for the limits and checks beta_H - beta_s < q * (alpha_H - alpha_s)
    for s < T.  Not a limit statement."""
    if H <= T:
        raise ValueError(f"horizon H={H} must exceed T={T}")
    aH = w.alpha.value(H)
    bH = w.beta.value(H)
    for s in range(T):
        if not (bH - w.beta.value(s) < w.q * (aH - w.alpha.value(s))):
            return ClauseVerdict(False, s)
    return ClauseVerdict(True)


def speedup(alpha: ApproxStream, beta: ApproxStream, p: Rational) -> ApproxStream:
    """An increasing stream gamma with gamma_0 = min(alpha_0, p*beta_0) and
    gamma_{s+1} = min(alpha_{s+1}, gamma_s + p*(beta_{s+1} - beta_s)).

    Unconditionally: gamma is increasing, gamma_s <= alpha_s, and each
    increment is at most p times the corresponding beta increment.  When
    alpha's tail lag is bounded by q*(beta's tail lag) for some q < p, the
    p-paced budget lets gamma catch alpha (cap-by-alpha then always wins).
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    for s, name in ((alpha, "alpha"), (beta, "beta")):
        if s.direction is not Direction.INCREASING:
            raise ValueError(f"{name} must be increasing")

    def gen(s: int, prefix: Sequence[Rational]) -> Rational:
        if s == 0:
            return min(alpha.value(0), p * beta.value(0))
        budget = prefix[-1] + p * (beta.value(s) - beta.value(s - 1))
        return min(alpha.value(s), budget)

    return ApproxStream(
        Direction.INCREASING, gen, unit_interval=False,
        label=f"speedup(p={p})",
    )
