"""Finite-injury engine enumerating two bit sets whose weighted sums give
increasing dyadic approximations.

Requirements are listed by priority position k = 0, 1, 2, ...: even
positions 2i carry an L-side requirement watching an increasing adversary
gamma_i, odd positions 2i+1 an R-side one watching a decreasing delta_i.
The requirement at position p owns a bit parameter drawn from pairing
column p (c_i at 2i, d_i at 2i+1); enumerating bit n adds 2^-(n+1) to the
corresponding sum, so both sums stay in [0, 1).  The engine and its trace
fold keep parameters and restraints by position; only the final record
splits them into the per-index tables c, d (parameters) and l, r
(restraints).

A requirement requires attention when its bit parameter is undefined or the
running difference is within 2^-(param+3) of its adversary.  Serving the
least such position either defines a fresh parameter (above every value
assigned so far and every live restraint) or acts: the bit is enumerated,
a restraint param+3 is recorded, and every strictly lower-priority
requirement is initialized (all parameters undefined).  Exactly one
requirement is served per stage.

The positions with a defined parameter always form a prefix [0, u): a
define serves the least undefined position u, and an act at p < u
undefines every position above p, so after serving position p the prefix
is [0, p + 1).  Every undefined position requires attention, so the served
position is the first adversary-backed position p < u whose gap test holds,
else u itself.  A stage therefore makes at most n gap tests for n
adversaries, and a run of T stages costs O(T * n) tests instead of the
O(T^2) of scanning every position 0..2s+1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import isqrt
from typing import Optional

from .rationals import ZERO, Rational, format_rational as fmt, gap_below, pow2_neg
from .streams import StageEngine, SuiteOrFactory
from .trace import (OldValueChain, RecordRuns, TraceEvent, VerificationReport,
                    check_final_record, rational)


def pair(k: int, n: int) -> int:
    """Diagonal pairing; column k is {pair(k, n) : n >= 0}."""
    return (k + n) * (k + n + 1) // 2 + n


def unpair(value: int) -> tuple[int, int]:
    """Inverse of pair: value -> (column, row)."""
    m = (isqrt(8 * value + 1) - 1) // 2
    n = value - m * (m + 1) // 2
    return m - n, n


def least_in_column_above(column: int, bound: int) -> int:
    """Least member of the pairing column strictly greater than bound."""
    if bound < 0:
        return pair(column, 0)
    n = max(0, isqrt(2 * bound) - column - 2)
    while pair(column, n) <= bound:
        n += 1
    return pair(column, n)


def bit_weight(n: int) -> Rational:
    return pow2_neg(n + 1)


def _snapshot(stage: int, a_bits: set[int], b_bits: set[int], alpha: str, beta: str,
              params: dict[int, int], restraints: dict[int, int], used: set[int]) -> dict:
    """The final record.  Parameters and restraints, kept by priority
    position, are written as per-index tables: c and l from the L (even)
    positions, d and r from the R (odd) ones."""
    record = {"engine": "prop3", "stage": stage, "A": sorted(a_bits), "B": sorted(b_bits),
              "alpha": alpha, "beta": beta}
    for name, table, parity in (("c", params, 0), ("d", params, 1),
                                ("l", restraints, 0), ("r", restraints, 1)):
        record[name] = {str(p // 2): v for p, v in sorted(table.items()) if p % 2 == parity}
    record["used_values"] = sorted(used)
    return record


@dataclass
class InjuryConfig:
    suite: SuiteOrFactory
    stages: int


class InjuryEngine(StageEngine):
    """One deterministic run of the construction."""

    def __init__(self, config: InjuryConfig):
        super().__init__(config)
        self.a_bits: set[int] = set()
        self.b_bits: set[int] = set()
        self.alpha = ZERO
        self.beta = ZERO
        # priority position -> bit parameter, restraint; absent = undefined
        self.params: dict[int, int] = {}
        self.restraints: dict[int, int] = {}
        self.used_values: set[int] = set()
        self._max_used = -1  # max(used_values); bounds every live restraint
        self._undefined = 0  # u: parameters are defined exactly on [0, u)
        self._log(0, "alpha", None, fmt(ZERO))
        self._log(0, "beta", None, fmt(ZERO))
        self.diff_at.append(ZERO)

    # -- attention ---------------------------------------------------------

    def requires_attention(self, position: int, s_next: int) -> bool:
        """Does the requirement at the given priority position require
        attention at stage s_next?  Uses the pre-stage difference and the
        adversary value at s_next.  The reference predicate: the engine
        itself serves through the equivalent `_least_attention`."""
        param = self.params.get(position)
        if param is None:
            return True
        stream = self.suite.positions.get(position)
        if stream is None:
            return False
        return gap_below(self.difference(s_next - 1), stream.value(s_next), param + 3)

    # -- the stage function --------------------------------------------------

    def _stage(self, s1: int) -> Rational:
        self._read_suite(s1, first_side=0)
        self._serve(self._least_attention(s1), s1)
        self._log(s1, "alpha", None, fmt(self.alpha))
        self._log(s1, "beta", None, fmt(self.beta))
        return self.alpha - self.beta

    def _least_attention(self, s1: int) -> int:
        """Least position requiring attention at stage s1.  Positions below
        u are defined, so only the backed ones among them can require
        attention; u itself always does, and u <= s keeps it inside the
        scanned range 0..2s+1.  Gap tests run in the order a scan of
        `requires_attention` over 0..2s+1 would make them."""
        u = self._undefined
        diff = self.difference(s1 - 1)
        for position, stream in self.suite.positions.items():
            if position >= u:
                break
            if gap_below(diff, stream.value(s1), self.params[position] + 3):
                return position
        return u

    def _use(self, value: int) -> None:
        self.used_values.add(value)
        self._max_used = max(self._max_used, value)

    def _serve(self, position: int, s1: int) -> None:
        bit = self.params.get(position)
        if bit is None:  # position u: a fresh value from its own pairing column
            bit = self.params[position] = least_in_column_above(position, self._max_used)
            self._use(bit)
            self._undefined = position + 1
            self._log(s1, "define", position, str(bit))
            return
        restraint = self.restraints[position] = bit + 3
        self._log(s1, "act", position, str(bit))
        if position % 2:
            self.a_bits.add(bit)
            self.alpha += bit_weight(bit)
            self._log(s1, "enumerate_A", position, str(bit))
        else:
            self.b_bits.add(bit)
            self.beta += bit_weight(bit)
            self._log(s1, "enumerate_B", position, str(bit))
        self._use(restraint)
        self._log(s1, "restraint", position, str(restraint))
        self._initialize_below(position, s1)
        self._undefined = position + 1

    def _initialize_below(self, position: int, s1: int) -> None:
        """Initialize every requirement of strictly lower priority: the
        defined positions p < u above `position`, L side (even) first."""
        for p in sorted(range(position + 1, self._undefined), key=lambda p: (p % 2, p)):
            del self.params[p]
            self.restraints.pop(p, None)
            self._log(s1, "initialize", p)

    def snapshot(self) -> dict:
        return _snapshot(self.s, self.a_bits, self.b_bits, fmt(self.alpha), fmt(self.beta),
                         self.params, self.restraints, self.used_values)


def run_injury(config: InjuryConfig) -> InjuryEngine:
    engine = InjuryEngine(config)
    engine.run()
    return engine


# the kind of an act's enumeration record, by the parity of its position
_ENUMERATION = ("enumerate_B", "enumerate_A")


@dataclass
class _Act:
    """One act as the trace fold records it."""

    position: int
    stage: int
    param: Optional[int]  # the bit parameter in effect, None if none was
    bit: int  # the act's own value
    next_init: int = 0  # stage of the position's next initialization, T + 1 if none
    records: tuple[str, ...] = ()  # the kinds of its enumeration and restraint records read


class _Fold:
    """One forward pass over a prop3 trace, the only place that reads its
    events: replay and the verifier both read what it records.  Values stay
    as their trace text; a check parses only what it compares."""

    def __init__(self, events: list[TraceEvent]):
        self.stage = 0
        self.alpha = self.beta = "0/1"  # the latest records
        self.alpha_at: dict[int, str] = {}  # stage -> alpha, likewise beta
        self.beta_at: dict[int, str] = {}
        # position -> stage -> adversary value (gamma_i at 2i, delta_i at 2i+1)
        self.adversary: dict[int, dict[int, str]] = {}
        # position -> bit parameter, restraint; absent = undefined
        self.params: dict[int, int] = {}
        self.restraints: dict[int, int] = {}
        self.used: set[int] = set()
        # (stage, position, value, max of the values used before it)
        self.defines: list[tuple[int, int, int, int]] = []
        self.acts: list[_Act] = []
        self.inits: dict[int, int] = {}  # position -> initializations
        self.enum_a: list[int] = []
        self.enum_b: list[int] = []
        waiting: dict[int, list[_Act]] = {}  # position -> acts before its next initialization
        max_used = -1
        self.act_faults: list[str] = []  # W8
        pending: Optional[_Act] = None  # the act whose stage is being read
        self.chain = OldValueChain()
        self.runs = RecordRuns(("alpha", "beta"))
        for ev in events:
            if pending is not None and (ev.stage != pending.stage or ev.kind == "act"):
                self._close_act(pending)
                pending = None
            self.stage = max(self.stage, ev.stage)
            self.chain.read(ev)
            self.runs.read(ev)
            kind, n = ev.kind, ev.requirement
            if kind == "alpha":
                self.alpha = self.alpha_at[ev.stage] = ev.new
            elif kind == "beta":
                self.beta = self.beta_at[ev.stage] = ev.new
            elif kind in ("gamma", "delta"):
                self.adversary.setdefault(2 * n + (kind == "delta"), {})[ev.stage] = ev.new
            elif kind == "define":
                value = self.params[n] = int(ev.new)
                self.defines.append((ev.stage, n, value, max_used))
                self.used.add(value)
                max_used = max(max_used, value)
            elif kind == "act":
                act = pending = _Act(n, ev.stage, self.params.get(n), int(ev.new))
                if act.param is not None and act.bit != act.param:
                    self.act_faults.append(f"position {n}: act at stage {ev.stage} with bit "
                                           f"{act.bit}, not its parameter {act.param}")
                self.acts.append(act)
                waiting.setdefault(n, []).append(act)
            elif kind == "enumerate_A":
                self._act_record(pending, ev)
                self.enum_a.append(int(ev.new))
            elif kind == "enumerate_B":
                self._act_record(pending, ev)
                self.enum_b.append(int(ev.new))
            elif kind == "restraint":
                self._act_record(pending, ev)
                value = self.restraints[n] = int(ev.new)
                self.used.add(value)
                max_used = max(max_used, value)
            elif kind == "initialize":
                self.params.pop(n, None)
                self.restraints.pop(n, None)
                self.inits[n] = self.inits.get(n, 0) + 1
                for act in waiting.pop(n, ()):
                    act.next_init = ev.stage
        if pending is not None:
            self._close_act(pending)
        for acts in waiting.values():
            for act in acts:
                act.next_init = self.stage + 1
        self.runs.close(self.stage)

    def _act_record(self, act: Optional[_Act], ev: TraceEvent) -> None:
        """An enumeration or restraint record must follow, in its stage, the
        act at its position that has none of its kind yet, and hold the
        act's bit (plus 3 for a restraint).  The enumeration is enumerate_A
        at an odd position and enumerate_B at an even one."""
        n = ev.requirement
        kind = "restraint" if ev.kind == "restraint" else _ENUMERATION[n % 2]
        if act is None or act.position != n or ev.kind != kind or kind in act.records:
            self.act_faults.append(f"{ev.kind} req {n} at stage {ev.stage} without its act")
            return
        act.records += (kind,)
        want = act.bit + 3 if kind == "restraint" else act.bit
        if int(ev.new) != want:
            self.act_faults.append(f"{ev.kind} req {n} at stage {ev.stage}: {ev.new}, "
                                   f"not {want} from the act's bit")

    def _close_act(self, act: _Act) -> None:
        if len(act.records) != 2:
            self.act_faults.append(f"position {act.position}: act at stage {act.stage} "
                                   f"without its enumeration and restraint")

    def snapshot(self) -> dict:
        """The final record the trace folds to."""
        return _snapshot(self.stage, set(self.enum_a), set(self.enum_b), self.alpha, self.beta,
                         self.params, self.restraints, self.used)


def replay_injury(events: list[TraceEvent]) -> dict:
    """Fold a trace back into a final-state snapshot."""
    return _Fold(events).snapshot()


def verify_injury(events: list[TraceEvent], final: dict) -> VerificationReport:
    """Exact invariant checks over a completed run, from its trace alone.

    W0 the final record is the one the trace folds to; W1 one act per
    initialization segment, each with a parameter in effect, and no
    attention after a served act; W2 separation margin after an
    un-initialized act; W3 restraint obedience; W4 injury and act counts
    bounded by priority position; W5 column discipline, freshness, and
    disjoint enumerations; W6 each alpha and beta record's old value is
    the previous record's new value; W7 one record a stage of alpha and
    beta from stage 0, and of each adversary from its first stage; W8 each
    act's bit is its position's parameter in effect, and the act is
    followed in its stage by exactly one enumeration (enumerate_A at an
    odd position, enumerate_B at an even one) holding that bit and one
    restraint holding the bit + 3, and no enumeration or restraint comes
    without its act.  Checks read the fold, not the final record.
    """
    report = VerificationReport()
    fold = _Fold(events)
    T = fold.stage
    check_final_record(report, "W0 final record is the folded trace's", fold.snapshot(), final)
    parsed = cache(rational)
    alpha = [parsed(fold.alpha_at.get(t, "0/1")) for t in range(T + 1)]
    beta = [parsed(fold.beta_at.get(t, "0/1")) for t in range(T + 1)]

    def attention(position: int, t: int, param: int) -> bool:
        """requires-attention predicate at stage t; False if the adversary
        value is unknown (not participating yet)."""
        vals = fold.adversary.get(position, {})
        if t not in vals:
            return False
        gap = abs(alpha[t - 1] - beta[t - 1] - parsed(vals[t]))
        return gap < pow2_neg(param + 3)

    w1 = report.check("W1 one act per initialization segment")
    segments: dict[tuple[int, int], list[_Act]] = {}  # acts by position and next initialization
    for act in fold.acts:
        segments.setdefault((act.position, act.next_init), []).append(act)
    for (position, stop), acts in sorted(segments.items()):
        if len(acts) > 1:
            w1.fail(f"position {position}: acts at {[a.stage for a in acts]} in one segment")
        act = acts[0]
        if act.param is None:
            w1.fail(f"position {position}: act at stage {act.stage} with no parameter in effect")
            continue
        for t in range(act.stage + 1, min(stop, T + 1)):
            if attention(position, t, act.param):
                w1.fail(
                    f"position {position}: requires attention at stage {t} "
                    f"after acting at {act.stage}"
                )
                break

    w2 = report.check("W2 separation margin after final act")
    last_acts = {act.position: act for act in fold.acts}
    for position, act in sorted(last_acts.items()):
        if act.next_init <= T or act.param is None:
            continue
        i, parity = divmod(position, 2)
        margin = pow2_neg(act.param + 2)
        vals = fold.adversary.get(position, {})
        for t in range(act.stage + 1, T + 1):
            if t not in vals:
                continue
            diff, v = alpha[t] - beta[t], parsed(vals[t])
            if parity == 0:
                if not diff < v - margin:
                    w2.fail(f"L_{i} at stage {t}: {diff} not < {v} - {margin}")
            else:
                if not diff > v + margin:
                    w2.fail(f"R_{i} at stage {t}: {diff} not > {v} + {margin}")

    w3 = report.check("W3 restraint obedience")
    for act in sorted(fold.acts, key=lambda a: a.position):
        if act.param is None:  # failed W1
            continue
        cap = pow2_neg(act.param + 2)
        # an L act restrains later growth of alpha, an R act of beta
        side = beta if act.position % 2 else alpha
        for t in range(act.stage + 1, min(act.next_init, T + 1)):
            if not side[t] - side[act.stage] < cap:
                w3.fail(
                    f"position {act.position}: growth {side[t] - side[act.stage]} "
                    f"at stage {t} >= {cap}"
                )
                break

    w4 = report.check("W4 injury and act bounds")
    n_acts = Counter(act.position for act in fold.acts)
    for position in sorted(set(fold.inits) | set(n_acts)):
        n_init = fold.inits.get(position, 0)
        if n_init > 2**position - 1:
            w4.fail(f"position {position}: {n_init} initializations > {2**position - 1}")
        if n_acts[position] > 2**position:
            w4.fail(f"position {position}: {n_acts[position]} acts > {2**position}")

    w5 = report.check("W5 column discipline and freshness")
    for stage, position, value, max_assigned in fold.defines:
        column, _ = unpair(value)
        if column != position:
            w5.fail(f"position {position}: value {value} in column {column}")
        if value <= max_assigned:
            w5.fail(
                f"position {position}: value {value} not fresh at stage "
                f"{stage} (max assigned {max_assigned})"
            )
    a_set, b_set = set(fold.enum_a), set(fold.enum_b)
    if a_set & b_set:
        w5.fail(f"values enumerated into both sets: {sorted(a_set & b_set)}")
    if len(fold.enum_a) != len(a_set) or len(fold.enum_b) != len(b_set):
        w5.fail("a bit value was enumerated twice")

    for name, breaks in (("W6 old values chain", fold.chain.breaks),
                         ("W7 one record a stage of alpha, beta and each adversary",
                          fold.runs.breaks),
                         ("W8 each act with its parameter, enumeration and restraint",
                          fold.act_faults)):
        check = report.check(name)
        for message in breaks:
            check.fail(message)

    report.stats["stages"] = T
    report.stats["acts"] = len(fold.acts)
    report.stats["initializations"] = sum(fold.inits.values())
    report.stats["defines"] = len(fold.defines)
    return report
