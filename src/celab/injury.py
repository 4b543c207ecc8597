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
from math import isqrt
from typing import Iterable, Optional

from .rationals import (ONE, ZERO, Rational, dyadic_sign, format_rational as fmt, gap_below,
                        pow2_neg)
from .streams import StageEngine, SuiteOrFactory
from .trace import (RecordRules, TraceEvent, VerificationReport, check_final_record, rational,
                    stages)


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


def _weighs(growth: Rational, bits: list[int]) -> bool:
    """Whether growth is the sum of bit_weight(n) over `bits`.  k weights
    whose least is 2^-m sum to a dyadic with denominator at least
    2^(m - k + 1), as k powers of two carry at most k - 1 places; so an m
    past the bit length of growth's denominator plus k answers no, and no
    2^m is built from a bit read off the trace."""
    limit = growth.denominator.bit_length() + len(bits)
    return (all(n + 1 <= limit for n in bits)
            and growth == sum(map(bit_weight, bits), ZERO))


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
    """One deterministic run of the construction.  Stage s1 reads each
    adversary at s1 and alpha - beta at s1 - 1, the history that
    `StageEngine` keeps."""

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
        self._log(0, "alpha", None, fmt(ZERO))
        self._log(0, "beta", None, fmt(ZERO))
        self.diff_at.append(ZERO)

    # -- the stage function --------------------------------------------------

    def _stage(self, s1: int) -> Rational:
        adversaries = self._read_suite(s1, first_side=0)
        self._serve(self._least_attention(s1, adversaries), s1)
        self._log(s1, "alpha", None, fmt(self.alpha))
        self._log(s1, "beta", None, fmt(self.beta))
        return self.alpha - self.beta

    def _least_attention(self, s1: int, adversaries: dict[int, Rational]) -> int:
        """Least position requiring attention at stage s1, given the
        adversaries' values there by position.  Positions below u are
        defined, so only the backed ones among them can require attention;
        u itself always does, and u <= s keeps it inside the scanned range
        0..2s+1, where every backed position has a value.  Gap tests run in
        the order a scan of the attention predicate over 0..2s+1 would make
        them; that scan is the `prop3` oracle of the tests
        (tests/oracles.py)."""
        u = len(self.params)  # parameters are defined exactly on [0, u)
        diff = self.difference(s1 - 1)
        for position in self.suite.positions:
            if position >= u:
                break
            if gap_below(diff, adversaries[position], self.params[position] + 3):
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

    def _initialize_below(self, position: int, s1: int) -> None:
        """Initialize every requirement of strictly lower priority: the
        defined positions p < u above `position`, L side (even) first."""
        for p in sorted(range(position + 1, len(self.params)), key=lambda p: (p % 2, p)):
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
    records: tuple[str, ...] = ()  # the kinds of its enumeration and restraint records read
    base: Optional[Rational] = None  # its side's value as its stage ends (W3)
    restrained: bool = True  # no W3 failure found yet


class _Segment:
    """The acts at one position since its last initialization: W1 reads
    the first, W2 the last, W3 each."""

    def __init__(self):
        self.acts: list[_Act] = []
        self.attention: Optional[str] = None  # W1's failure after the first act
        self.separation: list[str] = []  # W2's, for the last act


class _StageChecks:
    """W1-W3, W5 and W10, run as a prop3 trace is read.  Keeps the live
    segments, at most one act each in a run the engine made, and the
    previous stage's alpha - beta; checks for a stage run once it has
    closed, since an initialization in it ends a segment before it.
    Failures are listed as found: W1's as a segment ends, W2's at the end
    of the trace, W3's and W10's at the stage that shows the growth."""

    def __init__(self):
        self.live: dict[int, _Segment] = {}  # position -> segment not yet initialized
        self.prev_stage, self.prev_diff = -1, ZERO
        # the last closed stage's alpha and beta texts, and their values
        self.texts: tuple[str, str] = ("0/1", "0/1")
        self.alpha = self.beta = self.diff = ZERO
        self.w1: list[str] = []
        self.w2: list[str] = []
        self.w3: list[str] = []
        self.w5: list[str] = []
        self.w10: list[str] = []

    def define(self, stage: int, position: int, value: int, max_assigned: int) -> None:
        column, _ = unpair(value)
        if column != position:
            self.w5.append(f"position {position}: value {value} in column {column}")
        if value <= max_assigned:
            self.w5.append(f"position {position}: value {value} not fresh at stage "
                           f"{stage} (max assigned {max_assigned})")

    def act(self, act: _Act) -> None:
        segment = self.live.setdefault(act.position, _Segment())
        segment.acts.append(act)
        segment.separation = []  # W2 reads only the last act

    def initialize(self, position: int) -> None:
        segment = self.live.pop(position, None)
        if segment is not None:
            self._end(position, segment)

    def _end(self, position: int, segment: _Segment) -> None:
        first = segment.acts[0]
        if len(segment.acts) > 1:
            self.w1.append(f"position {position}: acts at "
                           f"{[a.stage for a in segment.acts]} in one segment")
        if first.param is None:
            self.w1.append(f"position {position}: act at stage {first.stage} "
                           f"with no parameter in effect")
        elif segment.attention is not None:
            self.w1.append(segment.attention)

    def close(self, t: int, alpha_text: Optional[str], beta_text: Optional[str],
              adversary: dict[int, str], enumerated: tuple[list[int], list[int]]) -> None:
        """Stage t has been read: its last alpha, beta and adversary values,
        and the bits of its enumerate_A and enumerate_B records."""
        # a stage without its record holds the last value: W7 names the gap
        texts = (alpha_text or self.texts[0], beta_text or self.texts[1])
        old = self.alpha, self.beta
        if texts != self.texts:
            self.texts = texts
            self.alpha, self.beta = rational(texts[0]), rational(texts[1])
            self.diff = self.alpha - self.beta
        for name, was, now, bits in zip(("alpha", "beta"), old, (self.alpha, self.beta),
                                        enumerated):
            if (bits or now is not was) and not _weighs(now - was, bits):
                self.w10.append(f"stage {t}: {name} changed by {now - was}, not by the "
                                f"weights of bits {bits}")
        alpha, beta, diff = self.alpha, self.beta, self.diff
        prev = self.prev_diff if self.prev_stage == t - 1 else ZERO
        skipped = self.prev_stage + 1 if self.prev_stage + 1 < t else None
        for position, segment in self.live.items():
            first, last = segment.acts[0], segment.acts[-1]
            text = adversary.get(position)
            attention = (text is not None and t > first.stage and first.param is not None
                         and segment.attention is None)
            separation = text is not None and t > last.stage and last.param is not None
            if attention or separation:
                v = rational(text)
                if attention and gap_below(prev, v, first.param + 3):
                    segment.attention = (f"position {position}: requires attention at "
                                         f"stage {t} after acting at {first.stage}")
                if separation:
                    self._separate(position, segment, last.param, t, diff, v)
            side = beta if position % 2 else alpha
            for act in segment.acts:
                if act.param is None or not act.restrained:
                    continue
                if t == act.stage:
                    act.base = side
                elif act.base is not None:
                    # a value the side has kept since the act's stage has not grown
                    for stage, value in ((skipped, ZERO), (t, side)):
                        if (stage is not None and value is not act.base
                                and dyadic_sign(value - act.base, ONE, act.param + 2) >= 0):
                            act.restrained = False
                            self.w3.append(f"position {position}: growth {value - act.base} "
                                           f"at stage {stage} >= 2^-{act.param + 2}")
                            break
        self.prev_stage, self.prev_diff = t, diff

    def _separate(self, position: int, segment: _Segment, param: int, t: int,
                  diff: Rational, v: Rational) -> None:
        """W2 at stage t for the segment's last act; kept until the
        segment ends, and counted only if it never does."""
        i, parity = divmod(position, 2)
        if parity == 0:
            if dyadic_sign(v - diff, ONE, param + 2) <= 0:
                segment.separation.append(f"L_{i} at stage {t}: {diff} not < {v} - 2^-{param + 2}")
        elif dyadic_sign(diff - v, ONE, param + 2) <= 0:
            segment.separation.append(f"R_{i} at stage {t}: {diff} not > {v} + 2^-{param + 2}")

    def finish(self) -> None:
        """End the segments no initialization ended: their last acts are
        the ones W2 reads."""
        for position, segment in self.live.items():
            self._end(position, segment)
            self.w2.extend(segment.separation)


class _Fold:
    """One forward pass over a prop3 trace, the only place that reads its
    events: replay and the verifier both read what it records.  Values stay
    as their trace text; a check parses only what it compares.  Reads the
    trace a stage at a time through `stages`; given `checks`, it also has
    each record read into its `RecordRules` and hands each record and
    closed stage to `checks`.  Either way it keeps no stage's values once
    the stage has closed."""

    def __init__(self, events: Iterable[TraceEvent], checks: Optional[_StageChecks] = None):
        self.alpha = self.beta = "0/1"  # the latest records
        # position -> bit parameter, restraint; absent = undefined
        self.params: dict[int, int] = {}
        self.restraints: dict[int, int] = {}
        self.used: set[int] = set()
        self.enum_a: set[int] = set()
        self.enum_b: set[int] = set()
        self.enumerated_twice = False
        self.defines = 0
        self.acts: Counter[int] = Counter()  # position -> acts
        self.inits: dict[int, int] = {}  # position -> initializations
        max_used = -1
        self.act_faults: list[str] = []  # W8
        self.init_faults: list[str] = []  # W9
        pending: Optional[_Act] = None  # the act whose stage is being read
        self.rules = RecordRules(("alpha", "beta"))
        for stage, records in stages(events, None if checks is None else self.rules):
            # the stage's last alpha, beta and adversary records (position ->
            # value: gamma_i at 2i, delta_i at 2i+1); an earlier stage's
            # record in it fails W7
            alpha = beta = None
            adversary: dict[int, str] = {}
            enumerated: tuple[list[int], list[int]] = ([], [])  # A's bits, B's
            for ev in records:
                if pending is not None and (ev.stage != pending.stage or ev.kind == "act"):
                    self._close_act(pending)
                    pending = None
                kind, n = ev.kind, ev.requirement
                if kind == "alpha":
                    self.alpha = alpha = ev.new
                elif kind == "beta":
                    self.beta = beta = ev.new
                elif kind in ("gamma", "delta"):
                    adversary[2 * n + (kind == "delta")] = ev.new
                elif kind == "define":
                    value = self.params[n] = int(ev.new)
                    if checks is not None:
                        checks.define(ev.stage, n, value, max_used)
                    self.defines += 1
                    self.used.add(value)
                    max_used = max(max_used, value)
                elif kind == "act":
                    act = pending = _Act(n, ev.stage, self.params.get(n), int(ev.new))
                    if act.param is not None and act.bit != act.param:
                        self.act_faults.append(f"position {n}: act at stage {ev.stage} with "
                                               f"bit {act.bit}, not its parameter {act.param}")
                    self.acts[n] += 1
                    if checks is not None:
                        checks.act(act)
                elif kind == "enumerate_A":
                    self._act_record(pending, ev)
                    self._enumerate(self.enum_a, enumerated[0], int(ev.new))
                elif kind == "enumerate_B":
                    self._act_record(pending, ev)
                    self._enumerate(self.enum_b, enumerated[1], int(ev.new))
                elif kind == "restraint":
                    self._act_record(pending, ev)
                    value = self.restraints[n] = int(ev.new)
                    self.used.add(value)
                    max_used = max(max_used, value)
                elif kind == "initialize":
                    if self.params.pop(n, None) is None:
                        self.init_faults.append(f"position {n}: initialized at stage "
                                                f"{ev.stage} with no parameter in effect")
                    self.restraints.pop(n, None)
                    self.inits[n] = self.inits.get(n, 0) + 1
                    if checks is not None:
                        checks.initialize(n)
            if checks is not None:
                checks.close(stage, alpha, beta, adversary, enumerated)
        if pending is not None:
            self._close_act(pending)
        self.stage = stage  # the last
        if checks is not None:
            checks.finish()

    def _enumerate(self, bits: set[int], stage_bits: list[int], bit: int) -> None:
        if bit in bits:
            self.enumerated_twice = True
        bits.add(bit)
        stage_bits.append(bit)

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
        return _snapshot(self.stage, self.enum_a, self.enum_b, self.alpha, self.beta,
                         self.params, self.restraints, self.used)


def replay_injury(events: Iterable[TraceEvent]) -> dict:
    """Fold a trace back into a final-state snapshot."""
    return _Fold(events).snapshot()


def verify_injury(events: Iterable[TraceEvent], final: dict) -> VerificationReport:
    """Exact invariant checks over a completed run, from its trace alone.

    W0 the final record is the one the trace folds to; W1 one act per
    initialization segment, each with a parameter in effect, and no
    attention after a served act; W2 separation margin after an
    un-initialized act; W3 restraint obedience; W4 injury and act counts
    bounded by priority position; W5 column discipline, freshness, and
    disjoint enumerations; W6 each alpha and beta record's old value is
    the previous record's new value; W7 records in stage order, and one
    record a stage of alpha and beta from stage 0, and of each adversary
    from its first stage; W8 each act's bit is its position's parameter
    in effect, and the act is followed in its stage by exactly one
    enumeration (enumerate_A at an odd position, enumerate_B at an even
    one) holding that bit and one restraint holding the bit + 3, and no
    enumeration or restraint comes without its act; W9 each initialized
    position had a parameter in effect, as the engine initializes only
    defined positions; W10 each stage's alpha (beta) grows from the
    previous stage's by the weights 2^-(n+1) of its enumerate_A
    (enumerate_B) records n.  Checks read the fold, not the final record.  One
    pass over `events`, keeping the live acts; every check lists its
    failures in the order the pass finds them.
    """
    report = VerificationReport()
    checks = _StageChecks()
    fold = _Fold(events, checks)
    check_final_record(report, "W0 final record is the folded trace's", fold.snapshot(), final)
    report.check("W1 one act per initialization segment", checks.w1)
    report.check("W2 separation margin after final act", checks.w2)
    report.check("W3 restraint obedience", checks.w3)

    w4 = []
    for position in sorted(set(fold.inits) | set(fold.acts)):
        # n >> position is nonzero just when n >= 2^position; no 2^position is built
        n_init, acts = fold.inits.get(position, 0), fold.acts[position]
        if n_init >> position:
            w4.append(f"position {position}: {n_init} initializations > {2**position - 1}")
        if acts and (acts - 1) >> position:
            w4.append(f"position {position}: {acts} acts > {2**position}")
    report.check("W4 injury and act bounds", w4)

    w5 = checks.w5
    if fold.enum_a & fold.enum_b:
        w5.append(f"values enumerated into both sets: {sorted(fold.enum_a & fold.enum_b)}")
    if fold.enumerated_twice:
        w5.append("a bit value was enumerated twice")
    report.check("W5 column discipline and freshness", w5)

    report.check("W6 old values chain", fold.rules.chain_breaks)
    report.check("W7 one record a stage of alpha, beta and each adversary", fold.rules.run_breaks)
    report.check("W8 each act with its parameter, enumeration and restraint", fold.act_faults)
    report.check("W9 each initialization of a position with a parameter", fold.init_faults)
    report.check("W10 alpha and beta grow by the weights of A's and B's enumerations",
                 checks.w10)

    report.stats["stages"] = fold.stage
    report.stats["acts"] = sum(fold.acts.values())
    report.stats["initializations"] = sum(fold.inits.values())
    report.stats["defines"] = fold.defines
    return report
