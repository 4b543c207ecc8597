"""Finite-injury engine enumerating two bit sets whose weighted sums give
increasing dyadic approximations.

Requirements are listed by priority position k = 0, 1, 2, ...: even
positions 2i carry an L-side requirement watching an increasing adversary
gamma_i, odd positions 2i+1 an R-side one watching a decreasing delta_i.
An L requirement owns a bit position c_i drawn from pairing column 2i, an R
requirement a d_i from column 2i+1; enumerating bit n adds 2^-(n+1) to the
corresponding sum, so both sums stay in [0, 1).

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

from dataclasses import dataclass
from math import isqrt
from typing import Optional

from .rationals import ZERO, Rational, format_rational as fmt, pow2_neg
from .streams import StageEngine, SuiteOrFactory
from .trace import TraceEvent, VerificationReport, check_final_stage


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


def _table(t: dict[int, Optional[int]]) -> dict[str, int]:
    """A parameter or restraint table as a snapshot records it: the defined
    entries, keyed by requirement index as text."""
    return {str(i): v for i, v in sorted(t.items()) if v is not None}


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
        self.alpha_hist: list[Rational] = [ZERO]
        self.beta_hist: list[Rational] = [ZERO]
        # per requirement index i: bit parameter and restraint (None = undefined)
        self.c: dict[int, Optional[int]] = {}
        self.d: dict[int, Optional[int]] = {}
        self.l: dict[int, Optional[int]] = {}
        self.r: dict[int, Optional[int]] = {}
        self.used_values: set[int] = set()
        self._max_used = -1  # max(used_values); bounds every live restraint
        self._undefined = 0  # u: parameters are defined exactly on [0, u)
        # (position, stream) for every adversary, in priority order
        self._backed = sorted(
            [(2 * i, self.suite.gamma(i)) for i in self.suite.gamma_indices]
            + [(2 * i + 1, self.suite.delta(i)) for i in self.suite.delta_indices],
            key=lambda entry: entry[0],
        )
        self._log(0, "alpha", None, None, fmt(ZERO))
        self._log(0, "beta", None, None, fmt(ZERO))

    # -- attention ---------------------------------------------------------

    def requires_attention(self, position: int, s_next: int) -> bool:
        """Does the requirement at the given priority position require
        attention at stage s_next?  Uses the pre-stage difference and the
        adversary value at s_next.  The reference predicate: the engine
        itself serves through the equivalent `_least_attention`."""
        i, is_l = divmod(position, 2)[0], position % 2 == 0
        param = self.c.get(i) if is_l else self.d.get(i)
        if param is None:
            return True
        stream = self.suite.gamma(i) if is_l else self.suite.delta(i)
        if stream is None:
            return False
        gap = abs(self.alpha_hist[s_next - 1] - self.beta_hist[s_next - 1]
                  - stream.value(s_next))
        return gap < pow2_neg(param + 3)

    # -- the stage function --------------------------------------------------

    def _stage(self, s1: int) -> None:
        for i in self.suite.gamma_indices:
            if i <= self.s:
                self._log(s1, "gamma", i, None, fmt(self.suite.gamma(i).value(s1)))
        for i in self.suite.delta_indices:
            if i <= self.s:
                self._log(s1, "delta", i, None, fmt(self.suite.delta(i).value(s1)))

        self._serve(self._least_attention(s1), s1)

        self.alpha_hist.append(self.alpha)
        self.beta_hist.append(self.beta)
        self._log(s1, "alpha", None, fmt(self.alpha_hist[-2]), fmt(self.alpha))
        self._log(s1, "beta", None, fmt(self.beta_hist[-2]), fmt(self.beta))

    def _least_attention(self, s1: int) -> int:
        """Least position requiring attention at stage s1.  Positions below
        u are defined, so only the backed ones among them can require
        attention; u itself always does, and u <= s keeps it inside the
        scanned range 0..2s+1.  Gap tests run in the order a scan of
        `requires_attention` over 0..2s+1 would make them."""
        u = self._undefined
        diff = self.alpha_hist[s1 - 1] - self.beta_hist[s1 - 1]
        for position, stream in self._backed:
            if position >= u:
                break
            i, parity = divmod(position, 2)
            param = (self.d if parity else self.c)[i]
            if abs(diff - stream.value(s1)) < pow2_neg(param + 3):
                return position
        return u

    def _fresh_value(self, column: int) -> int:
        return least_in_column_above(column, self._max_used)

    def _use(self, value: int) -> None:
        self.used_values.add(value)
        self._max_used = max(self._max_used, value)

    def _serve(self, position: int, s1: int) -> None:
        i, is_l = position // 2, position % 2 == 0
        params = self.c if is_l else self.d
        self._undefined = position + 1
        if params.get(i) is None:
            value = self._fresh_value(2 * i if is_l else 2 * i + 1)
            params[i] = value
            self._use(value)
            self._log(s1, "define", position, None, str(value))
            return
        bit = params[i]
        restraint = bit + 3
        self._log(s1, "act", position, None, str(bit))
        if is_l:
            self.b_bits.add(bit)
            self.beta += bit_weight(bit)
            self.l[i] = restraint
            self._log(s1, "enumerate_B", position, None, str(bit))
        else:
            self.a_bits.add(bit)
            self.alpha += bit_weight(bit)
            self.r[i] = restraint
            self._log(s1, "enumerate_A", position, None, str(bit))
        self._use(restraint)
        self._log(s1, "restraint", position, None, str(restraint))
        self._initialize_below(position, s1)

    def _initialize_below(self, position: int, s1: int) -> None:
        """Initialize every requirement of strictly lower priority."""
        for pos_table, param_table, restraint_table in (
            (0, self.c, self.l),
            (1, self.d, self.r),
        ):
            for i in sorted(param_table):
                p = 2 * i + pos_table
                if p <= position:
                    continue
                if param_table[i] is None and restraint_table.get(i) is None:
                    continue
                param_table[i] = None
                restraint_table[i] = None
                self._log(s1, "initialize", p, None, None)

    def snapshot(self) -> dict:
        return {
            "engine": "prop3",
            "stage": self.s,
            "A": sorted(self.a_bits),
            "B": sorted(self.b_bits),
            "alpha": fmt(self.alpha),
            "beta": fmt(self.beta),
            "c": _table(self.c),
            "d": _table(self.d),
            "l": _table(self.l),
            "r": _table(self.r),
            "used_values": sorted(self.used_values),
        }


def run_injury(config: InjuryConfig) -> InjuryEngine:
    engine = InjuryEngine(config)
    engine.run()
    return engine


def replay_injury(events: list[TraceEvent]) -> dict:
    """Fold a trace back into a final-state snapshot."""
    a_bits: set[int] = set()
    b_bits: set[int] = set()
    c: dict[int, Optional[int]] = {}
    d: dict[int, Optional[int]] = {}
    l: dict[int, Optional[int]] = {}
    r: dict[int, Optional[int]] = {}
    used: set[int] = set()
    alpha = beta = "0/1"
    stage = 0
    for ev in events:
        stage = max(stage, ev.stage)
        if ev.kind == "alpha":
            alpha = ev.new
        elif ev.kind == "beta":
            beta = ev.new
        elif ev.kind == "define":
            i, parity = divmod(ev.requirement, 2)
            (c if parity == 0 else d)[i] = ev.new_int()
            used.add(ev.new_int())
        elif ev.kind == "enumerate_A":
            a_bits.add(ev.new_int())
        elif ev.kind == "enumerate_B":
            b_bits.add(ev.new_int())
        elif ev.kind == "restraint":
            i, parity = divmod(ev.requirement, 2)
            (l if parity == 0 else r)[i] = ev.new_int()
            used.add(ev.new_int())
        elif ev.kind == "initialize":
            i, parity = divmod(ev.requirement, 2)
            (c if parity == 0 else d)[i] = None
            (l if parity == 0 else r)[i] = None

    return {
        "engine": "prop3",
        "stage": stage,
        "A": sorted(a_bits),
        "B": sorted(b_bits),
        "alpha": alpha,
        "beta": beta,
        "c": _table(c),
        "d": _table(d),
        "l": _table(l),
        "r": _table(r),
        "used_values": sorted(used),
    }


class _Fold:
    """Independent stage-by-stage reconstruction of a run from its trace,
    used by the verifier."""

    def __init__(self, events: list[TraceEvent], T: int):
        self.alpha = [ZERO] * (T + 1)
        self.beta = [ZERO] * (T + 1)
        self.gamma: dict[int, dict[int, Rational]] = {}
        self.delta: dict[int, dict[int, Rational]] = {}
        # per position: list of (stage, kind, value)
        self.history: dict[int, list[tuple[int, str, Optional[int]]]] = {}
        self.defines: list[tuple[int, int, int]] = []  # (stage, position, value)
        self.acts: dict[int, list[int]] = {}
        self.inits: dict[int, list[int]] = {}
        self.enum_a: list[tuple[int, int]] = []
        self.enum_b: list[tuple[int, int]] = []
        for ev in events:
            if ev.kind == "alpha" and ev.stage > 0:
                self.alpha[ev.stage] = ev.new_rational()
            elif ev.kind == "beta" and ev.stage > 0:
                self.beta[ev.stage] = ev.new_rational()
            elif ev.kind == "gamma":
                self.gamma.setdefault(ev.requirement, {})[ev.stage] = ev.new_rational()
            elif ev.kind == "delta":
                self.delta.setdefault(ev.requirement, {})[ev.stage] = ev.new_rational()
            elif ev.kind == "define":
                self.defines.append((ev.stage, ev.requirement, ev.new_int()))
                self._push(ev.requirement, ev.stage, "define", ev.new_int())
            elif ev.kind == "act":
                self.acts.setdefault(ev.requirement, []).append(ev.stage)
                self._push(ev.requirement, ev.stage, "act", ev.new_int())
            elif ev.kind == "initialize":
                self.inits.setdefault(ev.requirement, []).append(ev.stage)
                self._push(ev.requirement, ev.stage, "initialize", None)
            elif ev.kind == "enumerate_A":
                self.enum_a.append((ev.stage, ev.new_int()))
            elif ev.kind == "enumerate_B":
                self.enum_b.append((ev.stage, ev.new_int()))

    def _push(self, position, stage, kind, value) -> None:
        self.history.setdefault(position, []).append((stage, kind, value))

    def param_at(self, position: int, stage: int) -> Optional[int]:
        """Bit parameter of the requirement as of the end of `stage`."""
        value = None
        for t, kind, v in self.history.get(position, ()):
            if t > stage:
                break
            if kind == "define":
                value = v
            elif kind == "initialize":
                value = None
        return value

    def next_init_after(self, position: int, stage: int) -> Optional[int]:
        for t in self.inits.get(position, ()):
            if t > stage:
                return t
        return None


def verify_injury(events: list[TraceEvent], final: dict) -> VerificationReport:
    """Exact invariant checks over a completed run, from its trace alone.

    W0 the final snapshot's stage is the trace's last; W1 one act per
    initialization segment, with no attention after a served act; W2
    separation margin after an un-initialized act; W3 restraint obedience;
    W4 injury and act counts bounded by priority position; W5 column
    discipline, freshness, and disjoint enumerations.
    """
    report = VerificationReport()
    T = check_final_stage(report, "W0 final stage is the last traced stage", events, final)
    fold = _Fold(events, T)

    def attention(position: int, t: int, param: int) -> Optional[bool]:
        """requires-attention predicate at stage t, None if the adversary
        value is unknown (not participating yet)."""
        i, parity = divmod(position, 2)
        table = fold.gamma if parity == 0 else fold.delta
        vals = table.get(i)
        if vals is None:
            return False
        if t not in vals:
            return None
        gap = abs(fold.alpha[t - 1] - fold.beta[t - 1] - vals[t])
        return gap < pow2_neg(param + 3)

    w1 = report.check("W1 one act per initialization segment")
    for position, act_stages in sorted(fold.acts.items()):
        init_stages = fold.inits.get(position, [])
        boundaries = [0] + init_stages + [T + 1]
        for lo, hi in zip(boundaries, boundaries[1:]):
            segment = [t for t in act_stages if lo < t < hi]
            if len(segment) > 1:
                w1.fail(f"position {position}: acts at {segment} in one segment")
            if segment:
                act_stage = segment[0]
                param = fold.param_at(position, act_stage)
                stop = fold.next_init_after(position, act_stage) or T + 1
                for t in range(act_stage + 1, min(stop, T + 1)):
                    if attention(position, t, param):
                        w1.fail(
                            f"position {position}: requires attention at stage {t} "
                            f"after acting at {act_stage}"
                        )
                        break

    w2 = report.check("W2 separation margin after final act")
    for position, act_stages in sorted(fold.acts.items()):
        last_act = act_stages[-1]
        if fold.next_init_after(position, last_act) is not None:
            continue
        i, parity = divmod(position, 2)
        param = fold.param_at(position, last_act)
        margin = pow2_neg(param + 2)
        vals = (fold.gamma if parity == 0 else fold.delta).get(i, {})
        for t in range(last_act + 1, T + 1):
            if t not in vals:
                continue
            diff = fold.alpha[t] - fold.beta[t]
            if parity == 0:
                if not diff < vals[t] - margin:
                    w2.fail(f"L_{i} at stage {t}: {diff} not < {vals[t]} - {margin}")
            else:
                if not diff > vals[t] + margin:
                    w2.fail(f"R_{i} at stage {t}: {diff} not > {vals[t]} + {margin}")

    w3 = report.check("W3 restraint obedience")
    for position, act_stages in sorted(fold.acts.items()):
        parity = position % 2
        for act_stage in act_stages:
            param = fold.param_at(position, act_stage)
            cap = pow2_neg(param + 2)
            stop = fold.next_init_after(position, act_stage) or T + 1
            # an L act restrains later growth of alpha, an R act of beta
            side = fold.alpha if parity == 0 else fold.beta
            for t in range(act_stage + 1, min(stop, T + 1)):
                if not side[t] - side[act_stage] < cap:
                    w3.fail(
                        f"position {position}: growth {side[t] - side[act_stage]} "
                        f"at stage {t} >= {cap}"
                    )
                    break

    w4 = report.check("W4 injury and act bounds")
    for position in sorted(set(fold.inits) | set(fold.acts)):
        n_init = len(fold.inits.get(position, ()))
        n_acts = len(fold.acts.get(position, ()))
        if n_init > 2**position - 1:
            w4.fail(f"position {position}: {n_init} initializations > {2**position - 1}")
        if n_acts > 2**position:
            w4.fail(f"position {position}: {n_acts} acts > {2**position}")

    w5 = report.check("W5 column discipline and freshness")
    max_assigned = -1
    for ev in events:
        if ev.kind == "define":
            value = ev.new_int()
            i, parity = divmod(ev.requirement, 2)
            column, _ = unpair(value)
            if column != 2 * i + parity:
                w5.fail(f"position {ev.requirement}: value {value} in column {column}")
            if value <= max_assigned:
                w5.fail(
                    f"position {ev.requirement}: value {value} not fresh at stage "
                    f"{ev.stage} (max assigned {max_assigned})"
                )
            max_assigned = max(max_assigned, value)
        elif ev.kind == "restraint":
            max_assigned = max(max_assigned, ev.new_int())
    a_set = {v for _, v in fold.enum_a}
    b_set = {v for _, v in fold.enum_b}
    if a_set & b_set:
        w5.fail(f"values enumerated into both sets: {sorted(a_set & b_set)}")
    if len(fold.enum_a) != len(a_set) or len(fold.enum_b) != len(b_set):
        w5.fail("a bit value was enumerated twice")

    report.stats["stages"] = T
    report.stats["acts"] = sum(len(v) for v in fold.acts.values())
    report.stats["initializations"] = sum(len(v) for v in fold.inits.values())
    report.stats["defines"] = len(fold.defines)
    return report
