"""Stage engine that grows an increasing approximation against a suite of
monotone adversaries, pacing every contribution by a designated source
stream.

Per requirement index i the engine keeps a counter c_i (bumped on L-side
expansionary stages), a counter d_i (bumped on R-side expansionary stages),
a scale q_i derived from the d_j of higher-priority indices, and a
contribution beta_i.  The total beta_s is the exact sum of contributions.

Stage s+1, entered with state through stage s:

  1. materialize the driving stream, the pacing source and every
     participating adversary at s+1;
  2. R-side classification: |alpha_{s+1} - B - delta_i(s+1)| < 2^-d_i,
     with B the entry sum of contributions (the pre-update total: the
     natural circularity of "beta at the stage being built" is resolved by
     always testing against the state as the stage begins); bump d_i on
     success;
  3. recompute the scales q_i from the updated d_j: q_0 = 1/2 and, for
     i > 0, q_i = min over j < i of 2^-(i + d_j + 1);
  4. L-side classification with threshold 2^-c_i against the same B; on
     success grow beta_i by q_i * (eta_{s+1} - eta_t), where t is the
     previous L-expansionary stage of i (0 if none), and bump c_i;
  5. admit index s+1 with zeroed parameters; beta has grown by each
     L-side increment.

Indices without an adversary stay inert: they have no entry in any
per-index table, where an absent index reads as 0.  Every parameter change
is logged as a TraceEvent, its old value chained to the last record of its
kind and requirement; a run is bit-exactly replayable from its trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .rationals import ONE, ZERO, Rational, format_rational as fmt, gap_below, pow2_neg
from .streams import ApproxStream, StageEngine, StreamError, SuiteOrFactory
from .trace import (OldValueChain, RecordRuns, TraceEvent, VerificationReport,
                    check_final_record, check_ratio_text, rational)


def _snapshot(stage: int, alpha: str, eta: str, beta: str, c: dict[int, int],
              d: dict[int, int], q: dict[int, str], beta_i: dict[int, str],
              last_exp: dict[int, int]) -> dict:
    """The final record; per-index tables are keyed by index as text."""
    record = {"engine": "lemma2", "stage": stage, "alpha": alpha, "eta": eta, "beta": beta}
    for name, table in (("c", c), ("d", d), ("q", q), ("beta_i", beta_i), ("last_exp", last_exp)):
        record[name] = {str(i): v for i, v in sorted(table.items())}
    return record


@dataclass
class ExpansionConfig:
    alpha: ApproxStream
    eta: ApproxStream
    suite: SuiteOrFactory
    stages: int


class ExpansionEngine(StageEngine):
    """One run of the construction; single-threaded, deterministic.  Its
    per-index tables are the final record's; an index absent from one reads
    as 0 there."""

    def __init__(self, config: ExpansionConfig):
        super().__init__(config)
        self.alpha = config.alpha
        self.eta = config.eta
        self.c: dict[int, int] = {}
        self.d: dict[int, int] = {}
        self.q: dict[int, Rational] = {}  # i -> the last logged q_i
        self.beta_i: dict[int, Rational] = {}
        self.last_exp: dict[int, int] = {}  # i -> last L-expansionary stage
        self.beta = ZERO

        a0 = self._guarded(self.alpha, 0, "alpha")
        self._log(0, "alpha", None, fmt(a0))
        self._log(0, "eta", None, fmt(self._guarded(self.eta, 0, "eta")))
        self._log(0, "beta", None, fmt(ZERO))
        self.diff_at.append(a0)

    def q_of(self, i: int) -> Rational:
        """q_i at the current stage: 1/2 for i = 0, else the least
        2^-(i + d_j + 1) over j < i."""
        if i == 0:
            return Rational(1, 2)
        max_d = max((dj for j, dj in self.d.items() if j < i), default=0)
        return pow2_neg(i + max_d + 1)

    # -- the stage function ----------------------------------------------

    def _stage(self, s1: int) -> Rational:
        a_new = self._guarded(self.alpha, s1, "alpha")
        e_new = self._guarded(self.eta, s1, "eta")
        self._log(s1, "alpha", None, fmt(a_new))
        self._log(s1, "eta", None, fmt(e_new))

        # alpha_{s+1} - B, with B the sum of contributions as the stage begins
        entry_gap = a_new - self.beta
        adversaries = self._read_suite(s1, first_side=1)

        for position, v in adversaries.items():
            i = position // 2
            if position % 2 and gap_below(entry_gap, v, self.d.get(i, 0)):
                self.d[i] = self.d.get(i, 0) + 1
                self._log(s1, "d", i, str(self.d[i]))

        for position in self.suite.positions:
            i = position // 2
            if i > s1:
                break
            if not position % 2 and self.q.get(i) != (q_now := self.q_of(i)):
                self.q[i] = q_now
                self._log(s1, "q", i, fmt(q_now))

        bumped = False
        for position, v in adversaries.items():
            i = position // 2
            if not position % 2 and gap_below(entry_gap, v, self.c.get(i, 0)):
                bumped = True
                increment = self.q[i] * (e_new - self.eta.value(self.last_exp.get(i, 0)))
                self.c[i] = self.c.get(i, 0) + 1
                self.beta_i[i] = self.beta_i.get(i, ZERO) + increment
                self.beta += increment
                self.last_exp[i] = s1
                self._log(s1, "c", i, str(self.c[i]))
                self._log(s1, "beta_i", i, fmt(self.beta_i[i]))

        if not bumped:  # beta, its text and alpha - beta stand as the stage began
            self._log(s1, "beta", None, self._last_text["beta", None])
            return entry_gap
        self._log(s1, "beta", None, fmt(self.beta))
        return a_new - self.beta

    # -- helpers -----------------------------------------------------------

    def _guarded(self, stream: ApproxStream, s: int, name: str) -> Rational:
        v = stream.value(s)
        if not 0 <= v.numerator < v.denominator:
            raise StreamError(f"{name} value {v} at stage {s} not in [0,1)")
        return v

    def snapshot(self) -> dict:
        return _snapshot(self.s, fmt(self.alpha.value(self.s)), fmt(self.eta.value(self.s)),
                         fmt(self.beta), self.c, self.d,
                         {i: fmt(q) for i, q in self.q.items()},
                         {i: fmt(v) for i, v in self.beta_i.items()}, self.last_exp)


def run_expansion(config: ExpansionConfig) -> ExpansionEngine:
    engine = ExpansionEngine(config)
    engine.run()
    return engine


class _Fold:
    """One forward pass over a lemma2 trace, the only place that reads its
    events: replay and the verifier both read what it records.  Values stay
    as their trace text; a check parses only what it compares."""

    def __init__(self, events: list[TraceEvent]):
        self.stage = 0
        self.alpha = self.eta = self.beta = "0/1"  # the latest records
        self.eta_at: dict[int, str] = {}  # stage -> eta, likewise beta
        self.beta_at: dict[int, str] = {}
        self.c: dict[int, int] = {}  # i -> latest logged counter, likewise d
        self.d: dict[int, int] = {}
        self.q: dict[int, str] = {}
        self.beta_i: dict[int, str] = {}
        self.c_bumps: dict[int, list[int]] = {}  # i -> stages of its c bumps
        self.d_bumps: dict[int, list[int]] = {}
        self.growth: dict[int, dict[int, tuple[str, str]]] = {}  # stage -> i -> beta_i (old, new)
        self.chain = OldValueChain()
        self.runs = RecordRuns(("alpha", "eta", "beta"))
        for ev in events:
            self.stage = max(self.stage, ev.stage)
            self.chain.read(ev)
            self.runs.read(ev)
            kind, i = ev.kind, ev.requirement
            if kind in ("gamma", "delta"):  # most records: one a stage per adversary
                check_ratio_text(ev.new)
            elif kind == "alpha":
                self.alpha = ev.new
            elif kind == "eta":
                self.eta = self.eta_at[ev.stage] = ev.new
            elif kind == "beta":
                self.beta = self.beta_at[ev.stage] = ev.new
            elif kind == "c":
                self.c[i] = int(ev.new)
                self.c_bumps.setdefault(i, []).append(ev.stage)
            elif kind == "d":
                self.d[i] = int(ev.new)
                self.d_bumps.setdefault(i, []).append(ev.stage)
            elif kind == "q":
                self.q[i] = ev.new
            elif kind == "beta_i":
                self.beta_i[i] = ev.new
                self.growth.setdefault(ev.stage, {})[i] = (ev.old, ev.new)
        self.runs.close(self.stage)

    def snapshot(self) -> dict:
        """The final record the trace folds to."""
        return _snapshot(self.stage, self.alpha, self.eta, self.beta, self.c, self.d, self.q,
                         self.beta_i, {i: stages[-1] for i, stages in self.c_bumps.items()})


def replay_expansion(events: list[TraceEvent]) -> dict:
    """Fold a trace back into a final-state snapshot (no generators re-run)."""
    return _Fold(events).snapshot()


def verify_expansion(events: list[TraceEvent], final: dict) -> VerificationReport:
    """Exact invariant checks over a completed run, from its trace alone.

    V0 the final record is the one the trace folds to; V1 total below one;
    V2 per-index contribution cap; V3 restraint bound on lower-priority
    growth; V4 pacing along expansionary stages; V5 stabilization
    statistics; V6 each value record's old value is the last new value of
    its kind and requirement; V7 one record a stage of alpha, eta and beta
    from stage 0, and of each adversary from its first stage.  The
    pacing comparison is >= (the construction yields equality whenever a
    single requirement carries the whole increment between consecutive
    expansionary stages).  Checks read the fold, not the final record.
    """
    report = VerificationReport()
    fold = _Fold(events)
    T = fold.stage
    check_final_record(report, "V0 final record is the folded trace's", fold.snapshot(), final)
    c_bumps, d_bumps = fold.c_bumps, fold.d_bumps
    parsed = cache(rational)  # a bump stage's beta and eta serve two pairs

    def d_at(j: int, t: int) -> int:
        return sum(1 for b in d_bumps.get(j, ()) if b <= t)

    def q_at(i: int, t: int) -> Rational:
        if i == 0:
            return Rational(1, 2)
        max_d = max((d_at(j, t) for j in d_bumps if j < i), default=0)
        return pow2_neg(i + max_d + 1)

    v1 = report.check("V1 total below one")
    beta_T = rational(fold.beta)
    if not beta_T < ONE:
        v1.fail(f"beta_T = {beta_T} >= 1")

    v2 = report.check("V2 contribution cap 2^-(i+1) * eta")
    if T not in fold.eta_at:
        v2.fail(f"no eta record at final stage {T}")
    else:
        eta_T = rational(fold.eta_at[T])
        for i, text in sorted(fold.beta_i.items()):
            contribution = rational(text)
            if not contribution <= pow2_neg(i + 1) * eta_T:
                v2.fail(f"beta_{i} = {contribution} > 2^-{i + 1} * eta_T")

    v3 = report.check("V3 restraint bound on lower-priority growth")
    relevant = sorted(set(d_bumps) | {j for incs in fold.growth.values() for j in incs})
    for stage, logged in sorted(fold.growth.items()):
        incs = {i: rational(new) - rational(old) for i, (old, new) in logged.items()}
        for j in relevant:
            total = sum((inc for i, inc in incs.items() if i > j), start=ZERO)
            if total > pow2_neg(d_at(j, stage)):
                v3.fail(
                    f"stage {stage}: growth below priority {j} is {total} "
                    f"> 2^-{d_at(j, stage)}"
                )

    v4 = report.check("V4 pacing along expansionary stages")
    for i, stages in sorted(c_bumps.items()):
        for t1, t2 in zip(stages, stages[1:]):
            gaps = [f"{kind} record at stage {t}"
                    for kind, table in (("beta", fold.beta_at), ("eta", fold.eta_at))
                    for t in (t1, t2) if t not in table]
            if gaps:
                v4.fail(f"req {i}, stages {t1}->{t2}: no {', '.join(gaps)}")
                continue
            lhs = parsed(fold.beta_at[t2]) - parsed(fold.beta_at[t1])
            rhs = q_at(i, t2) * (parsed(fold.eta_at[t2]) - parsed(fold.eta_at[t1]))
            if not lhs >= rhs:
                v4.fail(f"req {i}, stages {t1}->{t2}: {lhs} < {rhs}")

    report.check("V5 stabilization statistics")
    for i in sorted(set(c_bumps) | set(d_bumps)):
        report.stats[f"req {i} last c change"] = c_bumps.get(i, [None])[-1]
        report.stats[f"req {i} last d change"] = d_bumps.get(i, [None])[-1]

    for name, breaks in (("V6 old values chain", fold.chain.breaks),
                         ("V7 one record a stage of alpha, eta, beta and each adversary",
                          fold.runs.breaks)):
        check = report.check(name)
        for message in breaks:
            check.fail(message)
    report.stats["stages"] = T
    return report
