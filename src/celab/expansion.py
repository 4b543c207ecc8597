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
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

from .rationals import (ONE, ZERO, Rational, dyadic_sign, format_rational as fmt, gap_below,
                        pow2_neg)
from .streams import ApproxStream, StageEngine, StreamError, SuiteOrFactory
from .trace import (RecordRules, TraceEvent, VerificationReport, check_final_record, rational,
                    stages)


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
    as 0 there.  Stage s1 reads alpha, eta and each adversary at s1 and eta
    at each index's last L-expansionary stage, which the engine keeps per
    index: each stream's values before s1 are released as it is read."""

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
        self._eta_0 = self._guarded(self.eta, 0, "eta")
        self._eta_at_exp: dict[int, Rational] = {}  # i -> eta at last_exp[i]; absent: eta_0
        self._log(0, "alpha", None, fmt(a0))
        self._log(0, "eta", None, fmt(self._eta_0))
        self._log(0, "beta", None, fmt(ZERO))
        self.diff_at.append(a0)

    # -- the stage function ----------------------------------------------

    def _stage(self, s1: int) -> Rational:
        a_new = self._guarded(self.alpha, s1, "alpha")
        e_new = self._guarded(self.eta, s1, "eta")
        self._log(s1, "alpha", None, self.alpha.text(a_new))
        self._log(s1, "eta", None, self.eta.text(e_new))

        # alpha_{s+1} - B, with B the sum of contributions as the stage begins
        entry_gap = a_new - self.beta
        adversaries = self._read_suite(s1, first_side=1)

        for position, v in adversaries.items():
            i = position // 2
            if position % 2 and gap_below(entry_gap, v, self.d.get(i, 0)):
                self.d[i] = self.d.get(i, 0) + 1
                self._log(s1, "d", i, str(self.d[i]))

        # q_i = 2^-(i + top + 1), top the largest d_j over j < i (0 if none):
        # one pass in priority order, where each R_j comes before L_i, j < i;
        # q_i is 1/2^e exactly, so its denominator has e + 1 bits
        top = 0
        for position in self.suite.positions:
            i = position // 2
            if i > s1:
                break
            if position % 2:
                if (d := self.d.get(i, 0)) > top:
                    top = d
                continue
            e = i + top + 1
            q = self.q.get(i)
            if q is None or q.denominator.bit_length() != e + 1:
                self.q[i] = q = pow2_neg(e)
                self._log(s1, "q", i, fmt(q))

        bumped = False
        for position, v in adversaries.items():
            i = position // 2
            if not position % 2 and gap_below(entry_gap, v, self.c.get(i, 0)):
                bumped = True
                increment = self.q[i] * (e_new - self._eta_at_exp.get(i, self._eta_0))
                self.c[i] = self.c.get(i, 0) + 1
                self.beta_i[i] = self.beta_i.get(i, ZERO) + increment
                self.beta += increment
                self.last_exp[i] = s1
                self._eta_at_exp[i] = e_new
                self._log(s1, "c", i, str(self.c[i]))
                self._log(s1, "beta_i", i, fmt(self.beta_i[i]))

        if not bumped:  # beta, its text and alpha - beta stand as the stage began
            self._log(s1, "beta", None, self._last_text["beta", None])
            return entry_gap
        self._log(s1, "beta", None, fmt(self.beta))
        return a_new - self.beta

    # -- helpers -----------------------------------------------------------

    def _guarded(self, stream: ApproxStream, s: int, name: str) -> Rational:
        """Stage s of alpha or eta, its earlier values released."""
        v = stream.value(s)
        stream.release(s)
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


class _StageEnd(NamedTuple):
    """The beta and eta records a stage ends with, None where it has none."""
    stage: int
    beta: Optional[str]
    eta: Optional[str]


def _is_sum(x: Rational, y: Rational, z: Rational) -> bool:
    """Whether x = y + z, on integers and with no gcd: one product each when
    y's and z's denominators divide x's, as they do along a run."""
    xd, yd, zd = x.denominator, y.denominator, z.denominator
    ky, ry = divmod(xd, yd)
    kz, rz = divmod(xd, zd)
    if not ry and not rz:
        return x.numerator == y.numerator * ky + z.numerator * kz
    return x.numerator * yd * zd == (y.numerator * zd + z.numerator * yd) * xd


def _dyadic_exponent(v: Rational) -> Optional[int]:
    """e where v is 1/2^e, else None; no 2^e is built."""
    d = v.denominator
    return d.bit_length() - 1 if v.numerator == 1 and not d & (d - 1) else None


_PARSED = 64  # the p/q texts a lemma2 verify keeps parsed, the last read


class _StageChecks:
    """V3, V4 and V8, run as each stage of a lemma2 trace closes.  Keeps,
    per requirement, its d records so far, the stage end of its last c
    record and the exponent of its last q record, and the failures in the
    order they are found: V3 and V8 as a stage closes, V4 at the later c
    record.  Requirements first seen after a stage can still fail V3
    there, with bound 2^-0: a stage whose positive growth exceeds 1 is kept
    until the end of the trace for them.  Every p/q read goes through
    `parse`, one memo of the last `_PARSED` texts: on the goldens, the
    lemma2 battery and the cap trace, V3's read of a beta_i record's old
    value and V4's of an earlier stage end always hit it."""

    def __init__(self):
        self._parsed = lru_cache(maxsize=_PARSED)(rational)
        self.d_count: dict[int, int] = {}  # j -> d records so far
        self.known: set[int] = set()  # requirements with a d or beta_i record so far
        self.relevant: list[int] = []  # sorted(known)
        self.bump: dict[int, _StageEnd] = {}  # i -> the stage end of its last c record
        self.deferred: list[tuple[int, dict[int, Rational], frozenset[int]]] = []
        # V8: the last beta record, and the growth of beta_i records since it
        self.beta = "0/1"
        self.growth: Optional[Rational] = None
        self.q_exp: dict[int, Optional[int]] = {}  # i -> e if its last q record is 2^-e
        self.v3: list[str] = []
        self.v4: list[str] = []
        self.v8: list[str] = []

    def parse(self, text) -> Rational:
        """The value p/q text holds; TraceFormatError for any other value."""
        return self._parsed(text) if isinstance(text, str) else rational(text)

    def close(self, stage: int, beta: Optional[str], eta: Optional[str], c_bumped: list[int],
              d_bumped: list[int], growth: dict[int, tuple[str, str]],
              q: dict[int, str]) -> None:
        """Stage `stage` has been read: the beta and eta it ends with, its c
        and d records' requirements, its beta_i records and its last q
        records."""
        for j in d_bumped:
            self.d_count[j] = self.d_count.get(j, 0) + 1
        if not self.known.issuperset(d_bumped) or not self.known.issuperset(growth):
            self.known.update(d_bumped, growth)
            self.relevant = sorted(self.known)
        end = _StageEnd(stage, beta, eta)
        if growth:
            incs = {i: self.parse(new) - self.parse(old) for i, (old, new) in growth.items()}
            for j in self.relevant:
                self._restrain(stage, j, incs, self.d_count.get(j, 0))
            if sum(inc for inc in incs.values() if inc > 0) > ONE:
                self.deferred.append((stage, incs, frozenset(self.known)))
            total = sum(incs.values(), ZERO)
            self.growth = total if self.growth is None else self.growth + total
        if beta is not None:  # a stage without one fails V7
            self._total(stage, beta)
        if q or d_bumped:
            self._scales(stage, q, min(d_bumped, default=None))
        for i in c_bumped:
            if i in self.bump:
                self._pace(i, self.bump[i], end)
            self.bump[i] = end

    def _top(self, i: int) -> int:
        """The largest d_j over j < i, 0 if none: q_i = 2^-(i + top + 1)."""
        return max((d for j, d in self.d_count.items() if j < i), default=0)

    def _total(self, stage: int, beta: str) -> None:
        """V8: beta is the last beta record plus the growth of the beta_i
        records since, and keeps its text where they have none."""
        last = self.beta
        if self.growth is None:
            if beta != last:
                self.v8.append(f"stage {stage}: beta {beta} with no growth since {last}")
                self.beta = beta
        else:
            if not _is_sum(self.parse(beta), self.parse(last), self.growth):
                self.v8.append(f"stage {stage}: beta {beta} is not {last} "
                               f"plus the growth {self.growth}")
            self.beta, self.growth = beta, None

    def _scales(self, stage: int, q: dict[int, str], low: Optional[int]) -> None:
        """V8: each q_i is 2^-(i + top + 1), checked where its q record or a
        d_j, j < i, changed."""
        for i, text in q.items():
            self.q_exp[i] = _dyadic_exponent(self.parse(text))
        for i, e in self.q_exp.items():
            if i in q or low is not None and low < i:
                if e != (want := i + self._top(i) + 1):
                    self.v8.append(f"stage {stage}: q req {i} is not 2^-{want}")

    def _restrain(self, stage: int, j: int, incs: dict[int, Rational], d_j: int) -> None:
        total = sum((inc for i, inc in incs.items() if i > j), start=ZERO)
        if total > pow2_neg(d_j):
            self.v3.append(f"stage {stage}: growth below priority {j} is {total} > 2^-{d_j}")

    def _pace(self, i: int, first: _StageEnd, second: _StageEnd) -> None:
        t1, t2 = first.stage, second.stage
        gaps = [f"{kind} record at stage {end.stage}"
                for kind in ("beta", "eta") for end in (first, second)
                if getattr(end, kind) is None]
        if gaps:
            self.v4.append(f"req {i}, stages {t1}->{t2}: no {', '.join(gaps)}")
            return
        n = i + self._top(i) + 1  # q_i = 2^-n
        lhs = self.parse(second.beta) - self.parse(first.beta)
        growth = self.parse(second.eta) - self.parse(first.eta)
        if dyadic_sign(lhs, growth, n) < 0:
            # in full up to 2^-65536, past every q_i of a run at the stage cap
            rhs = growth * pow2_neg(n) if n <= 1 << 16 else f"2^-{n} * {growth}"
            self.v4.append(f"req {i}, stages {t1}->{t2}: {lhs} < {rhs}")

    def finish(self) -> None:
        """V3 at each kept stage for the requirements first seen after it."""
        for stage, incs, known in self.deferred:
            for j in self.relevant:
                if j not in known:
                    self._restrain(stage, j, incs, 0)


class _Fold:
    """One forward pass over a lemma2 trace, the only place that reads its
    events: replay and the verifier both read what it records.  Values stay
    as their trace text; a check parses only what it compares.  Reads the
    trace a stage at a time through `stages`; given `checks`, it also has
    each record read into its `RecordRules` and hands each stage to
    `checks`.  Either way it keeps O(requirements) state, never a stage's
    records once the stage has closed."""

    def __init__(self, events: Iterable[TraceEvent], checks: Optional[_StageChecks] = None):
        self.alpha = self.eta = self.beta = "0/1"  # the latest records
        self.eta_stage: Optional[int] = None  # the stage of the latest eta record
        self.c: dict[int, int] = {}  # i -> latest logged counter, likewise d
        self.d: dict[int, int] = {}
        self.q: dict[int, str] = {}
        self.beta_i: dict[int, str] = {}
        self.last_c: dict[int, int] = {}  # i -> stage of its latest c record, likewise d
        self.last_d: dict[int, int] = {}
        self.rules = RecordRules(("alpha", "eta", "beta"))
        for stage, records in stages(events, None if checks is None else self.rules):
            # the stage's last eta and beta, its c and d records, its beta_i
            # records (i -> (old, new)) and its last q records; an earlier
            # stage's record in it fails V7
            eta = beta = None
            c_bumped: list[int] = []
            d_bumped: list[int] = []
            growth: dict[int, tuple[str, str]] = {}
            q: dict[int, str] = {}
            for ev in records:
                kind, i = ev.kind, ev.requirement
                if kind in ("gamma", "delta"):  # most records: one a stage per adversary
                    continue  # no check reads them
                if kind == "alpha":
                    self.alpha = ev.new
                elif kind == "eta":
                    self.eta = eta = ev.new
                    self.eta_stage = ev.stage
                elif kind == "beta":
                    self.beta = beta = ev.new
                elif kind == "c":
                    self.c[i] = int(ev.new)
                    self.last_c[i] = ev.stage
                    c_bumped.append(i)
                elif kind == "d":
                    self.d[i] = int(ev.new)
                    self.last_d[i] = ev.stage
                    d_bumped.append(i)
                elif kind == "q":
                    self.q[i] = q[i] = ev.new
                elif kind == "beta_i":
                    self.beta_i[i] = ev.new
                    growth[i] = (ev.old, ev.new)
            if checks is not None:
                checks.close(stage, beta, eta, c_bumped, d_bumped, growth, q)
        self.stage = stage  # the last
        if checks is not None:
            checks.finish()

    def snapshot(self) -> dict:
        """The final record the trace folds to."""
        return _snapshot(self.stage, self.alpha, self.eta, self.beta, self.c, self.d, self.q,
                         self.beta_i, self.last_c)


def replay_expansion(events: Iterable[TraceEvent]) -> dict:
    """Fold a trace back into a final-state snapshot (no generators re-run)."""
    return _Fold(events).snapshot()


def verify_expansion(events: Iterable[TraceEvent], final: dict) -> VerificationReport:
    """Exact invariant checks over a completed run, from its trace alone.

    V0 the final record is the one the trace folds to; V1 total below one;
    V2 per-index contribution cap; V3 restraint bound on lower-priority
    growth; V4 pacing along expansionary stages; V5 stabilization
    statistics; V6 each value record's old value is the last new value of
    its kind and requirement; V7 records in stage order, and one record a
    stage of alpha, eta and beta from stage 0, and of each adversary from
    its first stage; V8 each beta record is the last one plus the growth
    of the beta_i records since, and each q_i record is 2^-(i + top + 1),
    top the largest d_j over j < i counted from the d records.  The pacing
    comparison is >= (the construction yields
    equality whenever a single requirement carries the whole increment
    between consecutive expansionary stages).  Checks read the fold, not
    the final record.  One pass over `events`, in O(requirements) memory:
    V3, V4 and V8 run as each stage closes, and every check lists its
    failures in the order the pass finds them.
    """
    report = VerificationReport()
    checks = _StageChecks()
    fold = _Fold(events, checks)
    T = fold.stage
    check_final_record(report, "V0 final record is the folded trace's", fold.snapshot(), final)

    beta_T = checks.parse(fold.beta)
    report.check("V1 total below one", [] if beta_T < ONE else [f"beta_T = {beta_T} >= 1"])

    if fold.eta_stage != T:
        v2 = [f"no eta record at final stage {T}"]
    else:
        eta_T = checks.parse(fold.eta)
        v2 = [f"beta_{i} = {b} > 2^-{i + 1} * eta_T" for i, text in sorted(fold.beta_i.items())
              if dyadic_sign(b := checks.parse(text), eta_T, i + 1) > 0]
    report.check("V2 contribution cap 2^-(i+1) * eta", v2)

    report.check("V3 restraint bound on lower-priority growth", checks.v3)
    report.check("V4 pacing along expansionary stages", checks.v4)

    report.check("V5 stabilization statistics")
    for i in sorted(set(fold.last_c) | set(fold.last_d)):
        report.stats[f"req {i} last c change"] = fold.last_c.get(i)
        report.stats[f"req {i} last d change"] = fold.last_d.get(i)

    report.check("V6 old values chain", fold.rules.chain_breaks)
    report.check("V7 one record a stage of alpha, eta, beta and each adversary",
                 fold.rules.run_breaks)
    report.check("V8 beta and q_i equal their definitions", checks.v8)
    report.stats["stages"] = T
    return report
