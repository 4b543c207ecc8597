"""Naive references for the tests: one per stage engine, each a plain
transcription of its engine module's docstring, and one for the toy machine
of `celab.omega`.

`lemma2` follows steps 1-5 of `celab.expansion`; `prop3` follows
`celab.injury` and scans every position 0..2s+1 with the attention
predicate.  Each reads a run config, the JSON object `celab.config` loads,
and returns the TraceEvent list its engine logs.  Every number is a
`Fraction` computed from its definition, and each record's old value is
chained here.  Suite entries may also be of the kind "slow" with an
"offset", the slow approach of `test_injury.slow_approach`.

The machine reference routes a bit string through the dispatch table,
decodes its tail in the self-delimiting format of `celab.omega`'s docstring
and runs it step by step until it halts, runs off the end or its budget
ends, with no pumping test.  It reads a machine only through `.dispatch`,
`sub.trivial` and `sub.opcodes`.  `halted_programs` expands the halted
classes an enumeration keeps into the programs they stand for.

Only `TraceEvent` comes from celab (`test_hygiene.py` holds it to that): an
oracle that called a shortcut of the library would check it against itself.
"""

from fractions import Fraction
from itertools import product

from celab.trace import TraceEvent


def text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def gap(x: Fraction, v: Fraction, k: int) -> bool:
    """|x - v| < 2^-k."""
    return abs(x - v) < Fraction(1, 2**k)


class Stream:
    """A stream spec's value at each stage, by its definition; a tracker
    reads `diff`, the list of alpha_s - beta_s of the completed stages."""

    def __init__(self, spec: dict, increasing: bool, diff: list[Fraction]):
        self.spec, self.increasing, self.diff = spec, increasing, diff
        self.values: list[Fraction] = []

    def value(self, s: int) -> Fraction:
        while len(self.values) <= s:
            self.values.append(self._at(len(self.values)))
        return self.values[s]

    def _at(self, s: int) -> Fraction:
        spec, sign = self.spec, 1 if self.increasing else -1
        if spec["kind"] == "constant_target":
            limit, power = Fraction(spec["limit"]), Fraction(spec["rate"]) ** (s + 1)
            return limit * (1 - power) if self.increasing else limit + (1 - limit) * power
        if spec["kind"] == "slow":  # creeps to offset -/+ 2^-40
            target = Fraction(spec["offset"]) + sign * Fraction(1, 2**40)
            return target - sign * Fraction(1, 2 ** min(s + 1, 39))
        # a tracker moves to alpha - beta at stage s - 1 - lag, holding where
        # that breaks its direction and going halfway to 1 (or 0) where it
        # leaves the unit interval
        if s == 0:
            return Fraction(spec["start"])
        prev, t = self.values[-1], s - 1 - spec.get("lag", 0)
        if t < 0:
            return prev
        raw = self.diff[t]
        if sign * (raw - prev) <= 0:
            return prev
        if self.increasing and raw >= 1:
            return (prev + 1) / 2
        if not self.increasing and raw <= 0:
            return prev / 2
        return raw


class Log(list):
    """TraceEvents; a chained kind's old value is the last new value of its
    kind and requirement, or the kind's initial old value."""

    def __init__(self, initial: dict):
        super().__init__()
        self.initial, self.last = initial, {}

    def __call__(self, stage: int, kind: str, req=None, new=None) -> None:
        old = None
        if kind in self.initial:
            old = self.last.get((kind, req), self.initial[kind])
            self.last[kind, req] = new
        self.append(TraceEvent(stage, kind, req, old, new))


def suite(config: dict, diff: list[Fraction]) -> dict[int, Stream]:
    """The adversaries by priority position, ascending: L_i at 2i, R_i at 2i+1."""
    streams = {2 * e["index"] + (e["role"] == "R"): Stream(e, e["role"] == "L", diff)
               for e in config["suite"]}
    return dict(sorted(streams.items()))


def read_suite(log: Log, streams: dict[int, Stream], s1: int, first: int) -> dict[int, Fraction]:
    """Log the value at stage s1 of each adversary with index below s1,
    side `first` (0 gamma, 1 delta) first, each side by ascending index."""
    values = {}
    for side in (first, 1 - first):
        for p, stream in streams.items():
            if p % 2 == side and p // 2 < s1:
                values[p] = v = stream.value(s1)
                log(s1, ("gamma", "delta")[side], p // 2, text(v))
    return values


def lemma2(config: dict) -> list[TraceEvent]:
    log = Log({"alpha": None, "eta": None, "beta": None, "q": None,
               "c": "0", "d": "0", "beta_i": "0/1"})
    diff: list[Fraction] = []
    alpha, eta = Stream(config["alpha"], True, diff), Stream(config["eta"], True, diff)
    streams = suite(config, diff)
    c, d, q, beta_i, last_exp = {}, {}, {}, {}, {}
    beta = Fraction(0)
    log(0, "alpha", None, text(alpha.value(0)))
    log(0, "eta", None, text(eta.value(0)))
    log(0, "beta", None, text(beta))
    diff.append(alpha.value(0))
    for s1 in range(1, config["stages"] + 1):
        # 1. the streams at s1
        a, e = alpha.value(s1), eta.value(s1)
        log(s1, "alpha", None, text(a))
        log(s1, "eta", None, text(e))
        values = read_suite(log, streams, s1, first=1)
        entry = beta  # B, the total as the stage begins
        # 2. R side
        for p, v in values.items():
            i = p // 2
            if p % 2 and gap(a - entry, v, d.get(i, 0)):
                d[i] = d.get(i, 0) + 1
                log(s1, "d", i, str(d[i]))
        # 3. q_i for every L-backed index admitted, s1 included (step 5)
        for p in streams:
            i = p // 2
            if p % 2 == 0 and i <= s1:
                q_i = min((Fraction(1, 2 ** (i + d.get(j, 0) + 1)) for j in range(i)),
                          default=Fraction(1, 2))
                if q.get(i) != q_i:
                    q[i] = q_i
                    log(s1, "q", i, text(q_i))
        # 4. L side
        for p, v in values.items():
            i = p // 2
            if p % 2 == 0 and gap(a - entry, v, c.get(i, 0)):
                increment = q[i] * (e - eta.value(last_exp.get(i, 0)))
                c[i] = c.get(i, 0) + 1
                beta_i[i] = beta_i.get(i, Fraction(0)) + increment
                beta += increment
                last_exp[i] = s1
                log(s1, "c", i, str(c[i]))
                log(s1, "beta_i", i, text(beta_i[i]))
        log(s1, "beta", None, text(beta))
        diff.append(a - beta)
    return log


def requires_attention(param, v, diff: Fraction) -> bool:
    """`celab.injury`'s attention predicate: the bit parameter is undefined
    (None), or the adversary value v (None with no adversary) is within
    2^-(param+3) of the running difference."""
    if param is None:
        return True
    return v is not None and gap(diff, v, param + 3)


def pair(k: int, n: int) -> int:
    return (k + n) * (k + n + 1) // 2 + n


def prop3(config: dict) -> list[TraceEvent]:
    log = Log({"alpha": None, "beta": None})
    alpha = beta = Fraction(0)
    diff = [alpha - beta]
    streams = suite(config, diff)
    params: dict[int, int] = {}
    used: set[int] = set()
    log(0, "alpha", None, text(alpha))
    log(0, "beta", None, text(beta))
    for s1 in range(1, config["stages"] + 1):
        values = read_suite(log, streams, s1, first=0)
        p = next(p for p in range(2 * s1)
                 if requires_attention(params.get(p), values.get(p), diff[s1 - 1]))
        if p not in params:  # define: the least of column p above every used value
            n = 0
            while pair(p, n) <= max(used, default=-1):
                n += 1
            params[p] = pair(p, n)
            used.add(params[p])
            log(s1, "define", p, str(params[p]))
        else:  # act: enumerate the bit, restrain, initialize lower priorities
            bit = params[p]
            log(s1, "act", p, str(bit))
            if p % 2:
                alpha += Fraction(1, 2 ** (bit + 1))
                log(s1, "enumerate_A", p, str(bit))
            else:
                beta += Fraction(1, 2 ** (bit + 1))
                log(s1, "enumerate_B", p, str(bit))
            used.add(bit + 3)
            log(s1, "restraint", p, str(bit + 3))
            below = sorted(r for r in params if r > p)
            for r in [r for r in below if r % 2 == 0] + [r for r in below if r % 2]:
                del params[r]
                log(s1, "initialize", r)
        log(s1, "alpha", None, text(alpha))
        log(s1, "beta", None, text(beta))
        diff.append(alpha - beta)
    return log


def route_and_decode(machine, program: str):
    """(sub, opcode list) for a dispatch code followed by a tail its sub
    decodes, else None.  A trivial sub decodes only the empty tail, a
    counter sub k ones, a zero and then exactly 3k body bits, each 3 bits
    one opcode, big-endian."""
    routed = [(sub, program[len(code):]) for code, sub in machine.dispatch
              if program.startswith(code)]
    if not routed:
        return None
    [(sub, tail)] = routed
    if sub.trivial:
        return (sub, []) if tail == "" else None
    k = len(tail) - len(tail.lstrip("1"))
    body = tail[k + 1:]
    if k == len(tail) or len(body) != 3 * k:
        return None
    return sub, [int(body[n:n + 3], 2) for n in range(0, 3 * k, 3)]


def unpruned_run(opcodes, body, budget):
    """The halting time of a counter program within `budget` steps, or None:
    a plain interpreter over the opcode names that stops only when the
    program halts, runs off the end or the budget ends."""
    pc, regs = 0, [0, 0, 0]
    for t in range(1, budget + 1):
        if pc >= len(body):
            return None
        op = opcodes[body[pc]]
        if op == "halt":
            return t
        if op == "jmp":
            pc = 0
        elif op.startswith("inc"):
            regs[int(op[3])] += 1
            pc += 1
        elif op.startswith("djz") and regs[int(op[3])] == 0:
            pc += 2
        else:
            if op.startswith("djz"):
                regs[int(op[3])] -= 1
            pc += 1
    return None


def counter_tail(body):
    return "1" * len(body) + "0" + "".join(format(n, "03b") for n in body)


def halted_programs(classes):
    """program -> halting time for halted classes (head, body, stage): each
    class stands for head followed by every opcode of its body in 3 bits,
    big-endian, a None opcode taking every value 0..7."""
    halts = {}
    for head, body, stage in classes:
        for ops in product(*[range(8) if op is None else (op,) for op in body]):
            halts[head + "".join(format(op, "03b") for op in ops)] = stage
    return halts


def unpruned_halts(machine, max_length, budget):
    """program -> halting time for every program of length <= L that halts
    within `budget` steps, each run by `unpruned_run`."""
    halts = {}
    for code, sub in machine.dispatch:
        if sub.trivial:
            if len(code) <= max_length:
                halts[code] = 1
            continue
        for k in range((max_length - len(code) - 1) // 4 + 1):
            for body in product(range(8), repeat=k):
                t = unpruned_run(sub.opcodes, body, budget)
                if t is not None:
                    halts[code + counter_tail(body)] = t
    return halts
