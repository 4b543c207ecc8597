"""A toy prefix-free bit machine and the dovetailed enumeration of its
halting probability.

The top-level machine dispatches "by adjunction": a finite prefix-free set of
codes sigma_e routes the program tail to sub-interpreter e, so running
sigma_e + tau on the top machine is the same computation as running tau on
sub-machine e.  Programs run only inside `OmegaEnumeration`, which steps
behaviour classes of programs, not programs: a class is the programs of one
head (dispatch code, and for a counter sub its unary count) that agree on
the opcodes their runs have read so far, and it splits in 8 only when its
run reads an opcode it has not fixed.

A counter sub-machine reads its tail as a self-delimiting program: a unary
instruction count (k ones, then a zero) followed by exactly 3k body bits,
one 3-bit opcode per instruction, over three registers.  Self-delimitation
makes each sub-domain prefix-free by construction, hence the whole halting
domain too, and the Kraft sum of discovered halts stays below 1.

Nothing here is universal or random; the enumeration is a structurally
Omega-like increasing stream with exact dyadic values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .rationals import Rational, ZERO, ONE
from .streams import ApproxStream, Direction, StreamError

# Micro-op vocabulary for counter sub-machines, each name with its decoded
# (kind, register) pair.  djzK decrements register K if positive, otherwise
# skips the next instruction; jmp resets the program counter to 0.  Running
# off the end of the body never halts.
MICRO_OPS = {"halt": ("halt", 0), "inc0": ("inc", 0), "inc1": ("inc", 1), "inc2": ("inc", 2),
             "djz0": ("djz", 0), "djz1": ("djz", 1), "djz2": ("djz", 2),
             "jmp": ("jmp", 0), "nop": ("nop", 0)}

# What `ExecState.step` returns: the program halted, it may still halt, or
# it provably never halts.
HALTED = "halt"
RUNNING = "running"
INVALID = "invalid"


@dataclass(frozen=True)
class SubMachine:
    """One routed interpreter: either the trivial machine (domain = the empty
    tail, run as the one-instruction program `halt`) or a counter machine
    with its own 8-entry opcode table, decoded once into `ops`."""

    name: str
    opcodes: tuple[str, ...] = ()
    trivial: bool = False
    ops: tuple[tuple[str, int], ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.trivial:
            if self.opcodes:
                raise ValueError(f"sub {self.name}: trivial machines take no opcode table")
            object.__setattr__(self, "ops", (MICRO_OPS["halt"],))
            return
        if len(self.opcodes) != 8:
            raise ValueError(f"sub {self.name}: opcode table must have 8 entries")
        for op in self.opcodes:
            if op not in MICRO_OPS:
                raise ValueError(f"sub {self.name}: unknown micro-op {op!r}")
        object.__setattr__(self, "ops", tuple(MICRO_OPS[op] for op in self.opcodes))


class ExecState:
    """Mutable execution state of one counter program, or of a behaviour
    class of them: the programs that agree on every opcode not None.

    Besides pc and registers it keeps what the pumping test of `step`
    compares: `jump_regs`, the registers at the last jump to pc 0 (the
    start counts as one), and `zero_tested`, the bitmask of registers a
    djz has found zero since then."""

    __slots__ = ("program", "pc", "regs", "jump_regs", "zero_tested")

    def __init__(self, program: list[Optional[int]]):
        self.program = program
        self.pc = 0
        self.regs = [0, 0, 0]
        self.jump_regs = (0, 0, 0)
        self.zero_tested = 0

    def split(self) -> list[ExecState]:
        """The 8 states that read opcode 0..7 at pc, where this program's
        opcode is None, each with its own program and registers."""
        children = []
        for op in range(8):
            child = ExecState(self.program.copy())
            child.program[self.pc] = op
            child.pc, child.regs = self.pc, self.regs.copy()
            child.jump_regs, child.zero_tested = self.jump_regs, self.zero_tested
            children.append(child)
        return children

    def step(self, ops: tuple[tuple[str, int], ...]) -> str:
        """One step under a decoded opcode table; INVALID once the program
        provably never halts.

        That is the case when it has run off the end, or when it pumps: at
        a jmp, every register is >= its value at the last jump to pc 0 and
        every register a djz found zero since then is equal to it.  From
        the new state the segment since that jump repeats with every
        register shifted up by some delta >= 0, delta = 0 on each
        zero-tested register, so each djz takes the same branch again; the
        segment held no halt, so by induction the program never halts."""
        if self.pc >= len(self.program):
            return INVALID
        kind, k = ops[self.program[self.pc]]
        if kind == "halt":
            return HALTED
        if kind == "nop":
            self.pc += 1
        elif kind == "jmp":
            r0, r1, r2 = self.regs
            q0, q1, q2 = self.jump_regs
            zero = self.zero_tested
            if (r0 >= q0 and r1 >= q1 and r2 >= q2 and not (
                    zero & 1 and r0 != q0 or zero & 2 and r1 != q1 or zero & 4 and r2 != q2)):
                return INVALID
            self.jump_regs = (r0, r1, r2)
            self.zero_tested = 0
            self.pc = 0
        elif kind == "inc":
            self.regs[k] += 1
            self.pc += 1
        else:  # djz
            if self.regs[k] > 0:
                self.regs[k] -= 1
                self.pc += 1
            else:
                self.zero_tested |= 1 << k
                self.pc += 2
        return RUNNING


@dataclass(frozen=True)
class ToyMachine:
    """Dispatch table from prefix codes to sub-machines."""

    dispatch: tuple[tuple[str, SubMachine], ...]

    def __post_init__(self):
        codes = [code for code, _ in self.dispatch]
        for code in codes:
            if not code or any(b not in "01" for b in code):
                raise ValueError(f"bad dispatch code {code!r}")
        # each pair once, by position, so a repeated code is refused too
        for n, a in enumerate(codes):
            for b in codes[n + 1:]:
                if a.startswith(b) or b.startswith(a):
                    raise ValueError(f"dispatch codes not prefix-free: {a!r} vs {b!r}")


class HaltedClasses(list):
    """The halted classes (head, body, stage) in the order they halted.
    Its length counts their programs: a class with n opcodes unset stands
    for 8^n."""

    def __len__(self) -> int:
        return sum(1 << 3 * body.count(None) for _, body, _ in self)


# The most decodable programs an enumeration's classes may stand for; a
# counter sub alone has 8^k programs for each k with len(code) + 4k + 1 <= L.
MAX_POOL = 1 << 20


class MachineDefinitionError(StreamError):
    """The machine's Kraft sum over its enumerated halts reaches 1, as it
    does when trivial codes cover every bit string: a fault of the omega
    stream it drives."""


class OmegaEnumeration:
    """Dovetailed halting enumeration over all programs of length <= L.

    Stage s runs every program for bound(s) = s steps; omega(s) is the exact
    Kraft sum over halts discovered so far.  Simulation is incremental and
    by behaviour class.  A counter program's run depends only on the
    opcodes at the pcs it visits, so the programs of one head that agree on
    those opcodes run as one: a class is an `ExecState` whose program holds
    None at each opcode not read yet.  One class is seeded per trivial code
    and per counter (sub, k), with every opcode None, and a class splits
    into 8, one per opcode value, only when its pc reaches a None, before
    that stage's step.

    A class leaves the pool when it halts or provably never halts: it runs
    off the end, or it pumps (`ExecState.step`: at a jmp no register is
    below its value at the last jump to pc 0, and every register a djz
    found zero since then is unchanged).  A halting class of n programs of
    length m adds n * 2^(L - m) to the Kraft sum, kept as a running
    integer numerator over 2^L, and joins `halted`.  Its head is one of
    the seeds, so the halts are prefix-free because the dispatch codes
    (`ToyMachine`) and the unary counts are.  A stage costs O(live
    classes) plus O(1) per halting class, and once the pool is empty
    omega is final and a stage costs O(1).  `MAX_POOL` still bounds the
    programs the classes stand for, counted in O(dispatch entries).
    """

    def __init__(self, machine: ToyMachine, max_length: int):
        if max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {max_length}")
        self.machine = machine
        self.max_length = max_length
        self.halted = HaltedClasses()
        self._kraft = 0  # omega = _kraft / 2**max_length
        self._omega_by_stage: list[Rational] = [ZERO]  # omega(0) = 0
        self._seed_pool()

    def _seed_pool(self) -> None:
        """Seed one class per trivial code of length <= L, its code run as
        the program [0] under its table (halt,), and one per counter sub
        and k with a program code + 1^k 0 + 3k body bits of length <= L.
        The programs are counted first, in O(dispatch entries), and refused
        above MAX_POOL.  The pool is sorted by (length, head), so its
        classes expanded in order list the programs as a scan over all bit
        strings of length 1..L finds them."""
        L = self.max_length
        trivial = [(code, sub) for code, sub in self.machine.dispatch
                   if sub.trivial and len(code) <= L]
        # k = 0..top for a counter sub: (8^(top+1) - 1)/7 programs, counted
        # while 8^top has at most 64 bits more than MAX_POOL
        tops = [(code, sub, (L - len(code) - 1) // 4) for code, sub in self.machine.dispatch
                if not sub.trivial and len(code) < L]
        top = max((k for *_, k in tops), default=0)
        if 3 * top > MAX_POOL.bit_length() + 64:
            raise ValueError(f"max_length {L} gives at least 8^{top} programs, "
                             f"more than {MAX_POOL}")
        pool = len(trivial) + sum((8 ** (k + 1) - 1) // 7 for *_, k in tops)
        if pool > MAX_POOL:
            raise ValueError(f"max_length {L} gives {pool} programs, more than {MAX_POOL}")
        seeds = [(len(code), code, sub, [0]) for code, sub in trivial]
        seeds += [(len(code) + 4 * k + 1, code + "1" * k + "0", sub, [None] * k)
                  for code, sub, top in tops for k in range(top + 1)]
        seeds.sort(key=lambda seed: seed[:2])
        self._live = [(head, sub, ExecState(body)) for _, head, sub, body in seeds]

    def advance_to(self, s: int) -> None:
        while len(self._omega_by_stage) <= s and self._live:
            self._advance_one()

    def _advance_one(self) -> None:
        kraft = self._kraft
        survivors = []
        for head, sub, state in self._live:
            states = (state.split() if state.pc < len(state.program)
                      and state.program[state.pc] is None else (state,))
            for state in states:
                status = state.step(sub.ops)
                if status == HALTED:
                    self._record_halt(head, [] if sub.trivial else state.program)
                elif status == RUNNING:
                    survivors.append((head, sub, state))
        self._live = survivors
        if self._kraft == kraft:  # no halt at this stage
            self._omega_by_stage.append(self._omega_by_stage[-1])
            return
        omega = Rational(self._kraft, 1 << self.max_length)
        if omega >= ONE:
            raise MachineDefinitionError(f"Kraft sum reached {omega}")
        self._omega_by_stage.append(omega)

    def _record_halt(self, head: str, body: list[Optional[int]]) -> None:
        """Record the halt of the class head + body at this stage: its
        8^unset programs, each of length len(head) + 3 len(body), add
        8^unset * 2^(L - length) to the Kraft numerator."""
        self.halted.append((head, body, len(self._omega_by_stage)))
        self._kraft += 1 << (3 * body.count(None) + self.max_length - len(head) - 3 * len(body))

    def omega(self, s: int) -> Rational:
        """omega(s); past the stage where the pool emptied, the last value
        itself."""
        if s < 0:
            raise ValueError(f"negative stage {s}")
        self.advance_to(s)
        return self._omega_by_stage[min(s, len(self._omega_by_stage) - 1)]


def omega_stream(
    machine: ToyMachine,
    max_length: int,
    offset: Rational = ZERO,
    scale: Rational = ONE,
    label: str = "",
) -> ApproxStream:
    """Affine image offset + scale * omega_s as a monotone stream.

    Positive scale gives an increasing stream, negative a decreasing one.
    The stream is unit-interval flagged only when the affine image of [0,1)
    provably stays inside (0,1): the image of omega_0 = 0, `offset`, is
    reached and must lie strictly inside, while offset + scale, the image
    of 1, is never reached and may be an end point.
    """
    if scale == ZERO:
        raise ValueError("scale must be nonzero")
    enum = OmegaEnumeration(machine, max_length)
    direction = Direction.INCREASING if scale > ZERO else Direction.DECREASING
    in_unit = ZERO < offset < ONE and ZERO <= offset + scale <= ONE

    def gen(s: int, prefix) -> Rational:
        w = enum.omega(s)
        if s and w is enum.omega(s - 1):  # no halt at stage s: the image holds too
            return prefix[-1]
        return offset + scale * w

    return ApproxStream(direction, gen, unit_interval=in_unit,
                        label=label or f"omega(L={max_length})")


TRANSLATE_HORIZON = 64


def translate_omega(omega: ApproxStream, x: ApproxStream, label: str = "") -> ApproxStream:
    """Pointwise sum of two increasing streams, the toy analogue of a
    translated halting probability; rejected if the sum reaches 1 at stage
    TRANSLATE_HORIZON."""
    for s, name in ((omega, "omega"), (x, "x")):
        if s.direction is not Direction.INCREASING:
            raise ValueError(f"{name} must be increasing")
    total = omega.value(TRANSLATE_HORIZON) + x.value(TRANSLATE_HORIZON)
    if total >= ONE:
        raise ValueError(f"horizon sum {total} >= 1")
    return ApproxStream(
        Direction.INCREASING,
        lambda s, _p: omega.value(s) + x.value(s),
        unit_interval=False,
        label=label or f"translate({omega.label},{x.label})",
    )


def parse_machine(text: str) -> ToyMachine:
    """Parse the small line-based machine format::

        # comment
        sub counter halt inc0 inc1 inc2 djz0 djz1 jmp nop
        sub unit trivial
        dispatch 0 counter
        dispatch 10 unit

    Each counter sub names the micro-ops bound to opcodes 0..7.
    """
    subs: dict[str, SubMachine] = {}
    dispatch: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "sub":
            if len(fields) < 3:
                raise ValueError(f"line {lineno}: sub needs a name and a body")
            name = fields[1]
            if name in subs:
                raise ValueError(f"line {lineno}: duplicate sub {name!r}")
            if fields[2:] == ["trivial"]:
                subs[name] = SubMachine(name, trivial=True)
            else:
                subs[name] = SubMachine(name, opcodes=tuple(fields[2:]))
        elif fields[0] == "dispatch":
            if len(fields) != 3:
                raise ValueError(f"line {lineno}: dispatch takes a code and a sub name")
            dispatch.append((fields[1], fields[2]))
        else:
            raise ValueError(f"line {lineno}: unknown directive {fields[0]!r}")
    entries = []
    for code, name in dispatch:
        if name not in subs:
            raise ValueError(f"dispatch references unknown sub {name!r}")
        entries.append((code, subs[name]))
    if not entries:
        raise ValueError("machine has no dispatch entries")
    return ToyMachine(tuple(entries))


STANDARD_TABLE = ("halt", "inc0", "inc1", "inc2", "djz0", "djz1", "jmp", "nop")
SHUFFLED_TABLE = ("nop", "inc0", "inc1", "djz0", "halt", "djz1", "jmp", "inc2")
HALTLESS_TABLE = ("nop", "inc0", "inc1", "inc2", "djz0", "djz1", "jmp", "nop")


def bundled_machines() -> dict[str, ToyMachine]:
    """The toy machines shipped with the package."""
    return {
        "pair": ToyMachine((
            ("0", SubMachine("counter_a", opcodes=STANDARD_TABLE)),
            ("10", SubMachine("counter_b", opcodes=SHUFFLED_TABLE)),
            ("110", SubMachine("unit", trivial=True)),
        )),
        "mini": ToyMachine((
            ("0", SubMachine("unit", trivial=True)),
            ("10", SubMachine("counter", opcodes=STANDARD_TABLE)),
        )),
        "silent": ToyMachine((
            ("0", SubMachine("spinner", opcodes=HALTLESS_TABLE)),
        )),
    }
