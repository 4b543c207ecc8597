"""A toy prefix-free bit machine and the dovetailed enumeration of its
halting probability.

The top-level machine dispatches "by adjunction": a finite prefix-free set of
codes sigma_e routes the program tail to sub-interpreter e, so running
sigma_e + tau on the top machine is the same computation as running tau on
sub-machine e.  Programs run only inside `OmegaEnumeration`, which seeds
every routed, decodable program and steps each one per stage.

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
from itertools import product

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
    """Mutable execution state of one counter program.

    Besides pc and registers it keeps what the pumping test of `step`
    compares: `jump_regs`, the registers at the last jump to pc 0 (the
    start counts as one), and `zero_tested`, the bitmask of registers a
    djz has found zero since then."""

    __slots__ = ("program", "pc", "regs", "jump_regs", "zero_tested")

    def __init__(self, program: list[int]):
        self.program = program
        self.pc = 0
        self.regs = [0, 0, 0]
        self.jump_regs = (0, 0, 0)
        self.zero_tested = 0

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


# A counter body spells opcode n as its 3-bit big-endian binary form.
_OPCODE_BITS = tuple(format(n, "03b") for n in range(8))


def _length_then_bits(entry: tuple) -> tuple[int, str]:
    return (len(entry[0]), entry[0])


# The most decodable programs an enumeration seeds; a counter sub alone
# seeds 8^k programs for each k with len(code) + 4k + 1 <= L.
MAX_POOL = 1 << 20


class MachineDefinitionError(StreamError):
    """The machine violates prefix-freeness over its enumerated halts, or
    its Kraft sum reaches 1: a fault of the omega stream it drives."""


class OmegaEnumeration:
    """Dovetailed halting enumeration over all programs of length <= L.

    Stage s runs every program for bound(s) = s steps; omega(s) is the exact
    Kraft sum over halts discovered so far.  Simulation is incremental: each
    still-live program advances one step per stage.

    Seeding builds the decodable programs straight from the dispatch table,
    so it costs O(valid programs), not O(2^L).  A program leaves the pool
    when it halts or provably never halts: it runs off the end, or it
    pumps (`ExecState.step`: at a jmp no register is below its value at
    the last jump to pc 0, and every register a djz found zero since then
    is unchanged).  The Kraft sum is kept as a running integer numerator
    over 2^L, and prefix-freeness is checked against the set of every
    prefix of a halted program.  So a stage costs O(programs that can
    still halt) plus O(L) per new halt, however many programs loop or have
    halted.
    """

    def __init__(self, machine: ToyMachine, max_length: int):
        if max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {max_length}")
        self.machine = machine
        self.max_length = max_length
        self.halted: dict[str, int] = {}  # program -> halting time
        self._halt_prefixes: set[str] = set()  # every prefix of a halted program
        self._kraft = 0  # omega = _kraft / 2**max_length
        self._omega_by_stage: list[Rational] = [ZERO]  # omega(0) = 0
        self._seed_pool()

    def _seed_pool(self) -> None:
        """Seed every program of length <= L that decodes: a trivial sub's
        code itself, run as the program [0] under its table (halt,), and
        for a counter sub code + 1^k 0 + body for every 3k-bit body.  The
        programs are counted first, in O(dispatch entries), and refused
        above MAX_POOL.  The pool is sorted by (length, bits), the order of
        a scan over all bit strings of length 1..L."""
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
        self._live = [(code, sub, ExecState([0])) for code, sub in trivial]
        for code, sub, k in [(code, sub, k) for code, sub, top in tops for k in range(top + 1)]:
            head = code + "1" * k + "0"
            for ops in product(range(8), repeat=k):
                body = "".join(_OPCODE_BITS[op] for op in ops)
                self._live.append((head + body, sub, ExecState(list(ops))))
        self._live.sort(key=_length_then_bits)

    def advance_to(self, s: int) -> None:
        while len(self._omega_by_stage) <= s:
            self._advance_one()

    def _advance_one(self) -> None:
        kraft = self._kraft
        survivors = []
        for program, sub, exec_state in self._live:
            status = exec_state.step(sub.ops)
            if status == HALTED:
                self._record_halt(program)
            elif status == RUNNING:
                survivors.append((program, sub, exec_state))
        self._live = survivors
        if self._kraft == kraft:  # no halt at this stage
            self._omega_by_stage.append(self._omega_by_stage[-1])
            return
        omega = Rational(self._kraft, 1 << self.max_length)
        if omega >= ONE:
            raise MachineDefinitionError(f"Kraft sum reached {omega}")
        self._omega_by_stage.append(omega)

    def _record_halt(self, program: str) -> None:
        """Record a halt; a program that is a prefix of a halted one, or
        extends one, is refused, naming the earliest-discovered such halt."""
        if program in self._halt_prefixes or any(
                program[:n] in self.halted for n in range(1, len(program))):
            other = next(other for other in self.halted
                         if other.startswith(program) or program.startswith(other))
            raise MachineDefinitionError(
                f"halting programs not prefix-free: {program!r} vs {other!r}"
            )
        self.halted[program] = len(self._omega_by_stage)
        self._halt_prefixes.update(program[:n] for n in range(1, len(program) + 1))
        self._kraft += 1 << (self.max_length - len(program))

    def omega(self, s: int) -> Rational:
        self.advance_to(s)
        return self._omega_by_stage[s]


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
