"""Toy prefix-free machine and the dovetailed halting-probability stream."""

from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from celab import omega
from celab.omega import (
    ExecState,
    HALTED,
    INVALID,
    MICRO_OPS,
    MachineDefinitionError,
    OmegaEnumeration,
    RUNNING,
    STANDARD_TABLE,
    SubMachine,
    ToyMachine,
    bundled_machines,
    omega_stream,
    parse_machine,
    translate_omega,
)
from celab.rationals import ONE, ZERO, Rational, parse_rational
from celab.streams import Direction, make_constant_target
from oracles import halted_programs, route_and_decode, unpruned_halts, unpruned_run

INC = Direction.INCREASING


def R(text):
    return parse_rational(text)


def counter(name="c", table=STANDARD_TABLE):
    return SubMachine(name, opcodes=table)


def one_code(sub, tail):
    """The program "0" + tail, and the enumeration of the machine that
    routes code 0 to `sub`, at that program's length."""
    program = "0" + tail
    return program, OmegaEnumeration(ToyMachine((("0", sub),)), len(program))


def pool(enum):
    """The enumeration's class pool expanded, in pool order and each class
    in bits order: (program, sub, opcode list) for every program its live
    classes stand for, each None opcode filled with 0..7.  A trivial
    class is its code, run as [0], its one `halt`."""
    for head, sub, state in enum._live:
        unread = [n for n, op in enumerate(state.program) if op is None]
        for fill in product(range(8), repeat=len(unread)):
            ops = list(state.program)
            for n, op in zip(unread, fill):
                ops[n] = op
            body = "" if sub.trivial else "".join(format(op, "03b") for op in ops)
            yield head + body, sub, ops


def seeded(sub, tail):
    """The opcode list that enumeration seeds "0" + tail with ([0], its
    one `halt`, for a trivial sub), or None if it seeds no such program."""
    program, enum = one_code(sub, tail)
    return next((ops for p, _, ops in pool(enum) if p == program), None)


def run_stages(sub, tail, stages):
    """That enumeration advanced to `stages`: the stage at which "0" + tail
    halted, or None, and whether the program is still in the pool."""
    program, enum = one_code(sub, tail)
    enum.advance_to(stages)
    return halted_programs(enum.halted).get(program), any(p == program for p, *_ in pool(enum))


def first_answer(table, body, limit):
    """(status, step) at the first of `limit` steps at which
    `ExecState.step` answers HALTED or INVALID, or (RUNNING, limit)."""
    ops, state = counter(table=tuple(table)).ops, ExecState(list(body))
    for t in range(1, limit + 1):
        status = state.step(ops)
        if status != RUNNING:
            return status, t
    return RUNNING, limit


def assert_omega_sums(enum, halts, stages):
    """omega(s) is the Kraft sum of the halts (program -> halting time) at
    or before s, for every s <= stages."""
    for s in range(stages + 1):
        want = sum((Rational(1, 1 << len(p)) for p, t in halts.items() if t <= s), start=ZERO)
        assert enum.omega(s) == want


class TestSubMachine:
    def test_trivial_domain_is_empty_tail(self):
        unit = SubMachine("unit", trivial=True)
        assert seeded(unit, "") == [0]
        assert seeded(unit, "0") is None
        assert run_stages(unit, "", 1) == (1, False)
        assert run_stages(unit, "", 0) == (None, True)

    def test_decode_self_delimiting(self):
        c = counter()
        # one instruction: "1" "0" + 3 body bits
        assert seeded(c, "10000") == [0]
        assert seeded(c, "10111") == [7]
        # two instructions: "11" "0" + 6 body bits
        assert seeded(c, "110000111") == [0, 7]
        # malformed: missing zero, short body, long body
        assert seeded(c, "1111") is None
        assert seeded(c, "1001") is None
        assert seeded(c, "100000") is None
        assert seeded(c, "") is None  # zero instructions need the "0" marker
        assert seeded(c, "0") == []

    def test_opcode_table_validation(self):
        with pytest.raises(ValueError):
            SubMachine("bad", opcodes=("halt",) * 7)
        with pytest.raises(ValueError):
            SubMachine("bad", opcodes=("halt",) * 7 + ("fly",))
        with pytest.raises(ValueError):
            SubMachine("bad", trivial=True, opcodes=STANDARD_TABLE)

    def test_run_halting_times(self):
        c = counter()
        # [DERIVED] opcode 0 = halt: halts at step 1
        assert run_stages(c, "10000", 5) == (1, False)
        # [DERIVED] nop (7) then halt: 2 steps
        assert run_stages(c, "110111000", 5) == (2, False)
        # [DERIVED] inc0, djz0, halt: inc, djz (r0=1>0: dec, pc+1), halt = 3
        assert run_stages(c, "1110001100000", 5) == (3, False)
        # too few stages: still running
        assert run_stages(c, "110111000", 1) == (None, True)

    def test_structural_divergence(self):
        c = counter()
        # single nop runs off the end: dead, never halts
        assert run_stages(c, "10111", 10) == (None, False)
        # jmp alone loops forever
        assert run_stages(c, "10110", 100) == (None, False)
        # djz0 on zero register skips past the end
        assert run_stages(c, "10100", 10) == (None, False)

    def test_empty_program_runs_off_end(self):
        assert run_stages(counter(), "0", 10) == (None, False)

    def test_invalid_tail(self):
        assert seeded(counter(), "111") is None
        assert run_stages(counter(), "111", 10) == (None, False)


class TestToyMachine:
    def test_dispatch_is_adjunction(self):
        # the halts of code + tail on the top machine are those of tail on
        # the machine that routes code alone to the same sub
        machine = bundled_machines()["pair"]
        top = OmegaEnumeration(machine, 10)
        top.advance_to(50)
        halts = halted_programs(top.halted)
        for code, sub in machine.dispatch:
            alone = OmegaEnumeration(ToyMachine(((code, sub),)), 10)
            alone.advance_to(50)
            want = halted_programs(alone.halted)
            assert {p: t for p, t in halts.items() if p.startswith(code)} == want
        assert halts["0" + "10000"] == 1 and halts["0" + "110111000"] == 2

    def test_prefix_free_dispatch_enforced(self):
        with pytest.raises(ValueError):
            ToyMachine((
                ("0", counter("a")),
                ("01", counter("b")),
            ))

    def test_unrouted_program_invalid(self):
        enum = OmegaEnumeration(bundled_machines()["mini"], 12)  # codes 0, 10
        programs = [p for p, *_ in pool(enum)]
        assert programs and not any(p.startswith("11") for p in programs)

    def test_route_consumes_code(self):
        enum = OmegaEnumeration(bundled_machines()["mini"], 7)
        [(sub, ops)] = [(sub, ops) for p, sub, ops in pool(enum) if p == "1010000"]
        assert sub.name == "counter" and ops == [0]  # the tail 10000


class TestOmegaEnumeration:
    def test_against_brute_force_oracle(self):
        # oracle: route, decode and run every bit string of length <= L to a
        # generous budget, recording halting times independently of the
        # dovetailer
        machine = bundled_machines()["pair"]
        L, budget = 12, 64
        expected = {}
        for length in range(1, L + 1):
            for bits in product("01", repeat=length):
                program = "".join(bits)
                decoded = route_and_decode(machine, program)
                if decoded is None:
                    continue
                sub, body = decoded
                t = 1 if sub.trivial else unpruned_run(sub.opcodes, body, budget)
                if t is not None:
                    expected[program] = t
        enum = OmegaEnumeration(machine, L)
        enum.advance_to(budget)
        halts = halted_programs(enum.halted)
        assert halts == expected
        assert_omega_sums(enum, expected, budget)
        # the halting domain is prefix-free: in sorted order a program's
        # extensions follow it at once, so checking neighbours suffices
        programs = sorted(halts)
        assert not [(a, b) for a, b in zip(programs, programs[1:]) if b.startswith(a)]

    def test_single_code_trivial_machine(self):
        # [DERIVED] only halting program is the code "0" itself: omega = 1/2
        machine = ToyMachine((("0", SubMachine("unit", trivial=True)),))
        assert OmegaEnumeration(machine, 8).omega(0) == ZERO
        assert OmegaEnumeration(machine, 8).omega(1) == R("1/2")
        assert OmegaEnumeration(machine, 8).omega(50) == R("1/2")

    def test_silent_machine_is_zero(self):
        machine = bundled_machines()["silent"]
        enum = OmegaEnumeration(machine, 12)
        assert enum.omega(40) == ZERO
        assert enum.halted == []

    def test_monotone_and_strictly_staggered(self):
        enum = OmegaEnumeration(bundled_machines()["pair"], 14)
        values = [enum.omega(s) for s in range(8)]
        assert values == sorted(values)
        # [DERIVED] 1-, 2- and 3-instruction programs fit at L=14 and halt
        # at steps 1, 2, 3 respectively: three strict increases
        assert values[0] < values[1] < values[2] < values[3] == values[4]

    def test_kraft_sum_stays_below_one(self):
        for machine in bundled_machines().values():
            assert OmegaEnumeration(machine, 12).omega(64) < ONE

    def test_negative_stage_refused(self):
        # a stage below 0 would index back from the last stored value: after
        # omega(40) on pair at L = 12, omega(-1) would read 85/512
        enum = OmegaEnumeration(bundled_machines()["pair"], 12)
        enum.omega(40)
        for s in (-1, -3):
            with pytest.raises(ValueError, match=rf"^negative stage {s}$"):
                enum.omega(s)


class TestOmegaStream:
    def test_affine_image_and_direction(self):
        machine = bundled_machines()["pair"]
        up = omega_stream(machine, 10, offset=R("1/4"), scale=R("1/2"))
        down = omega_stream(machine, 10, offset=R("3/4"), scale=R("-1/2"))
        enum = OmegaEnumeration(machine, 10)
        for s in range(6):
            w = enum.omega(s)
            assert up.value(s) == R("1/4") + R("1/2") * w
            assert down.value(s) == R("3/4") - R("1/2") * w
        assert up.direction is INC
        assert down.direction is Direction.DECREASING

    @pytest.mark.parametrize("name", ["pair", "mini"])
    def test_value_object_held_while_no_program_halts(self, name):
        # at a stage with no new halt the stream returns its previous value's
        # own object, so the value is neither re-checked nor re-formatted
        machine = bundled_machines()[name]
        stream = omega_stream(machine, 10, offset=R("3/4"), scale=R("-1/2"))
        enum = OmegaEnumeration(machine, 10)
        held = []
        for s in range(1, 60):
            assert stream.value(s) == R("3/4") - R("1/2") * enum.omega(s)
            held.append(stream.value(s) is stream.value(s - 1))
            assert held[-1] is (enum.omega(s) == enum.omega(s - 1))
        assert any(held) and not all(held)

    @pytest.mark.parametrize("offset, scale, flagged", [
        ("1/4", "1/2", True), ("1/4", "3/4", True), ("0/1", "1/2", False),
        ("1/2", "3/4", False), ("3/4", "-1/2", True), ("3/4", "-3/4", True),
        ("1/1", "-1/2", False), ("1/4", "-1/2", False)])
    def test_unit_interval_flag(self, offset, scale, flagged):
        # offset = the value at stage 0 is reached, offset + scale never is
        stream = omega_stream(bundled_machines()["pair"], 8, offset=R(offset), scale=R(scale))
        assert stream.unit_interval is flagged
        if not flagged:
            return
        for s in range(20):
            assert ZERO < stream.value(s) < ONE

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            omega_stream(bundled_machines()["pair"], 8, scale=ZERO)


class TestTranslateOmega:
    def test_pointwise_sum(self):
        machine = bundled_machines()["pair"]
        om = omega_stream(machine, 10, offset=ZERO, scale=R("1/4"))
        x = make_constant_target(R("1/3"), INC, R("1/2"))
        t = translate_omega(om, x)
        for s in range(10):
            assert t.value(s) == om.value(s) + x.value(s)

    def test_rejects_sum_reaching_one(self):
        machine = bundled_machines()["mini"]
        om = omega_stream(machine, 10, offset=ZERO, scale=ONE)
        x = make_constant_target(R("1/2"), INC, R("1/2"))
        with pytest.raises(ValueError):
            translate_omega(om, x)  # 65/128 + ~1/2 >= 1 at the horizon

    def test_rejects_decreasing_argument(self):
        machine = bundled_machines()["pair"]
        om = omega_stream(machine, 8, offset=ZERO, scale=R("1/4"))
        dec = make_constant_target(R("1/2"), Direction.DECREASING, R("1/2"))
        with pytest.raises(ValueError):
            translate_omega(om, dec)


class TestParseMachine:
    GOOD = """
    # two interpreters
    sub counter halt inc0 inc1 inc2 djz0 djz1 jmp nop
    sub unit trivial
    dispatch 0 counter
    dispatch 10 unit
    """

    def test_round_trip_behaviour(self):
        machine = parse_machine(self.GOOD)
        enum = OmegaEnumeration(machine, 10)
        enum.advance_to(5)
        halts = halted_programs(enum.halted)
        assert halts["010000"] == 1
        assert halts["10"] == 1
        assert enum.omega(64) > ZERO

    @pytest.mark.parametrize("text,fragment", [
        ("dispatch 0 ghost", "unknown sub"),
        ("sub a trivial", "no dispatch"),
        ("sub a trivial\nsub a trivial\ndispatch 0 a", "duplicate"),
        ("frob 0 a", "unknown directive"),
        ("sub x", "sub needs a name and a body"),
        ("dispatch 0", "dispatch takes a code and a sub name"),
        ("sub a halt\ndispatch 0 a", "8 entries"),
        ("sub a trivial\ndispatch 0 a\ndispatch 01 a", "prefix-free"),
        ("sub a trivial\ndispatch 2 a", "bad dispatch code"),
        # one program string would run on two interpreters
        ("sub a trivial\nsub b trivial\ndispatch 0 a\ndispatch 0 b",
         "dispatch codes not prefix-free: '0' vs '0'"),
        ("sub c halt inc0 inc1 inc2 djz0 djz1 jmp nop\n"
         "sub d nop inc0 inc1 djz0 halt djz1 jmp inc2\ndispatch 0 c\ndispatch 0 d",
         "dispatch codes not prefix-free: '0' vs '0'"),
    ])
    def test_malformed_rejected(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_machine(text)


def scanned_pool(machine, max_length):
    """The seed pool as a route-and-decode scan over all 2^1..2^L bit
    strings builds it, in (length, bits) order: each program with its sub
    and opcode list, a trivial program's the one `halt`, [0]."""
    pool = []
    for length in range(1, max_length + 1):
        for bits in product("01", repeat=length):
            program = "".join(bits)
            decoded = route_and_decode(machine, program)
            if decoded is None:
                continue
            sub, ops = decoded
            pool.append((program, sub, [0] if sub.trivial else ops))
    return pool


class TestSeedPool:
    """Seeding from the dispatch table matches the scan over all strings,
    in content and in order."""

    # a trivial code of length 4 and one of length 9, a counter code of
    # length 4 (it contributes nothing until L = 5)
    EDGES = """
    sub a halt inc0 inc1 inc2 djz0 djz1 jmp nop
    sub b nop inc0 inc1 djz0 halt djz1 jmp inc2
    sub u trivial
    dispatch 0 a
    dispatch 1100 u
    dispatch 1110 b
    dispatch 10 a
    dispatch 111100000 u
    """

    @staticmethod
    def assert_same_pool(machine, max_length):
        enum = OmegaEnumeration(machine, max_length)
        assert list(pool(enum)) == scanned_pool(machine, max_length)

    @pytest.mark.parametrize("name", sorted(bundled_machines()))
    def test_bundled_machines(self, name):
        for max_length in range(1, 15):
            self.assert_same_pool(bundled_machines()[name], max_length)

    @pytest.mark.parametrize("max_length", range(1, 13))
    def test_code_lengths_around_the_bound(self, max_length):
        self.assert_same_pool(parse_machine(self.EDGES), max_length)


class TestPoolBound:
    def test_count_refused_before_seeding(self):
        # silent at L=40 holds (8^10 - 1)/7 programs; counting them is O(L)
        with pytest.raises(ValueError, match="max_length 40 gives 153391689 programs"):
            OmegaEnumeration(bundled_machines()["silent"], 40)

    def test_huge_length_refused_by_its_power(self):
        # the exact count, (8^20000 - 1)/7, takes O(L) to sum and prints
        # past the interpreter's 4300-digit limit
        with pytest.raises(ValueError, match=r"^max_length 80000 gives at least 8\^19999 "
                                             r"programs, more than 1048576$"):
            OmegaEnumeration(bundled_machines()["pair"], 80_000)

    def test_bound_is_inclusive(self, monkeypatch):
        # silent seeds 1 + 8 + 64 + 512 programs for L = 14..17, and 8^4
        # more at L = 18
        monkeypatch.setattr(omega, "MAX_POOL", 585)
        silent = bundled_machines()["silent"]
        assert len(list(pool(OmegaEnumeration(silent, 17)))) == 585
        with pytest.raises(ValueError, match="gives 4681 programs, more than 585"):
            OmegaEnumeration(silent, 18)

    def test_count_matches_seeding(self, monkeypatch):
        # pair at L=18 is the largest pool the benchmark seeds
        monkeypatch.setattr(omega, "MAX_POOL", 5267)
        enum = OmegaEnumeration(bundled_machines()["pair"], 18)
        assert len(list(pool(enum))) == 5267
        monkeypatch.setattr(omega, "MAX_POOL", 5266)
        with pytest.raises(ValueError, match="max_length 18 gives 5267 programs"):
            OmegaEnumeration(bundled_machines()["pair"], 18)


class TestRunningKraftSum:
    @pytest.mark.parametrize("name, max_length", [("pair", 16), ("mini", 18)])
    def test_matches_resum_over_halts(self, name, max_length):
        enum = OmegaEnumeration(bundled_machines()[name], max_length)
        enum.advance_to(300)
        assert enum.halted
        assert_omega_sums(enum, halted_programs(enum.halted), 300)

    def test_guard_fires_when_sum_reaches_one(self):
        machine = parse_machine("sub u trivial\ndispatch 0 u\ndispatch 1 u")
        enum = OmegaEnumeration(machine, 4)
        assert enum.omega(0) == ZERO
        with pytest.raises(MachineDefinitionError, match=r"^Kraft sum reached 1$"):
            enum.omega(1)


opcode_tables = st.lists(st.sampled_from(sorted(MICRO_OPS)), min_size=8, max_size=8)


@st.composite
def toy_machines(draw):
    """A prefix-free dispatch of one to four codes of up to four bits, each
    routed to the trivial sub or to one of two random opcode tables."""
    codes = []
    for code in draw(st.lists(st.text("01", min_size=1, max_size=4), min_size=1, max_size=6)):
        if not any(code.startswith(c) or c.startswith(code) for c in codes):
            codes.append(code)
    tables = [draw(opcode_tables) for _ in range(2)]
    subs = [SubMachine("unit", trivial=True)] + [
        SubMachine(f"counter{n}", opcodes=tuple(table)) for n, table in enumerate(tables)]
    return ToyMachine(tuple((code, draw(st.sampled_from(subs))) for code in codes[:4]))


class TestPumpingPrune:
    """Dropping the programs that provably pump forever changes no halt and
    no value of Omega, and it is what makes a stage cost O(programs that
    can still halt)."""

    STAGES = 200

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(machine=toy_machines(), max_length=st.integers(1, 14))
    # 0 110 100 000 is djz0, halt: djz0 finds r0 = 0 and skips the halt,
    # so it runs off the end; a skip of one instruction halts it at stage 2
    @example(machine=ToyMachine((("0", SubMachine("c", opcodes=STANDARD_TABLE)),)),
             max_length=10)
    def test_matches_unpruned_interpreter(self, machine, max_length):
        expected = unpruned_halts(machine, max_length, self.STAGES)
        if sum(Rational(1, 1 << len(p)) for p in expected) >= ONE:
            return  # trivial codes covering every string: the Kraft guard fires
        enum = OmegaEnumeration(machine, max_length)
        enum.advance_to(self.STAGES)
        assert halted_programs(enum.halted) == expected
        for s in range(self.STAGES + 1):
            want = sum((Rational(1, 1 << len(p)) for p, t in expected.items() if t <= s),
                       start=ZERO)
            assert enum.omega(s) == want

    @pytest.mark.parametrize("name", sorted(bundled_machines()))
    def test_bundled_machines_match_unpruned_interpreter(self, name):
        # at L = 18 pair seeds every 4-instruction counter_a program, among
        # them djz0, halt, inc0, jmp (see test_jump_that_does_not_pump)
        machine = bundled_machines()[name]
        expected = unpruned_halts(machine, 18, self.STAGES)
        enum = OmegaEnumeration(machine, 18)
        enum.advance_to(self.STAGES)
        assert halted_programs(enum.halted) == expected
        assert_omega_sums(enum, expected, self.STAGES)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(table=opcode_tables, body=st.lists(st.integers(0, 7), max_size=8))
    def test_long_programs_match_unpruned_interpreter(self, table, body):
        # up to 8 instructions: room for a jump whose pumping test fails
        # and a later pass that halts
        status, t = first_answer(table, body, self.STAGES)
        assert (t if status == HALTED else None) == unpruned_run(table, body, self.STAGES)

    @pytest.mark.parametrize("name, max_length, halts", [
        ("pair", 16, 287), ("mini", 18, 144), ("silent", 17, 0)])
    def test_benchmark_pools_empty_by_stage_10(self, name, max_length, halts):
        # the pools seed 1,170, 585 and 585 counter programs; the 590 that
        # never halt all pump, so no class is live after stage 10
        enum = OmegaEnumeration(bundled_machines()[name], max_length)
        enum.advance_to(10)
        assert list(pool(enum)) == []
        assert len(enum.halted) == halts

    def test_omega_final_once_the_pool_is_empty(self):
        # pair at L = 16 has no live class after stage 10: a later stage is
        # neither stepped nor stored, and its omega is the last value itself
        enum = OmegaEnumeration(bundled_machines()["pair"], 16)
        last = enum.omega(10)
        stored = len(enum._omega_by_stage)
        assert enum.omega(10**9) is last and len(enum._omega_by_stage) == stored

    def test_pumping_program_answers_at_once(self):
        # [DERIVED] inc0, jmp: at the first jmp r0 = 1 >= 0 and no djz ran
        assert first_answer(STANDARD_TABLE, [1, 6], 10) == (INVALID, 2)
        # [DERIVED] djz0, halt, jmp on r0 = 0: djz skips the halt, the jmp
        # finds r0 zero-tested and unchanged
        assert first_answer(STANDARD_TABLE, [4, 0, 6], 10) == (INVALID, 2)

    def test_jump_that_does_not_pump(self):
        # [DERIVED] djz0, halt, inc0, jmp: the first pass skips the halt on
        # r0 = 0 and leaves r0 = 1, so the zero-tested r0 changed; the
        # second pass decrements r0 and halts at step 5
        assert first_answer(STANDARD_TABLE, [4, 0, 1, 6], 10) == (HALTED, 5)
        # [DERIVED] djz1, jmp, djz0, halt, inc1, inc0, jmp: the first pass
        # finds r1 and r0 zero, skips the halt and jumps at (1, 1, 0); the
        # second decrements r1 and jumps at (1, 0, 0), below the last
        # jump's r1 though no djz found a zero; the third decrements r0 and
        # halts at step 10
        assert first_answer(STANDARD_TABLE, [5, 6, 4, 0, 2, 1, 6], 20) == (HALTED, 10)
