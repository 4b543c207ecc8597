"""Toy prefix-free machine and the dovetailed halting-probability stream."""

from itertools import product

import pytest

from celab import omega
from celab.omega import (
    HALTED,
    INVALID,
    MachineDefinitionError,
    OmegaEnumeration,
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

INC = Direction.INCREASING


def R(text):
    return parse_rational(text)


def counter(name="c", table=STANDARD_TABLE):
    return SubMachine(name, opcodes=table)


class TestSubMachine:
    def test_trivial_domain_is_empty_tail(self):
        unit = SubMachine("unit", trivial=True)
        assert unit.decode("") == []
        assert unit.decode("0") is None
        assert unit.run("", budget=1) == (HALTED, 1)
        assert unit.run("", budget=0) == ("running", None)

    def test_decode_self_delimiting(self):
        c = counter()
        # one instruction: "1" "0" + 3 body bits
        assert c.decode("10000") == [0]
        assert c.decode("10111") == [7]
        # two instructions: "11" "0" + 6 body bits
        assert c.decode("110000111") == [0, 7]
        # malformed: missing zero, short body, long body
        assert c.decode("1111") is None
        assert c.decode("1001") is None
        assert c.decode("100000") is None
        assert c.decode("") is None  # zero instructions need the "0" marker
        assert c.decode("0") == []

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
        assert c.run("10000", budget=5) == (HALTED, 1)
        # [DERIVED] nop (7) then halt: 2 steps
        assert c.run("110111000", budget=5) == (HALTED, 2)
        # [DERIVED] inc0, djz0, halt: inc, djz (r0=1>0: dec, pc+1), halt = 3
        assert c.run("1110001100000", budget=5) == (HALTED, 3)
        # budget too small: still running
        assert c.run("110111000", budget=1) == ("running", None)

    def test_structural_divergence(self):
        c = counter()
        # single nop runs off the end: dead, never halts
        assert c.run("10111", budget=10) == ("running", None)
        # jmp alone loops forever
        assert c.run("10110", budget=100) == ("running", None)
        # djz0 on zero register skips past the end
        assert c.run("10100", budget=10) == ("running", None)

    def test_empty_program_runs_off_end(self):
        c = counter()
        assert c.run("0", budget=10) == ("running", None)

    def test_invalid_tail(self):
        assert counter().run("111", budget=10) == (INVALID, None)


class TestToyMachine:
    def test_dispatch_is_adjunction(self):
        # running code+tail on the top machine == running tail on the sub
        machine = bundled_machines()["pair"]
        for tail in ("10000", "110111000", "0"):
            top = machine.run("0" + tail, budget=50)
            sub = counter("counter_a").run(tail, budget=50)
            assert top == sub

    def test_prefix_free_dispatch_enforced(self):
        with pytest.raises(ValueError):
            ToyMachine((
                ("0", counter("a")),
                ("01", counter("b")),
            ))

    def test_unrouted_program_invalid(self):
        machine = bundled_machines()["mini"]  # codes 0, 10
        assert machine.run("11", budget=10) == (INVALID, None)

    def test_route_consumes_code(self):
        machine = bundled_machines()["mini"]
        sub, tail = machine.route("1010000")
        assert sub.name == "counter" and tail == "10000"


class TestOmegaEnumeration:
    def test_against_brute_force_oracle(self):
        # oracle: run every bit string of length <= L to a generous budget,
        # record halting times independently of the dovetailer
        machine = bundled_machines()["pair"]
        L, budget = 12, 64
        expected = {}
        for length in range(1, L + 1):
            for bits in product("01", repeat=length):
                program = "".join(bits)
                status, steps = machine.run(program, budget)
                if status == HALTED:
                    expected[program] = steps
        enum = OmegaEnumeration(machine, L)
        enum.advance_to(budget)
        assert set(enum.halted) == set(expected)
        for s in range(budget + 1):
            want = sum(
                (Rational(1, 1 << len(p)) for p, t in expected.items() if t <= s),
                start=ZERO,
            )
            assert enum.omega(s) == want

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
        assert enum.halted == {}

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

    def test_halting_prefix_freeness_guard(self):
        # a dispatch whose sub halts on every tail (trivial accepts only "",
        # but a counter halting both on "0" and nothing shorter is fine);
        # engineer a violation by running the same trivial sub twice with
        # nested codes is impossible (dispatch is prefix-free), so check the
        # guard directly
        enum = OmegaEnumeration(bundled_machines()["mini"], 6)
        enum.advance_to(2)
        with pytest.raises(MachineDefinitionError):
            enum._record_halt("0" + "0")  # extends the halted program "0"


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
        assert machine.run("010000", budget=5) == (HALTED, 1)
        assert machine.run("10", budget=5) == (HALTED, 1)
        assert OmegaEnumeration(machine, 10).omega(64) > ZERO

    @pytest.mark.parametrize("text,fragment", [
        ("dispatch 0 ghost", "unknown sub"),
        ("sub a trivial", "no dispatch"),
        ("sub a trivial\nsub a trivial\ndispatch 0 a", "duplicate"),
        ("frob 0 a", "unknown directive"),
        ("sub a halt\ndispatch 0 a", "8 entries"),
        ("sub a trivial\ndispatch 0 a\ndispatch 01 a", "prefix-free"),
        ("sub a trivial\ndispatch 2 a", "bad dispatch code"),
    ])
    def test_malformed_rejected(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_machine(text)


def scanned_pool(machine, max_length):
    """The seed pool as a route-and-decode scan over all 2^1..2^L bit
    strings builds it: trivial programs, and counter programs with their
    decoded opcode lists, both in (length, bits) order."""
    trivial, live = [], []
    for length in range(1, max_length + 1):
        for bits in product("01", repeat=length):
            program = "".join(bits)
            routed = machine.route(program)
            if routed is None:
                continue
            sub, tail = routed
            decoded = sub.decode(tail)
            if decoded is None:
                continue
            if sub.trivial:
                trivial.append((program, sub))
            else:
                live.append((program, sub, decoded))
    return trivial, live


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
        trivial, live = scanned_pool(machine, max_length)
        enum = OmegaEnumeration(machine, max_length)
        assert enum._trivial_pending == trivial
        assert [(p, sub, st.program) for p, sub, st in enum._live] == live

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

    def test_bound_is_inclusive(self, monkeypatch):
        # silent seeds 1 + 8 + 64 + 512 programs for L = 14..17, and 8^4
        # more at L = 18
        monkeypatch.setattr(omega, "MAX_POOL", 585)
        silent = bundled_machines()["silent"]
        assert len(OmegaEnumeration(silent, 17)._live) == 585
        with pytest.raises(ValueError, match="gives 4681 programs, more than 585"):
            OmegaEnumeration(silent, 18)

    def test_count_matches_seeding(self, monkeypatch):
        # pair at L=18 is the largest pool the benchmark seeds
        monkeypatch.setattr(omega, "MAX_POOL", 5267)
        enum = OmegaEnumeration(bundled_machines()["pair"], 18)
        assert len(enum._trivial_pending) + len(enum._live) == 5267
        monkeypatch.setattr(omega, "MAX_POOL", 5266)
        with pytest.raises(ValueError, match="max_length 18 gives 5267 programs"):
            OmegaEnumeration(bundled_machines()["pair"], 18)


class TestRunningKraftSum:
    @pytest.mark.parametrize("name, max_length", [("pair", 16), ("mini", 18)])
    def test_matches_resum_over_halts(self, name, max_length):
        enum = OmegaEnumeration(bundled_machines()[name], max_length)
        enum.advance_to(300)
        assert enum.halted
        for s in range(301):
            want = sum(
                (Rational(1, 1 << len(p)) for p, t in enum.halted.items() if t <= s),
                start=ZERO,
            )
            assert enum.omega(s) == want

    def test_guard_fires_when_sum_reaches_one(self):
        machine = parse_machine("sub u trivial\ndispatch 0 u\ndispatch 1 u")
        enum = OmegaEnumeration(machine, 4)
        assert enum.omega(0) == ZERO
        with pytest.raises(MachineDefinitionError, match=r"^Kraft sum reached 1$"):
            enum.omega(1)
