"""Acceptance suite: one test per shipped guarantee, all comparisons exact.

Every battery below is deterministic (seeded) and rebuilt from scratch, so a
change anywhere in engine semantics, stream arithmetic, or serialization
fails here.  The conftest hook prints one PASS/FAIL line per criterion at
the end of the session.
"""

import hashlib
import io
import json
import random
from itertools import product
from pathlib import Path

import pytest

from celab.dce import DcReal, dc_add, dc_mul, dc_neg, dc_sub
from celab.expansion import (
    ExpansionConfig,
    replay_expansion,
    run_expansion,
    verify_expansion,
)
from celab.injury import (
    InjuryConfig,
    replay_injury,
    run_injury,
    verify_injury,
)
from celab.omega import OmegaEnumeration, bundled_machines, omega_stream
from celab.rationals import ONE, ZERO, Rational, parse_rational, pow2_neg
from celab.solovay import (
    SolovayWitness,
    check_clause_a,
    check_clause_c,
    speedup,
)
from celab.streams import (
    AdversarySuite,
    ApproxStream,
    Direction,
    SuiteEntry,
    make_constant_target,
    make_tracker,
)
from celab.trace import write_trace
from oracles import halted_programs, route_and_decode, unpruned_run

DATA = Path(__file__).parent / "data"
INC = Direction.INCREASING
DEC = Direction.DECREASING

LEMMA2_STAGES = 2000
PROP3_STAGES = 1000
N_CONFIGS = 20


def R(text):
    return parse_rational(text)


RATES = (R("1/2"), R("1/3"), R("2/3"), R("3/4"), R("1/4"))


def _limit(rng):
    return Rational(rng.randint(1, 62), 63)


def _slow_approach(offset, direction, floor_exp=39):
    """Stream creeping toward offset +/- 2^-40 (late, tiny final gap); used
    to provoke acts and injuries at late stages."""
    if direction is INC:
        final = offset + pow2_neg(40)
        gen = lambda s, _p: final - pow2_neg(min(s + 1, floor_exp))
    else:
        final = offset - pow2_neg(40)
        gen = lambda s, _p: final + pow2_neg(min(s + 1, floor_exp))
    return ApproxStream(direction, gen, unit_interval=False, label="slow")


# --------------------------------------------------------------------------
# batteries (session-scoped: built once, reused by several criteria)
# --------------------------------------------------------------------------


def lemma2_config(k: int) -> tuple[ExpansionConfig, dict]:
    """Deterministic config k; returns (config, constant-target limits by
    (index, role)) for the stabilization criterion."""
    rng = random.Random(1000 + k)
    alpha = make_constant_target(
        Rational(rng.randint(32, 62), 63), INC, rng.choice(RATES), label="alpha")
    eta = make_constant_target(_limit(rng), INC, rng.choice(RATES), label="eta")
    limits: dict[tuple[int, str], Rational] = {}
    entries = []
    n = rng.randint(2, 8)
    for index in range(n):
        role = rng.choice("LR")
        direction = INC if role == "L" else DEC
        kind = rng.random()
        if kind < 0.6:
            limit = _limit(rng)
            entries.append(SuiteEntry(
                index, role,
                make_constant_target(limit, direction, rng.choice(RATES))))
            limits[(index, role)] = limit
        elif kind < 0.9:
            entries.append((index, role, rng.randint(0, 2)))  # tracker, built later
        else:
            machine = bundled_machines()["pair" if role == "L" else "mini"]
            offset = R("1/4") if role == "L" else R("3/4")
            scale = R("1/2") if role == "L" else R("-1/2")
            entries.append(SuiteEntry(
                index, role, omega_stream(machine, 10, offset, scale)))

    def suite(view):
        built = []
        for e in entries:
            if isinstance(e, SuiteEntry):
                built.append(e)
            else:
                index, role, lag = e
                direction = INC if role == "L" else DEC
                start = R("1/16") if role == "L" else R("15/16")
                built.append(SuiteEntry(
                    index, role, make_tracker(view, direction, lag, start)))
        return AdversarySuite(built)

    return ExpansionConfig(alpha=alpha, eta=eta, suite=suite,
                           stages=LEMMA2_STAGES), limits


def prop3_config(k: int) -> InjuryConfig:
    rng = random.Random(2000 + k)
    entries = []
    n = rng.randint(2, 6)
    for index in range(n):
        role = rng.choice("LR")
        direction = INC if role == "L" else DEC
        kind = rng.random()
        if kind < 0.4:
            entries.append(SuiteEntry(
                index, role,
                make_constant_target(_limit(rng), direction, rng.choice(RATES))))
        elif kind < 0.7:
            entries.append((index, role, rng.randint(0, 2)))
        else:
            # creep toward a plausible late difference to provoke acts
            offset = ZERO if role == "L" else pow2_neg(rng.randint(1, 3))
            if role == "L":
                offset = -pow2_neg(rng.randint(1, 3)) if rng.random() < 0.5 else ZERO
            entries.append(SuiteEntry(
                index, role, _slow_approach(offset, direction)))

    def suite(view):
        built = []
        for e in entries:
            if isinstance(e, SuiteEntry):
                built.append(e)
            else:
                index, role, lag = e
                direction = INC if role == "L" else DEC
                start = R("1/32") if role == "L" else R("31/32")
                built.append(SuiteEntry(
                    index, role, make_tracker(view, direction, lag, start)))
        return AdversarySuite(built)

    return InjuryConfig(suite=suite, stages=PROP3_STAGES)


@pytest.fixture(scope="session")
def lemma2_battery():
    runs = []
    for k in range(N_CONFIGS):
        cfg, limits = lemma2_config(k)
        engine = run_expansion(cfg)
        runs.append((k, engine, limits))
    return runs


@pytest.fixture(scope="session")
def prop3_battery():
    runs = []
    for k in range(N_CONFIGS):
        engine = run_injury(prop3_config(k))
        runs.append((k, engine))
    return runs


# --------------------------------------------------------------------------
# criterion 1: paced-growth engine invariants
# --------------------------------------------------------------------------


def test_criterion_1_expansion_invariants(lemma2_battery):
    assert len(lemma2_battery) >= 20
    for k, engine, _limits in lemma2_battery:
        assert engine.s == LEMMA2_STAGES
        report = verify_expansion(engine.events, engine.snapshot())
        assert report.all_green, f"config {k}:\n{report.render_text()}"
        names = [c.name for c in report.checks]
        for tag in ("V1", "V2", "V3", "V4"):
            assert any(n.startswith(tag) for n in names)


# every logged value of the 20 battery runs, pinned: rates 1/3, 2/3 and 3/4
# at 2,000 stages, trackers and omega streams, none of which the goldens
# (constant targets at rate 1/2) reach
LEMMA2_BATTERY_SHA256 = "a90b279ba094367e0d9388bf51d9d308d94ab0dcda5308e0952ed1ee2d4b20ae"


def test_lemma2_battery_events_are_pinned(lemma2_battery):
    lines = "".join(f"{ev.stage} {ev.kind} {ev.requirement} {ev.new}\n"
                    for _, engine, _limits in lemma2_battery for ev in engine.events)
    assert hashlib.sha256(lines.encode()).hexdigest() == LEMMA2_BATTERY_SHA256


# every event line of both batteries as a trace file holds it: the pin
# above reads neither the old values nor the prop3 battery
LEMMA2_BATTERY_LINES_SHA256 = "f670f1d020547041c3611b8750e591414514497a7b3f8f991307dc614b8fe204"
PROP3_BATTERY_LINES_SHA256 = "9b10fa40ed4d5d68a08e91c32358dc02caebf7a4a52bb8c9f5cc9861ca5a506d"


def event_lines_sha256(engines):
    h = hashlib.sha256()
    for engine in engines:
        for ev in engine.events:
            h.update((ev.to_json() + "\n").encode())
    return h.hexdigest()


def test_battery_event_lines_are_pinned(lemma2_battery, prop3_battery):
    assert event_lines_sha256(run[1] for run in lemma2_battery) == LEMMA2_BATTERY_LINES_SHA256
    assert event_lines_sha256(run[1] for run in prop3_battery) == PROP3_BATTERY_LINES_SHA256


# --------------------------------------------------------------------------
# criterion 2: stabilization of separated constant-target adversaries
# --------------------------------------------------------------------------


def test_criterion_2_expansion_stabilization(lemma2_battery):
    half = LEMMA2_STAGES // 2
    checked = 0
    for k, engine, limits in lemma2_battery:
        diff_T = engine.difference(engine.s)
        for (index, role), limit in limits.items():
            kind = "c" if role == "L" else "d"
            param = getattr(engine, kind).get(index, 0)
            if abs(limit - diff_T) <= 2 * pow2_neg(param):
                continue  # not separated; no stabilization claim
            checked += 1
            late = [ev.stage for ev in engine.events
                    if ev.kind == kind and ev.requirement == index
                    and ev.stage > half]
            assert not late, (
                f"config {k}: {kind}_{index} changed at {late} although the "
                f"adversary limit {limit} is separated from {diff_T}"
            )
    assert checked > 0  # the criterion must not be vacuous


# --------------------------------------------------------------------------
# criterion 3: finite-injury engine invariants
# --------------------------------------------------------------------------


def test_criterion_3_injury_invariants(prop3_battery):
    assert len(prop3_battery) >= 20
    total_acts = total_inits = 0
    for k, engine in prop3_battery:
        assert engine.s == PROP3_STAGES
        report = verify_injury(engine.events, engine.snapshot())
        assert report.all_green, f"config {k}:\n{report.render_text()}"
        names = [c.name for c in report.checks]
        for tag in ("W1", "W2", "W3", "W4", "W5"):
            assert any(n.startswith(tag) for n in names)
        total_acts += report.stats["acts"]
        total_inits += report.stats["initializations"]
    # the battery must exercise the machinery, not just define parameters
    assert total_acts > 0
    assert total_inits > 0


# --------------------------------------------------------------------------
# criterion 4: speed-up stream oracle equivalence
# --------------------------------------------------------------------------


def test_criterion_4_speedup_oracle():
    T = 64
    rng = random.Random(4000)
    pairs = 0
    while pairs < 200:
        b_lim = _limit(rng)
        rate = rng.choice(RATES)
        q = Rational(rng.randint(1, 9), rng.randint(10, 20))
        p = q * Rational(rng.randint(3, 8), 2)  # p > q
        beta = make_constant_target(b_lim, INC, rate)
        # alpha = q * beta: increments exactly q times beta's, the premise
        alpha = ApproxStream(INC, lambda s, _p, b=beta, qq=q: qq * b.value(s),
                             unit_interval=False)
        gamma = speedup(alpha, beta, p)
        for s in range(T + 1):
            assert gamma.value(s) <= alpha.value(s)
            if s:
                dg = gamma.value(s) - gamma.value(s - 1)
                db = beta.value(s) - beta.value(s - 1)
                assert ZERO <= dg <= p * db  # increment bound, exact
        assert alpha.value(T) - gamma.value(T) == ZERO  # exact catch-up
        pairs += 1

    # the worked instance: alpha_s = (1 - 2^-s)/4, beta_s = (1 - 2^-s)/2,
    # p = 3/4; gamma equals alpha at every stage
    alpha = ApproxStream(INC, lambda s, _p: (ONE - pow2_neg(s)) / 4,
                         unit_interval=False)
    beta = ApproxStream(INC, lambda s, _p: (ONE - pow2_neg(s)) / 2,
                        unit_interval=False)
    gamma = speedup(alpha, beta, R("3/4"))
    for s in range(T + 1):
        assert gamma.value(s) == alpha.value(s)


# --------------------------------------------------------------------------
# criterion 5: clause upward-closure and prefix-monotonicity
# --------------------------------------------------------------------------


def test_criterion_5_witness_closure():
    T = 64
    rng = random.Random(5000)
    held = 0
    for _ in range(100):
        alpha = make_constant_target(_limit(rng), INC, rng.choice(RATES))
        beta = make_constant_target(_limit(rng), INC, rng.choice(RATES))
        clause = rng.choice("ac")
        check = check_clause_a if clause == "a" else check_clause_c
        q = Rational(rng.randint(1, 40), rng.randint(1, 20))
        base = check(SolovayWitness(q, alpha, beta), T)
        # upward closure: a q that works keeps working for every larger q
        for factor in (R("3/2"), R("2/1"), R("16/1")):
            bigger = check(SolovayWitness(q * factor, alpha, beta), T)
            assert not (base.holds and not bigger.holds), (
                f"clause {clause}: holds at {q} but not at {q * factor}")
        # prefix-monotonicity: a verdict on T covers every shorter prefix
        if base.holds:
            held += 1
            for shorter in (1, 8, 32):
                assert check(SolovayWitness(q, alpha, beta), shorter).holds
        else:
            for longer in (T + 1, 2 * T):
                again = check(SolovayWitness(q, alpha, beta), longer)
                assert not again.holds
                assert again.fails_at == base.fails_at
    assert held > 0  # closure was exercised on witnesses that hold


# --------------------------------------------------------------------------
# criterion 6: difference-arithmetic homomorphism
# --------------------------------------------------------------------------


def test_criterion_6_dce_homomorphism():
    rng = random.Random(6000)
    for _ in range(100):
        comps = [make_constant_target(_limit(rng), INC, rng.choice(RATES))
                 for _ in range(4)]
        x = DcReal(comps[0], comps[1])
        y = DcReal(comps[2], comps[3])
        s_, d_, n_, m_ = dc_add(x, y), dc_sub(x, y), dc_neg(x), dc_mul(x, y)
        for s in range(0, 101):
            xv, yv = x.value_at(s), y.value_at(s)
            assert s_.value_at(s) == xv + yv
            assert d_.value_at(s) == xv - yv
            assert n_.value_at(s) == -xv
            assert m_.value_at(s) == xv * yv


# --------------------------------------------------------------------------
# criterion 7: machine dispatch and the Kraft bound
# --------------------------------------------------------------------------


def test_criterion_7_omega_machine():
    budget = 10_000
    machines = bundled_machines()
    # Kraft bound, exact, at every stage of a long enumeration
    for name, machine in machines.items():
        enum = OmegaEnumeration(machine, 12)
        previous = ZERO
        for s in range(201):
            w = enum.omega(s)
            assert w < ONE
            assert w >= previous
            previous = w
    # dispatch-by-adjunction, exhaustive over tails of length <= 8: the
    # enumeration's halts under a code are code + tau for each tail tau the
    # reference decodes on that code's sub and runs to a halt, each at its
    # halting time
    tails = [""]
    for length in range(1, 9):
        tails += ["".join(bits) for bits in product("01", repeat=length)]
    for name, machine in machines.items():
        for code, _sub in machine.dispatch:
            enum = OmegaEnumeration(machine, len(code) + 8)
            enum.advance_to(budget)
            want = {}
            for tail in tails:
                decoded = route_and_decode(machine, code + tail)
                if decoded is None:
                    continue
                sub, body = decoded
                t = 1 if sub.trivial else unpruned_run(sub.opcodes, body, budget)
                if t is not None:
                    want[code + tail] = t
            got = {p: t for p, t in halted_programs(enum.halted).items() if p.startswith(code)}
            assert got == want, f"{name}: halts under {code!r} disagree with the reference"


# --------------------------------------------------------------------------
# criterion 8: determinism, replay, golden traces
# --------------------------------------------------------------------------


def test_criterion_8_determinism_replay(lemma2_battery, prop3_battery):
    # every battery run replays from its trace to the identical final state
    for _, engine, _limits in lemma2_battery:
        assert replay_expansion(engine.events) == engine.snapshot()
    for _, engine in prop3_battery:
        assert replay_injury(engine.events) == engine.snapshot()

    # re-running a config reproduces the event stream bit-for-bit
    cfg, _ = lemma2_config(0)
    cfg.stages = 200
    again_cfg, _ = lemma2_config(0)
    again_cfg.stages = 200
    a, b = run_expansion(cfg), run_expansion(again_cfg)
    assert [e.to_json() for e in a.events] == [e.to_json() for e in b.events]
    icfg, jcfg = prop3_config(0), prop3_config(0)
    icfg.stages = jcfg.stages = 200
    ia, ib = run_injury(icfg), run_injury(jcfg)
    assert [e.to_json() for e in ia.events] == [e.to_json() for e in ib.events]

    # golden traces regenerate bit-exactly and their audited openings hold
    from test_golden import golden_lemma2_engine, golden_prop3_engine

    engine = golden_lemma2_engine()
    lines = (DATA / "golden_lemma2.trace.jsonl").read_text()
    buf = io.StringIO()
    buf.write(json.dumps({"record": "header", "engine": "lemma2",
                          "stages": 50}, separators=(",", ":")) + "\n")
    for ev in engine.events:
        buf.write(ev.to_json() + "\n")
    buf.write(json.dumps({"record": "final", **engine.snapshot()},
                         separators=(",", ":")) + "\n")
    assert buf.getvalue() == lines

    audited = [e for e in engine.events if e.stage == 1 and e.kind == "beta_i"]
    assert audited and audited[0].new == "1/16"

    prop = golden_prop3_engine()
    acts = [e for e in prop.events if e.kind == "act"]
    assert acts and acts[0].stage == 2 and acts[0].new == "0"
