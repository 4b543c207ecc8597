"""Configs and flags fuzzed through `celab.cli.main`: whatever a config or a
flag holds, a command exits 0, with the check's own 1 where a command
answers a check, or 2 with a config error, and never raises.  Every trace
an exit-0 run writes verifies and replays with exit 0.

A config is drawn valid, then one of its objects (the config, a stream
spec, a suite entry, an omega `plus`) has one key set to a wrong value,
dropped, or added.  Omega lengths come from 1..33, past the longest lengths
the bundled machines accept (29 or 30; `pair` at 29 has 599,186 programs),
and from 34..10^6, which every bundled machine refuses."""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from celab.cli import EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR, EXIT_OK, main
from celab.config import ENGINES, HARD_CAP

FUZZ = settings(max_examples=120, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# values of the wrong type or out of range for any field
WRONG = st.one_of(
    st.booleans(), st.none(), st.integers(-5, 0), st.sampled_from([10**6, HARD_CAP + 1]),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2), st.just({"kind": "omega"}),
    st.sampled_from(["0", "-1/2", "1/0", "x", "1/1", "2", "0.5"]),
    # spellings that only a lenient reader took for p/q text
    st.sampled_from([" 1/2 ", "+1/2", "-1/-2", "1_0/20", "\u0661/\u0662", ["1/2"]]),
)
FRACTION = st.builds(lambda k: f"{k}/16", st.integers(1, 15))
RATE = st.sampled_from(["1/2", "1/3", "2/3", "3/4"])
MACHINE = st.sampled_from(["pair", "mini", "silent"])
MAX_LENGTH = st.one_of(st.integers(1, 33), st.integers(34, 10**6))

CONSTANT = st.fixed_dictionaries({"kind": st.just("constant_target"), "limit": FRACTION,
                                  "rate": RATE})
TRACKER = st.fixed_dictionaries({"kind": st.just("tracker"), "start": FRACTION},
                                optional={"lag": st.integers(0, 3)})
OMEGA = st.fixed_dictionaries(
    {"kind": st.just("omega")},
    optional={"machine": MACHINE, "max_length": MAX_LENGTH,
              "offset": st.sampled_from(["0/1", "1/8", "1/4", "3/4", "1/1"]),
              "scale": st.sampled_from(["1/2", "1/4", "-1/2", "-1/4"]),
              "plus": st.fixed_dictionaries({"limit": FRACTION}, optional={"rate": RATE})})
STREAM = st.one_of(CONSTANT, TRACKER, OMEGA)
ENTRY = st.builds(lambda spec, index, role: dict(spec, index=index, role=role),
                  STREAM, st.integers(0, 4), st.sampled_from(["L", "R"]))
CONFIG = st.builds(
    lambda engine, stages, suite, alpha, eta: {
        "engine": engine, "stages": stages, "suite": suite,
        **({"alpha": alpha, "eta": eta} if engine == "lemma2" else {})},
    st.sampled_from(sorted(ENGINES)), st.integers(1, 50), st.lists(ENTRY, max_size=3),
    STREAM, STREAM)


def objects(value):
    """Every JSON object in `value`, itself first if it is one."""
    if isinstance(value, dict):
        yield value
        for item in value.values():
            yield from objects(item)
    elif isinstance(value, list):
        for item in value:
            yield from objects(item)


@st.composite
def configs(draw):
    config = draw(CONFIG)
    edit = draw(st.sampled_from(["none", "set", "drop", "add", "replace"]))
    if edit == "replace":  # the config itself is not an object
        return draw(WRONG)
    if edit != "none":
        holder = draw(st.sampled_from(list(objects(config))))
        if edit == "add":
            holder[draw(st.sampled_from(["extra", "kind", "plus", "index", "hard_cap"]))] = 1
        else:
            key = draw(st.sampled_from(sorted(holder)))
            if edit == "drop":
                del holder[key]
            else:
                holder[key] = draw(WRONG)
    return config


def run(argv: list[str]) -> int:
    code = main(argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR)
    return code


@FUZZ
@given(config=configs(), command=st.sampled_from(sorted(ENGINES)))
def test_configs_run_or_are_refused(config, command):
    if isinstance(config, dict) and config.get("engine") in ENGINES:
        command = config["engine"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(config))
        code = run([f"run-{command}", "--config", str(path), "--out-dir", tmp])
        assert code in (EXIT_OK, EXIT_CONFIG_ERROR)
        if code == EXIT_OK:
            trace = str(Path(tmp) / f"{command}.trace.jsonl")
            assert run(["verify", "--trace", trace]) == EXIT_OK
            assert run(["replay", "--trace", trace]) == EXIT_OK


STAGES = st.integers(-2, 20).map(str)
RATIONAL_FLAG = st.sampled_from(["1/2", "3/4", "1/1", "2/1", "1", "2", "0", "-1/2", "1/0", "x",
                                 "0.5", " +3/1"])
# a stream spec flag: a spec, valid or with one key set wrong, or not JSON
SPEC_FLAG = st.one_of(
    STREAM.map(json.dumps),
    st.builds(lambda spec, key, value: json.dumps({**spec, key: value}),
              STREAM, st.sampled_from(["kind", "limit", "rate", "max_length", "machine", "lag"]),
              WRONG),
    st.sampled_from(["[1]", "{", "7", "null"]),
)
SOLOVAY_CHECK = st.builds(
    lambda clause, q, alpha, beta, stages, horizon: [
        "solovay", "check", "--clause", clause, f"--q={q}", "--alpha", alpha, "--beta", beta,
        "--stages", stages, *horizon],
    st.sampled_from("abc"), RATIONAL_FLAG, SPEC_FLAG, SPEC_FLAG, STAGES,
    st.one_of(st.just([]), st.integers(-2, 40).map(lambda h: ["--horizon", str(h)])))
SPEEDUP = st.builds(
    lambda p, alpha, beta, stages: ["solovay", "speedup", f"--p={p}", "--alpha", alpha,
                                    "--beta", beta, "--stages", stages],
    RATIONAL_FLAG, SPEC_FLAG, SPEC_FLAG, STAGES)
OMEGA_ENUMERATE = st.builds(
    lambda machine, length, stages: ["omega", "enumerate", "--machine", machine,
                                     "--length", str(length), "--stages", stages],
    st.sampled_from(["pair", "mini", "silent", "ghost"]),
    st.one_of(st.integers(-1, 33), st.integers(34, 10**6)), STAGES)


@FUZZ
@given(argv=st.one_of(SOLOVAY_CHECK, SPEEDUP, OMEGA_ENUMERATE))
def test_flags_run_or_are_refused(argv):
    code = run(argv)
    # only a clause check answers 1, when the clause fails
    assert code != EXIT_CHECK_FAILED or argv[1] == "check"
