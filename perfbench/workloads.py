"""Seeded inputs, operations and span tracing for the celab benchmark.

An operation does what one `celab` command (or a run-then-replay pair of
them) does, calling the library's public functions in the order
`celab.cli` calls them, and checks its own output the way the CLI does.
The library is loaded from the `src/` directory next to this one, never
from an installed copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

REPO = Path(__file__).resolve().parent.parent
_SRC = REPO / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import celab  # noqa: E402

if Path(celab.__file__).resolve().parent != (_SRC / "celab").resolve():
    raise ImportError(f"celab was loaded from {celab.__file__}, not from {_SRC}")

from celab import expansion, injury  # noqa: E402
from celab.cli import main as cli_main  # noqa: E402
from celab.config import ConfigError, build_stream, build_suite, load_config  # noqa: E402
from celab.omega import OmegaEnumeration, bundled_machines  # noqa: E402
from celab.rationals import ONE, ZERO, format_rational, parse_rational, pow2_neg  # noqa: E402
from celab.streams import AdversarySuite, ApproxStream, Direction, SuiteEntry  # noqa: E402
from celab.trace import read_trace, write_trace  # noqa: E402

WORKLOADS = ("lemma2_pipeline", "prop3_pipeline", "omega_enumerate")

INC = Direction.INCREASING
DEC = Direction.DECREASING

# engine name -> (layer name, verifier, replay fold)
ENGINES = {
    "lemma2": ("expansion", expansion.verify_expansion, expansion.replay_expansion),
    "prop3": ("injury", injury.verify_injury, injury.replay_injury),
}

# The acceptance batteries' rates; 1/3, 2/3 and 3/4 make the lemma2
# Fractions grow, the dyadic ones keep them short.
RATES = ("1/2", "1/3", "2/3", "3/4", "1/4")

SLOW = "slow_approach"  # a benchmark-side stream kind, not a celab config kind


# --------------------------------------------------------------------------
# spans
# --------------------------------------------------------------------------


class NullTracer:
    """Tracing off: spans cost one no-op context manager, streams are left
    untouched."""

    op = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def wrap(self, fn, name: str):
        return fn

    def instrument(self, stream: ApproxStream) -> None:
        pass


class Ticker(NullTracer):
    """Tracing off, but a (wall, CPU) timestamp, a tick, at every span
    boundary, before every value of the op's first stream (once a stage in
    the engines) and before every wrapped call (once a stage in omega).
    `run.py` cuts each op into chunks at its ticks."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []
        self._stream_ticked = False

    def start_op(self, op: str) -> None:
        self.op = op
        self.ticks = []
        self._stream_ticked = False

    def tick(self) -> None:
        self.ticks.append((perf_counter(), process_time()))

    @contextlib.contextmanager
    def span(self, name: str):
        self.tick()
        try:
            yield
        finally:
            self.tick()

    def wrap(self, fn, name: str):
        def ticked(*args):
            self.tick()
            return fn(*args)

        return ticked

    def instrument(self, stream: ApproxStream) -> None:
        if not self._stream_ticked:
            self._stream_ticked = True
            stream.generator = self.wrap(stream.generator, "streams.materialize")


class Tracer(Ticker):
    """Spans kept in memory as [name, start, end, parent index, op id]; each
    span boundary is also a tick."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.tick()
        self.spans.append([name, self.ticks[-1][0], 0.0, parent, self.op])

    def end(self) -> None:
        self.tick()
        self.spans[self._open.pop()][2] = self.ticks[-1][0]

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, fn, name: str):
        def traced(*args):
            self.begin(name)
            try:
                return fn(*args)
            finally:
                self.end()

        return traced

    def instrument(self, stream: ApproxStream) -> None:
        """Time every value the stream materializes as a child span of
        whatever span asked for it."""
        stream.generator = self.wrap(stream.generator, "streams.materialize")

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the children's."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), t in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# --------------------------------------------------------------------------
# seeded inputs
# --------------------------------------------------------------------------


def _cycle(pattern, k: int) -> list:
    return [pattern[i % len(pattern)] for i in range(k)]


def _dealt(rng: random.Random, pattern, k: int) -> list:
    """k items cycling through `pattern`, in seeded order."""
    items = _cycle(pattern, k)
    rng.shuffle(items)
    return items


def _limit(rng: random.Random) -> str:
    return f"{rng.randint(1, 62)}/63"


def _constant_targets(rng: random.Random, k: int) -> list[dict]:
    return [{"role": role, "kind": "constant_target", "limit": _limit(rng), "rate": rate}
            for role, rate in zip(_cycle("LR", k), _cycle(RATES, k))]


def _trackers(starts: tuple[str, str]):
    def build(rng: random.Random, k: int) -> list[dict]:
        return [{"role": role, "kind": "tracker", "lag": lag,
                 "start": starts[0] if role == "L" else starts[1]}
                for role, lag in zip(_cycle("LR", k), _dealt(rng, (0, 1, 2), k))]
    return build


def _omegas(rng: random.Random, k: int) -> list[dict]:
    return [{"role": role, "kind": "omega", "machine": "pair" if role == "L" else "mini",
             "max_length": 10} for role in _cycle("LR", k)]


def _slow_approaches(rng: random.Random, k: int) -> list[dict]:
    roles = _cycle("LR", k)
    offsets = {"L": _dealt(rng, ("-1/2", "-1/4", "-1/8", "0/1", "0/1", "0/1"), k),
               "R": _dealt(rng, ("1/2", "1/4", "1/8"), k)}
    return [{"role": role, "kind": SLOW, "offset": offsets[role][j]}
            for j, role in enumerate(roles)]


# Kinds in the acceptance batteries' proportions, per ten adversaries.
LEMMA2_MIX = {_constant_targets: 6, _trackers(("1/16", "15/16")): 3, _omegas: 1}
PROP3_MIX = {_constant_targets: 4, _trackers(("1/32", "31/32")): 3, _slow_approaches: 3}


def _interleaved(mix: dict, k: int) -> list:
    """k kinds in the mix's proportions, spread evenly, so that even a
    small suite holds every kind."""
    slots = sorted(((j + 0.5) / share, i, build)
                   for i, (build, share) in enumerate(mix.items()) for j in range(share))
    return _cycle([build for *_, build in slots], k)


def _suites(rng: random.Random, counts: list[int], mix: dict) -> list[list[dict]]:
    """One suite per entry of `counts`.  Each adversary's kind, role and
    (for constant targets) rate are fixed by its position; the seed draws
    the limits, lags and offsets."""
    kinds = _interleaved(mix, sum(counts))
    specs = {build: iter(build(rng, kinds.count(build))) for build in mix}
    pool = [next(specs[kind]) for kind in kinds]
    suites, used = [], 0
    for n in counts:
        suites.append([{"index": i, **spec} for i, spec in enumerate(pool[used:used + n])])
        used += n
    return suites


def lemma2_configs(rng: random.Random, counts: list[int], stages: int) -> list[dict]:
    """`celab run-lemma2` configs shaped like the acceptance battery, one per
    adversary count: constant targets, trackers and omega streams (L=10)."""
    return [{"engine": "lemma2", "stages": stages,
             "alpha": {"kind": "constant_target", "limit": f"{rng.randint(32, 62)}/63",
                       "rate": RATES[j % 5]},
             "eta": {"kind": "constant_target", "limit": _limit(rng),
                     "rate": RATES[(j + 2) % 5]},
             "suite": suite}
            for j, suite in enumerate(_suites(rng, counts, LEMMA2_MIX))]


def prop3_configs(rng: random.Random, counts: list[int], stages: list[int]) -> list[dict]:
    """prop3 configs shaped like the acceptance battery, including the
    slow-approach adversaries that provoke late acts and injuries."""
    return [{"engine": "prop3", "stages": t, "suite": suite}
            for t, suite in zip(stages, _suites(rng, counts, PROP3_MIX))]


def slow_approach(offset, direction: Direction) -> ApproxStream:
    """Stream creeping toward offset +/- 2^-40, as in the acceptance
    battery; its late, tiny final gap provokes acts and injuries."""
    if direction is INC:
        final = offset + pow2_neg(40)
        gen = lambda s, _p: final - pow2_neg(min(s + 1, 39))  # noqa: E731
    else:
        final = offset - pow2_neg(40)
        gen = lambda s, _p: final + pow2_neg(min(s + 1, 39))  # noqa: E731
    return ApproxStream(direction, gen, unit_interval=False, label="slow")


def round_inputs(workload: str, seed: int, size: str) -> list[dict]:
    """The inputs of one round of a workload.  A run repeats its round, so
    every run of one seed sees the same inputs however many rounds fit.  The
    properties that set an op's cost (adversary counts and kinds, rates,
    stage counts, machines and program lengths) and the order of the ops are
    a fixed design, so that seeds differ in the details (limits, lags,
    offsets, stage counts of omega) and not in how much work a round is.
    A round is short (one to three ops), so that each op is timed many
    times in a run."""
    rng = random.Random(f"{workload}/{seed}")
    tiny = size == "tiny"
    if workload == "lemma2_pipeline":
        counts = [2, 5] if tiny else [3, 7]
        return [{"config": c} for c in lemma2_configs(rng, counts, 60 if tiny else 1000)]
    elif workload == "prop3_pipeline":
        counts, stages = ([6], [100]) if tiny else ([6], [2000])
        return [{"config": c} for c in prop3_configs(rng, counts, stages)]
    elif workload == "omega_enumerate":
        plan = ([("pair", 6), ("mini", 7), ("silent", 8)] if tiny else
                [("pair", 16), ("mini", 18), ("silent", 17)])
        return [{"machine": machine, "length": length,
                 "stages": rng.randint(30, 50) if tiny else rng.randint(990, 1010)}
                for machine, length in plan]
    raise ValueError(f"unknown workload {workload!r}")


def check_inputs(seed: int) -> dict:
    """Small inputs for the once-per-run check that `celab.cli.main` and the
    op path agree on every command."""
    rng = random.Random(f"cli-check/{seed}")
    # ten adversaries hold every kind; slow approaches have no config form
    [prop3] = prop3_configs(rng, [10], [100])
    prop3["suite"] = [s for s in prop3["suite"] if s["kind"] != SLOW]
    return {
        "lemma2": lemma2_configs(rng, [10], 100)[0],
        "prop3": prop3,
        "omega": {"machine": rng.choice(("pair", "mini")), "length": 8,
                  "stages": rng.randint(40, 60)},
    }


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------


@dataclass
class OpResult:
    ok: bool
    stages: int
    bytes: int
    digest: str
    counts: dict[str, int] = field(default_factory=dict)
    detail: str = ""


def digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_engine(engine_name: str, config_path: Path, tracer: NullTracer):
    """What `celab run-<engine>` does before writing: load the config, build
    the streams, run the engine.  Returns (run config, engine, snapshot,
    every stream built)."""
    layer = ENGINES[engine_name][0]
    with tracer.span("config.build"):
        rc = load_config(config_path)
        if rc.engine != engine_name:
            raise ConfigError(f"config engine is {rc.engine!r}, expected {engine_name!r}")
        streams: list[ApproxStream] = []
        if engine_name == "lemma2":
            streams.append(build_stream(rc.alpha_spec, INC, label="alpha"))
            streams.append(build_stream(rc.eta_spec, INC, label="eta"))
    for stream in streams:
        tracer.instrument(stream)

    def suite(view):
        with tracer.span("config.build"):
            specs = [s for s in rc.suite_specs if s.get("kind") != SLOW]
            built = build_suite(specs, view)
            slow = [s for s in rc.suite_specs if s.get("kind") == SLOW]
            if slow:
                built = AdversarySuite(list(built.entries) + [
                    SuiteEntry(s["index"], s["role"], slow_approach(
                        parse_rational(s["offset"]), INC if s["role"] == "L" else DEC))
                    for s in slow])
        for entry in built.entries:
            tracer.instrument(entry.stream)
            streams.append(entry.stream)
        return built

    with tracer.span(f"{layer}.run"):
        if engine_name == "lemma2":
            engine = expansion.run_expansion(expansion.ExpansionConfig(
                alpha=streams[0], eta=streams[1], suite=suite, stages=rc.stages))
        else:
            engine = injury.run_injury(injury.InjuryConfig(suite=suite, stages=rc.stages))
        snapshot = engine.snapshot()
    return rc, engine, snapshot, streams


def write_run_trace(engine_name: str, config_path: Path, trace_path: Path,
                    tracer: NullTracer):
    """Run an engine and write its trace as `celab run-<engine>` does."""
    rc, engine, snapshot, streams = run_engine(engine_name, config_path, tracer)
    with tracer.span("trace.write"):
        write_trace(trace_path, {"engine": engine_name, "stages": rc.stages},
                    engine.events, snapshot)
    return engine, snapshot, streams


def verify_file(trace_path: Path, tracer: NullTracer):
    """What `celab verify` does: read the trace and re-check every invariant."""
    with tracer.span("trace.read"):
        header, events, final = read_trace(trace_path)
    layer, verify, _ = ENGINES[header["engine"]]
    with tracer.span(f"{layer}.verify"):
        return header["engine"], verify(events, final)


def replay_file(trace_path: Path, tracer: NullTracer):
    """What `celab replay` does: fold the events back into a final state and
    compare it with the recorded snapshot.  Returns (matches, recorded)."""
    with tracer.span("trace.read"):
        header, events, final = read_trace(trace_path)
    layer, _, replay = ENGINES[header["engine"]]
    with tracer.span(f"{layer}.replay"):
        rebuilt = replay(events)
    recorded = {k: v for k, v in final.items() if k != "record"}
    return rebuilt == recorded, recorded


def _verify_counts(engine_name: str, report) -> dict[str, int]:
    if engine_name != "prop3":
        return {}
    return {"injury.acts": report.stats["acts"],
            "injury.initializations": report.stats["initializations"]}


def _verdict(report, replayed: bool) -> tuple[bool, str]:
    detail = [] if report.all_green else [f"verify: {report.first_failure()}"]
    if not replayed:
        detail.append("replay: final state differs from the recorded snapshot")
    return not detail, "; ".join(detail)


def pipeline_op(engine_name: str, config_path: Path, out_dir: Path,
                tracer: NullTracer) -> OpResult:
    """`celab run-<engine>` then `celab replay` on its trace."""
    layer, verify, _ = ENGINES[engine_name]
    trace_path = out_dir / f"{engine_name}.trace.jsonl"
    engine, snapshot, streams = write_run_trace(engine_name, config_path, trace_path, tracer)
    with tracer.span(f"{layer}.verify"):
        report = verify(engine.events, snapshot)
    (out_dir / f"{engine_name}.report.txt").write_text(report.render_text() + "\n")
    (out_dir / f"{engine_name}.report.json").write_text(
        json.dumps(report.to_dict(), indent=2) + "\n")
    replayed, recorded = replay_file(trace_path, tracer)
    size = trace_path.stat().st_size
    counts = {
        f"{layer}.events": len(engine.events),
        "streams.values": sum(s.materialized for s in streams),
        "streams.faults": sum(len(s.faults) for s in streams),
        "trace.bytes": size,
        **_verify_counts(engine_name, report),
    }
    ok, detail = _verdict(report, replayed)
    return OpResult(ok, snapshot["stage"], size, digest(recorded), counts, detail)


def audit_op(trace_path: Path, tracer: NullTracer) -> OpResult:
    """`celab verify` then `celab replay` on one recorded trace."""
    engine_name, report = verify_file(trace_path, tracer)
    replayed, recorded = replay_file(trace_path, tracer)
    ok, detail = _verdict(report, replayed)
    return OpResult(ok, recorded["stage"], 2 * trace_path.stat().st_size,
                    digest(recorded), _verify_counts(engine_name, report), detail)


def omega_op(machine: str, length: int, stages: int, out_path: Path,
             tracer: NullTracer) -> OpResult:
    """`celab omega enumerate`, its output written to a file; Omega must be
    monotone and inside [0, 1) at every stage."""
    with tracer.span("omega.seed"):
        enum = OmegaEnumeration(bundled_machines()[machine], length)
    omega_at = tracer.wrap(enum.omega, "omega.enumerate")
    values = [omega_at(s) for s in range(stages + 1)]
    text = "".join(f"{s}\t{format_rational(v)}\n" for s, v in enumerate(values))
    out_path.write_text(text)
    ok = all(ZERO <= v < ONE for v in values) and all(
        a <= b for a, b in zip(values, values[1:]))
    return OpResult(ok, stages, len(text.encode()), digest(text),
                    {"omega.halts": len(enum.halted)},
                    "" if ok else "Omega not monotone inside [0, 1)")


# --------------------------------------------------------------------------
# set-up and the per-op dispatch
# --------------------------------------------------------------------------


def prepare(workload: str, seed: int, size: str, out: Path) -> dict:
    """Write one run's inputs under `out` and return the manifest the timed
    loop reads: the config files and the inputs of the CLI check."""
    out.mkdir(parents=True, exist_ok=True)
    ops = []
    for k, item in enumerate(round_inputs(workload, seed, size)):
        if "config" not in item:
            ops.append({"kind": "omega", **item})
            continue
        config_path = out / f"config-{k:02d}.json"
        config_path.write_text(json.dumps(item["config"], indent=2) + "\n")
        ops.append({"kind": "pipeline", "engine": item["config"]["engine"],
                    "config": config_path.name})
    check = check_inputs(seed)
    for engine_name in ENGINES:
        (out / f"check-{engine_name}.json").write_text(json.dumps(check[engine_name]) + "\n")
    manifest = {"ops": ops, "check_omega": check["omega"]}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def run_op(op: dict, inputs: Path, out_dir: Path, tracer: NullTracer) -> OpResult:
    if op["kind"] == "pipeline":
        return pipeline_op(op["engine"], inputs / op["config"], out_dir, tracer)
    return omega_op(op["machine"], op["length"], op["stages"],
                    out_dir / "omega.txt", tracer)


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def _attempt(name: str, check) -> tuple[str, OpResult]:
    try:
        return name, check()
    except Exception as e:  # a failing check is counted, not fatal
        return name, OpResult(False, 0, 0, "", detail=f"{type(e).__name__}: {e}")


def cli_check(manifest: dict, inputs: Path, out_dir: Path,
              tracer: NullTracer) -> list[tuple[str, OpResult]]:
    """Run every command once through `celab.cli.main` and through the op
    path, on small inputs, and require exit status 0 and the same bytes."""

    def run_command(engine_name: str) -> OpResult:
        config_path = inputs / f"check-{engine_name}.json"
        op_dir = out_dir / f"check-op-{engine_name}"
        cli_dir = out_dir / f"check-cli-{engine_name}"
        op_dir.mkdir()
        tracer.op = f"check-run-{engine_name}"
        with tracer.span("op"):
            res = pipeline_op(engine_name, config_path, op_dir, tracer)
        code, _ = _quiet_cli([f"run-{engine_name}", "--config", str(config_path),
                              "--out-dir", str(cli_dir)])
        trace_name = f"{engine_name}.trace.jsonl"
        if code != 0 or ((cli_dir / trace_name).read_bytes()
                         != (op_dir / trace_name).read_bytes()):
            res.ok, res.detail = False, f"celab run-{engine_name} exit {code} or trace differs"
        return res

    def audit_commands(engine_name: str) -> OpResult:
        trace_path = out_dir / f"check-op-{engine_name}" / f"{engine_name}.trace.jsonl"
        tracer.op = f"check-audit-{engine_name}"
        with tracer.span("op"):
            res = audit_op(trace_path, tracer)
        codes = [_quiet_cli([cmd, "--trace", str(trace_path)])[0]
                 for cmd in ("verify", "replay")]
        if codes != [0, 0]:
            res.ok, res.detail = False, f"celab verify/replay exit {codes}"
        return res

    def omega_command() -> OpResult:
        spec = manifest["check_omega"]
        tracer.op = "check-omega"
        with tracer.span("op"):
            res = omega_op(spec["machine"], spec["length"], spec["stages"],
                           out_dir / "check-omega.txt", tracer)
        code, text = _quiet_cli(["omega", "enumerate", "--machine", spec["machine"],
                                 "--length", str(spec["length"]),
                                 "--stages", str(spec["stages"])])
        if code != 0 or text != (out_dir / "check-omega.txt").read_text():
            res.ok, res.detail = False, f"celab omega enumerate exit {code} or output differs"
        return res

    results = []
    for engine_name in ENGINES:
        results.append(_attempt(f"cli run-{engine_name}", lambda: run_command(engine_name)))
        results.append(_attempt(f"cli verify+replay {engine_name}",
                                lambda: audit_commands(engine_name)))
    results.append(_attempt("cli omega enumerate", omega_command))
    tracer.op = None
    return results
