"""The celab benchmark: one workload, a closed loop with one client and no
threads, for a fixed time.

    python3 perfbench/run.py --workload lemma2_pipeline --seed 1 --seconds 20 --trace 0

Set-up runs `prepare.py` in a fresh interpreter N_SETUP times and reports
the median.  The timed loop then repeats the workload's round of ops, in
whole rounds and at least MIN_ROUNDS of them, until --seconds have passed;
every op's output is checked.  With --trace 0 the last stdout line reports
the end-to-end metrics; with --trace 1 rounds alternate untraced and traced,
and it reports per-layer self time and counts.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from math import inf
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = REPO / ".perfbench"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
N_SETUP = 5
MIN_ROUNDS = 3
CHUNKS = 128

# spans the benchmark records around its calls into each module
LAYER_SPANS = (
    "config.build", "streams.materialize",
    "expansion.run", "expansion.verify", "expansion.replay",
    "injury.run", "injury.verify", "injury.replay",
    "trace.write", "trace.read", "omega.seed", "omega.enumerate",
)
LAYER_COUNTS = {
    "streams.values": "count", "streams.faults": "count",
    "expansion.events": "count", "injury.events": "count",
    "injury.acts": "count", "injury.initializations": "count",
    "trace.bytes": "bytes", "omega.halts": "count",
}


class Tally:
    """Attempted and failed ops; the first few failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"perfbench: op {name} failed: {detail}", file=sys.stderr)


def set_up(args, work: Path) -> tuple[list[float], Path]:
    """Run the set-up N_SETUP times, each in a fresh interpreter; keep the
    first copy of the inputs (every copy is the same)."""
    times = []
    for i in range(N_SETUP):
        out = work / f"inputs-{i}"
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--out", str(out)],
            cwd=REPO, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"prepare.py exited {proc.returncode}")
        if i:
            shutil.rmtree(out)
    return times, work / "inputs-0"


def _probe() -> float:
    start = perf_counter()
    x = 0
    for i in range(20_000):
        x += i * i
    return perf_counter() - start


def pin_fastest_cpu(cpus: list[int]) -> None:
    """Move this process to whichever allowed CPU runs a short probe
    fastest right now.  On a shared host, other work slows one CPU at a
    time in bursts of a few seconds; dodging them before each op steadies
    its time without changing what the op does."""
    if len(cpus) < 2:
        return
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_probe(), _probe())
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


class LeastTime:
    """One op's least wall and CPU time over the run's rounds, kept as
    running minima.  The op is cut at its ticks into about CHUNKS chunks,
    and each chunk's least time over the rounds is summed.  The host slows
    this process in bursts shorter than an op, so the least time of each
    chunk filters out more of that than the least time of the whole op.
    The cuts are set by the first round; if a later round has another
    number of ticks, the op counts as one chunk."""

    def __init__(self, ticks: list[tuple[float, float]]):
        n = len(ticks)
        self.cuts = sorted(set(range(0, n - 1, max(1, (n - 1) // CHUNKS))) | {n - 1})
        self.chunks = [(inf, inf)] * (len(self.cuts) - 1)
        self.whole = (inf, inf)
        self.stages = 0
        self.add(ticks)

    def add(self, ticks: list[tuple[float, float]]) -> None:
        (w0, c0), (w1, c1) = ticks[0], ticks[-1]
        self.whole = (min(self.whole[0], w1 - w0), min(self.whole[1], c1 - c0))
        if self.chunks is None or len(ticks) != self.cuts[-1] + 1:
            self.chunks = None
            return
        self.chunks = [(min(w, ticks[b][0] - ticks[a][0]), min(c, ticks[b][1] - ticks[a][1]))
                       for (w, c), a, b in zip(self.chunks, self.cuts, self.cuts[1:])]

    def times(self) -> tuple[float, float]:
        if self.chunks is None:
            return self.whole
        return sum(w for w, _ in self.chunks), sum(c for _, c in self.chunks)


def least_times(clocks: list[LeastTime]) -> tuple[float, list[float], list[float]]:
    """Returns (stages per second of least wall time, least walls, least
    CPU times) over the ops of a round."""
    times = [clock.times() for clock in clocks]
    walls = [w for w, _ in times]
    return sum(clock.stages for clock in clocks) / sum(walls), walls, [c for _, c in times]


def expected_digests(args) -> list[str] | None:
    if args.seed != DEFAULT_SEED or args.size != "full":
        return None
    return json.loads(DIGESTS.read_text())["workloads"][args.workload]


def measure(args, workloads, inputs: Path, out_dir: Path, setup_times: list[float]) -> dict:
    """The CLI check, then the timed rounds; returns the result object."""
    manifest = json.loads((inputs / "manifest.json").read_text())
    ops = manifest["ops"]
    tracer = workloads.Tracer() if args.trace else workloads.NullTracer()
    expected = expected_digests(args)
    tally = Tally()

    # per-layer counts: each distinct input once (the check and one round)
    counts: dict[str, int] = {}

    def add_counts(res) -> None:
        for key, value in res.counts.items():
            counts[key] = counts.get(key, 0) + value

    n_traced_ops = 0
    for name, res in workloads.cli_check(manifest, inputs, out_dir, tracer):
        tally.add(name, res.ok, res.detail)
        if args.trace:
            n_traced_ops += 1
            add_counts(res)

    # per op index, for untraced and traced rounds
    clocks: dict[bool, dict[int, LeastTime]] = {False: {}, True: {}}
    first: list = []  # the results of the first round
    ticker = workloads.Ticker()
    cpus = sorted(os.sched_getaffinity(0))
    deadline = perf_counter() + args.seconds
    r = 0
    while r < MIN_ROUNDS or perf_counter() < deadline:
        traced = bool(args.trace) and r % 2 == 1
        tr = tracer if traced else ticker
        for k, op in enumerate(ops):
            tr.start_op(f"{r}.{k}")
            pin_fastest_cpu(cpus)
            try:
                with tr.span("op"):
                    res = workloads.run_op(op, inputs, out_dir, tr)
            except Exception as e:  # a failing op is counted, not fatal
                res, detail = None, f"{type(e).__name__}: {e}"
            if res is not None:
                detail = res.detail
                if expected is not None and res.digest != expected[k]:
                    res.ok, detail = False, "final state differs from the recorded digest"
            tally.add(f"{r}.{k}", res is not None and res.ok, detail)
            if k in clocks[traced]:
                clocks[traced][k].add(tr.ticks)
            else:
                clocks[traced][k] = LeastTime(tr.ticks)
            if res is not None:
                clocks[traced][k].stages = res.stages
            if r == 0:
                first.append(res)
            if traced:
                n_traced_ops += 1
                if r == 1 and res is not None:
                    add_counts(res)
        r += 1
    os.sched_setaffinity(0, cpus)

    plain = list(clocks[False].values())
    if args.trace:
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{args.workload}.jsonl")
        own = tracer.self_times()
        metrics = {f"{name}_s": (own.get(name, 0.0) / n_traced_ops, "s")
                   for name in LAYER_SPANS}
        metrics.update({name: (counts.get(name, 0), unit)
                        for name, unit in LAYER_COUNTS.items()})
        metrics["op.uncovered_s"] = (own.get("op", 0.0) / n_traced_ops, "s")
        metrics["tracing.overhead_stages_per_s"] = (
            least_times(plain)[0] - least_times(list(clocks[True].values()))[0], "1/s")
    else:
        rate, walls, cpu_times = least_times(plain)
        metrics = {
            "stages_per_s": (rate, "1/s"),
            "op_p50_s": (statistics.median(walls), "s"),
            "op_cpu_p50_s": (statistics.median(cpu_times), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "trace_bytes": (statistics.mean(res.bytes if res else 0 for res in first),
                            "bytes"),
            "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        }
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="celab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot load celab from this checkout: {e}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        setup_times, inputs = set_up(args, work)
        (work / "out").mkdir()
        result = measure(args, workloads, inputs, work / "out", setup_times)
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
