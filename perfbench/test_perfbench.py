"""The benchmark's own tests: tiny runs print every metric BENCHMARK.json
names, corrupted ops count as failed, and the benchmark refuses to run
without the library.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((run.REPO / "BENCHMARK.json").read_text())


def bench(*argv, cwd=run.REPO):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_matches_the_command():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        assert (workloads.round_inputs(workload, 3, "full")
                == workloads.round_inputs(workload, 3, "full"))
        assert (workloads.round_inputs(workload, 3, "full")
                != workloads.round_inputs(workload, 4, "full"))


def test_least_time_sums_the_least_time_of_each_chunk():
    def ticks(*walls):
        return [(w, w / 2) for w in walls]

    clock = run.LeastTime(ticks(0, 1, 3))      # chunks 1 and 2
    clock.add(ticks(10, 12, 13))               # chunks 2 and 1
    assert clock.times() == (2, 1)
    clock.add(ticks(20, 21))                   # another number of ticks
    assert clock.times() == (1, 0.5)           # the least whole op


def _pipeline_inputs(tmp_path):
    inputs = tmp_path / "inputs"
    manifest = workloads.prepare("prop3_pipeline", 5, "tiny", inputs)
    (tmp_path / "out").mkdir()
    return inputs, manifest["ops"]


def _measure(tmp_path, inputs):
    args = Namespace(workload="prop3_pipeline", seed=5, size="tiny", trace=0, seconds=0.0)
    return run.measure(args, workloads, inputs, tmp_path / "out", [1.0])


def test_altered_final_snapshot_fails(tmp_path):
    inputs, ops = _pipeline_inputs(tmp_path)
    trace = tmp_path / "trace.jsonl"
    workloads.write_run_trace("prop3", inputs / ops[0]["config"], trace,
                              workloads.NullTracer())
    assert workloads.audit_op(trace, workloads.NullTracer()).ok
    lines = trace.read_text().splitlines()
    final = json.loads(lines[-1])
    final["stage"] += 1
    trace.write_text("\n".join(lines[:-1] + [json.dumps(final)]) + "\n")
    assert not workloads.audit_op(trace, workloads.NullTracer()).ok


def test_wrong_replay_counts_as_failed(tmp_path, monkeypatch):
    inputs, ops = _pipeline_inputs(tmp_path)
    layer, verify, replay = workloads.ENGINES["prop3"]
    monkeypatch.setitem(workloads.ENGINES, "prop3",
                        (layer, verify, lambda events: {**replay(events), "stage": -1}))

    result = _measure(tmp_path, inputs)
    assert result["correct"] is False
    # every timed op, and the two prop3 ops of the CLI check
    assert result["failed"] == run.MIN_ROUNDS * len(ops) + 2
    assert result["metrics"]["ok_ratio"]["value"] < 1


def test_raising_op_is_counted_and_the_run_goes_on(tmp_path):
    inputs, ops = _pipeline_inputs(tmp_path)
    config = inputs / ops[0]["config"]
    config.write_text(config.read_text().replace('"prop3"', '"lemma2"'))

    result = _measure(tmp_path, inputs)
    assert result["correct"] is False
    assert result["failed"] == run.MIN_ROUNDS * len(ops)
    assert result["attempted"] == 5 + run.MIN_ROUNDS * len(ops)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "lemma2_pipeline", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
