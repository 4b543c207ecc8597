"""Record the digests that `run.py` checks each op against on the default
seed: one digest per op of every workload's full-size round (the final
snapshot for the engine workloads, the Omega text for omega_enumerate).

    python3 perfbench/record_digests.py

Re-record only after a deliberate change to engine or enumeration results.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    recorded = {}
    for workload in workloads.WORKLOADS:
        work = Path(tempfile.mkdtemp(prefix="digests-", dir=run.WORK))
        try:
            manifest = workloads.prepare(workload, run.DEFAULT_SEED, "full", work / "inputs")
            (work / "out").mkdir()
            recorded[workload] = []
            for op in manifest["ops"]:
                res = workloads.run_op(op, work / "inputs", work / "out", workloads.NullTracer())
                if not res.ok:
                    raise SystemExit(f"{workload}: op {op} failed: {res.detail}")
                recorded[workload].append(res.digest)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(
        {"seed": run.DEFAULT_SEED, "workloads": recorded}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
