"""Set-up step of the celab benchmark, run in a fresh interpreter so that
its time includes importing the library.

    python3 perfbench/prepare.py --workload NAME --seed N --size full --out DIR

Writes the run's inputs and `manifest.json` under DIR.
"""

from __future__ import annotations

import argparse
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import workloads

    workloads.prepare(args.workload, args.seed, args.size, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
