"""Run every benchmark workload, each in its own fresh process.

Usage, from the repository root::

    python3 bench/all.py --seed 1 --seconds 30

It prints the end-to-end metrics; the per-layer numbers come from the
separate traced run, ``bench/run.py --trace 1``.

Each run's report passes through unchanged (see ``bench/run.py``); the exit
status is non-zero when any run fails or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from config import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines or \
                not json.loads(lines[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
