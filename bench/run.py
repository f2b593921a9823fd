"""nsbf benchmark: one workload per process, checked against stored references.

Usage, from the repository root::

    python3 bench/run.py --workload eigs-kamke --seed 1 --seconds 30 --trace 0

Workloads: ``eigs-kamke``, ``ivp-kamke``, ``cli-build`` (see
``bench/README.md``).  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` a fixed list of
requests runs once untraced and once traced, and the object holds the
per-layer metrics instead.  Lines above it report the run context, each
metric under its descriptive name, and every failed operation.

The package under test is imported from this checkout's ``src/``; the run
stops with an error when it is missing or when ``nsbf`` resolves elsewhere.
"""

from __future__ import annotations

import os

# One client on one thread: pin BLAS/OpenMP pools before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from config import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
INIT = SRC / "nsbf" / "__init__.py"


def import_checkout():
    """Import nsbf from ROOT/src and return the resolved path of its
    ``__init__.py``; exit with a non-zero status when that is impossible."""
    if not INIT.is_file():
        sys.exit(f"error: {INIT.relative_to(ROOT)} not found; run the "
                 "benchmark from a full checkout")
    sys.path.insert(0, str(SRC))
    import nsbf

    found = os.path.realpath(nsbf.__file__)
    if found != os.path.realpath(INIT):
        sys.exit(f"error: nsbf resolved to {found}, not this checkout")
    return found


def load_references():
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        doc = json.load(fh)

    def cplx(pairs):
        return np.array([complex(re, im) for re, im in pairs])

    ivp = []
    for item in doc["ivp"]:
        re, im = item["omega"]
        ivp.append({
            "omega": complex(re, im) if im else re,
            "u0": item["u0"],
            "up0": item["up0"],
            "u": cplx(item["u"]),
            "uprime": cplx(item["uprime"]),
        })
    return {
        "eig": {k: np.array(v) for k, v in doc["eigenvalues"].items()},
        "ivp_nodes": np.array(doc["ivp_nodes"]),
        "ivp": ivp,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nsbf_init = import_checkout()
    import workloads as wl

    refs = load_references()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "eigs-kamke":
            res = wl.eigs_kamke(args, refs)
        elif args.workload == "ivp-kamke":
            res = wl.ivp_kamke(args, refs)
        else:
            res = wl.cli_build(args, refs, work, SRC, nsbf_init)
    except wl.Unmeasurable as exc:
        for line in exc.ledger.failures:
            print(f"FAILED {line}")
        sys.exit(f"error: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    ledger = res.ledger
    failed = len(ledger.failures)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nsbf": os.path.relpath(nsbf_init, ROOT),
        "failed_frac": failed / max(ledger.attempted, 1),
        **res.context,
    }
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        res.tracer.write(spans)
        context["spans_file"] = os.path.relpath(spans, ROOT)
        units = wl.LAYER_METRICS
        metrics = {k: {"value": float(res.metrics[k]), "unit": u}
                   for k, u in units.items()}
        for k, m in metrics.items():
            print(f"layer {k} = {m['value']:.6g} {m['unit']}")
    else:
        res.metrics["peak_rss_mb"] = wl.peak_rss_mb()
        res.metrics["ok_frac"] = 1.0 - failed / max(ledger.attempted, 1)
        metrics = {k: {"value": float(res.metrics[k]), "unit": u}
                   for k, u in wl.E2E_METRICS.items()}
        named = wl.REPORT_NAMES[args.workload]
        for k, m in metrics.items():
            label, unit = named.get(k, (k, m["unit"]))
            scale = 1e-3 if (unit, m["unit"]) == ("s", "ms") else 1.0
            line = f"metric {label} = {m['value'] * scale:.6g} {unit}"
            if k in res.raw and res.raw[k] != m["value"]:
                line += f" (unscaled {res.raw[k] * scale:.6g})"
            print(f"{line}  [{k}]")
        for label, (value, unit) in res.reported.items():
            print(f"metric {label} = {value:.6g} {unit}  [reported only]")
        print(f"metric failed_frac = {context['failed_frac']:.6g} frac")
    print("context " + json.dumps(context, sort_keys=True))
    for line in ledger.failures:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
