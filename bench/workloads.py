"""The benchmark's three workloads.

Load model: closed loop, one client.  Each request waits for the previous
result; everything runs on the calling thread; CLI child processes run one
at a time.  The workload seed only chooses inputs; the library sees the
generated inputs and nothing else.

Every workload returns the same end-to-end metric names (``E2E_METRICS``);
``REPORT_NAMES`` gives the descriptive name each one is printed under on
each workload.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import itertools
import math
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from nsbf import cli, coefficients, expressions, grid, liouville, oracles
from nsbf import seed as seed_mod
from nsbf import solver

from config import BOUNDARY_PAIRS, GRID_M, KAMKE_LENGTH, PROBE_REF_S
from tracing import Tracer

#: criterion-1 tolerances; both must hold for every referenced eigenvalue
EIG_ABS_TOL = 1e-9
EIG_REL_TOL = 1e-12
#: IVP check: max(|u - ref|, |u' - ref'| / |omega|) <= this * max(1, |ref|)
IVP_REL_TOL = 1e-8

#: set-ups timed before and again after the timed loop
SETUP_REPEATS = 4
IMPORT_REPEATS = 2
EIG_COUNTS = (100, 1000)
EIG_SMALL_PER_PAIR = 2
CHECK_COUNT = oracles.MAX_EIGENVALUE_COUNT
OMEGA_RANGE = (10.0, 2000.0)
COMPLEX_SHARE = 0.25
IMAG_RANGE = (0.05, 2.0)
CLI_COUNT = 10
CHILD_TIMEOUT_S = 120
#: ivp-kamke probes the machine speed once per this many seconds of requests
PROBE_EVERY_S = 1.0
#: a timing is scaled by the probes within this many times its length of it
PROBE_WINDOW = 2.0
#: requests in the traced run: fixed, so its counts repeat exactly
TRACED_EIG_REQUESTS = 1 + len(BOUNDARY_PAIRS)
TRACED_IVP_REQUESTS = 1000
TRACED_CLI_PROBLEMS = 4

E2E_METRICS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "items_per_s": "1/s",
    "typical_ms": "ms",
    "slow_ms": "ms",
    "err_max": "abs",
}

#: generic end-to-end name -> (name the report line prints, its unit), per
#: workload; names missing here are printed as they are.
REPORT_NAMES = {
    "eigs-kamke": {
        "items_per_s": ("eigs_per_s", "1/s"),
        "typical_ms": ("sweep100_s_p50", "s"),
        "slow_ms": ("sweep1000_s_p50", "s"),
        "err_max": ("eig_err_max", "abs"),
    },
    "ivp-kamke": {
        "items_per_s": ("ivp_per_s", "1/s"),
        "typical_ms": ("ivp_ms_p50", "ms"),
        "slow_ms": ("ivp_complex_ms_p50", "ms"),
        "err_max": ("ivp_err_max", "abs"),
    },
    "cli-build": {
        "items_per_s": ("cli_runs_per_s", "1/s"),
        "typical_ms": ("cli_warm_s_p50", "s"),
        "slow_ms": ("cli_cold_s_p50", "s"),
        "err_max": ("cli_kamke_err_max", "abs"),
    },
}

LAYER_METRICS = {
    "liouville.build_s": "s",
    "seed.compute_s": "s",
    "seed.min_abs_g": "abs",
    "seed.complex": "count",
    "grid.cumint_calls": "count",
    "grid.self_s": "s",
    "coefficients.build_s": "s",
    "coefficients.N_opt": "count",
    "coefficients.floor": "abs",
    "coefficients.cache_save_s": "s",
    "coefficients.cache_load_s": "s",
    "coefficients.cache_bytes": "bytes",
    "bessel.calls": "count",
    "bessel.elements": "count",
    "bessel.self_s": "s",
    "bessel.ns_per_element": "ns",
    "solver.char_calls_per_eig": "ratio",
    "solver.refine_iters_per_eig": "ratio",
    "solver.scan_self_s": "s",
    "solver.char_self_s": "s",
    "solver.char_residual_max": "abs",
    "solver.ivp_self_s": "s",
    "solver.wronskian_drift": "ratio",
    "expressions.parse_s": "s",
    "cli.import_s": "s",
    "cli.load_config_s": "s",
    "cli.prepare_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


class Ledger:
    """Counts operations; a failing one is kept with its reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{op}: {'; '.join(problems)}")
        return not problems


class Result:
    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.metrics: dict = {}
        self.raw: dict = {}
        self.reported: dict = {}
        self.context: dict = {}
        self.tracer: Tracer | None = None

    def set_figures(self, figures, speed: "SpeedProbe") -> None:
        """``figures(speed or None)`` gives the metric dict from scaled or
        raw timings; the scaled one becomes the metrics."""
        self.metrics = figures(speed)
        self.raw = figures(None)
        self.context["probe_ms_p50"] = 1e3 * median(speed.samples)
        self.context["probes"] = len(speed.samples)


class SpeedProbe:
    """Times a fixed numpy/Python kernel that shares no code with nsbf.

    The benchmark's machine is shared, and its speed drifts by tens of
    percent within a minute; the drift moves every timing made at that
    moment together.  Runs probe the speed between requests, and each
    timing is scaled by PROBE_REF_S / (mean time of the probes around it),
    so runs made at different moments compare.  Report lines print the
    unscaled values as well."""

    def __init__(self):
        self._small = np.linspace(0.1, 3.0, 40)
        self._large = np.linspace(0.0, 1.0, 39 * GRID_M).reshape(39, GRID_M)
        self._large = self._large + 0.5j
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.samples: list[float] = []

    def probe(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        x = self._small
        for i in range(3000):
            acc += float((np.cos(x * (1.0 + i * 1e-6)) * x).sum())
        for i in range(30):
            acc += float(np.abs((self._large * (1.0 + i)).sum(axis=0)).max())
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.samples.append(t1 - t0)
        return acc

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end] at the reference speed.

        The probes around it are the nearest one on each side and every
        probe within PROBE_WINDOW times its length of it, so a long request
        is scaled by the speed over a stretch as long as itself."""
        reach = PROBE_WINDOW * (end - start)
        before = bisect.bisect_right(self.ends, start)
        first = min(bisect.bisect_left(self.ends, start - reach),
                    before - 1)
        after = bisect.bisect_left(self.starts, end)
        last = max(bisect.bisect_right(self.starts, end + reach), after + 1)
        near = self.samples[max(first, 0):before] + self.samples[after:last]
        return (end - start) * PROBE_REF_S * len(near) / sum(near)


def secs(spans, speed: SpeedProbe | None):
    """Durations of (start, end) pairs, scaled when ``speed`` is given."""
    if speed is None:
        return [b - a for a, b in spans]
    return [speed.scaled(a, b) for a, b in spans]


class Unmeasurable(Exception):
    """Every operation of a measured kind failed; there is no time to
    report.  Carries the ledger so the failures can still be printed."""

    def __init__(self, what: str, ledger: Ledger):
        super().__init__(f"no successful {what}")
        self.ledger = ledger


def seeded(seed: int) -> np.random.Generator:
    """The generator behind a workload's inputs; any integer seed works."""
    return np.random.default_rng(seed % 2**64)


def median(xs) -> float:
    return float(np.median(np.asarray(xs, dtype=np.float64)))


def require(samples, what: str, ledger: Ledger):
    if not samples:
        raise Unmeasurable(what, ledger)
    return samples


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def tail(samples):
    """Highest percentile with at least ten samples beyond it."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = xs.size
    if n < 11:
        return float(xs[-1]), 100.0, n
    return float(xs[n - 11]), 100.0 * (n - 10) / n, n


def build_kamke():
    """Coefficient set and evaluator of the Kamke problem on m = GRID_M."""
    problem = oracles.kamke_problem()
    g = grid.Grid(problem.a, problem.b, GRID_M)
    data = liouville.build_liouville(problem, g)
    sd = seed_mod.compute_seed(problem, data)
    coeffs = coefficients.build_coefficients(data, sd)
    return solver.SolutionEvaluator(coeffs, data, sd)


def timed_builds(spans: list, speed: SpeedProbe):
    """Append the (start, end) of SETUP_REPEATS Kamke builds, each between
    two speed probes; return the last build.

    Runs call this before and after the timed loop, so the reported median
    spans the whole run instead of one moment of machine load."""
    ev = None
    for _ in range(SETUP_REPEATS):
        speed.probe()
        t0 = time.perf_counter()
        ev = build_kamke()
        spans.append((t0, time.perf_counter()))
    speed.probe()
    return ev


def run_until(deadline, requests, needed=lambda: False):
    """Requests until the deadline has passed and ``needed()`` is false."""
    for req in requests:
        yield req
        if time.perf_counter() >= deadline and not needed():
            return


# ---------------------------------------------------------------------------
# eigs-kamke
# ---------------------------------------------------------------------------


def eig_requests(seed: int):
    """Cycles of one 1000-eigenvalue sweep, then two 100-eigenvalue sweeps
    per boundary pair in seeded order; the large sweeps take the pairs in
    a seeded round robin."""
    rng = seeded(seed)
    names = list(BOUNDARY_PAIRS)
    large = [str(x) for x in rng.permutation(names)]
    for i in itertools.count():
        yield EIG_COUNTS[1], large[i % len(large)]
        for name in rng.permutation(names * EIG_SMALL_PER_PAIR):
            yield EIG_COUNTS[0], str(name)


def misses_tolerance(err, ref):
    return (err > EIG_ABS_TOL) | (err > EIG_REL_TOL * np.abs(ref))


def check_sweep(results, count, ref, caught):
    """Problems with one sweep, and its max |lambda - reference|."""
    problems = [f"warned: {w.message}" for w in caught]
    if len(results) != count:
        problems.append(f"returned {len(results)} of {count} eigenvalues")
    if [r.k for r in results] != list(range(1, len(results) + 1)):
        problems.append("indices are not 1..n")
    lam = np.array([r.lam for r in results], dtype=np.float64)
    omega = np.array([r.omega for r in results], dtype=np.float64)
    if not np.all(np.isfinite(lam)):
        problems.append("non-finite eigenvalue")
    gaps = np.diff(omega) / (math.pi / KAMKE_LENGTH)
    if gaps.size and not np.all(gaps > 0.0):
        problems.append("eigenvalues not strictly increasing")
    # Beyond the references: every sqrt-eigenvalue gap is near the
    # asymptotic spacing pi/L, so a missed root or a duplicate shows here.
    # gaps[j] is omega_{j+2} - omega_{j+1}, so the first gap past the
    # references (k=ref.size to ref.size+1) is gaps[ref.size - 1].
    far = gaps[max(ref.size - 1, 0):]
    if far.size and not np.all((far > 0.5) & (far < 1.5)):
        problems.append(
            f"omega gaps from k={ref.size} on span "
            f"[{far.min():.3g}, {far.max():.3g}] x pi/L"
        )
    n = min(lam.size, ref.size)
    err = np.abs(lam[:n] - ref[:n])
    bad = np.nonzero(misses_tolerance(err, ref[:n]))[0]
    if bad.size:
        k = int(bad[0])
        problems.append(
            f"{bad.size} eigenvalues miss abs {EIG_ABS_TOL:g} / rel "
            f"{EIG_REL_TOL:g}; first k={k + 1} |dlam|={err[k]:.3e}"
        )
    return problems, (float(err.max()) if n else 0.0)


def sweep(ev, bc, count, ref, ledger, op):
    """One timed, checked sweep; returns ((start, end), or None when the
    check failed, results, max |lambda - reference|), or None when it
    raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            results = ev.find_eigenvalues(bc, count_hint=count)
        except Exception as exc:  # a raising request is a failed request
            ledger.record(op, [f"raised {type(exc).__name__}: {exc}"])
            return None
        t1 = time.perf_counter()
    problems, err = check_sweep(results, count, ref, caught)
    ok = ledger.record(op, problems)
    return ((t0, t1) if ok else None), results, err


def eigs_kamke(args, refs) -> Result:
    ledger = Ledger()
    res = Result(ledger)
    bcs = {k: solver.BoundarySpec(*v) for k, v in BOUNDARY_PAIRS.items()}
    if args.trace:
        return traced_eigs(args, refs, bcs, build_kamke(), res)
    setup, speed = [], SpeedProbe()
    ev = timed_builds(setup, speed)

    times = {c: [] for c in EIG_COUNTS}
    tried = dict.fromkeys(EIG_COUNTS, 0)
    returned = 0
    deadline = time.perf_counter() + args.seconds
    reqs = run_until(deadline, eig_requests(args.seed),
                     lambda: not all(tried.values()))
    for i, (count, name) in enumerate(reqs):
        tried[count] += 1
        speed.probe()
        out = sweep(ev, bcs[name], count, refs["eig"][name], ledger,
                    f"request {i} sweep {count} {name}")
        if out is not None and out[0] is not None:
            times[count].append(out[0])
            returned += len(out[1])
    speed.probe()

    # Fixed checks, the same for every seed: err_max comes from these.
    err_max = 0.0
    for name, bc in bcs.items():
        out = sweep(ev, bc, CHECK_COUNT, refs["eig"][name], ledger,
                    f"check sweep {CHECK_COUNT} {name}")
        if out is not None:
            err_max = max(err_max, out[2])
    timed_builds(setup, speed)

    def figures(sp):
        small, large = (secs(require(times[c], f"{c}-eigenvalue sweep",
                                     ledger), sp) for c in EIG_COUNTS)
        # Throughput over one request cycle, so that how many cycles fit
        # into the run does not change the mix it is measured on.
        n_small = EIG_SMALL_PER_PAIR * len(BOUNDARY_PAIRS)
        cycle_s = float(np.mean(large)) + n_small * float(np.mean(small))
        return {
            "setup_s": median(secs(setup, sp)),
            "items_per_s": (EIG_COUNTS[1] + n_small * EIG_COUNTS[0]) / cycle_s,
            "typical_ms": 1e3 * median(small),
            "slow_ms": 1e3 * median(large),
            "err_max": err_max,
        }

    res.set_figures(figures, speed)
    res.context.update({
        "samples": {f"sweep{c}": len(v) for c, v in times.items()},
        "eigenvalues_returned": returned,
    })
    return res


# ---------------------------------------------------------------------------
# ivp-kamke
# ---------------------------------------------------------------------------


def ivp_requests(seed: int):
    """(omega, u(A), u'(A)); a fixed number of draws per request."""
    rng = seeded(seed)
    lo, hi = math.log(OMEGA_RANGE[0]), math.log(OMEGA_RANGE[1])
    while True:
        mag = math.exp(rng.uniform(lo, hi))
        is_complex = rng.random() < COMPLEX_SHARE
        im = rng.uniform(*IMAG_RANGE)
        z = rng.normal(size=4)
        if is_complex:
            yield complex(mag, im), complex(z[0], z[1]), complex(z[2], z[3])
        else:
            yield mag, float(z[0]), float(z[2])


def check_ivp(u, up, omega, u0, up0):
    problems = []
    if np.shape(u) != (GRID_M,) or np.shape(up) != (GRID_M,):
        return [f"shape {np.shape(u)}, {np.shape(up)}"]
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(up))):
        problems.append("non-finite values")
    if np.iscomplexobj(u) != isinstance(omega, complex):
        problems.append(f"dtype {u.dtype} for omega {omega!r}")
    if abs(u[0] - u0) > 1e-12 * max(1.0, abs(u0)) or \
            abs(up[0] - up0) > 1e-12 * max(1.0, abs(up0)):
        problems.append("initial values not reproduced")
    return problems


def solve(ev, omega, u0, up0, ledger, op, check=None):
    """One timed, checked solve; returns ((start, end), or None when the
    check failed, u, u'), or None when it raised."""
    t0 = time.perf_counter()
    try:
        u, up = ev.solve_ivp(omega, u0, up0)
    except Exception as exc:  # a raising request is a failed request
        ledger.record(op, [f"raised {type(exc).__name__}: {exc}"])
        return None
    t1 = time.perf_counter()
    problems = check_ivp(u, up, omega, u0, up0)
    if check is not None and not problems:
        problems = check(u, up)
    ok = ledger.record(op, problems)
    return ((t0, t1) if ok else None), u, up


def ivp_checks(ev, refs, ledger):
    """Solves at the stored reference omegas; returns err_max."""
    nodes = refs["ivp_nodes"]
    errs = [0.0]
    for item in refs["ivp"]:
        om = item["omega"]

        def against_reference(u, up):
            err = max(np.max(np.abs(u[nodes] - item["u"])),
                      np.max(np.abs(up[nodes] - item["uprime"])) / abs(om))
            errs.append(float(err))
            limit = IVP_REL_TOL * max(1.0, float(np.max(np.abs(item["u"]))))
            if err <= limit:
                return []
            return [f"error {err:.3e} above {limit:.3e}"]

        solve(ev, om, item["u0"], item["up0"], ledger,
              f"check ivp omega={om}", against_reference)
    return max(errs)


def ivp_kamke(args, refs) -> Result:
    ledger = Ledger()
    res = Result(ledger)
    if args.trace:
        return traced_ivp(args, refs, build_kamke(), res)
    setup, speed = [], SpeedProbe()
    ev = timed_builds(setup, speed)

    times, complex_times = [], []
    deadline = time.perf_counter() + args.seconds
    next_probe = 0.0
    for i, (om, u0, up0) in enumerate(
            run_until(deadline, ivp_requests(args.seed))):
        if time.perf_counter() >= next_probe:
            speed.probe()
            next_probe = time.perf_counter() + PROBE_EVERY_S
        out = solve(ev, om, u0, up0, ledger, f"request {i} omega={om}")
        if out is not None and out[0] is not None:
            times.append(out[0])
            if isinstance(om, complex):
                complex_times.append(out[0])
    speed.probe()
    err_max = ivp_checks(ev, refs, ledger)
    timed_builds(setup, speed)

    def figures(sp):
        all_s = secs(require(times, "solve", ledger), sp)
        return {
            "setup_s": median(secs(setup, sp)),
            "items_per_s": len(all_s) / sum(all_s),
            "typical_ms": 1e3 * median(all_s),
            "slow_ms": 1e3 * median(secs(
                require(complex_times, "complex-omega solve", ledger), sp)),
            "err_max": err_max,
        }

    res.set_figures(figures, speed)
    # Reported, not bounded: preemption of this process on the shared
    # machine sets the tail of a 3 ms request, so it moves by about 20 %
    # between runs of the same code.
    t_val, t_pct, n = tail(secs(times, None))
    res.reported["ivp_ms_tail"] = (1e3 * t_val, "ms")
    res.context.update({"samples": n, "complex_samples": len(complex_times),
                        "tail_percentile": round(t_pct, 3),
                        "samples_beyond_tail": min(10, n - 1)})
    return res


# ---------------------------------------------------------------------------
# cli-build
# ---------------------------------------------------------------------------

CHILD_EIGS = """\
import os, sys
import nsbf
if os.path.realpath(nsbf.__file__) != sys.argv[1]:
    sys.exit("nsbf imported from " + nsbf.__file__)
from nsbf.cli import main
sys.exit(main(sys.argv[2:]))
"""

CHILD_IMPORT = """\
import time
t0 = time.perf_counter()
import nsbf.cli
t1 = time.perf_counter()
import os, sys, nsbf
if os.path.realpath(nsbf.__file__) != sys.argv[1]:
    sys.exit("nsbf imported from " + nsbf.__file__)
print(repr(t1 - t0))
"""


def cli_problems(seed: int):
    """(name, config text, boundary pair name): Kamke first, then smooth
    expression problems with positive p and r."""
    yield "kamke", "[problem]\nbuiltin = kamke\n", "robin"
    rng = seeded(seed)
    names = list(BOUNDARY_PAIRS)
    i = 0
    while True:
        i += 1
        length = rng.uniform(1.0, 2.5)
        ap, ar = rng.uniform(0.1, 0.5, size=2)
        kp, kr, kq = rng.uniform(1.0, 3.0, size=3)
        php, phr, phq = rng.uniform(0.0, 2.0 * math.pi, size=3)
        aq, cq = rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0)
        bc = names[int(rng.integers(len(names)))]
        a1, a2, b1, b2 = BOUNDARY_PAIRS[bc]
        text = (
            "[problem]\n"
            "a = 0\n"
            f"b = {length:.6g}\n"
            f"p = exp({ap:.6g}*sin({kp:.6g}*y + {php:.6g}))\n"
            f"q = {aq:.6g}*cos({kq:.6g}*y + {phq:.6g}) + {cq:.6g}\n"
            f"r = exp({ar:.6g}*sin({kr:.6g}*y + {phr:.6g}))\n"
            "[boundary]\n"
            f"a1 = {a1:g}\na2 = {a2:g}\nb1 = {b1:g}\nb2 = {b2:g}\n"
            "[numerics]\n"
            f"grid = {GRID_M}\n"
        )
        yield f"expr{i}", text, bc


def check_csv(data: bytes, ref):
    """Problems with one eigs CSV, and the Kamke error when ``ref``."""
    lines = data.decode("ascii", errors="replace").splitlines()
    if not lines or lines[0] != "k,omega,lambda,residual":
        return ["bad CSV header"], 0.0
    try:
        rows = np.array([[float(x) for x in ln.split(",")]
                         for ln in lines[1:]])
    except ValueError:
        return ["unparsable CSV row"], 0.0
    if rows.shape != (CLI_COUNT, 4):
        return [f"CSV holds {rows.shape[0]} rows, wanted {CLI_COUNT}"], 0.0
    problems = []
    if not np.array_equal(rows[:, 0], np.arange(1, CLI_COUNT + 1)):
        problems.append("indices are not 1..n")
    lam = rows[:, 2]
    if not (np.all(np.isfinite(lam)) and np.all(np.diff(lam) > 0.0)):
        problems.append("eigenvalues not finite and increasing")
    err = 0.0
    if ref is not None:
        errs = np.abs(lam - ref[:CLI_COUNT])
        err = float(errs.max())
        if np.any(misses_tolerance(errs, ref[:CLI_COUNT])):
            problems.append(f"Kamke eigenvalues off by {err:.3e}")
    return problems, err


class CliRunner:
    """Runs ``nsbf eigs`` on the checkout's src/, one process at a time."""

    def __init__(self, work: Path, src: Path, init_path: str):
        self.work = work
        self.init_path = init_path
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(src)
        self.env.pop("PYTHONSTARTUP", None)

    def _child(self, code, argv):
        return subprocess.run(
            [sys.executable, "-c", code, self.init_path, *argv],
            cwd=self.work, env=self.env, capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )

    def import_time(self):
        """((start, end) of the child, import seconds it measured)."""
        t0 = time.perf_counter()
        proc = self._child(CHILD_IMPORT, [])
        t1 = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode(errors="replace"))
        return (t0, t1), float(proc.stdout.decode().strip())

    def eigs(self, cfg: Path, csv: Path):
        """(exit code, stderr text) of one eigs process."""
        proc = self._child(
            CHILD_EIGS,
            ["eigs", str(cfg), "--count", str(CLI_COUNT), "--out", str(csv)],
        )
        return proc.returncode, proc.stderr.decode(errors="replace")


def in_process_eigs(cfg: Path, csv: Path):
    """The same command through ``cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["eigs", str(cfg), "--count", str(CLI_COUNT),
                         "--out", str(csv)])
    return code, err.getvalue()


def cli_pair(run, work, name, text, ref, ledger):
    """Cold then warm run of one problem.

    Returns {state: ((start, end), or None when the run failed, CSV bytes,
    Kamke eigenvalue error)}.
    """
    cfg = work / f"{name}.ini"
    cfg.write_text(text, encoding="ascii")
    cache = work / f"{name}.ini.nsbfc"
    cache.unlink(missing_ok=True)
    out = {}
    for state, marker in (("cold", "(written)"), ("warm", "(reused)")):
        csv = work / f"{name}.{state}.csv"
        csv.unlink(missing_ok=True)
        op = f"cli {state} {name}"
        try:
            t0 = time.perf_counter()
            code, stderr = run(cfg, csv)
            span = (t0, time.perf_counter())
        except Exception as exc:  # a crashed or hung run is a failed run
            ledger.record(op, [f"raised {type(exc).__name__}: {exc}"])
            out[state] = (None, b"", math.inf)
            continue
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {stderr.strip()[-200:]}")
        if "warning:" in stderr:
            warned = stderr.split("warning:", 1)[1].strip()
            problems.append(f"warned: {warned[:200]}")
        if marker not in stderr:
            problems.append(f"cache not {marker.strip('()')}")
        data = csv.read_bytes() if csv.exists() else b""
        csv_problems, err = check_csv(data, ref)
        problems += csv_problems
        if state == "warm" and "cold" in out and data != out["cold"][1]:
            problems.append("warm CSV differs from cold CSV")
        ok = ledger.record(op, problems)
        out[state] = (span if ok else None, data, err)
    return out


def cli_build(args, refs, work: Path, src: Path, init_path: str) -> Result:
    ledger = Ledger()
    res = Result(ledger)
    runner = CliRunner(work, src, init_path)
    if args.trace:
        return traced_cli(args, refs, work, runner, res)
    # CLI timings are not speed-scaled: process start-up tracks the probe
    # poorly, and scaling widened their spread over ten runs.
    def imports():
        return [runner.import_time()[0] for _ in range(IMPORT_REPEATS)]

    setup = imports()
    times = {"cold": [], "warm": []}
    err_max = 0.0
    deadline = time.perf_counter() + args.seconds
    for name, text, bc in run_until(deadline, cli_problems(args.seed)):
        ref = refs["eig"][bc] if name == "kamke" else None
        out = cli_pair(runner.eigs, work, name, text, ref, ledger)
        for state, (span, _, err) in out.items():
            if span is not None:
                times[state].append(span)
            if ref is not None:
                err_max = max(err_max, err)
    setup += imports()

    def figures(sp):
        cold, warm = (secs(require(times[k], f"{k} CLI run", ledger), sp)
                      for k in ("cold", "warm"))
        return {
            "setup_s": median(secs(setup, sp)),
            "items_per_s": (len(cold) + len(warm)) / (sum(cold) + sum(warm)),
            "typical_ms": 1e3 * median(warm),
            "slow_ms": 1e3 * median(cold),
            "err_max": err_max,
        }

    res.metrics = res.raw = figures(None)
    res.context["samples"] = {k: len(v) for k, v in times.items()}
    return res


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------


class Facts:
    """Values observed on results of traced calls."""

    def __init__(self):
        self.seed_min_abs_g = math.inf
        self.seed_complex = 0
        self.n_opt = 0
        self.floor = 0.0
        self.cache_bytes = 0
        self.bessel_elements = 0
        self.eigs = 0
        self.refine_iters = 0
        self.char_residual_max = 0.0

    def on_seed(self, sd, args, kwargs):
        self.seed_min_abs_g = min(self.seed_min_abs_g, sd.min_abs_g)
        self.seed_complex += int(sd.used_complex_combination)

    def on_coeffs(self, cs, args, kwargs):
        self.n_opt = max(self.n_opt, cs.N_opt)
        self.floor = max(self.floor, cs.report.floor)

    def on_save(self, _, args, kwargs):
        self.cache_bytes += os.path.getsize(args[1])

    def on_bessel(self, out, args, kwargs):
        self.bessel_elements += out.size

    def on_eigs(self, results, args, kwargs):
        self.eigs += len(results)
        for r in results:
            self.refine_iters += r.refinement_iterations
            self.char_residual_max = max(self.char_residual_max,
                                         r.char_residual)


def install(tr: Tracer, facts: Facts) -> None:
    mods = [m for k, m in sys.modules.items()
            if m is not None and (k == "nsbf" or k.startswith("nsbf."))]
    ev = solver.SolutionEvaluator
    tr.patch([liouville] + mods, "build_liouville", "liouville.build")
    tr.patch([seed_mod] + mods, "compute_seed", "seed.compute",
             facts.on_seed)
    tr.patch([grid] + mods, "cumulative_integral", "grid.cumint")
    tr.patch([coefficients] + mods, "build_coefficients",
             "coefficients.build", facts.on_coeffs)
    tr.patch([coefficients] + mods, "save_coefficients",
             "coefficients.save", facts.on_save)
    tr.patch([coefficients] + mods, "load_coefficients", "coefficients.load")
    tr.patch([solver], "spherical_jn_matrix", "bessel.jn_matrix",
             facts.on_bessel)
    tr.patch([ev], "characteristic", "solver.characteristic")
    tr.patch([ev], "find_eigenvalues", "solver.find_eigenvalues",
             facts.on_eigs)
    tr.patch([ev], "solve_ivp", "solver.solve_ivp")
    tr.patch([expressions] + mods, "parse_expression", "expressions.parse")
    tr.patch([cli], "load_config", "cli.load_config")
    tr.patch([cli], "prepare", "cli.prepare")
    tr.patch([cli], "cmd_eigs", "cli.cmd_eigs")


def layer_metrics(tr: Tracer, facts: Facts, base_s: float, traced_s: float,
                  extra: dict) -> dict:
    tot = tr.totals()
    total, own = tot["total"], tot["self"]
    n = tr.counts

    def t(name):
        return total.get(name, 0.0)

    def s(name):
        return own.get(name, 0.0)

    eigs = facts.eigs
    out = {
        "liouville.build_s": t("liouville.build"),
        "seed.compute_s": t("seed.compute"),
        "seed.min_abs_g": facts.seed_min_abs_g if n["seed.compute"] else 0.0,
        "seed.complex": facts.seed_complex,
        "grid.cumint_calls": n["grid.cumint"],
        "grid.self_s": s("grid.cumint"),
        "coefficients.build_s": t("coefficients.build"),
        "coefficients.N_opt": facts.n_opt,
        "coefficients.floor": facts.floor,
        "coefficients.cache_save_s": t("coefficients.save"),
        "coefficients.cache_load_s": t("coefficients.load"),
        "coefficients.cache_bytes": facts.cache_bytes,
        "bessel.calls": n["bessel.jn_matrix"],
        "bessel.elements": facts.bessel_elements,
        "bessel.self_s": s("bessel.jn_matrix"),
        "bessel.ns_per_element": (
            1e9 * s("bessel.jn_matrix") / facts.bessel_elements
            if facts.bessel_elements else 0.0
        ),
        "solver.char_calls_per_eig": (
            n["solver.characteristic"] / eigs if eigs else 0.0),
        "solver.refine_iters_per_eig": (
            facts.refine_iters / eigs if eigs else 0.0),
        "solver.scan_self_s": s("solver.find_eigenvalues"),
        "solver.char_self_s": s("solver.characteristic"),
        "solver.char_residual_max": facts.char_residual_max,
        "solver.ivp_self_s": s("solver.solve_ivp"),
        "solver.wronskian_drift": 0.0,
        "expressions.parse_s": t("expressions.parse"),
        "cli.import_s": 0.0,
        "cli.load_config_s": t("cli.load_config"),
        "cli.prepare_s": t("cli.prepare"),
        "cli.self_s": s("cli.main") + s("cli.cmd_eigs"),
        "trace.spans": len(tr.names),
        "trace.overhead_frac": (traced_s - base_s) / base_s,
    }
    out.update(extra)
    return out


def paired(tr, facts, reqs, warm, untraced, traced):
    """Each request untraced, then traced; returns (untraced s, traced s).

    Pairing request by request keeps slow drifts in machine speed out of
    the overhead estimate.  ``warm`` runs once beforehand, untimed, so
    first-call costs land on neither side."""
    untraced(warm)
    base = over = 0.0
    for req in reqs:
        t0 = time.perf_counter()
        untraced(req)
        base += time.perf_counter() - t0
        with tr.installed(lambda t: install(t, facts)):
            t0 = time.perf_counter()
            with tr.span("request"):
                traced(req)
            over += time.perf_counter() - t0
    return base, over


def traced_eigs(args, refs, bcs, ev, res):
    gen = eig_requests(args.seed)
    reqs = [next(gen) for _ in range(TRACED_EIG_REQUESTS)]
    tr, facts = Tracer(), Facts()
    with tr.installed(lambda t: install(t, facts)):
        ev_t = build_kamke()

    def make(evaluator, label):
        def do(req):
            count, name = req
            sweep(evaluator, bcs[name], count, refs["eig"][name], res.ledger,
                  f"{label} sweep {count} {name}")
        return do

    warm = next(r for r in reqs if r[0] == EIG_COUNTS[0])
    base, over = paired(tr, facts, reqs, warm, make(ev, "untraced"),
                        make(ev_t, "traced"))
    res.metrics = layer_metrics(tr, facts, base, over, {})
    res.tracer = tr
    return res


def traced_ivp(args, refs, ev, res):
    gen = ivp_requests(args.seed)
    reqs = [next(gen) for _ in range(TRACED_IVP_REQUESTS)]
    tr, facts = Tracer(), Facts()
    with tr.installed(lambda t: install(t, facts)):
        ev_t = build_kamke()

    def make(evaluator, label):
        def do(req):
            om, u0, up0 = req
            solve(evaluator, om, u0, up0, res.ledger, f"{label} omega={om}")
        return do

    base, over = paired(tr, facts, reqs, reqs[0], make(ev, "untraced"),
                        make(ev_t, "traced"))
    drift = max(
        float(np.max(np.abs(ev.wronskian(om) - om)) / abs(om))
        for om, _, _ in reqs
    )
    res.metrics = layer_metrics(tr, facts, base, over,
                                {"solver.wronskian_drift": drift})
    res.tracer = tr
    return res


def traced_cli(args, refs, work, runner, res):
    gen = cli_problems(args.seed)
    problems = [next(gen) for _ in range(TRACED_CLI_PROBLEMS)]
    import_s = median([runner.import_time()[1]
                       for _ in range(2 * IMPORT_REPEATS)])
    tr, facts = Tracer(), Facts()

    def traced_main(cfg, csv):
        with tr.span("cli.main"):
            return in_process_eigs(cfg, csv)

    def make(run):
        def do(problem):
            name, text, bc = problem
            ref = refs["eig"][bc] if name == "kamke" else None
            cli_pair(run, work, name, text, ref, res.ledger)
        return do

    base, over = paired(tr, facts, problems, problems[0],
                        make(in_process_eigs), make(traced_main))
    res.metrics = layer_metrics(tr, facts, base, over,
                                {"cli.import_s": import_s})
    res.tracer = tr
    return res
