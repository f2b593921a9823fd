"""Regenerate ``bench/reference.json``, the benchmark's oracle data.

Everything here comes from ``nsbf.oracles``, which shares no code with the
series path the benchmark times.  The run takes several minutes, so the
benchmark reads the stored file and never calls an oracle itself.

Usage, from the repository root::

    python3 bench/make_reference.py     # writes bench/reference.json

Run ``git diff bench/reference.json`` afterwards to see what changed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR / "reference.json"
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

from nsbf.grid import Grid  # noqa: E402
from nsbf.oracles import (  # noqa: E402
    KAMKE_ARGUMENT_CAP,
    MIN_TOL,
    MAX_EIGENVALUE_COUNT,
    exact_kamke_solution,
    integrate_reference,
    kamke_problem,
    reference_eigenvalues,
)
from nsbf.oracles import _solve_batch  # noqa: E402
from nsbf.solver import BoundarySpec  # noqa: E402

from config import (  # noqa: E402
    BOUNDARY_PAIRS,
    CHECK_OMEGAS,
    GRID_M,
    NODE_STRIDE,
)

EIG_TOL = 1e-12
IVP_TOL = 1e-14
#: secant steps and offset (in omega) of the eigenvalue polish
POLISH_STEPS = 3
POLISH_H = 1e-7


def _pairs(values):
    values = np.asarray(values, dtype=np.complex128)
    return [[float(v.real), float(v.imag)] for v in values]


def polish(problem, quad, lams):
    """Secant-polish shooting roots on the integrator at its floor.

    ``reference_eigenvalues`` leaves a few roots above index 150 off by up
    to 7e-6 in lambda.  All roots of one boundary pair are marched as one
    stacked system per evaluation, so the polish costs a few adaptive
    solves.
    """
    a1, a2, b1, b2 = quad
    nrm = float(np.hypot(a1, a2))
    p_at_b = float(problem.p(float(problem.b)))
    end = np.array([float(problem.b)])

    def char(omegas):
        v, w = _solve_batch(problem, omegas * omegas, a2 / nrm, -a1 / nrm,
                            MIN_TOL, end)
        return b1 * v[:, -1].real + b2 * (w[:, -1].real / p_at_b)

    omegas = np.sqrt(np.asarray(lams, dtype=np.float64))
    for _ in range(POLISH_STEPS):
        f0 = char(omegas)
        f1 = char(omegas + POLISH_H)
        omegas = omegas - f0 * POLISH_H / (f1 - f0)
    return omegas * omegas


def eigenvalue_references(problem):
    out, moved = {}, {}
    for name, quad in BOUNDARY_PAIRS.items():
        t0 = time.perf_counter()
        raw = reference_eigenvalues(
            problem, BoundarySpec(*quad), MAX_EIGENVALUE_COUNT, tol=EIG_TOL
        )
        lams = polish(problem, quad, raw)
        if not np.all(np.diff(lams) > 0.0):
            raise RuntimeError(f"{name}: polished eigenvalues not increasing")
        shift = np.abs(lams - np.asarray(raw))
        moved[name] = {
            "max_abs_shift": float(np.max(shift)),
            "shifted_above_1e-9": [int(i) + 1 for i in
                                   np.nonzero(shift > 1e-9)[0]],
        }
        print(f"eigenvalues {name}: {len(lams)} in "
              f"{time.perf_counter() - t0:.1f} s, polish moved "
              f"{moved[name]}", flush=True)
        out[name] = [float(x) for x in lams]
    return out, moved


def ivp_references(problem, grid):
    nodes = np.arange(0, grid.m, NODE_STRIDE)
    pts = grid.points[nodes]
    out = []
    for omega in CHECK_OMEGAS:
        om = complex(omega)
        t0 = time.perf_counter()
        if om.imag == 0.0 and om.real * grid.b ** 2 <= KAMKE_ARGUMENT_CAP:
            u, up = exact_kamke_solution(om.real, pts, derivative=True)
            # The problem and the initial data are real, so the physical
            # solution is the real part of the closed form.
            u, up = u.real, up.real
            method, tol = "exact_kamke_solution", None
        else:
            lam = om * om if om.imag != 0.0 else om.real ** 2
            ref = integrate_reference(problem, lam, 1.0, 1.0, tol=IVP_TOL,
                                      grid=grid)
            u, up = ref.u[nodes], ref.uprime[nodes]
            method, tol = "integrate_reference", ref.tol
        print(f"ivp omega={omega}: {method} in "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
        out.append({
            "omega": [om.real, om.imag],
            "u0": 1.0,
            "up0": 1.0,
            "method": method,
            "tol": tol,
            "u": _pairs(u),
            "uprime": _pairs(up),
        })
    return out, nodes


def cross_check(problem, grid, nodes, omega=50.0):
    """Closed form against the integrator at one omega both can reach."""
    ref = integrate_reference(problem, omega * omega, 1.0, 1.0, tol=IVP_TOL,
                              grid=grid)
    exact = exact_kamke_solution(omega, grid.points[nodes]).real
    return float(np.max(np.abs(exact - ref.u[nodes])))


def main():
    problem = kamke_problem()
    grid = Grid(problem.a, problem.b, GRID_M)
    eigs, moved = eigenvalue_references(problem)
    ivps, nodes = ivp_references(problem, grid)
    doc = {
        "provenance": {
            "problem": "nsbf.oracles.kamke_problem()",
            "eigenvalues": {
                "function": "nsbf.oracles.reference_eigenvalues",
                "tol": EIG_TOL,
                "count": MAX_EIGENVALUE_COUNT,
                "m": "none: adaptive integration, no grid",
                "polish": (
                    f"{POLISH_STEPS} secant steps (offset {POLISH_H:g} in "
                    "omega) on the characteristic function from "
                    f"nsbf.oracles._solve_batch at tol {MIN_TOL:g}"
                ),
                "polish_shift": moved,
            },
            "ivp": {
                "functions": [
                    "nsbf.oracles.exact_kamke_solution (real omega with "
                    f"omega*b^2 <= {KAMKE_ARGUMENT_CAP:g}; real part)",
                    "nsbf.oracles.integrate_reference (all other omegas)",
                ],
                "tol": IVP_TOL,
                "m": GRID_M,
                "node_stride": NODE_STRIDE,
                "kummer_vs_integrator_at_omega_50": cross_check(
                    problem, grid, nodes
                ),
            },
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "mpmath": mpmath.__version__,
            },
            "command": "python3 bench/make_reference.py",
        },
        "boundary_pairs": {k: list(v) for k, v in BOUNDARY_PAIRS.items()},
        "eigenvalues": eigs,
        "ivp_nodes": [int(i) for i in nodes],
        "ivp": ivps,
    }
    tmp = OUT.with_name(OUT.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, OUT)
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
