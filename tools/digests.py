"""Print one ``name sha256`` line per output of a fixed corpus of nsbf calls.

    python3 tools/digests.py [--src DIR] > digests.txt

The corpus covers what the solver returns, and the coefficient sets it
works from:

* the coefficient sets of the Kamke and degenerate builds below, and of
  ``random_smooth_problem(0..2)`` on its default grid at N = 50 and at the
  odd N = 21 (real chains, whose cleanup takes the identity-plateau
  fallback): alpha, mu, G1, G2, the cut ordinates, the identity residuals,
  the window starts and N_opt;
* Kamke (m = 2001, automatic N), on each of the four benchmark boundary
  pairs: 100- and 1000-eigenvalue sweeps and negative scans down to -4 and
  -100, one digest per spectrum column;
* the degenerate problem (m = 1001, N = 20): 200-eigenvalue sweeps, and
  100-eigenvalue sweeps of the same coefficient set at its automatic N
  (N_opt = 0), where every root lies on a scan node; each on the
  Dirichlet and Neumann pairs;
* Kamke, the degenerate problem and q = (1+2i) cos y on [0, 1]
  (m = 401), at real, complex and imaginary omegas, scalars and batches:
  grid, ``at=`` and scalar-``at`` solves, Delta, (Delta, Delta'), the
  basis, its derivative and the Wronskian.

Two warm passes follow.  The first runs the Kamke sweeps again, each
count over the four pairs back to back, then the negative scans, each
floor over the four pairs, so that all but the first of each four scan the
nodes of the scan before and reuse its Bessel batch; its lines carry a
``.warm`` name.  The second interleaves the sizes as the benchmark does: a
1000-sweep on one pair, a 100-sweep on each pair, then a 1000-sweep on the
next pair, which scans the nodes of the older of the two lattices the
evaluator keeps; its lines carry an ``.interleaved`` name.  Each warm line
must equal its cold twin's: the script exits with status 1 when one does
not.

A search's roots do not show a last-bit error in the Bessel batch of its
scan, which only sets the brackets and the starting points that Newton's
method then closes.  So after each Kamke search, the Delta and the slope
(``dDelta/domega``, complex on the imaginary axis) that a scan takes from
its batch on the nodes of that search's scan have ``.scan_delta`` and
``.scan_slope`` lines of their own: in the warm passes on the same
evaluator, where they take the batch the evaluator kept from the search,
and in the first pass on a new evaluator, which computes the batch.  Both
are read through the solver's private scan path, so ``--src`` must hold a
package that has it.

Each digest covers an array's dtype, shape and bytes; a call that raises
is recorded by its exception's type and message, and warnings by their
messages.  Two runs agree line for line exactly when every output is
bitwise the same, so ``diff`` between the outputs of two checkouts (point
``--src`` at the other one's ``src/``) shows whether a change keeps the
bits.
"""

import argparse
import hashlib
import itertools
import math
import sys
import warnings
from pathlib import Path

import numpy as np

REAL = (0.0, 0.5, 1.3, 7.5, 10.0, 17.0, 40.0, 141.0, 300.0, 900.0, 2000.0)
COMPLEX = (1.0 + 0.5j, 3.0 + 0.5j, 30.0 + 1.5j, 60.0 - 2.0j, 141.0 + 0.5j,
           141.0 + 1.0j, 300.0 + 1.0j, 400.0 + 0.8j, 600.0 + 0.5j,
           1500.0 + 0.3j)
IMAGINARY = (0.3j, 2.5j, 4.0j, 25.0j, 100.0j)
BATCHES = {
    "scan": np.linspace(0.0, 50.0, 251),
    "iscan": 1j * np.linspace(0.0, 10.0, 51),
    "mixed": np.array([1.0 + 0.5j, 60.0 - 2.0j, 3.0j]),
}
#: the Kamke searches on each pair: sweeps by count, negative scans by floor
KAMKE_SEARCHES = (("sweep", 100), ("sweep", 1000), ("negative", -4.0),
                  ("negative", -100.0))
#: the name suffixes of the warm passes, whose lines must equal their cold
#: twins'
WARM = (".warm", ".interleaved")
#: the benchmark's boundary pairs (a1, a2, b1, b2)
PAIRS = {
    "robin": (1.0, -1.0, 1.0, 1.0),
    "dirichlet": (1.0, 0.0, 1.0, 0.0),
    "neumann": (0.0, 1.0, 0.0, 1.0),
    "mixed": (1.0, 0.0, 0.0, 1.0),
}


def digest(value):
    a = np.asarray(value)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def record(name, call):
    """Lines for the outputs of ``call()``: one per array of a tuple."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except Exception as exc:  # the refusal is an output too
            out = None
            text = f"{type(exc).__name__}: {exc}"
            yield f"{name}.raises", hashlib.sha256(text.encode()).hexdigest()
    if isinstance(out, tuple):
        for i, part in enumerate(out):
            yield f"{name}.{i}", digest(part)
    elif out is not None:
        yield name, digest(out)
    if caught:
        text = "\n".join(str(w.message) for w in caught)
        yield f"{name}.warnings", hashlib.sha256(text.encode()).hexdigest()


def spectrum_columns(spec):
    return (spec.k, spec.omega, spec.lam, spec.char_residual,
            spec.refinement_iterations)


def evaluators():
    from nsbf.coefficients import build_coefficients
    from nsbf.grid import Grid
    from nsbf.liouville import SLProblem, build_liouville
    from nsbf.oracles import degenerate_problem, kamke_problem
    from nsbf.seed import compute_seed
    from nsbf.solver import SolutionEvaluator

    def built(prob, grid=None, **order):
        data = build_liouville(prob, grid=grid)
        seed = compute_seed(prob, data)
        coeffs = build_coefficients(data, seed, **order)
        return SolutionEvaluator(coeffs, data, seed, **order)

    complex_q = SLProblem(0.0, 1.0, p=lambda y: 1.0,
                          q=lambda y: (1.0 + 2.0j) * np.cos(y),
                          r=lambda y: 1.0)
    return {
        "kamke": built(kamke_problem()),
        "degenerate": built(degenerate_problem(),
                            grid=Grid(0.0, math.pi, 1001), N=20),
        "complexq": built(complex_q, grid=Grid(0.0, 1.0, 401)),
    }


def kamke_search(kamke, pair, kind, arg, suffix=""):
    """Lines for one Kamke sweep (``kind`` "sweep", ``arg`` the count) or
    negative scan (``kind`` "negative", ``arg`` the floor) on a pair, and
    for Delta on the nodes of its scan: on ``kamke`` for a warm ``suffix``,
    on a new evaluator otherwise."""
    from nsbf.solver import BoundarySpec, SolutionEvaluator

    bc = BoundarySpec(*PAIRS[pair])
    if kind == "sweep":
        def search():
            return kamke.find_eigenvalues(bc, count_hint=arg)
    else:
        def search():
            return kamke.find_negative_eigenvalues(bc, lambda_floor=arg)
    # the nodes of every scan's call of Delta and its slope
    lattices = []

    def delta_pair(omega, bc, scan=False):
        if scan:
            lattices.append(np.array(omega))
        return type(kamke)._delta_pair(kamke, omega, bc, scan)

    name = f"kamke.{pair}.{kind}{arg:g}"
    kamke._delta_pair = delta_pair
    try:
        yield from record(name + suffix, lambda: spectrum_columns(search()))
    finally:
        del kamke._delta_pair
    ev = kamke if suffix else SolutionEvaluator(kamke.coeffs, kamke.data,
                                                kamke.coeffs.seed)
    for i, part in enumerate(("scan_delta", "scan_slope")):
        yield from record(
            f"{name}.{part}{suffix}",
            lambda: ev._delta_pair(lattices[0], bc, scan=True)[i])


def coefficient_sets(evs):
    """(name, coefficient set) of the evaluators' Kamke and degenerate
    builds, then of the random smooth problems' builds."""
    from nsbf.coefficients import build_coefficients
    from nsbf.liouville import build_liouville
    from nsbf.oracles import random_smooth_problem
    from nsbf.seed import compute_seed

    for prob in ("kamke", "degenerate"):
        yield prob, evs[prob].coeffs
    for i in range(3):
        prob = random_smooth_problem(i)
        data = build_liouville(prob)
        seed = compute_seed(prob, data)
        for N in (50, 21):
            yield f"random{i}.N{N}", build_coefficients(data, seed, N=N)


def corpus(evs):
    from nsbf.solver import DIRICHLET, BoundarySpec, SolutionEvaluator

    for prob, c in coefficient_sets(evs):
        fields = {"alpha": c.alpha, "mu": c.mu, "G1": c.G1, "G2": c.G2,
                  "cut_alpha": c.cut_alpha, "cut_mu": c.cut_mu,
                  "residuals": c.report.residuals,
                  "window_start": c.report.window_start, "N_opt": c.N_opt}
        for field, value in fields.items():
            yield f"{prob}.coefficients.{field}", digest(value)

    for pair in PAIRS:
        for search in KAMKE_SEARCHES:
            yield from kamke_search(evs["kamke"], pair, *search)
    deg = evs["degenerate"]
    auto = SolutionEvaluator(deg.coeffs, deg.data, deg.coeffs.seed)
    for pair in ("dirichlet", "neumann"):
        bc = BoundarySpec(*PAIRS[pair])
        for name, ev, count in (("", deg, 200), (".auto", auto, 100)):
            yield from record(
                f"degenerate{name}.{pair}.sweep{count}",
                lambda: spectrum_columns(
                    ev.find_eigenvalues(bc, count_hint=count)))

    omegas = {repr(w): w for w in REAL + COMPLEX + IMAGINARY}
    omegas.update(BATCHES)
    for prob, ev in evs.items():
        bc = BoundarySpec(*PAIRS["robin"]) if prob == "kamke" else DIRICHLET
        pts = ev.data.grid.points
        at = np.linspace(pts[0], pts[-1], 7)[1:-1]
        for label, w in omegas.items():
            name = f"{prob}.{label}"
            yield from record(f"{name}.ivp", lambda: ev.solve_ivp(w, 1.0, 0.5))
            yield from record(f"{name}.ivp_at",
                              lambda: ev.solve_ivp(w, 1.0, 0.5, at=at))
            yield from record(f"{name}.ivp_scalar_at",
                              lambda: ev.solve_ivp(w, 1.0, 0.5, at=at[2]))
            yield from record(f"{name}.delta",
                              lambda: ev.characteristic(w, bc))
            yield from record(
                f"{name}.delta_prime",
                lambda: ev.characteristic(w, bc, derivative=True))
            yield from record(f"{name}.basis", lambda: ev.eval_basis(w))
            yield from record(f"{name}.basis_prime",
                              lambda: ev.eval_basis_prime(w, at=at))
            yield from record(f"{name}.wronskian", lambda: ev.wronskian(w))


def warm(evs):
    """The Kamke sweeps and negative scans again, grouped by their scan
    nodes, under ``.warm`` names."""
    for search in KAMKE_SEARCHES:
        for pair in PAIRS:
            yield from kamke_search(evs["kamke"], pair, *search, ".warm")


def interleaved(evs):
    """A Kamke 1000-sweep, a 100-sweep on each pair, then a 1000-sweep on
    the next pair, under ``.interleaved`` names."""
    first, second = list(PAIRS)[:2]
    searches = ([(first, 1000)] + [(pair, 100) for pair in PAIRS]
                + [(second, 1000)])
    for pair, count in searches:
        yield from kamke_search(evs["kamke"], pair, "sweep", count,
                                ".interleaved")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the nsbf package "
                        "(default: this checkout's src/)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import nsbf

    expected = args.src.resolve() / "nsbf"
    if Path(nsbf.__file__).resolve().parent != expected:
        sys.exit(f"nsbf was imported from {nsbf.__file__}, not {expected}")
    evs = evaluators()
    seen, differ = {}, []
    for name, value in itertools.chain(corpus(evs), warm(evs),
                                       interleaved(evs)):
        print(name, value)
        seen[name] = value
        suffix = next((s for s in WARM if s in name), None)
        if suffix and seen.get(name.replace(suffix, "")) != value:
            differ.append(name)
    print(f"{len(seen)} digests", file=sys.stderr)
    if differ:
        sys.exit(f"warm digests differ from their cold twins: {differ}")


if __name__ == "__main__":
    main()
