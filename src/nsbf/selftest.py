"""Built-in verification suite behind ``nsbf selftest``.

Ten numbered checks cover the package's load-bearing claims: eigenvalue
reproduction against the shooting reference, automatic truncation-order
selection, accuracy that is uniform in the spectral parameter, exactness on
the degenerate problem, the coefficient identity suite, independent-route
cross-checks, coefficient decay, derivative/Wronskian consistency, the
spherical Bessel regimes, and complex spectral parameters.

The same check functions back the acceptance tests, so the command line and
the test suite cannot drift apart.  Each check returns ``(ok, detail)``;
:func:`run_selftest` prints one line per check and a final summary.
"""

from __future__ import annotations

import sys
import time
import warnings
from functools import cached_property

import numpy as np

from .bessel import _downward, _upward, spherical_jn_matrix
from .coefficients import build_coefficients, direct_alpha, direct_mu
from .grid import Grid
from .liouville import build_liouville
from .oracles import (
    degenerate_problem,
    exact_kamke_solution,
    integrate_reference,
    kamke_problem,
    reference_eigenvalues,
)
from .seed import compute_seed, formal_powers
from .solver import DIRICHLET, SolutionEvaluator

__all__ = ["SelfTestContext", "CRITERIA", "run_selftest"]


class SelfTestContext:
    """Lazily built shared state; the damped test problem dominates.

    ``quick`` reduces the eigenvalue comparison from 100 to 20 entries so
    the whole suite stays under a few seconds.
    """

    def __init__(self, quick: bool = False):
        self.quick = quick
        self._oracles = {}

    # -- damped test problem ------------------------------------------------
    @cached_property
    def kamke(self):
        return kamke_problem()

    @cached_property
    def data(self):
        return build_liouville(self.kamke, Grid(0.0, 2.0, 2001))

    @cached_property
    def seed(self):
        return compute_seed(self.kamke, self.data)

    @cached_property
    def coeffs(self):
        return build_coefficients(self.data, self.seed)

    @cached_property
    def ev_auto(self):
        return SolutionEvaluator(self.coeffs, self.data, self.seed)

    @cached_property
    def ev38(self):
        return SolutionEvaluator(self.coeffs, self.data, self.seed, N=38)

    def oracle_ivp(self, omega):
        """Reference solution of u(0) = u'(0) = 1 at real or complex omega.

        Requested at the lowest supported tolerance up front: the large-omega
        integrations would be retried down to the floor anyway.
        """
        om = complex(omega)
        if om not in self._oracles:
            lam = om * om if om.imag != 0.0 else float(om.real) ** 2
            self._oracles[om] = integrate_reference(
                self.kamke, lam, 1.0, 1.0, tol=1e-14, grid=self.data.grid
            )
        return self._oracles[om]

    # -- degenerate problem ---------------------------------------------------
    @cached_property
    def deg_problem(self):
        return degenerate_problem()

    @cached_property
    def deg_data(self):
        return build_liouville(self.deg_problem, Grid(0.0, np.pi, 1001))

    @cached_property
    def deg_ev(self):
        seed = compute_seed(self.deg_problem, self.deg_data)
        coeffs = build_coefficients(self.deg_data, seed, N=20)
        return SolutionEvaluator(coeffs, self.deg_data, seed, N=20)


# ---------------------------------------------------------------------------
# the ten checks
# ---------------------------------------------------------------------------


def check_eigenvalues(ctx: SelfTestContext):
    """First eigenvalues against the shooting reference, plus sweep timing."""
    count = 20 if ctx.quick else 100
    bc = ctx.kamke.bc
    ref = np.array(reference_eigenvalues(ctx.kamke, bc, count))
    _ = ctx.ev_auto  # exclude construction from the timed section
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = ctx.ev_auto.find_eigenvalues(bc, count_hint=count)
    dt = time.perf_counter() - t0
    if len(results) < count:
        return False, f"only {len(results)} of {count} eigenvalues found"
    lam = results.lam[:count]
    abs_err = float(np.max(np.abs(lam - ref)))
    rel_err = float(np.max(np.abs(lam - ref) / np.abs(ref)))
    ok = abs_err <= 1e-9 and rel_err <= 1e-12 and dt <= 10.0
    return ok, (
        f"count={count} max|dlam|={abs_err:.2e} (<=1e-9) "
        f"rel={rel_err:.2e} (<=1e-12) sweep={dt:.2f}s (<=10s)"
    )


def check_n_opt(ctx: SelfTestContext):
    """Automatic truncation order lands in the expected window."""
    n_opt = ctx.coeffs.N_opt
    return 34 <= n_opt <= 42, f"N_opt={n_opt} (expected in [34, 42])"


def check_uniformity(ctx: SelfTestContext):
    """Fixed-N error varies by < 100x across omega = 10, 52, 105 (+210 tail)."""
    errs = {}
    for w in (10.0, 52.0, 105.0):
        u, _ = ctx.ev38.solve_ivp(w, 1.0, 1.0)
        errs[w] = float(np.max(np.abs(u - ctx.oracle_ivp(w).u)))
    ratio = max(errs.values()) / min(errs.values())
    detail = (
        f"max|u-ref| = {errs[10.0]:.2e}/{errs[52.0]:.2e}/{errs[105.0]:.2e} "
        f"at omega=10/52/105, ratio {ratio:.1f} (<100)"
    )
    if ctx.quick:
        # The omega = 210 reference integration dominates the runtime; the
        # quick run keeps the three-frequency ratio check and leaves the
        # high-frequency tail to the full run.
        return ratio < 100.0, detail + "; omega=210 tail checked in full mode"
    u210, _ = ctx.ev38.solve_ivp(210.0, 1.0, 1.0)
    ref210 = ctx.oracle_ivp(210.0)
    mask = ctx.data.grid.points >= 0.3
    err210 = float(np.max(np.abs(u210 - ref210.u)[mask]))
    ok = ratio < 100.0 and err210 <= 100.0 * errs[52.0]
    return ok, detail + f"; omega=210 on y>=0.3: {err210:.2e} (<= 100x omega=52)"


def check_degenerate(ctx: SelfTestContext):
    """p = r = 1, q = 0: basis equals cos/sin; Dirichlet spectrum k^2."""
    ev = ctx.deg_ev
    pts = ctx.deg_data.grid.points
    worst = 0.0
    for w in (1.0, 10.0, 100.0):
        v1, v2 = ev.eval_basis(w)
        worst = max(
            worst,
            float(np.max(np.abs(v1 - np.cos(w * pts)))),
            float(np.max(np.abs(v2 - np.sin(w * pts)))),
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = ev.find_eigenvalues(DIRICHLET, count_hint=10)
    lam = res.lam[:10]
    ks = np.arange(1.0, 11.0)
    eig_err = float(np.max(np.abs(lam - ks * ks))) if lam.size == 10 else np.inf
    ok = worst <= 1e-13 and eig_err <= 1e-10
    return ok, (
        f"max basis deviation {worst:.2e} (<=1e-13), "
        f"Dirichlet lambda_k vs k^2: {eig_err:.2e} (<=1e-10)"
    )


def check_identities(ctx: SelfTestContext):
    """Identity residuals at M = N_opt: small, and far below M = 5."""
    rep = ctx.coeffs.report
    worst = rep.residuals.max(axis=1)
    at_opt = float(worst[ctx.coeffs.N_opt])
    at_5 = float(worst[5])
    ok = at_opt <= 1e-5 and at_5 >= 100.0 * at_opt
    return ok, (
        f"residual at N_opt {at_opt:.2e} (<=1e-5), at M=5 {at_5:.2e} "
        f"(ratio {at_5 / at_opt:.0f}x, needs >=100x)"
    )


def check_cross_routes(ctx: SelfTestContext):
    """Direct vs recurrent coefficients; exact vs integrated solution."""
    data, seed, coeffs = ctx.data, ctx.seed, ctx.coeffs
    powers = formal_powers(seed, data, 3)
    pts = data.grid.points
    mask = pts >= 0.2
    worst_rel = 0.0
    for n in range(4):
        pairs = (
            (direct_alpha(n, powers, data), coeffs.alpha[n]),
            (direct_mu(n, powers, seed, data, coeffs.G1, coeffs.G2),
             coeffs.mu[n]),
        )
        for direct, recurrent in pairs:
            num = np.abs(direct - recurrent)[mask]
            den = np.abs(direct)[mask]
            worst_rel = max(worst_rel, float(np.max(num / den)))
    ref52 = ctx.oracle_ivp(52.0)
    sel = np.nonzero(52.0 * pts * pts <= 200.0)[0][::25]
    exact = exact_kamke_solution(52.0, pts[sel])
    cross = float(np.max(np.abs(exact.real - ref52.u[sel])))
    ok = worst_rel <= 1e-6 and cross <= 1e-8
    return ok, (
        f"direct-vs-recurrent rel {worst_rel:.2e} (<=1e-6, n<=3, y>=0.2); "
        f"exact-vs-integrated at omega=52: {cross:.2e} (<=1e-8)"
    )


def check_decay(ctx: SelfTestContext):
    """Trimmed sup |alpha_n| decays; vanishing order near y = A."""
    coeffs, data = ctx.coeffs, ctx.data
    grid = data.grid
    start = int(np.searchsorted(grid.points, grid.a + 0.05 * (grid.b - grid.a)))
    sups = np.max(np.abs(coeffs.alpha[:, start:]), axis=1)
    running = np.minimum.accumulate(sups[5:])
    band_ok = bool(np.all(sups[5:] <= 3.0 * running))
    worst_band = float(np.max(sups[5:] / running))

    slopes = []
    near = grid.points <= grid.a + 0.1 * (grid.b - grid.a)
    for n in (1, 2, 3):
        vals = np.abs(coeffs.alpha[n])
        sel = near & (vals > 0.0) & (grid.points > grid.a)
        slope = float(
            np.polyfit(np.log(data.l[sel]), np.log(vals[sel]), 1)[0]
        )
        slopes.append(slope)
    slopes_ok = all(s >= n + 0.5 for s, n in zip(slopes, (1, 2, 3)))
    ok = band_ok and slopes_ok
    return ok, (
        f"sup-decay band {worst_band:.2f}x (<=3x for n>=5); "
        "log-log slopes "
        + "/".join(f"{s:.2f}" for s in slopes)
        + " (need >= 1.5/2.5/3.5)"
    )


def check_derivatives(ctx: SelfTestContext):
    """eval_basis_prime vs central differences; Wronskian constancy."""
    ev = ctx.ev38
    pts = ctx.data.grid.points
    at = pts[100:-100:100]
    step = 1e-5
    v1p, v2p = ev.eval_basis_prime(10.0, at=at)
    v1a, v2a = ev.eval_basis(10.0, at=at + step)
    v1b, v2b = ev.eval_basis(10.0, at=at - step)
    fd1 = (v1a - v1b) / (2 * step)
    fd2 = (v2a - v2b) / (2 * step)
    rel = max(
        float(np.max(np.abs(fd1 - v1p)) / np.max(np.abs(v1p))),
        float(np.max(np.abs(fd2 - v2p)) / np.max(np.abs(v2p))),
    )
    w_vals = ev.wronskian(10.0)
    w0 = w_vals[0]
    flat = float(np.max(np.abs(w_vals - w0)) / abs(w0))
    ok = rel <= 1e-5 and flat <= 1e-6
    return ok, (
        f"finite-difference rel {rel:.2e} (<=1e-5); "
        f"Wronskian flatness {flat:.2e} (<=1e-6)"
    )


def check_bessel(ctx: SelfTestContext):
    """Deep-decay magnitudes and the recurrence-regime crossover."""
    j40_1 = float(spherical_jn_matrix(np.array([1.0]), 40)[40, 0])
    j40_10 = float(spherical_jn_matrix(np.array([10.0]), 40)[40, 0])
    mag_ok = 1.45e-61 <= j40_1 <= 1.55e-61 and 8.35e-22 <= j40_10 <= 8.45e-22
    z = np.linspace(18.0, 22.0, 9)
    up = _upward(20, z)
    down = _downward(20, z)
    cross = float(
        np.max(np.abs(up - down) / np.max(np.abs(down), axis=1, keepdims=True))
    )
    ok = mag_ok and cross <= 1e-10
    return ok, (
        f"j_40(1)={j40_1:.4e} (~1.5e-61), j_40(10)={j40_10:.4e} (~8.4e-22); "
        f"up/down crossover {cross:.2e} (<=1e-10)"
    )


def check_complex_parameter(ctx: SelfTestContext):
    """Series solution matches the reference at omega = 5 + 0.5i."""
    om = 5.0 + 0.5j
    u, _ = ctx.ev38.solve_ivp(om, 1.0, 1.0)
    ref = ctx.oracle_ivp(om)
    err = float(np.max(np.abs(u - ref.u)))
    return err <= 1e-6, f"max|u-ref| = {err:.2e} (<=1e-6) at omega=5+0.5i"


CRITERIA = [
    (1, "eigenvalue reproduction", check_eigenvalues),
    (2, "truncation-order selection", check_n_opt),
    (3, "omega-uniform accuracy", check_uniformity),
    (4, "degenerate-problem exactness", check_degenerate),
    (5, "coefficient identity residuals", check_identities),
    (6, "independent-route cross-checks", check_cross_routes),
    (7, "coefficient decay", check_decay),
    (8, "derivative and Wronskian consistency", check_derivatives),
    (9, "spherical Bessel regimes", check_bessel),
    (10, "complex spectral parameter", check_complex_parameter),
]


def run_selftest(quick: bool = False, stream=None) -> bool:
    """Run all checks, print one line each, and return overall success."""
    if stream is None:
        stream = sys.stdout
    ctx = SelfTestContext(quick=quick)
    t0 = time.perf_counter()
    passed = 0
    for num, title, fn in CRITERIA:
        try:
            ok, detail = fn(ctx)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"unexpected {type(exc).__name__}: {exc}"
        passed += ok
        print(f"{'PASS' if ok else 'FAIL'} {num:>3}  {title}: {detail}",
              file=stream)
    dt = time.perf_counter() - t0
    mode = " (quick)" if quick else ""
    print(
        f"self-test{mode}: {passed}/{len(CRITERIA)} criteria passed "
        f"in {dt:.1f}s",
        file=stream,
    )
    return passed == len(CRITERIA)
