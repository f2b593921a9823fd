"""Series coefficients alpha_n, mu_n of the Bessel-function representations.

The solution basis is written as

    v1(w, y) = cos(w l(y))/rho(y) + 2 sum_n (-1)^n alpha_{2n}(y) j_{2n}(w l(y))
    v2(w, y) = sin(w l(y))/rho(y) + 2 sum_n (-1)^n alpha_{2n+1}(y) j_{2n+1}(w l(y))

with analogous series (coefficients mu_n) for the derivatives.  The
coefficients do not depend on the spectral parameter; the truncation error
of the partial sums is uniform in w.  This module computes them by the
stable recurrent integration procedure for Sigma_n = l^n alpha_n and
Upsilon_n = l^n mu_n, cleans up the rounding-dominated region near the left
endpoint, and estimates the optimal truncation order from four exact summation
identities.  Slow direct formulas through Legendre polynomial coefficients
and formal powers are included as an independent cross-check route.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CacheError, RecurrenceError
from .grid import _QUAD_TABLE_LD, _QUAD_W, Grid, SampledFn, _cumint_values
from .liouville import LiouvilleData
from .seed import FormalPowers, SeedSolution

#: default truncation order of the computed coefficient ladder
DEFAULT_N = 50
#: verification identities are evaluated for y >= A + TRIM_FRACTION*(B-A)
TRIM_FRACTION = 0.05
#: cut points are searched for in y < A + CUT_WINDOW_FRACTION*(B-A)
CUT_WINDOW_FRACTION = 0.25
#: a local minimum qualifies as a cut point only below this depth
CUT_DEPTH = 1e-2
#: pointwise residuals within this factor of their minimum over M count as
#: having entered the plateau (fallback cut-point rule)
PLATEAU_TIE_FACTOR = 2.0
#: residuals within this factor of the global floor count as ties for N_opt;
#: the floor is approached gradually, so "same order of magnitude" is a tie
NOPT_TIE_FACTOR = 3.0

_CACHE_MAGIC = b"NSBFCSET"
_CACHE_VERSION = 3


def recurrence_factor(n: int) -> float:
    """The factor c_n of the integral recurrences: c_1 = 1, else 2(2n-1)."""
    return 1.0 if n == 1 else 2.0 * (2 * n - 1)


def _quad_rows_ld(m):
    return _QUAD_TABLE_LD[_QUAD_W if m >= _QUAD_W else 5]


def _G_arrays(data: LiouvilleData, seed: SeedSolution):
    """Antiderivatives G1 = h + (1/2) int_0^{l(y)} Q and G2 = G1 - h.

    Uses the integrated-by-parts form
    G1 = h + [rho rho'/(2r)]_A^y + (1/2) int_A^y (q/rho^2 + rho'^2/r),
    which avoids second derivatives of the coefficients.  The arrays are
    long double: the ladder recurrences amplify errors in their base
    members.
    """
    ld = np.longdouble
    q = data.q_s.values
    rho = data.rho.values.astype(ld)
    rho_p = data.rho_prime.values.astype(ld)
    r = data.r_s.values.astype(ld)
    boundary = rho * rho_p / (2.0 * r)
    qc = q.astype(np.clongdouble if np.iscomplexobj(q) else ld)
    integrand = qc / (rho * rho) + rho_p * rho_p / r
    integral = _cumint_values(integrand, ld(data.grid.h),
                              _quad_rows_ld(data.grid.m))
    G2 = boundary - boundary[0] + 0.5 * integral
    h = complex(seed.h)
    G1 = G2 + (np.clongdouble(h) if h.imag != 0.0 else ld(h.real))
    return G1, G2


def _seed_base_arrays(data: LiouvilleData, seed: SeedSolution, G1ld, G2ld):
    """Extended-precision ladder bases alpha_{-1}, alpha_0, mu_{-1}, mu_0,
    all in closed form."""
    ld = np.longdouble
    rho = data.rho.values.astype(ld)
    cd = np.clongdouble if (
        np.iscomplexobj(seed.g.values) or np.iscomplexobj(G1ld)
    ) else ld
    g = seed.g.values.astype(cd)
    grho_p = seed.g_prime.values.astype(cd) * rho \
        + g * data.rho_prime.values.astype(ld)
    alpha_m1 = (0.5 / rho).astype(cd)
    alpha_0 = 0.5 * (g - 1.0 / rho)
    mu_m1 = G2ld.astype(cd) / (2.0 * rho)
    sqrt_p_over_r = 1.0 / data.sqrt_r_over_p.values.astype(ld)
    mu_0 = sqrt_p_over_r * grho_p / (2.0 * rho) - G1ld.astype(cd) / (2.0 * rho)
    return alpha_m1, alpha_0, mu_m1, mu_0


def recurrence_step(n, state, work):
    """Advance the ladder by one order: from Sigma_{n-2}, Upsilon_{n-2} to
    Sigma_n, Upsilon_n (integral recurrences; no numerical differentiation).

    ``state`` maps order -> (Sigma_n, Upsilon_n) arrays and is updated in
    place; ``work`` carries the precomputed geometry arrays.
    """
    (l, rho, srp, g, grho_p, inv_rho2g2, inv_g, inv_rho2g, afac, rho_g_srp,
     h, rows, alpha_m1, mu_m1) = work
    cn = recurrence_factor(n)
    fac = (2.0 * n + 1.0) / (2.0 * n - 3.0)
    if n == 1:
        # l*Sigma_{-1} = alpha_{-1} = 1/(2 rho); the (n-1)-weighted term drops
        lS = alpha_m1
        eta_int = 0.5 * grho_p
        l2S = l * alpha_m1
        l2U = l * mu_m1
    else:
        S2, U2 = state[n - 2]
        lS = l * S2
        eta_int = (l * grho_p + (n - 1.0) * rho_g_srp) * rho * S2
        l2S = l * lS
        l2U = (l * l) * U2
    eta = _cumint_values(eta_int, h, rows)
    theta_int = (eta * inv_rho2g2 - lS * inv_g) * srp
    theta = _cumint_values(theta_int, h, rows)
    Sn = fac * (l2S + cn * (g * theta))
    Un = fac * (l2U + cn * (afac * theta + eta * inv_rho2g)
                - (cn - 2.0 * n + 1.0) * lS)
    if not (np.all(np.isfinite(Sn)) and np.all(np.isfinite(Un))):
        raise RecurrenceError(f"non-finite ladder values at order n = {n}")
    state[n] = (Sn, Un)
    return Sn, Un


def _recurrence_work(data, seed, alpha_m1, mu_m1):
    """Geometry arrays of the ladder, in extended precision.

    The ladder is iterated ~N/2 times per family and the summation
    identities used to pick the truncation order weigh every order equally,
    so the working precision of the recurrences sets the floor those
    identities can reach.  Extended precision pushes that floor below the
    quadrature truncation error of the grid.  (On platforms where
    ``np.longdouble`` is plain double the ladder still converges; the
    identity floor is then a few digits higher.)
    """
    ld = np.longdouble
    cd = alpha_m1.dtype.type
    rho = data.rho.values.astype(ld)
    srp = data.sqrt_r_over_p.values.astype(ld)
    # re-integrate l with the ladder's own quadrature and precision so that
    # terms which cancel identically (e.g. every order of a problem whose
    # coefficients are already constant) cancel exactly, not to rounding
    l = _cumint_values(srp, ld(data.grid.h), _quad_rows_ld(data.grid.m))
    g = seed.g.values.astype(cd)
    grho_p = seed.g_prime.values.astype(cd) * rho \
        + g * data.rho_prime.values.astype(ld)
    inv_g = 1.0 / g
    inv_rho2g = inv_g / (rho * rho)
    inv_rho2g2 = inv_rho2g * inv_g
    afac = grho_p / (srp * rho)  # sqrt(p/r)(g'rho+g rho')/rho
    rho_g_srp = rho * g * srp
    return (l, rho, srp, g, grho_p, inv_rho2g2, inv_g, inv_rho2g, afac,
            rho_g_srp, ld(data.grid.h), _quad_rows_ld(data.grid.m),
            alpha_m1, mu_m1)


def extract_alpha_mu(sigma, upsilon, data):
    """Divide the ladders by l^n; the limit at the left endpoint is 0.

    The division happens in the ladder's working precision; the returned
    arrays are cast down to double precision.
    """
    complex_chain = np.iscomplexobj(sigma[0])
    out_t = np.complex128 if complex_chain else np.float64
    ld = np.longdouble
    # same l as the ladder itself used (see _recurrence_work)
    l = _cumint_values(data.sqrt_r_over_p.values.astype(ld), ld(data.grid.h),
                       _quad_rows_ld(data.grid.m))
    l[0] = 1.0
    alpha = []
    mu = []
    ln = np.ones_like(l)
    for n in range(len(sigma)):
        if n == 0:
            a = sigma[0]
            m_ = upsilon[0]
        else:
            ln = ln * l
            a = sigma[n] / ln
            m_ = upsilon[n] / ln
        a = a.astype(out_t)
        m_ = m_.astype(out_t)
        if n > 0:
            a[0] = 0.0
            m_[0] = 0.0
        alpha.append(a)
        mu.append(m_)
    return alpha, mu


def _local_min_cut(absvals, hi, depth=CUT_DEPTH):
    """Index where |coefficient| attains its minimum inside the window.

    Rounding error amplified by the division by l^n dwarfs the true
    coefficient near the left endpoint, so the profile falls steeply from a
    noise spike at y=A to a dip where noise and signal cross over, and grows
    again to the right.  The dip is located on a smoothed log-profile (the
    crossover dip is broad, whereas a sign change of the true coefficient
    notches only a few nodes and must not attract the cut), then refined to
    the raw minimum nearby.  It is accepted only as a strict interior local
    minimum with a nonzero value well below the profile maximum (a clean
    coefficient grows monotonically from zero and produces no such dip).
    """
    mx = float(np.max(absvals))
    if mx == 0.0:
        return None
    win = absvals[1:hi]
    nz = win > 0.0
    if not np.any(nz):
        return None
    filled = np.where(nz, win, np.min(win[nz]))
    logw = np.log(filled)
    w = max(5, (hi // 16) | 1)
    if logw.size > w:
        kern = np.ones(w) / w
        sm = np.convolve(logw, kern, mode="same")
        sm /= np.convolve(np.ones_like(logw), kern, mode="same")
        j = int(np.argmin(sm))
    else:
        j = int(np.argmin(logw))
    lo = max(0, j - w)
    up = min(logw.size, j + w + 1)
    i = 1 + lo + int(np.argmin(np.where(nz[lo:up], win[lo:up], np.inf)))
    if (
        0.0 < absvals[i] < depth * mx
        and absvals[i] < absvals[i - 1]
        and absvals[i] < absvals[i + 1]
        and absvals[i - 1] > 0.0
    ):
        return i
    return None


def _plateau_cuts(fam, l_safe, rhs):
    """Fallback cut-point estimate from a summation identity.

    For each grid point, find the partial-sum length at which the pointwise
    residual against ``rhs`` enters its plateau (smallest M within a factor
    PLATEAU_TIE_FACTOR of the minimum over M; beyond that, additional terms
    are rounding noise).  Coefficient n is declared meaningful starting at
    the first point where that length reaches n.
    """
    win = slice(1, None)
    terms = np.array([a[win] for a in fam]) / l_safe[win]
    partial = np.cumsum(terms, axis=0)
    resid = np.abs(partial - rhs.values[win])
    m_star = np.argmax(resid <= PLATEAU_TIE_FACTOR * np.min(resid, axis=0),
                       axis=0)
    cuts = []
    for n in range(len(fam)):
        idx = np.nonzero(m_star >= n)[0]
        cuts.append(1 + int(idx[0]) if idx.size else None)
    return cuts


def cleanup_coefficients(alpha, mu, data, rhs_alpha, rhs_mu):
    """Zero each coefficient below its cut point near the left endpoint.

    Primary rule: the dip where |coefficient| attains its minimum inside the
    left quarter of the interval (computed coefficients are
    rounding-dominated left of that dip).  Fallback when no qualifying dip
    exists: the identity-plateau estimate from the corresponding summation
    identity.  Returns the cut ordinates.
    """
    grid = data.grid
    pts = grid.points
    hi = int(np.searchsorted(pts, grid.a + CUT_WINDOW_FRACTION * (grid.b - grid.a)))
    hi = min(max(hi, 2), grid.m - 2)
    l_safe = data.l.values.copy()
    l_safe[0] = 1.0

    plateau = {"alpha": None, "mu": None}

    def cuts_for(fam, key, rhs):
        out = np.full(len(fam), grid.a)
        last = [None, None]  # largest cut index so far, per parity chain
        for n in range(1, len(fam)):
            vals = fam[n]
            nz = np.nonzero(vals[1:])[0]
            if nz.size == 0:
                continue  # identically zero: nothing to clean
            first = 1 + int(nz[0])
            if first > 1:
                # leading zeros: already cleaned, keep the existing cut
                out[n] = pts[first]
                if last[n % 2] is None or first > last[n % 2]:
                    last[n % 2] = first
                continue
            idx = _local_min_cut(np.abs(vals), hi)
            if idx is None:
                if plateau[key] is None:
                    plateau[key] = _plateau_cuts(fam, l_safe, rhs)
                idx = plateau[key][n]
            if idx is None:
                # the rounding-dominated region never shrinks with n, so a
                # failed estimate inherits the largest cut of its parity chain
                idx = last[n % 2]
            if idx is not None and idx > 1:
                vals[:idx] = 0.0
                out[n] = pts[idx]
                if last[n % 2] is None or idx > last[n % 2]:
                    last[n % 2] = idx
        return out

    cut_a = cuts_for(alpha, "alpha", rhs_alpha)
    cut_m = cuts_for(mu, "mu", rhs_mu)
    return cut_a, cut_m


@dataclass(frozen=True)
class VerificationReport:
    """Sup-norm residuals of the four summation identities vs partial-sum
    length M, taken over the trimmed interval minus the cleaned neighborhood
    of A of every order entering the partial sum; N_opt is the smallest M
    tying the global residual floor."""

    residuals: np.ndarray  # shape (N+1, 4)
    N_opt: int
    window_start: np.ndarray  # shape (N+1,): left edge of the sup window

    @property
    def floor(self) -> float:
        return float(np.min(np.max(self.residuals, axis=1)))


def _verification_rhs(data, G1, G2, h):
    rho = data.rho
    Q = data.Q
    rhs1 = (G1 + G2) / (2.0 * rho)
    rhs2 = (0.5 * h) / rho
    rhs3 = Q / (4.0 * rho) + (h * G2 + G2 * G2) / (2.0 * rho)
    rhs4 = (0.25 * float(np.real(Q.values[0]))
            if not np.iscomplexobj(Q.values) else 0.25 * Q.values[0]) / rho \
        + (0.5 * h) * G2 / rho
    return rhs1, rhs2, rhs3, rhs4


def verify_coefficients(alpha, mu, data, G1, G2, h,
                        cut_alpha=None, cut_mu=None) -> VerificationReport:
    """Residuals of the four exact identities and the resulting N_opt.

    The identities state that sum_n alpha_n/l, its alternating variant, and
    the two mu analogues equal closed-form right-hand sides; partial sums of
    length M leave a tail whose sup-norm decreases with M until the floor
    set by the accuracy of the computed coefficients is reached.  The sup is
    taken over the trimmed interval, additionally excluding the cleaned
    neighborhood of A of every coefficient entering the partial sum (inside
    a cleaned region the sum is missing its zeroed terms, so the comparison
    carries no information).  N_opt is the smallest M whose worst residual
    ties the global floor; residuals within ``NOPT_TIE_FACTOR`` of the floor
    count as tied.
    """
    grid = data.grid
    pts = grid.points
    N = len(alpha) - 1
    trim_start = int(
        np.searchsorted(pts, grid.a + TRIM_FRACTION * (grid.b - grid.a))
    )

    cut = np.full(N + 1, grid.a)
    if cut_alpha is not None:
        cut = np.maximum(cut, cut_alpha)
    if cut_mu is not None:
        cut = np.maximum(cut, cut_mu)
    cmax = np.maximum.accumulate(cut)
    starts = np.searchsorted(pts, cmax, side="left")
    starts = np.minimum(np.maximum(starts, trim_start), grid.m - 32)

    l = data.l.values.copy()
    l[0] = 1.0
    rhs = [r.values for r in _verification_rhs(data, G1, G2, h)]
    terms_a = np.array(alpha) / l
    terms_m = np.array(mu) / l
    signs = (-1.0) ** np.arange(N + 1)
    sums = (
        np.cumsum(terms_a, axis=0),
        np.cumsum(signs[:, None] * terms_a, axis=0),
        np.cumsum(terms_m, axis=0),
        np.cumsum(signs[:, None] * terms_m, axis=0),
    )
    residuals = np.empty((N + 1, 4))
    for M in range(N + 1):
        sl = slice(int(starts[M]), grid.m)
        for j in range(4):
            residuals[M, j] = np.max(np.abs(sums[j][M, sl] - rhs[j][sl]))
    worst = np.max(residuals, axis=1)
    floor = float(np.min(worst))
    n_opt = int(np.argmax(worst <= NOPT_TIE_FACTOR * floor))
    return VerificationReport(
        residuals=residuals,
        N_opt=n_opt,
        window_start=pts[starts],
    )


@dataclass
class CoefficientSet:
    """Everything the evaluator needs that is independent of the spectral
    parameter: the ladders alpha_n, mu_n for n = 0..N (as plain arrays on
    the grid), the antiderivatives G1, G2, the seed constant h, the cleanup
    cut ordinates, and the verification report.  The order -1 members
    enter only the recurrences and are not stored."""

    grid: Grid
    N: int
    alpha: np.ndarray  # shape (N+1, m)
    mu: np.ndarray  # shape (N+1, m)
    G1: np.ndarray
    G2: np.ndarray
    h: complex
    cut_alpha: np.ndarray
    cut_mu: np.ndarray
    report: VerificationReport

    @property
    def N_opt(self) -> int:
        return self.report.N_opt


def build_coefficients(
    data: LiouvilleData,
    seed: SeedSolution,
    N: int = DEFAULT_N,
) -> CoefficientSet:
    """Full ladder construction: seeds, recurrences, cleanup, verification."""
    if N < 1:
        raise ValueError("N must be >= 1")
    G1ld, G2ld = _G_arrays(data, seed)
    alpha_m1_ld, alpha_0_ld, mu_m1_ld, mu_0_ld = _seed_base_arrays(
        data, seed, G1ld, G2ld
    )

    work = _recurrence_work(data, seed, alpha_m1_ld, mu_m1_ld)
    state = {0: (alpha_0_ld, mu_0_ld)}
    for n in range(1, N + 1):
        recurrence_step(n, state, work)
    sigma = [state[n][0] for n in range(N + 1)]
    upsilon = [state[n][1] for n in range(N + 1)]
    alpha, mu = extract_alpha_mu(sigma, upsilon, data)

    gdt = np.complex128 if np.iscomplexobj(G1ld) else np.float64
    G1 = SampledFn(data.grid, G1ld.astype(gdt))
    G2 = SampledFn(data.grid, G2ld.astype(gdt))

    rhs1, _, rhs3, _ = _verification_rhs(data, G1, G2, seed.h)
    cut_a, cut_m = cleanup_coefficients(alpha, mu, data, rhs1, rhs3)
    report = verify_coefficients(alpha, mu, data, G1, G2, seed.h,
                                 cut_alpha=cut_a, cut_mu=cut_m)

    dtype = np.complex128 if any(np.iscomplexobj(a) for a in alpha) else float
    return CoefficientSet(
        grid=data.grid,
        N=N,
        alpha=np.array(alpha, dtype=dtype),
        mu=np.array(mu, dtype=dtype),
        G1=G1.values.copy(),
        G2=G2.values.copy(),
        h=seed.h,
        cut_alpha=cut_a,
        cut_mu=cut_m,
        report=report,
    )


# ---------------------------------------------------------------------------
# direct (Legendre-coefficient) formulas: independent cross-check route
# ---------------------------------------------------------------------------

#: the direct formulas lose accuracy quickly as n grows; refuse beyond this
DIRECT_MAX_N = 12


def legendre_coefficient_table(n_max: int):
    """Rows of Legendre polynomial coefficients l_{k,n} (exact rationals).

    Row n has length n+1; entry k is the coefficient of x^k in P_n(x).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    rows = [[Fraction(1)]]
    if n_max >= 1:
        rows.append([Fraction(0), Fraction(1)])
    for n in range(1, n_max):
        prev, cur = rows[n - 1], rows[n]
        nxt = [Fraction(0)] * (n + 2)
        for k, c in enumerate(cur):
            nxt[k + 1] += Fraction(2 * n + 1, n + 1) * c
        for k, c in enumerate(prev):
            nxt[k] -= Fraction(n, n + 1) * c
        rows.append(nxt)
    return rows


def _check_direct_n(n, powers):
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > DIRECT_MAX_N:
        raise ValueError(
            f"direct formulas are a cross-check only; n = {n} exceeds "
            f"the supported cap {DIRECT_MAX_N}"
        )
    if n > powers.K:
        raise ValueError(f"formal powers only available up to K = {powers.K}")


def direct_alpha(n: int, powers: FormalPowers, data: LiouvilleData) -> SampledFn:
    """alpha_n from the Legendre-coefficient formula (valid away from y=A)."""
    _check_direct_n(n, powers)
    row = legendre_coefficient_table(n)[n]
    l = data.l.values.copy()
    l[0] = 1.0
    acc = np.zeros(data.grid.m, dtype=complex)
    lk = np.ones_like(l)
    for k in range(n + 1):
        if k > 0:
            lk = lk * l
        if row[k]:
            acc = acc + float(row[k]) * powers.Phi[k].values / lk
    vals = 0.5 * (2 * n + 1) * (acc - 1.0 / data.rho.values)
    if n >= 1:
        vals[0] = 0.0
    return SampledFn(data.grid, vals)


def direct_mu(
    n: int,
    powers: FormalPowers,
    seed: SeedSolution,
    data: LiouvilleData,
    G1: SampledFn,
    G2: SampledFn,
) -> SampledFn:
    """mu_n from the Legendre-coefficient formula (valid away from y=A)."""
    _check_direct_n(n, powers)
    row = legendre_coefficient_table(n)[n]
    rho = data.rho.values
    l = data.l.values.copy()
    l[0] = 1.0
    # rho*sqrt(p/r)*(g'/g + rho'/rho) = sqrt(p/r)*(g'rho + g rho')/g
    fgeom = (
        (seed.g_prime.values * rho + seed.g.values * data.rho_prime.values)
        / (data.sqrt_r_over_p.values * seed.g.values)
    )
    acc = np.zeros(data.grid.m, dtype=complex)
    lk = np.ones_like(l)
    for k in range(n + 1):
        if k > 0:
            lk = lk * l
        if not row[k]:
            continue
        term = fgeom * powers.Phi[k].values
        if k >= 1:
            term = term + k * powers.Psi[k - 1].values / rho
        acc = acc + float(row[k]) * term / lk
    acc = acc - n * (n + 1) / (2.0 * l) - G2.values \
        - 0.5 * complex(seed.h) * (1 + (-1) ** n)
    vals = (2 * n + 1) / (2.0 * rho) * acc
    if n >= 1:
        vals[0] = 0.0
    else:
        sqrt_p_over_r0 = 1.0 / data.sqrt_r_over_p.values[0]
        grp0 = (
            seed.g_prime.values[0] * rho[0]
            + seed.g.values[0] * data.rho_prime.values[0]
        )
        vals[0] = sqrt_p_over_r0 * grp0 / (2 * rho[0]) - G1.values[0] / (
            2 * rho[0]
        )
    return SampledFn(data.grid, vals)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def problem_cache_key(description: str) -> bytes:
    """32-byte digest identifying a (problem, grid, N) combination and the
    cleanup and N_opt constants a set is built with."""
    consts = (TRIM_FRACTION, CUT_WINDOW_FRACTION, CUT_DEPTH,
              PLATEAU_TIE_FACTOR, NOPT_TIE_FACTOR)
    return hashlib.sha256(f"{description}|{consts!r}".encode()).digest()


def save_coefficients(coeffs: CoefficientSet, path, key: bytes) -> None:
    """Serialize a CoefficientSet keyed to a problem digest."""
    if len(key) != 32:
        raise ValueError("key must be a 32-byte digest (see problem_cache_key)")
    buf = io.BytesIO()
    np.savez_compressed(
        buf,
        grid_abm=np.array([coeffs.grid.a, coeffs.grid.b, float(coeffs.grid.m)]),
        N=np.array([coeffs.N]),
        alpha=coeffs.alpha,
        mu=coeffs.mu,
        G1=coeffs.G1,
        G2=coeffs.G2,
        h=np.array([complex(coeffs.h)]),
        cut_alpha=coeffs.cut_alpha,
        cut_mu=coeffs.cut_mu,
        residuals=coeffs.report.residuals,
        n_opt=np.array([coeffs.report.N_opt]),
        window_start=coeffs.report.window_start,
    )
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(_CACHE_VERSION.to_bytes(4, "little"))
        fh.write(key)
        fh.write(buf.getvalue())


def load_coefficients(path, key: bytes) -> CoefficientSet:
    """Load a cached CoefficientSet; any mismatch raises CacheError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}") from exc
    if len(raw) < len(_CACHE_MAGIC) + 4 + 32:
        raise CacheError("cache file truncated")
    if raw[: len(_CACHE_MAGIC)] != _CACHE_MAGIC:
        raise CacheError("bad cache magic header")
    off = len(_CACHE_MAGIC)
    version = int.from_bytes(raw[off : off + 4], "little")
    if version != _CACHE_VERSION:
        raise CacheError(
            f"cache version {version} does not match expected {_CACHE_VERSION}"
        )
    off += 4
    if raw[off : off + 32] != key:
        raise CacheError("cache was built for a different problem/grid")
    off += 32
    try:
        with np.load(io.BytesIO(raw[off:])) as z:
            a, b, m = z["grid_abm"]
            grid = Grid(float(a), float(b), int(m))
            h = complex(z["h"][0])
            if h.imag == 0.0:
                h = h.real
            report = VerificationReport(
                residuals=z["residuals"],
                N_opt=int(z["n_opt"][0]),
                window_start=z["window_start"],
            )
            return CoefficientSet(
                grid=grid,
                N=int(z["N"][0]),
                alpha=z["alpha"],
                mu=z["mu"],
                G1=z["G1"],
                G2=z["G2"],
                h=h,
                cut_alpha=z["cut_alpha"],
                cut_mu=z["cut_mu"],
                report=report,
            )
    except Exception as exc:
        raise CacheError(f"corrupted cache payload: {exc}") from exc
