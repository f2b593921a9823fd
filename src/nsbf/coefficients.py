"""Series coefficients alpha_n, mu_n of the Bessel-function representations.

The solution basis is written as

    v1(w, y) = cos(w l(y))/rho(y) + 2 sum_n (-1)^n alpha_{2n}(y) j_{2n}(w l(y))
    v2(w, y) = sin(w l(y))/rho(y) + 2 sum_n (-1)^n alpha_{2n+1}(y) j_{2n+1}(w l(y))

with analogous series (coefficients mu_n) for the derivatives.  The
coefficients do not depend on the spectral parameter; the truncation error
of the partial sums is uniform in w.  This module builds them in one pass:
a float64 ladder climbs Sigma_n = l^n alpha_n and Upsilon_n = l^n mu_n
by recurrent integration and divides each order by l^n straight into
(N+1, m) arrays.  The rounding-dominated region near the left endpoint is
then zeroed in place, and the optimal truncation order is estimated from
four exact summation identities.  The identity check and the cleanup's
identity fallback stream over the orders: their partial sums are running
sums, one row of the grid's length each, so beyond alpha and mu the build
holds at most the fallback's float (N+1, m-1) table of residuals.  Slow
direct formulas through Legendre polynomial coefficients and formal powers
are included as an independent cross-check route.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, fields, is_dataclass
from typing import get_type_hints

import numpy as np

from . import seed as _seed
from .bessel import MAX_ORDER
from .errors import CacheError, GridError, RecurrenceError
from .grid import Grid, cumulative_integral, sampled
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

#: largest |alpha_n|, |mu_n| the ladder accepts: the identity checks divide
#: the rows by l again and sum them over n, which must stay finite
_LADDER_CAP = 1e300

#: the identity residuals are taken over at least this many last nodes
_TAIL_NODES = 32

_CACHE_MAGIC = b"NSBFCSET"
_CACHE_VERSION = 10


def _ladder(data: LiouvilleData, seed: SeedSolution, N: int):
    """G1, G2 and alpha_n, mu_n for n = 0..N, in one pass.

    Returns G1 = h + (1/2) int_0^{l(y)} Q and G2 = G1 - h as sampled
    arrays, and alpha, mu as (N+1, m) float64 (complex128 for a complex
    chain) arrays.  G2 uses the integrated-by-parts form
    [rho rho'/(2r)]_A^y + (1/2) int_A^y (q/rho^2 + rho'^2/r), which avoids
    second derivatives of the coefficients.  Each parity chain climbs from
    the closed-form bases of orders -1 and 0 by two integral recurrences per
    order (no numerical differentiation); only the last order of each chain
    is kept, and every new order is divided by l^n into the output arrays.

    The ladder runs in float64 (complex128 for a complex chain) over the
    compensated running sums of ``cumulative_integral``; the grid's
    quadrature error, not the working precision, sets the floor
    (measurements in CHANGES.md).  Where l^n is below the normal range the
    order is set to 0, as at y = A: dividing by it would overflow.  Where
    the quotient still exceeds ``_LADDER_CAP``, ``RecurrenceError`` names
    the first such order.  An order's products and l^n may leave the float
    range without a warning: a ladder value that is not finite is refused
    by name, and l^n = inf only sets the order to 0.
    """
    grid = data.grid
    h = grid.h
    rho = data.rho
    rho_p = data.rho_prime
    r = data.r_s
    srp = data.sqrt_r_over_p
    l = data.l

    q = data.q_s
    boundary = rho * rho_p / (2.0 * r)
    integral = cumulative_integral(q / (rho * rho) + rho_p * rho_p / r, h)
    G2 = boundary - boundary[0] + 0.5 * integral
    hc = complex(seed.h)
    G1 = G2 + (hc if hc.imag != 0.0 else hc.real)

    g = seed.g
    grho_p = seed.g_prime * rho + g * rho_p
    inv_g = 1.0 / g
    inv_rho2g = inv_g / (rho * rho)
    inv_rho2g2 = inv_rho2g * inv_g
    afac = grho_p / (srp * rho)  # sqrt(p/r)(g'rho+g rho')/rho
    rho_g_srp = rho * g * srp

    # closed-form bases: order 0 as Sigma_0, Upsilon_0; order -1 as
    # l Sigma_{-1} = alpha_{-1} = 1/(2 rho) and l Upsilon_{-1} = G2/(2 rho)
    S0 = 0.5 * (g - 1.0 / rho)
    U0 = (1.0 / srp) * grho_p / (2.0 * rho) - G1 / (2.0 * rho)
    prev = [(S0, U0), (0.5 / rho, G2 / (2.0 * rho))]

    alpha = np.zeros((N + 1, grid.m), dtype=np.result_type(g, G1))
    mu = np.zeros_like(alpha)
    alpha[0] = S0
    mu[0] = U0
    l_safe = l.copy()
    l_safe[0] = 1.0
    ln = np.ones_like(l)
    for n in range(1, N + 1):
        cn = 1.0 if n == 1 else 2.0 * (2 * n - 1)
        fac = (2.0 * n + 1.0) / (2.0 * n - 3.0)
        # a value that is not finite is refused below (docstring)
        with np.errstate(over="ignore", invalid="ignore"):
            if n == 1:
                # the order -1 base is stored times l; the (n-1)-weighted
                # term drops
                lS, lU = prev[1]
                eta_int = 0.5 * grho_p
                l2U = l * lU
            else:
                S2, U2 = prev[n % 2]
                lS = l * S2
                eta_int = (l * grho_p + (n - 1.0) * rho_g_srp) * rho * S2
                l2U = (l * l) * U2
            eta = cumulative_integral(eta_int, h)
            theta_int = (eta * inv_rho2g2 - lS * inv_g) * srp
            theta = cumulative_integral(theta_int, h)
            Sn = fac * (l * lS + cn * (g * theta))
            Un = fac * (l2U + cn * (afac * theta + eta * inv_rho2g)
                        - (cn - 2.0 * n + 1.0) * lS)
            ln = ln * l_safe
            normal = ln >= np.finfo(float).tiny
            np.divide(Sn, ln, out=alpha[n], where=normal)
            np.divide(Un, ln, out=mu[n], where=normal)
        if not (np.all(np.isfinite(Sn)) and np.all(np.isfinite(Un))):
            raise RecurrenceError(f"non-finite ladder values at order n = {n}")
        prev[n % 2] = (Sn, Un)
        peak = np.maximum(np.abs(alpha[n]), np.abs(mu[n]))
        if not np.max(peak) <= _LADDER_CAP:  # also catches inf and nan
            i = int(np.argmin(peak <= _LADDER_CAP))
            raise RecurrenceError(
                f"alpha_n or mu_n overflows at order n = {n}, "
                f"y = {float(grid.points[i])!r} (node {i}): the ladder value "
                f"divided by l^n = {ln[i]:.3g} exceeds {_LADDER_CAP:g}; "
                f"use a smaller N"
            )
    # the limit at the left endpoint is 0 for every n >= 1
    alpha[1:, 0] = 0.0
    mu[1:, 0] = 0.0
    return sampled(G1), sampled(G2), alpha, mu


def _smoothing(hi):
    """The window width w, box kernel and its ``same``-mode weights over
    the hi - 1 nodes of :func:`_local_min_cut`'s window; they depend on hi
    alone.  The window is wider than w: :func:`build_coefficients` refuses
    m <= 32, so hi >= 8 on the uniform grid, and w <= max(5, hi / 16 + 1)
    < hi - 1."""
    w = max(5, (hi // 16) | 1)
    kern = np.ones(w) / w
    return w, kern, np.convolve(np.ones(hi - 1), kern, mode="same")


def _local_min_cut(absvals, hi, smoothing):
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
    ``smoothing`` is :func:`_smoothing` of ``hi``.
    """
    mx = float(np.max(absvals))
    win = absvals[1:hi]
    nz = win > 0.0
    filled = np.where(nz, win, np.min(win[nz]))
    logw = np.log(filled)
    w, kern, norm = smoothing
    j = int(np.argmin(np.convolve(logw, kern, mode="same") / norm))
    lo = max(0, j - w)
    up = min(logw.size, j + w + 1)
    i = 1 + lo + int(np.argmin(np.where(nz[lo:up], win[lo:up], np.inf)))
    if (
        0.0 < absvals[i] < CUT_DEPTH * mx
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
    the first point where that length reaches n: where the running maximum
    of the lengths first reaches n.

    The partial sums stream over the orders: one running sum adds row M of
    ``fam[:, 1:] / l_safe[1:]`` in turn, as a cumulative sum over the rows
    would, and its residual goes into row M of a float (N+1, m-1) table,
    the only array of the family's size held.  A complex row is multiplied
    by 1/l instead: numpy divides it by l + 0i through that reciprocal, so
    the product has the quotient's bits at less cost; a real row keeps its
    division.
    """
    rhs, l = rhs[1:], l_safe[1:]
    scale, by = ((np.multiply, (1.0 / l).astype(fam.dtype))
                 if np.iscomplexobj(fam) else (np.divide, l))
    resid = np.empty((len(fam), l.size))
    partial = np.zeros(l.size, dtype=fam.dtype)
    for vals, row in zip(fam, resid):
        partial += scale(vals[1:], by)
        np.abs(partial - rhs, out=row)
    m_star = np.argmax(resid <= PLATEAU_TIE_FACTOR * np.min(resid, axis=0),
                       axis=0)
    first = np.searchsorted(np.maximum.accumulate(m_star), np.arange(len(fam)))
    return [1 + int(i) if i < m_star.size else None for i in first]


def cleanup_coefficients(alpha, mu, data, rhs_alpha, rhs_mu):
    """Zero each row of the (N+1, m) arrays ``alpha``, ``mu`` in place below
    its cut point near the left endpoint.

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
    l_safe = data.l.copy()
    l_safe[0] = 1.0
    smoothing = _smoothing(hi)

    def cuts_for(fam, rhs):
        out = np.full(len(fam), grid.a)
        last = [None, None]  # largest cut index so far, per parity chain
        plateau = None  # fallback cuts, from the family as cleaned so far
        # a row is read before its own cut and written only by it, so each
        # row's first nonzero node past A can be taken up front, in one pass
        # over the rows; its |values| go into one buffer, not a family-sized
        # table
        nonzero = fam[:, 1:] != 0.0
        firsts = np.where(nonzero.any(axis=1), 1 + nonzero.argmax(axis=1), 0)
        absvals = np.empty(fam.shape[1])
        for n in range(1, len(fam)):
            vals = fam[n]
            first = int(firsts[n])
            if first == 0:
                continue  # identically zero: nothing to clean
            if first > 1:
                # exact leading zeros (the problem is constant near A, so
                # the ladder cancels exactly there): the cut is the first
                # nonzero node and nothing is zeroed
                out[n] = pts[first]
                if last[n % 2] is None or first > last[n % 2]:
                    last[n % 2] = first
                continue
            np.abs(vals, out=absvals)
            idx = _local_min_cut(absvals, hi, smoothing)
            if idx is None:
                if plateau is None:
                    plateau = _plateau_cuts(fam, l_safe, rhs)
                idx = plateau[n]
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

    return cuts_for(alpha, rhs_alpha), cuts_for(mu, rhs_mu)


@dataclass(frozen=True, eq=False)
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
    rhs4 = 0.25 * Q[0] / rho + (0.5 * h) * G2 / rho
    return rhs1, rhs2, rhs3, rhs4


def verify_coefficients(alpha, mu, data, rhs, cut_alpha,
                        cut_mu) -> VerificationReport:
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
    count as tied.  ``rhs`` holds the four right-hand sides from
    ``_verification_rhs``.

    The partial sums stream over the orders.  Four running sums, one per
    identity, add row M of alpha/l or mu/l (negated at odd M in the
    alternating ones) in the order of a cumulative sum over the rows, and
    row M of the residuals is taken as soon as they reach length M.  The
    sums hold only the columns of the current window, which never moves
    left as M grows, so nothing of the coefficients' size is built.
    """
    grid = data.grid
    pts = grid.points
    N = len(alpha) - 1
    trim_start = int(
        np.searchsorted(pts, grid.a + TRIM_FRACTION * (grid.b - grid.a))
    )

    # cut ordinates are never left of A
    cmax = np.maximum.accumulate(np.maximum(cut_alpha, cut_mu))
    starts = np.searchsorted(pts, cmax, side="left")
    starts = np.minimum(np.maximum(starts, trim_start), grid.m - _TAIL_NODES)

    rhs = np.array(rhs)
    residuals = np.empty((N + 1, 4))
    lo = int(starts[0])  # >= trim_start >= 1, so l > 0 on every window
    sums = np.zeros((4, grid.m - lo), dtype=alpha.dtype)
    for M in range(N + 1):
        # the window only shrinks: drop the sums' columns left of its start
        sums = sums[:, int(starts[M]) - lo:]
        lo = int(starts[M])
        ta = alpha[M, lo:] / data.l[lo:]
        tm = mu[M, lo:] / data.l[lo:]
        alt = np.subtract if M % 2 else np.add  # adds (-1)^M t exactly
        for s, t, op in zip(sums, (ta, ta, tm, tm), (np.add, alt) * 2):
            op(s, t, out=s)
        residuals[M] = np.max(np.abs(sums - rhs[:, lo:]), axis=1)
    worst = np.max(residuals, axis=1)
    floor = float(np.min(worst))
    n_opt = int(np.argmax(worst <= NOPT_TIE_FACTOR * floor))
    return VerificationReport(
        residuals=residuals,
        N_opt=n_opt,
        window_start=pts[starts],
    )


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Everything the evaluator needs that is independent of the spectral
    parameter: alpha_n, mu_n for n = 0..N as cleaned, read-only (N+1, m)
    arrays on the grid, the antiderivatives G1, G2, the cleanup cut
    ordinates, the verification report, and the seed the set was built
    from.  No number of the evaluator comes from the seed: its constants at
    A are the series' own values there.  The evaluator only checks that it
    is handed this seed, which a cached set carries without a new
    integration.  The order -1 members enter only the ladder and are not
    stored; the cache stores exactly these fields."""

    grid: Grid
    alpha: np.ndarray  # shape (N+1, m)
    mu: np.ndarray  # shape (N+1, m)
    G1: np.ndarray
    G2: np.ndarray
    cut_alpha: np.ndarray
    cut_mu: np.ndarray
    report: VerificationReport
    seed: SeedSolution

    @property
    def N(self) -> int:
        return len(self.alpha) - 1

    @property
    def N_opt(self) -> int:
        return self.report.N_opt


def build_coefficients(
    data: LiouvilleData,
    seed: SeedSolution,
    N: int = DEFAULT_N,
) -> CoefficientSet:
    """Full construction: ladder, cleanup, verification.

    N is refused outside [1, ``bessel.MAX_ORDER`` - 2]: Delta' of an
    evaluator at order N runs over the Bessel orders up to N + N mod 2 + 2,
    one even order past its values.  A grid of m <= ``_TAIL_NODES`` nodes
    is refused: the identity check needs a window of that many nodes.
    """
    if data.grid.m <= _TAIL_NODES:
        raise GridError(f"m = {data.grid.m} is too small to verify the "
                        f"coefficients (need m > {_TAIL_NODES})")
    if not 1 <= N <= MAX_ORDER - 2:
        raise ValueError(f"N = {N} is outside [1, {MAX_ORDER - 2}]; "
                         "Delta' at order N needs Bessel orders up to "
                         f"N + N mod 2 + 2, and the batch takes {MAX_ORDER}")
    G1, G2, alpha, mu = _ladder(data, seed, N)
    rhs = _verification_rhs(data, G1, G2, seed.h)
    cut_a, cut_m = cleanup_coefficients(alpha, mu, data, rhs[0], rhs[2])
    report = verify_coefficients(alpha, mu, data, rhs, cut_a, cut_m)
    alpha.flags.writeable = False
    mu.flags.writeable = False
    return CoefficientSet(
        grid=data.grid,
        alpha=alpha,
        mu=mu,
        G1=G1,
        G2=G2,
        cut_alpha=cut_a,
        cut_mu=cut_m,
        report=report,
        seed=seed,
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
    from fractions import Fraction

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


def direct_alpha(n: int, powers: FormalPowers,
                 data: LiouvilleData) -> np.ndarray:
    """alpha_n from the Legendre-coefficient formula (valid away from y=A)."""
    _check_direct_n(n, powers)
    row = legendre_coefficient_table(n)[n]
    l = data.l.copy()
    l[0] = 1.0
    acc = np.zeros(data.grid.m, dtype=complex)
    lk = np.ones_like(l)
    for k in range(n + 1):
        if k > 0:
            lk = lk * l
        if row[k]:
            acc = acc + float(row[k]) * powers.Phi[k] / lk
    vals = 0.5 * (2 * n + 1) * (acc - 1.0 / data.rho)
    if n >= 1:
        vals[0] = 0.0
    return sampled(vals)


def direct_mu(
    n: int,
    powers: FormalPowers,
    seed: SeedSolution,
    data: LiouvilleData,
    G1: np.ndarray,
    G2: np.ndarray,
) -> np.ndarray:
    """mu_n from the Legendre-coefficient formula (valid away from y=A)."""
    _check_direct_n(n, powers)
    row = legendre_coefficient_table(n)[n]
    rho = data.rho
    l = data.l.copy()
    l[0] = 1.0
    # rho*sqrt(p/r)*(g'/g + rho'/rho) = sqrt(p/r)*(g'rho + g rho')/g
    fgeom = (
        (seed.g_prime * rho + seed.g * data.rho_prime)
        / (data.sqrt_r_over_p * seed.g)
    )
    acc = np.zeros(data.grid.m, dtype=complex)
    lk = np.ones_like(l)
    for k in range(n + 1):
        if k > 0:
            lk = lk * l
        if not row[k]:
            continue
        term = fgeom * powers.Phi[k]
        if k >= 1:
            term = term + k * powers.Psi[k - 1] / rho
        acc = acc + float(row[k]) * term / lk
    acc = acc - n * (n + 1) / (2.0 * l) - G2 \
        - 0.5 * complex(seed.h) * (1 + (-1) ** n)
    vals = (2 * n + 1) / (2.0 * rho) * acc
    if n >= 1:
        vals[0] = 0.0
    else:
        sqrt_p_over_r0 = 1.0 / data.sqrt_r_over_p[0]
        grp0 = seed.g_prime[0] * rho[0] + seed.g[0] * data.rho_prime[0]
        vals[0] = sqrt_p_over_r0 * grp0 / (2 * rho[0]) - G1[0] / (2 * rho[0])
    return sampled(vals)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def problem_cache_key(description: str) -> bytes:
    """32-byte digest identifying a (problem, grid, N) combination and the
    seed, cleanup and N_opt constants a set is built with."""
    consts = (TRIM_FRACTION, CUT_WINDOW_FRACTION, CUT_DEPTH,
              PLATEAU_TIE_FACTOR, NOPT_TIE_FACTOR,
              _seed._RTOL, _seed._REAL_PREFERENCE, _seed._CERTIFICATE)
    return hashlib.sha256(f"{description}|{consts!r}".encode()).digest()


def _flatten(record, prefix=""):
    """The init fields of a tree of records as {dotted name: array}, e.g.
    ``seed.g`` and ``report.N_opt``; a non-numeric field raises TypeError."""
    out = {}
    for f in filter(lambda f: f.init, fields(record)):
        name, value = prefix + f.name, getattr(record, f.name)
        if is_dataclass(value):
            out.update(_flatten(value, name + "."))
            continue
        arr = out[name] = np.asarray(value)
        if arr.dtype.kind not in "biufc":
            raise TypeError(f"cannot cache field {name} of dtype {arr.dtype}")
    return out


def _unflatten(cls, arrays, prefix=""):
    """The record ``cls`` rebuilt from the arrays of ``_flatten``: 0-d
    entries as Python scalars, the others read-only."""
    types = get_type_hints(cls)
    kwargs = {}
    for f in filter(lambda f: f.init, fields(cls)):
        name = prefix + f.name
        if is_dataclass(types[f.name]):
            kwargs[f.name] = _unflatten(types[f.name], arrays, name + ".")
            continue
        arr = arrays[name]
        arr.flags.writeable = False
        kwargs[f.name] = arr.item() if arr.ndim == 0 else arr
    return cls(**kwargs)


def save_coefficients(coeffs: CoefficientSet, path, key: bytes) -> None:
    """Serialize a CoefficientSet keyed to a problem digest.

    The file is the magic, the format version, the 32-byte key, the SHA-256
    of the payload and the payload, an uncompressed ``np.savez`` archive of
    the set's fields and those of its grid, report and seed under dotted
    names (``_flatten``).  The digest is what catches a damaged payload on
    load; deflating the archive would cost about ten times the write and
    load time for a file only a fifth smaller.
    """
    if len(key) != 32:
        raise ValueError("key must be a 32-byte digest (see problem_cache_key)")
    buf = io.BytesIO()
    np.savez(buf, **_flatten(coeffs))
    payload = buf.getbuffer()
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(_CACHE_VERSION.to_bytes(4, "little"))
        fh.write(key)
        fh.write(hashlib.sha256(payload).digest())
        fh.write(payload)


def load_coefficients(path, key: bytes) -> CoefficientSet:
    """Load a cached CoefficientSet; any mismatch raises CacheError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}") from exc
    if len(raw) < len(_CACHE_MAGIC) + 4 + 32 + 32:
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
    payload = raw[off + 32:]
    if hashlib.sha256(payload).digest() != raw[off:off + 32]:
        raise CacheError("corrupted cache payload: SHA-256 mismatch")
    try:
        with np.load(io.BytesIO(payload)) as z:
            return _unflatten(CoefficientSet, z)
    except Exception as exc:
        raise CacheError(f"corrupted cache payload: {exc}") from exc
