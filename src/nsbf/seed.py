"""Zero-free seed solution of the homogeneous equation and formal powers.

The coefficient construction needs one solution g of (p g')' - q g = 0 that
never vanishes on [A, B], normalized to g(A) = 1/rho(A).  Two real-data
solutions are integrated; if the first is already bounded away from zero it
is used directly (real fast path), otherwise the combination g1 + i*g2 is
formed, which cannot vanish for real q because g1 and g2 never vanish
simultaneously.  Both are integrated by :mod:`.dop853`, the same method and
floats as scipy's ``solve_ivp(method="DOP853")`` without importing
``scipy.integrate``.

Formal powers are the iterated weighted antiderivatives built on g; they
feed the closed-form coefficient cross-checks.  Like every function of the
package, g, g' and the formal powers are read-only arrays of their samples
on the grid of the Liouville data.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import SeedError
from .grid import cumulative_integral, differentiate, sampled
from .liouville import LiouvilleData, SLProblem

#: prefer the real seed only when it stays this far away from zero,
#: relative to its maximum (conditioning of the 1/g^2 ladders)
_REAL_PREFERENCE = 1e-3
#: hard certificate: any accepted seed must satisfy min|g| > this * max|g|
_CERTIFICATE = 1e-12
#: relative and absolute tolerance of the DOP853 integration
_RTOL = 1e-13


@dataclass(frozen=True, eq=False)
class SeedSolution:
    """Non-vanishing seed g with g(A) = 1/rho(A), and g', sampled on the
    grid.

    ``h`` is the Robin-type constant sqrt(p(A)/r(A)) * (g'(A)/g(A)
    + rho'(A)/rho(A)) that enters every coefficient formula downstream.
    """

    g: np.ndarray
    g_prime: np.ndarray
    h: complex

    @property
    def used_complex_combination(self) -> bool:
        """Whether g is the complex combination g1 + i g2."""
        return np.iscomplexobj(self.g)

    @property
    def min_abs_g(self) -> float:
        """min|g| over the nodes: the seed's distance from zero."""
        return float(np.min(np.abs(self.g)))


def compute_seed(problem: SLProblem, data: LiouvilleData) -> SeedSolution:
    """Integrate the homogeneous equation and pick a zero-free seed.

    Raises :class:`SeedError`, naming min|g|/max|g| and where both are
    taken, when the chosen seed fails the certificate min|g| > 1e-12 max|g|:
    for complex q it can come close to zero, and for real q it can grow
    too fast.
    """
    grid = data.grid
    p = problem.p
    q = problem.q
    is_complex = not np.isrealobj(data.q_s)

    def rhs(y, s):
        py = p(y)
        # q real on the grid may still come back complex-typed
        qy = q(y) if is_complex else q(y).real
        return [s[1] / py, qy * s[0], s[3] / py, qy * s[2]]

    # imported here, not with the module: only a build integrates, and a
    # run that loads its coefficients from the cache need not load it
    from .dop853 import integrate

    y0 = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex if is_complex else float)
    ok, message, sol = integrate(
        rhs, (grid.a, grid.b), y0, grid.points, rtol=_RTOL, atol=_RTOL
    )
    if not ok:
        raise SeedError(f"homogeneous integration failed: {message}")
    g1, w1, g2, w2 = sol
    g1[0], w1[0], g2[0], w2[0] = 1.0, 0.0, 0.0, 1.0  # initial data is exact

    rho_a = float(data.rho[0])
    abs_g1 = np.abs(g1)
    sign_definite = bool(np.all(g1.real > 0.0) or np.all(g1.real < 0.0))
    use_real = (
        not is_complex
        and sign_definite
        and np.min(abs_g1) > _REAL_PREFERENCE * np.max(abs_g1)
    )

    if use_real:
        g_vals = g1 / rho_a
        w_vals = w1 / rho_a
    else:
        g_vals = (g1 + 1j * g2) / rho_a
        w_vals = (w1 + 1j * w2) / rho_a

    abs_g = np.abs(g_vals)
    min_abs = float(np.min(abs_g))
    if min_abs <= _CERTIFICATE * float(np.max(abs_g)):
        lo, hi = int(np.argmin(abs_g)), int(np.argmax(abs_g))
        raise SeedError(
            f"seed solution is ill-conditioned: min|g|/max|g| = "
            f"{min_abs / abs_g[hi]:.2g} <= {_CERTIFICATE:g}, with "
            f"|g| = {min_abs:.3e} at y = {float(grid.points[lo])!r} "
            f"(node {lo}) and {abs_g[hi]:.3e} at "
            f"y = {float(grid.points[hi])!r} (node {hi})"
        )

    g = sampled(g_vals)
    g_prime = sampled(w_vals / data.p_s)

    sqrt_p_over_r_a = 1.0 / float(data.sqrt_r_over_p[0])
    h = sqrt_p_over_r_a * (
        g_prime[0] / g_vals[0] + data.rho_prime[0] / data.rho[0]
    )
    h = complex(h)
    if h.imag == 0.0:
        h = h.real  # keep the real fast path when it exists
    return SeedSolution(g=g, g_prime=g_prime, h=h)


def seed_residual(seed: SeedSolution, data: LiouvilleData) -> float:
    """Normalized residual of (p g')' - q g on interior nodes."""
    pgp = data.p_s * seed.g_prime
    res = differentiate(pgp, data.grid.h) - data.q_s * seed.g
    scale = max(1.0, float(np.max(np.abs(data.q_s * seed.g))))
    return float(np.max(np.abs(res[3:-3]))) / scale


@dataclass(frozen=True, eq=False)
class FormalPowers:
    """Iterated antiderivative ladders Phi_k, Psi_k built on the seed.

    Phi_0 = g and Phi_k(y) ~ (y - A)^k as y -> A; in the trivial case
    p = r = 1, q = 0 they are exactly (y - A)^k.  Internally the ladders are
    stored divided by k! to delay overflow; the exposed functions carry the
    usual normalization.
    """

    K: int
    Phi: list
    Psi: list


def formal_powers(
    seed: SeedSolution, data: LiouvilleData, K: int
) -> FormalPowers:
    """Build formal powers up to degree K.

    Raises OverflowError if an exposed ladder value would exceed 1e300
    (use a smaller K).
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    grid = data.grid
    g = seed.g
    g_sq = g * g
    w_down = 1.0 / (g_sq * data.p_s)  # weight for the X-type step
    w_up = g_sq * data.r_s  # weight for the X-tilde-type step

    one = np.ones(grid.m)
    # chain Y: odd steps use w_down, even steps use w_up
    Y = [one]
    # chain Y~: odd steps use w_up, even steps use w_down
    Yt = [one]
    for n in range(1, K + 1):
        w, wt = (w_down, w_up) if n % 2 == 1 else (w_up, w_down)
        Y.append(cumulative_integral(Y[-1] * w, grid.h))
        Yt.append(cumulative_integral(Yt[-1] * wt, grid.h))

    inv_g = 1.0 / g
    Phi = []
    Psi = []
    for k in range(K + 1):
        fk = float(factorial(k)) if k < 171 else np.inf
        src = Y[k] if k % 2 == 1 else Yt[k]
        src_t = Yt[k] if k % 2 == 1 else Y[k]
        phi_peak = fk * float(np.max(np.abs(src)))
        psi_peak = fk * float(np.max(np.abs(src_t)))
        if not np.isfinite(phi_peak) or max(phi_peak, psi_peak) > 1e300:
            raise OverflowError(
                f"formal power ladder overflows at degree {k}; use smaller K"
            )
        Phi.append(sampled(g * (src * fk)))
        Psi.append(sampled(inv_g * (src_t * fk)))
    return FormalPowers(K=K, Phi=Phi, Psi=Psi)
