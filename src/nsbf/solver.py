"""Truncated-series evaluation, initial-value solutions, and eigenvalues.

The evaluator assembles the solution basis

    v1(w, y) = cos(w l)/rho + 2 sum_{k} (-1)^k alpha_{2k}(y)  j_{2k}(w l)
    v2(w, y) = sin(w l)/rho + 2 sum_{k} (-1)^k alpha_{2k+1}(y) j_{2k+1}(w l)

(truncated at order ``N_used``: even indices up to N for v1, odd up to N for
v2) together with the derivative series built from the mu coefficients and
the closed-form envelope carrying G1, G2.  Because the coefficients do not
depend on the spectral parameter, a single :class:`~nsbf.coefficients.
CoefficientSet` serves every w with uniform accuracy: initial-value problems
are the combinations c1 v1 + c2 v2, and eigenvalues of two-point boundary
problems are located as roots of the characteristic function Delta(w), whose
evaluation needs the series only at the right endpoint.

Every evaluation goes through one kernel: one set of ingredients (on the
grid, at B, or interpolated at given ordinates) and either a scalar w or a
1-D batch of w at one point; a scalar call is a batch of one.  Where w = 0
the series is replaced by the exact lambda = 0 pair g, g*int ds/(p g^2), so
``characteristic`` accepts w = 0 anywhere in a batch, while the basis views
(``eval_basis``, ``eval_basis_prime``, ``wronskian``) reject it.

Both half-axes of a real spectrum go through one search: lambda > 0 on real
w, lambda < 0 on w = i t, where Delta is real as well.  The search samples
Re Delta on equal cells in one batched call, and refines each sign change by
bisection to ``BISECT_WIDTH``, then by a secant clamped to the bracket, to
``REFINE_TOL``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bessel import spherical_jn_matrix
from .coefficients import CoefficientSet
from .grid import SampledFn, _interp_values, cumulative_integral
from .liouville import LiouvilleData
from .seed import SeedSolution

#: eigenvalue scan step, as a fraction of the asymptotic spacing pi/b
SCAN_STEP_FACTOR = 0.2
#: bisection narrows a bracket to this width before secant takes over
BISECT_WIDTH = 1e-6
#: secant stops when the omega update drops below this (times max(1, omega))
REFINE_TOL = 1e-13
#: allowed difference between found roots and the Weyl count estimate
WEYL_SLACK = 2


@dataclass(frozen=True)
class BoundarySpec:
    """Separated two-point boundary conditions.

    ``a1 * v(A) + a2 * v'(A) = 0`` and ``b1 * v(B) + b2 * v'(B) = 0``;
    each pair must be nontrivial.
    """

    a1: float
    a2: float
    b1: float
    b2: float

    def __post_init__(self):
        if self.a1 == 0.0 and self.a2 == 0.0:
            raise ValueError("boundary pair (a1, a2) must not be (0, 0)")
        if self.b1 == 0.0 and self.b2 == 0.0:
            raise ValueError("boundary pair (b1, b2) must not be (0, 0)")

    def initial_values(self):
        """The unit-norm initial pair (u(A), u'(A)) killing the A-form."""
        nrm = float(np.hypot(self.a1, self.a2))
        return self.a2 / nrm, -self.a1 / nrm


DIRICHLET = BoundarySpec(1.0, 0.0, 1.0, 0.0)


@dataclass(frozen=True)
class EigenResult:
    """One eigenvalue: lam = omega**2 with the refinement diagnostics.

    ``char_residual`` is the estimated distance to the true root in omega
    units, |Delta(omega) / Delta'(omega)| with the derivative taken from the
    final secant slope.
    """

    k: int
    omega: float
    lam: float
    char_residual: float
    refinement_iterations: int


class SolutionEvaluator:
    """Evaluates v1, v2, their derivatives, IVP solutions, and eigenvalues.

    Parameters
    ----------
    coeffs : CoefficientSet
    data : LiouvilleData
    seed : SeedSolution
        The three artifacts of the construction pipeline, on one grid.
    N : int, optional
        Truncation order; defaults to ``coeffs.N_opt``.  Must not exceed
        ``coeffs.N``.

    Notes
    -----
    Instances are immutable after construction and safe to share across
    threads; evaluation at distinct spectral points is independent.
    """

    def __init__(self, coeffs: CoefficientSet, data: LiouvilleData,
                 seed: SeedSolution, N: int | None = None):
        if N is None:
            N = coeffs.N_opt
        if not 0 <= N <= coeffs.N:
            raise ValueError(f"N = {N} outside [0, {coeffs.N}]")
        self.coeffs = coeffs
        self.data = data
        self.seed = seed
        self.N_used = int(N)

        k_even = np.arange(0, N + 1, 2)
        k_odd = np.arange(1, N + 1, 2)
        w_even = (2.0 * (-1.0) ** (k_even // 2))[:, None]
        w_odd = (2.0 * (-1.0) ** (k_odd // 2))[:, None]
        # lambda = 0 fundamental pair (g, g * int 1/(p g^2)) and derivatives
        g = seed.g.values
        gp = seed.g_prime.values
        p = data.p_s.values
        integ = cumulative_integral(
            SampledFn(data.grid, 1.0 / (p * g * g))
        ).values
        self._grid_ing = (
            data.l.values,
            data.rho.values,
            data.rho_prime.values,
            data.sqrt_r_over_p.values,
            coeffs.G1,
            coeffs.G2,
            w_even * coeffs.alpha[k_even],
            w_odd * coeffs.alpha[k_odd],
            w_even * coeffs.mu[k_even],
            w_odd * coeffs.mu[k_odd],
            g,
            g * integ,
            gp,
            gp * integ + 1.0 / (p * g),
            p,
        )
        self._end_ing = tuple(arr[..., -1:] for arr in self._grid_ing)

        rho_a = float(data.rho.values[0])
        self._rho_a = rho_a
        self._gp_a = complex(seed.g_prime.values[0])
        if self._gp_a.imag == 0.0:
            self._gp_a = self._gp_a.real
        self._sqrt_p_over_r_a = 1.0 / float(data.sqrt_r_over_p.values[0])

    # -- basic properties ---------------------------------------------------

    @property
    def is_real_problem(self) -> bool:
        """True when p, q, r are all real-valued (eigenvalues live on the
        real lambda axis and the characteristic function is analytically
        real for real omega)."""
        return self.data.q_s.is_real

    # -- series assembly ----------------------------------------------------

    def _ing(self, at):
        """Ingredients on the grid (``at`` None) or interpolated at ``at``."""
        if at is None:
            return self._grid_ing
        grid = self.data.grid
        return tuple(_interp_values(grid, arr, at)
                     for arr in self._grid_ing)

    def _kernel(self, omega, ing):
        """(v1, v2, v1', v2') at the points of ``ing``, for a scalar omega
        or a 1-D batch of omegas at one point.

        Entries with omega = 0 hold the lambda = 0 pair
        (g, g*int ds/(p g^2)) and its derivatives instead.
        """
        (l, rho, rho_p, srp, G1, G2, wae, wao, wme, wmo,
         g, u2, gp, u2p, _) = ing
        omega = np.asarray(omega)
        if np.iscomplexobj(omega) and not np.any(omega.imag):
            omega = omega.real
        z = omega * l
        # a scalar ordinate gives a 0-d z; the Bessel batch is at least 1-D
        J = spherical_jn_matrix(z, self.N_used).reshape(
            (self.N_used + 1,) + np.shape(z))
        cosz = np.cos(z)
        sinz = np.sin(z)
        Je = J[0::2]
        Jo = J[1::2]
        v1 = cosz / rho + (wae * Je).sum(axis=0)
        v2 = sinz / rho + (wao * Jo).sum(axis=0)
        v1p = srp * ((G1 * cosz - omega * sinz) / rho
                     + (wme * Je).sum(axis=0)) - (rho_p / rho) * v1
        v2p = srp * ((G2 * sinz + omega * cosz) / rho
                     + (wmo * Jo).sum(axis=0)) - (rho_p / rho) * v2
        zero = omega == 0
        if np.any(zero):
            v1, v2, v1p, v2p = (
                np.where(zero, a, v) for a, v in
                ((g, v1), (u2, v2), (gp, v1p), (u2p, v2p))
            )
        return v1, v2, v1p, v2p

    def _basis(self, omega, ing):
        if np.any(np.asarray(omega) == 0):
            raise ValueError(
                "omega = 0 is outside the series representation; "
                "use solve_ivp, which switches to the lambda = 0 basis"
            )
        return self._kernel(omega, ing)

    def eval_basis(self, omega, at=None):
        """The truncated basis pair (v1, v2) at spectral parameter omega.

        Parameters
        ----------
        omega : real or complex, nonzero
        at : None, scalar, or array of ordinates
            ``None`` evaluates on the construction grid; otherwise the
            coefficient functions are interpolated at the given points.

        Returns
        -------
        (v1, v2) : arrays (or scalars when ``at`` is scalar)
        """
        return self._basis(omega, self._ing(at))[:2]

    def eval_basis_prime(self, omega, at=None):
        """Derivatives (v1', v2') of the basis pair, same conventions."""
        return self._basis(omega, self._ing(at))[2:]

    def wronskian(self, omega, at=None):
        """p * (v1 v2' - v1' v2); equals omega identically for the true
        solutions, so its flatness measures the truncation error."""
        ing = self._ing(at)
        v1, v2, v1p, v2p = self._basis(omega, ing)
        p = ing[-1]
        return p * (v1 * v2p - v1p * v2)

    # -- initial-value problems ----------------------------------------------

    def _a_side(self, omega, u_A, uprime_A, ing):
        """(u, u') at the points of ``ing``: the solution with u(A) = ``u_A``,
        u'(A) = ``uprime_A``, as c1 v1 + c2 v2 of the :meth:`_kernel` pair.

        c2 is formed per omega in Python complex arithmetic, which divides
        where numpy's complex division multiplies by a reciprocal.
        """
        c1 = self._rho_a * u_A
        k = uprime_A - c1 * self._gp_a
        c2 = np.array([
            k * self.data.p_s.values[0] / self._rho_a if w == 0 else
            k * self._rho_a * self._sqrt_p_over_r_a / w
            for w in map(complex, np.ravel(omega).tolist())
        ]).reshape(np.shape(omega))
        v1, v2, v1p, v2p = self._kernel(omega, ing)
        return c1 * v1 + c2 * v2, c1 * v1p + c2 * v2p

    def solve_ivp(self, omega, u_A, uprime_A, at=None):
        """Solution of the initial-value problem on the grid.

        Returns the pair (u, u') with u(A) = ``u_A``, u'(A) = ``uprime_A``,
        assembled as c1 v1 + c2 v2 for omega != 0 and from the exact
        lambda = 0 fundamental pair g, g*int ds/(p g^2) otherwise.  When the
        problem, omega and both initial values are real the result is
        returned real even if the internal basis is complex.
        """
        u, up = self._a_side(omega, u_A, uprime_A, self._ing(at))
        if self.is_real_problem and not any(
            np.any(np.imag(x)) for x in (omega, u_A, uprime_A)
        ):
            # A real problem with real data has a real solution; any
            # imaginary residue comes from the complex seed combination
            # and is rounding-level, so it is dropped here.
            u, up = np.real(u), np.real(up)
        return u, up

    # -- eigenvalue machinery -------------------------------------------------

    def characteristic(self, omega, bc: BoundarySpec):
        """Delta(omega) = b1 u(B) + b2 u'(B), u the unit A-side solution.

        ``omega`` is a scalar, which returns a ``complex``, or a 1-D array,
        which returns a complex array of the same length.  Entries with
        omega = 0 use the exact lambda = 0 pair, so an all-zero batch works
        as well.  Analytically real for real omega on a real problem (even
        when the internal seed is a complex combination); the imaginary part
        is then rounding-level residue.
        """
        u_A, up_A = bc.initial_values()
        uB, upB = self._a_side(omega, u_A, up_A, self._end_ing)
        delta = bc.b1 * uB + bc.b2 * upB
        return delta if np.ndim(omega) else complex(delta[0])

    def find_eigenvalues(self, bc: BoundarySpec, omega_max=None,
                         count_hint=None):
        """Eigenvalues lam = omega^2 with omega in [0, omega_max].

        Re Delta(omega) is sampled with step ``SCAN_STEP_FACTOR * pi / b``
        (a fifth of the asymptotic eigenvalue spacing in the transformed
        variable); sign changes are refined as the module docstring says.
        When the number of roots found
        disagrees with the Weyl count estimate floor(omega_max*b/pi) by more
        than ``WEYL_SLACK``, the scan is repeated once at half step and a
        warning is emitted.  With ``count_hint`` the range grows until that
        many eigenvalues are available; the list is then truncated to it.

        Only real spectra are searched: complex q is rejected.
        """
        if not self.is_real_problem:
            raise ValueError(
                "eigenvalue search requires real p, q, r "
                "(complex problems have complex spectra)"
            )
        if omega_max is None:
            if count_hint is None:
                raise ValueError("provide omega_max or count_hint")
            omega_max = (count_hint + 3) * np.pi / self.data.b

        def delta(omega):
            # a clamped secant step near omega = 0 may land below it
            return self.characteristic(np.maximum(omega, 0.0), bc).real

        roots = []
        step = SCAN_STEP_FACTOR * np.pi / self.data.b
        if omega_max > 0:
            roots = _scan_roots(delta, omega_max, step)
            expected = int(np.floor(omega_max * self.data.b / np.pi))
            if abs(len(roots) - expected) > WEYL_SLACK:
                warnings.warn(
                    f"found {len(roots)} eigenvalues where the count "
                    f"estimate gives {expected}; re-scanning at half step",
                    stacklevel=2,
                )
                roots = _scan_roots(delta, omega_max, 0.5 * step)
        if count_hint is not None:
            grow = 0
            while len(roots) < count_hint and grow < 8:
                omega_max *= 1.3
                roots = _scan_roots(delta, omega_max, step)
                grow += 1
        roots.sort(key=lambda t: t[0])
        deduped = []
        for item in roots:
            if deduped and abs(item[0] - deduped[-1][0]) \
                    <= 1e-10 * max(1.0, item[0]):
                continue
            deduped.append(item)
        if count_hint is not None:
            deduped = deduped[:count_hint]
        return [
            EigenResult(k=i + 1, omega=w, lam=w * w, char_residual=res,
                        refinement_iterations=it)
            for i, (w, res, it) in enumerate(deduped)
        ]

    def find_negative_eigenvalues(self, bc: BoundarySpec, lambda_floor):
        """Roots with lam in [lambda_floor, 0), scanned as omega = i*t.

        Delta(i t) is real for real problems; its real part goes through
        the scan and refinement of :meth:`find_eigenvalues` on
        t in [0, t_max = sqrt(-lambda_floor)], with step
        min(SCAN_STEP_FACTOR * pi / b, t_max / 8).  A root at t = 0 is
        dropped (lambda = 0 is not negative).  Results carry omega = t =
        sqrt(-lam), so lam = -omega**2, most negative lambda first.
        """
        if not self.is_real_problem:
            raise ValueError("eigenvalue search requires real p, q, r")
        if lambda_floor >= 0:
            raise ValueError("lambda_floor must be negative")

        def delta(t):
            return self.characteristic(1j * np.maximum(t, 0.0), bc).real

        t_max = float(np.sqrt(-lambda_floor))
        step = min(SCAN_STEP_FACTOR * np.pi / self.data.b, t_max / 8)
        found = [r for r in _scan_roots(delta, t_max, step) if r[0] > 0.0]
        found.sort(key=lambda r: -r[0])
        return [
            EigenResult(k=-(i + 1), omega=t, lam=-t * t, char_residual=res,
                        refinement_iterations=it)
            for i, (t, res, it) in enumerate(found)
        ]


def _refine_root(f, lo, hi, flo, fhi):
    """Root of ``f`` in the bracket [lo, hi], where f(lo) = ``flo`` and
    f(hi) = ``fhi`` differ in sign: bisection to BISECT_WIDTH, then secant
    to REFINE_TOL, each secant step clamped to the bracket widened by
    BISECT_WIDTH.  Returns (root, |f / slope|, evaluations of f)."""
    iters = 0
    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        iters += 1
        if fm == 0.0:
            lo = hi = mid
            flo = fhi = fm
            break
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    x0, f0 = lo, flo
    x1, f1 = hi, fhi
    slope = (f1 - f0) / (x1 - x0) if x1 != x0 else 0.0
    for _ in range(60):
        if f1 == f0 or x1 == x0:
            break
        slope = (f1 - f0) / (x1 - x0)
        x2 = x1 - f1 / slope
        if not lo - BISECT_WIDTH <= x2 <= hi + BISECT_WIDTH:
            x2 = 0.5 * (x0 + x1)
        iters += 1
        f2 = f(x2)
        x0, f0, x1, f1 = x1, f1, x2, f2
        if abs(x1 - x0) <= REFINE_TOL * max(1.0, abs(x1)) or f2 == 0.0:
            break
    residual = abs(f1 / slope) if slope != 0.0 else abs(f1)
    return x1, residual, iters


def _scan_roots(f, t_max, step):
    """Roots (t, residual, iterations) of the real function ``f`` on
    [0, t_max].

    ``f`` is sampled on equal cells no wider than ``step``, all nodes in one
    call ``f(ts)``; the refinement calls it with scalars.  A node where f
    vanishes is a root as it stands; a sign change between nodes goes to
    :func:`_refine_root`.  t = 0 counts as a root when |f(0)| is at
    rounding level against the largest sampled |f|.
    """
    n_cells = max(2, int(np.ceil(t_max / step)))
    ts = np.linspace(0.0, t_max, n_cells + 1)
    fs = f(ts)
    found = []
    scale = max(np.max(np.abs(fs)), np.finfo(float).tiny)
    if abs(fs[0]) <= 1e-11 * scale:
        found.append((0.0, abs(fs[0]), 0))
    for i in range(1, n_cells + 1):
        if fs[i] == 0.0:
            found.append((ts[i], 0.0, 0))
        elif fs[i - 1] * fs[i] < 0.0:
            found.append(_refine_root(f, ts[i - 1], ts[i], fs[i - 1], fs[i]))
    return found
