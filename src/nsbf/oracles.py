"""Independent reference machinery for tests and the self-test command.

Three routes that never touch the series pipeline live here: a high-order
adaptive integration of the Sturm-Liouville equation in its original form,
real or complex, as one stacked first-order system for (v, p v')
(:func:`integrate_reference`), the closed-form Kummer-function solution of
the damped test problem (:func:`exact_kamke_solution`), and reference
eigenvalues by shooting, with a root refiner of their own
(:func:`reference_eigenvalues`).  Because none of them share code with the
transformation/recurrence/evaluation chain, agreement between the two
routes is meaningful evidence of correctness.

A small catalog of built-in problems used throughout the test suite is also
defined here: :func:`degenerate_problem`, :func:`kamke_problem` and
:func:`random_smooth_problem`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import OracleError, PositivityError, StiffnessError
from .grid import DEFAULT_M, Grid
from .liouville import SLProblem

__all__ = [
    "ReferenceSolution",
    "integrate_reference",
    "exact_kamke_solution",
    "reference_eigenvalues",
    "degenerate_problem",
    "kamke_problem",
    "random_smooth_problem",
    "KAMKE_ARGUMENT_CAP",
    "MAX_EIGENVALUE_COUNT",
]

#: Requested tolerances below this are rejected (they could not be honoured).
MIN_TOL = 1e-14
#: Tolerances above this are clamped down so every reference solution is
#: integrated at least this accurately.
MAX_TOL = 1e-12
#: scipy's explicit Runge-Kutta steppers refuse rtol below 100*eps; clamp
#: silently instead of triggering their warning.
_RTOL_FLOOR = 2.3e-14
#: Feasibility cap on |y^2 omega| for the ascending Kummer series.
KAMKE_ARGUMENT_CAP = 200.0
#: Hard cap on how many reference eigenvalues may be requested at once.
MAX_EIGENVALUE_COUNT = 200
#: Tolerance used while scanning for characteristic sign changes (signs only).
_SCAN_TOL = 1e-9
#: Refinement closes a bracket this many ulps of max(1, omega) wide.
_CLOSE_ULPS = 4


@dataclass(frozen=True, eq=False)
class ReferenceSolution:
    """High-accuracy samples of one initial-value solution.

    Attributes
    ----------
    grid : Grid
        Nodes at which the solution was sampled.
    u, uprime : numpy.ndarray
        Values of the solution and its derivative at the grid nodes.
    tol : float
        Local tolerance actually used by the integrator.
    method : str
        Integrator tag (currently always ``"DOP853"``).
    endpoint_shift : float
        Scaled change of ``u(B)`` when the integration is repeated at half
        tolerance.
    """

    grid: Grid
    u: np.ndarray
    uprime: np.ndarray
    tol: float
    method: str
    endpoint_shift: float


def _eval_fn(fn, ys: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient callable at many points, vectorised if it can."""
    ys = np.asarray(ys, dtype=np.float64)
    try:
        vals = np.asarray(fn(ys))
        if vals.shape == ys.shape:
            return vals
    except Exception:
        pass
    return np.asarray([fn(y) for y in ys])


def _positive_p_r(problem: SLProblem, ys: np.ndarray):
    """p and r sampled at ``ys``, as float64.

    Raises :class:`PositivityError` at the first node where either is not
    real, finite and strictly positive: the integration divides by p (a
    sign change of p drives the adaptive step to zero), and the real,
    ordered spectrum that the shooting scan counts on needs r > 0.
    """
    out = []
    for name in ("p", "r"):
        vals = _eval_fn(getattr(problem, name), ys)
        bad = ~(np.isfinite(vals) & (np.imag(vals) == 0.0)
                & (np.real(vals) > 0.0))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise PositivityError(name, i, float(ys[i]), vals[i].item())
        out.append(np.real(vals).astype(np.float64))
    return out


def _problem_is_complex(problem: SLProblem) -> bool:
    """Whether q takes genuinely complex values (probed at a few points)."""
    ys = np.linspace(problem.a, problem.b, 7)
    vals = _eval_fn(problem.q, ys)
    return bool(np.iscomplexobj(vals) and np.any(vals.imag != 0.0))


def _solve_batch(problem, lams, u_A, uprime_A, tol, t_eval):
    """Integrate the first-order system for (v, p v') for a batch of lambdas.

    All ``lams`` share the same initial values and are marched together as
    one stacked system, so a single adaptive solve serves the whole batch.
    A complex state is integrated as it stands (DOP853 accepts complex
    initial values).  Returns ``(v, w)`` with shape ``(K, len(t_eval))``
    where ``w = p v'``.
    """
    # imported here, not with the module: the CLI imports this module only
    # for its problem catalog and must not pay for loading the integrator
    from scipy.integrate import solve_ivp

    lams = np.atleast_1d(np.asarray(lams))
    K = lams.size
    p, q, r = problem.p, problem.q, problem.r
    a, b = float(problem.a), float(problem.b)
    t_eval = np.asarray(t_eval, dtype=np.float64)

    u0 = complex(u_A)
    w0 = complex(uprime_A) * complex(p(a))
    complex_mode = (
        np.iscomplexobj(lams)
        and bool(np.any(lams.imag != 0.0))
        or u0.imag != 0.0
        or w0.imag != 0.0
        or _problem_is_complex(problem)
    )

    rtol = max(float(tol), _RTOL_FLOOR)
    atol = 0.01 * float(tol)

    # the state is complex128 in complex mode and float64 otherwise; a real
    # state takes the real parts only, since the integrator would cast a
    # complex right-hand side back to float64, which warns
    if complex_mode:
        lams = lams.astype(np.complex128)
    else:
        lams, u0, w0 = lams.real.astype(np.float64), u0.real, w0.real

    def rhs(y, s):
        v, w = s[:K], s[K:]
        return np.concatenate((w / p(y), (q(y) - lams * r(y)) * v))

    s0 = np.concatenate((np.full(K, u0), np.full(K, w0)))

    sol = solve_ivp(
        rhs,
        (a, b),
        s0,
        method="DOP853",
        rtol=rtol,
        atol=atol,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise StiffnessError(
            f"reference integration failed at tolerance {tol:g}: {sol.message}"
        )
    return sol.y[:K], sol.y[K:]


def integrate_reference(
    problem: SLProblem,
    lam,
    u_A,
    uprime_A,
    tol: float = 1e-12,
    grid: Grid | None = None,
) -> ReferenceSolution:
    """Solve (p v')' - q v = -lambda r v as an initial-value problem.

    Integrates the equivalent first-order system for ``(v, p v')`` with an
    eighth-order adaptive Runge-Kutta method and samples the solution at the
    grid nodes.  Real and complex ``lam`` / initial data are both supported;
    the complex case is marched as a complex128 state, the real case as a
    float64 one.

    Parameters
    ----------
    problem : SLProblem
    lam : complex
        Spectral parameter (``lambda = omega**2``).
    u_A, uprime_A : complex
        Initial values ``v(A)`` and ``v'(A)``.
    tol : float
        Requested local tolerance, ``>= 1e-14``; values above ``1e-12`` are
        clamped down to keep every reference solution at least that accurate.
    grid : Grid, optional
        Output nodes; defaults to a uniform grid with 2001 points.

    The integration is repeated at half tolerance, and the endpoint value
    must move by no more than ten times the tolerance (relative to
    ``max(1, |u(B)|)``); the measured shift is stored on the result.

    Raises
    ------
    ValueError
        ``tol`` below the supported minimum.
    PositivityError
        p or r is not real, finite and positive at some grid node.
    StiffnessError
        The adaptive integrator drove its step size below resolution.
    OracleError
        The half-tolerance consistency check failed.
    """
    if tol < MIN_TOL:
        raise ValueError(f"tol must be >= {MIN_TOL:g}, got {tol:g}")
    if grid is None:
        grid = Grid(problem.a, problem.b, DEFAULT_M)
    p_vals, _ = _positive_p_r(problem, grid.points)
    # Long oscillatory integrations can accumulate more than 10x the local
    # tolerance; when the half-tolerance check detects that, tighten and
    # retry so the returned object always satisfies its invariant.
    attempt = min(float(tol), MAX_TOL)
    while True:
        rtol_used = max(attempt, _RTOL_FLOOR)
        v, w = _solve_batch(problem, [lam], u_A, uprime_A, attempt, grid.points)
        u = v[0]
        uprime = w[0] / p_vals
        v2, _ = _solve_batch(
            problem, [lam], u_A, uprime_A, attempt / 2.0, np.array([grid.b])
        )
        scale = max(1.0, abs(complex(u[-1])))
        shift = abs(complex(v2[0, -1]) - complex(u[-1])) / scale
        if shift <= 10.0 * rtol_used:
            break
        if rtol_used <= _RTOL_FLOOR * (1.0 + 1e-12):
            raise OracleError(
                f"half-tolerance consistency check failed at the integrator "
                f"floor: endpoint moved by {shift:.3e} (scaled), "
                f"limit {10.0 * rtol_used:.3e}"
            )
        attempt = rtol_used / 16.0
    return ReferenceSolution(
        grid=grid,
        u=u,
        uprime=uprime,
        tol=rtol_used,
        method="DOP853",
        endpoint_shift=shift,
    )


# ---------------------------------------------------------------------------
# Exact solution of the damped test problem
# ---------------------------------------------------------------------------


def _kamke_point(omega: float, y: float, derivative: bool):
    import mpmath

    z = omega * y * y
    dps = 30 + int(0.46 * abs(z))
    with mpmath.workdps(dps):
        a = mpmath.mpc(0.25, omega / 4.0)
        iz = mpmath.mpc(0.0, z)
        m = mpmath.hyp1f1(a, mpmath.mpf(1) / 2, iz)
        envelope = mpmath.exp(y - iz / 2)
        u = envelope * m
        if not derivative:
            return complex(u)
        mp = 2 * a * mpmath.hyp1f1(a + 1, mpmath.mpf(3) / 2, iz)
        up = (1 - mpmath.mpc(0.0, omega * y)) * u + envelope * mp * mpmath.mpc(
            0.0, 2 * omega * y
        )
        return complex(u), complex(up)


def exact_kamke_solution(omega: float, y, derivative: bool = False):
    """Closed-form solution of the damped test problem with u(0) = u'(0) = 1.

    Evaluates ``u(y) = exp(y - i y^2 omega / 2) * M((1 + i omega)/4, 1/2,
    i y^2 omega)`` where ``M`` is the confluent hypergeometric (Kummer)
    function, summed in arbitrary precision with the working precision scaled
    to the argument magnitude.  For real problem data the physical solution
    is the real part.

    Parameters
    ----------
    omega : float
        Real square root of the spectral parameter.
    y : float or array_like
        Evaluation point(s); requires ``|y^2 omega| <= 200``.
    derivative : bool
        When true, return ``(u, u')`` instead of ``u``.

    Raises
    ------
    ValueError
        Argument magnitude beyond the series-feasibility cap; use
        :func:`integrate_reference` instead in that regime.
    """
    omega = float(omega)
    ys = np.asarray(y, dtype=np.float64)
    zmax = float(np.max(np.abs(omega * ys * ys))) if ys.size else 0.0
    if zmax > KAMKE_ARGUMENT_CAP:
        raise ValueError(
            f"|y^2 omega| = {zmax:.3g} exceeds the series cap "
            f"{KAMKE_ARGUMENT_CAP:g}; use integrate_reference for this regime"
        )
    if ys.ndim == 0:
        return _kamke_point(omega, float(ys), derivative)
    flat = ys.ravel()
    if derivative:
        pairs = [_kamke_point(omega, float(t), True) for t in flat]
        u = np.array([p_[0] for p_ in pairs]).reshape(ys.shape)
        up = np.array([p_[1] for p_ in pairs]).reshape(ys.shape)
        return u, up
    vals = np.array([_kamke_point(omega, float(t), False) for t in flat])
    return vals.reshape(ys.shape)


# ---------------------------------------------------------------------------
# Reference eigenvalues by shooting
# ---------------------------------------------------------------------------


def _transformed_length(problem: SLProblem) -> float:
    """Trapezoid estimate of int_A^B sqrt(r/p) (sets the eigenvalue density),
    from samples that :func:`_positive_p_r` checks."""
    ys = np.linspace(problem.a, problem.b, 8193)
    p_vals, r_vals = _positive_p_r(problem, ys)
    return float(np.trapezoid(np.sqrt(r_vals / p_vals), ys))


def reference_eigenvalues(problem: SLProblem, bc, count: int, tol: float = 1e-12):
    """First ``count`` eigenvalues by shooting with the reference integrator.

    Builds the characteristic function ``Delta(omega) = b1 u(B) + b2 u'(B)``
    from the same integration backend as :func:`integrate_reference` and
    brackets its roots on a scan, at tolerance 1e-9, finer than the
    eigenvalue spacing.  Every bracket is then refined at the integrator
    floor by Illinois regula falsi until it is a few ulps wide in omega; a
    bracket whose floor values do not straddle zero keeps the end with the
    smaller residual.  The scan and each refinement step are marched as one
    stacked system, so the cost is about a dozen adaptive solves.

    Parameters
    ----------
    problem : SLProblem
        Problem with real coefficients (a real, self-adjoint spectrum).
    bc : BoundarySpec
        Separated endpoint conditions.
    count : int
        How many eigenvalues to return (``<= 200``).
    tol : float
        Accepted for symmetry with :func:`integrate_reference` (must be
        ``>= 1e-14``); the refinement always runs at the integrator floor
        because any slack there biases the located roots.

    Returns
    -------
    list of float
        Eigenvalues ``lambda_k = omega_k**2`` in increasing order.

    Raises
    ------
    PositivityError
        p or r is not real, finite and positive at some of 8193 equispaced
        nodes.
    """
    if count > MAX_EIGENVALUE_COUNT:
        raise ValueError(
            f"count must be <= {MAX_EIGENVALUE_COUNT}, got {count}"
        )
    if count <= 0:
        return []
    if tol < MIN_TOL:
        raise ValueError(f"tol must be >= {MIN_TOL:g}, got {tol:g}")
    if _problem_is_complex(problem):
        raise ValueError(
            "reference_eigenvalues requires real coefficients"
        )
    u0, up0 = bc.initial_values()
    b1, b2 = float(bc.b1), float(bc.b2)
    b_len = _transformed_length(problem)
    p_at_b = float(problem.p(float(problem.b)))

    def char(omegas: np.ndarray, tol_: float) -> np.ndarray:
        v, w = _solve_batch(
            problem,
            omegas * omegas,
            u0,
            up0,
            tol_,
            np.array([float(problem.b)]),
        )
        return b1 * v[:, -1].real + b2 * (w[:, -1].real / p_at_b)

    step = 0.25 * math.pi / b_len
    omega_max = (count + 2) * math.pi / b_len
    roots: list[float] = []
    for _ in range(5):
        roots = _scan_and_refine(char, omega_max, step)
        if len(roots) >= count:
            gaps = np.diff(roots[: count + 1] if len(roots) > count else roots)
            if gaps.size == 0 or np.min(gaps) >= 0.5 * math.pi / b_len:
                break
            # Suspicious clustering: a bracket probably failed; rescan finer.
            step /= 2.0
        else:
            # Not enough roots below omega_max: widen and refine the scan.
            omega_max += (count - len(roots) + 2) * math.pi / b_len
            step /= 2.0
    if len(roots) < count:
        raise OracleError(
            f"found only {len(roots)} eigenvalues below omega = {omega_max:.3g}"
        )
    return [float(w * w) for w in roots[:count]]


def _scan_and_refine(char, omega_max: float, step: float):
    """Roots of ``char`` on [0, omega_max]: the sign changes of a scan at
    ``_SCAN_TOL``, each refined to a few ulps at ``MIN_TOL``."""
    n_cells = max(4, int(math.ceil(omega_max / step)))
    ws = np.linspace(0.0, omega_max, n_cells + 1)
    fs = char(ws, _SCAN_TOL)
    scale = float(np.max(np.abs(fs)))
    roots = []
    zero_at_origin = abs(fs[0]) <= 1e-11 * scale
    if zero_at_origin:
        roots.append(0.0)
    # scan nodes that hit a root exactly produce no sign change on either
    # side and would otherwise be lost entirely
    roots.extend(float(ws[i]) for i in np.nonzero(fs[1:] == 0.0)[0] + 1)

    change = np.nonzero((fs[:-1] * fs[1:] < 0.0))[0]
    if zero_at_origin:
        # a bracket in the first cell would only re-find (and duplicate)
        # the origin root through its noise-level residual there
        change = change[change > 0]
    if change.size == 0:
        return sorted(roots)
    lo, hi = ws[change], ws[change + 1]

    # Refinement runs at the integrator floor: the bias of the integration
    # scales with rtol and shifts the roots, and signs taken at a looser
    # tolerance can point away from them.  Where the floor values do not
    # straddle zero, the root sits on an end and its residual there is
    # noise, so the end with the smaller residual is kept.  The others go
    # through Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) in
    # lockstep, one call per step for the brackets still open; an end kept
    # twice in a row has its value halved.  Each iterate lies a float or more
    # inside its bracket, so every step shrinks it, until an exact zero or a
    # width of _CLOSE_ULPS ulps of max(1, hi) closes it.
    fends = char(np.concatenate((lo, hi)), MIN_TOL)
    flo, fhi = fends[: lo.size], fends[lo.size :]
    refined = np.where(np.abs(flo) <= np.abs(fhi), lo, hi)
    kept = np.full(lo.size, np.nan)  # the last step kept hi (1) or lo (0)
    todo = np.flatnonzero(np.sign(flo) * np.sign(fhi) < 0.0)
    while todo.size:
        a, b, fa, fb = lo[todo], hi[todo], flo[todo], fhi[todo]
        xs = np.clip(a - fa * (b - a) / (fb - fa),
                     np.nextafter(a, b), np.nextafter(b, a))
        fs = char(xs, MIN_TOL)
        refined[todo] = xs
        right = np.sign(fs) == np.sign(fa)  # the root is in [xs, b]
        halve = np.where(right == kept[todo], 0.5, 1.0)
        lo[todo] = np.where(right, xs, a)
        flo[todo] = np.where(right, fs, halve * fa)
        hi[todo] = np.where(right, b, xs)
        fhi[todo] = np.where(right, halve * fb, fs)
        kept[todo] = right
        ulp = np.spacing(np.maximum(1.0, hi[todo]))
        todo = todo[(fs != 0.0) & (hi[todo] - lo[todo] > _CLOSE_ULPS * ulp)]
    roots.extend(refined.tolist())
    return sorted(roots)


# ---------------------------------------------------------------------------
# Built-in problem catalog
# ---------------------------------------------------------------------------


def degenerate_problem(a: float = 0.0, b: float = math.pi) -> SLProblem:
    """Constant-coefficient problem p = r = 1, q = 0 on [a, b].

    Every series object degenerates to an elementary function on this
    problem, which makes it the sharpest smoke test available.
    """

    def one(y):
        return np.ones_like(np.asarray(y, dtype=np.float64))

    def zero(y):
        return np.zeros_like(np.asarray(y, dtype=np.float64))

    return SLProblem(
        a=float(a),
        b=float(b),
        p=one,
        q=zero,
        r=one,
        p_prime=zero,
        r_prime=zero,
        name="degenerate",
    )


def kamke_problem() -> SLProblem:
    """Damped test problem with an exact Kummer-function solution.

    ``(e^{-2y} v')' + e^{-2y} v = -lambda (y^2 + 1) e^{-2y} v`` on [0, 2]
    with Robin conditions ``u(0) - u'(0) = 0`` and ``u(2) + u'(2) = 0``.
    :func:`exact_kamke_solution` evaluates its initial-value solution for
    ``u(0) = u'(0) = 1`` in closed form.
    """
    from .solver import BoundarySpec

    def p(y):
        return np.exp(-2.0 * y)

    def q(y):
        return -np.exp(-2.0 * y)

    def r(y):
        y = np.asarray(y, dtype=np.float64)
        return (y * y + 1.0) * np.exp(-2.0 * y)

    def p_prime(y):
        return -2.0 * np.exp(-2.0 * y)

    def r_prime(y):
        y = np.asarray(y, dtype=np.float64)
        return (2.0 * y - 2.0 * (y * y + 1.0)) * np.exp(-2.0 * y)

    return SLProblem(
        a=0.0,
        b=2.0,
        p=p,
        q=q,
        r=r,
        p_prime=p_prime,
        r_prime=r_prime,
        bc=BoundarySpec(1.0, -1.0, 1.0, 1.0),
        name="kamke",
    )


def random_smooth_problem(seed: int) -> SLProblem:
    """Reproducible random smooth-coefficient problem for property tests.

    Draws gentle trigonometric profiles for log p, log r and q so that both
    weight functions stay safely positive and the transformed potential is
    smooth.  The same seed always yields the same problem.
    """
    rng = np.random.default_rng(seed)
    length = float(rng.uniform(1.0, 2.5))
    amp_p, amp_r = rng.uniform(0.1, 0.5, size=2)
    amp_q = float(rng.uniform(0.5, 3.0))
    off_q = float(rng.uniform(-1.0, 1.0))
    k_p, k_r, k_q = rng.uniform(1.0, 3.0, size=3)
    ph_p, ph_r, ph_q = rng.uniform(0.0, 2.0 * math.pi, size=3)

    def p(y):
        return np.exp(amp_p * np.sin(k_p * np.asarray(y, dtype=np.float64) + ph_p))

    def p_prime(y):
        y = np.asarray(y, dtype=np.float64)
        return amp_p * k_p * np.cos(k_p * y + ph_p) * np.exp(
            amp_p * np.sin(k_p * y + ph_p)
        )

    def r(y):
        return np.exp(amp_r * np.sin(k_r * np.asarray(y, dtype=np.float64) + ph_r))

    def r_prime(y):
        y = np.asarray(y, dtype=np.float64)
        return amp_r * k_r * np.cos(k_r * y + ph_r) * np.exp(
            amp_r * np.sin(k_r * y + ph_r)
        )

    def q(y):
        return amp_q * np.cos(k_q * np.asarray(y, dtype=np.float64) + ph_q) + off_q

    return SLProblem(
        a=0.0,
        b=length,
        p=p,
        q=q,
        r=r,
        p_prime=p_prime,
        r_prime=r_prime,
        name=f"random-smooth-{int(seed)}",
    )
