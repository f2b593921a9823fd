"""Liouville transformation of (p v')' - q v = -lambda r v to normal form.

The change of variables x = l(y) = int_A^y sqrt(r/p), u = rho v with
rho = (p r)^(1/4) turns the equation into u'' - Q u = -lambda u on [0, l(B)].
This module builds everything that depends only on (p, q, r): the monotone
map l, the weight rho and its derivative, and the transformed potential Q
sampled along the grid (i.e. Q(l(y))).  Each is a read-only array of its
samples on one grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GridError, NonFiniteError, PositivityError
from .grid import DEFAULT_M, Grid, cumulative_integral, differentiate, sampled


@dataclass(frozen=True)
class SLProblem:
    """Sturm-Liouville problem (p v')' - q v = -lambda r v on [a, b].

    ``p`` and ``r`` must be strictly positive and real; ``q`` may be complex.
    ``p_prime``/``r_prime`` are optional analytic derivatives -- when absent,
    finite differences of the sampled coefficients are used instead.
    ``bc`` optionally carries a solver.BoundarySpec.  ``name`` identifies
    catalog problems and feeds the coefficient-cache key.
    """

    a: float
    b: float
    p: Callable
    q: Callable
    r: Callable
    p_prime: Optional[Callable] = None
    r_prime: Optional[Callable] = None
    bc: object = None
    name: str = ""


def _sample(name, fn, grid: Grid) -> np.ndarray:
    # a nan or inf sample is refused by name below, so numpy need not warn
    with np.errstate(all="ignore"):
        try:
            vals = np.asarray(fn(grid.points))
            if vals.shape == (grid.m,):
                return vals
        except Exception:
            pass
        vals = np.asarray([fn(y) for y in grid.points])
    if vals.shape != (grid.m,):
        raise GridError(f"{name} samples have shape {vals.shape}, "
                        f"not ({grid.m},) on {grid!r}")
    return vals


def _require_finite(name, vals, grid):
    bad = ~np.isfinite(vals)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise NonFiniteError(
            f"{name} must be finite; {name}(y={float(grid.points[idx])!r}) "
            f"= {vals[idx].item()!r} at node {idx}"
        )
    return sampled(vals)


def _require_real_positive(name, vals, grid):
    bad = ~(np.isfinite(vals) & (np.imag(vals) == 0) & (np.real(vals) > 0))
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise PositivityError(name, idx, float(grid.points[idx]),
                              vals[idx].item())
    return sampled(np.real(vals))


@dataclass(frozen=True, eq=False)
class LiouvilleData:
    """Transformation data shared by the whole pipeline.

    Every function is a read-only array of its samples on ``grid``, float64
    when real and complex128 otherwise (:func:`~nsbf.grid.sampled`).

    Attributes
    ----------
    grid : Grid
    l : ndarray
        x = l(y), strictly increasing, l(A) = 0.
    b : float
        Length of the transformed interval, l(B).
    rho, rho_prime : ndarray
        (p r)^(1/4) and its derivative.
    sqrt_r_over_p : ndarray
        l'(y).
    Q : ndarray
        Transformed potential along the grid, Q(l(y)).
    p_s, q_s, r_s : ndarray
        The sampled coefficients themselves.
    """

    grid: Grid
    l: np.ndarray
    b: float
    rho: np.ndarray
    rho_prime: np.ndarray
    sqrt_r_over_p: np.ndarray
    Q: np.ndarray
    p_s: np.ndarray
    q_s: np.ndarray
    r_s: np.ndarray


def build_liouville(problem: SLProblem, grid: Grid | None = None) -> LiouvilleData:
    """Sample the problem on a grid and construct the transformation data.

    Raises :class:`PositivityError` when p or r fails to be strictly
    positive at some node, :class:`NonFiniteError` when q or Q is not finite
    at one (the first offending node is reported), and :class:`GridError`
    when the grid does not span the problem interval or a coefficient's
    samples do not have the grid's shape.
    """
    if grid is None:
        grid = Grid(problem.a, problem.b, DEFAULT_M)
    tol = 1e-12 * max(1.0, abs(problem.a), abs(problem.b))
    if abs(grid.a - problem.a) > tol or abs(grid.b - problem.b) > tol:
        raise GridError(
            f"grid [{grid.a}, {grid.b}] does not match problem interval "
            f"[{problem.a}, {problem.b}]"
        )

    p = _require_real_positive("p", _sample("p", problem.p, grid), grid)
    r = _require_real_positive("r", _sample("r", problem.r, grid), grid)
    q = _require_finite("q", _sample("q", problem.q, grid), grid)

    sqrt_r_over_p = sampled(np.sqrt(r / p))
    l = sampled(cumulative_integral(sqrt_r_over_p, grid.h))
    if np.any(np.diff(l) <= 0.0):
        raise GridError("transformed variable l(y) is not strictly increasing")

    rho = sampled((p * r) ** 0.25)
    pp = rp = None
    if problem.p_prime is not None and problem.r_prime is not None:
        pp = _sample("p_prime", problem.p_prime, grid)
        rp = _sample("r_prime", problem.r_prime, grid)
        # rho' = rho * (p'/p + r'/r)/4
        rho_prime = rho * (pp / p + rp / r) / 4.0
    else:
        rho_prime = differentiate(rho, grid.h)

    return LiouvilleData(
        grid=grid, l=l, b=float(l[-1]), rho=rho,
        rho_prime=sampled(rho_prime), sqrt_r_over_p=sqrt_r_over_p,
        Q=transformed_potential(grid, p, q, r, pp, rp), p_s=p, q_s=q, r_s=r,
    )


def transformed_potential(grid: Grid, p, q, r, p_prime=None,
                          r_prime=None) -> np.ndarray:
    """Transformed potential Q(l(y)) from the samples of p, q, r on ``grid``.

    Computed from the logarithmic-derivative form
    Q = q/r + (p/4r) [ (p'/p + r'/r)' + (3/4)(p'/p)^2
                       + (1/2)(p'/p)(r'/r) - (1/4)(r'/r)^2 ],
    with p' and r' the given samples on the grid, or finite differences of
    the sampled p and r when they are None.
    """
    if p_prime is not None:
        lp = p_prime / p
        lr = r_prime / r
    else:
        lp = differentiate(p, grid.h) / p
        lr = differentiate(r, grid.h) / r
    # a complex-typed p', r' with zero imaginary part differentiates as real
    dsum = differentiate(sampled(lp + lr), grid.h)
    bracket = dsum + 0.75 * lp * lp + 0.5 * lp * lr - 0.25 * lr * lr
    return _require_finite("Q", q / r + (p / (4.0 * r)) * bracket, grid)
