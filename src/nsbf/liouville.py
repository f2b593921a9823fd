"""Liouville transformation of (p v')' - q v = -lambda r v to normal form.

The change of variables x = l(y) = int_A^y sqrt(r/p), u = rho v with
rho = (p r)^(1/4) turns the equation into u'' - Q u = -lambda u on [0, l(B)].
This module builds everything that depends only on (p, q, r): the monotone
map l, the weight rho and its derivative, and the transformed potential Q
sampled along the grid (i.e. Q(l(y))).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import GridError, NonFiniteError, PositivityError
from .grid import (
    DEFAULT_M,
    Grid,
    SampledFn,
    cumulative_integral,
    differentiate,
)


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


def _sample(fn, grid: Grid) -> np.ndarray:
    # a nan or inf sample is refused by name below, so numpy need not warn
    with np.errstate(all="ignore"):
        try:
            vals = np.asarray(fn(grid.points))
            if vals.shape == (grid.m,):
                return vals
        except Exception:
            pass
        return np.asarray([fn(y) for y in grid.points])


def _require_finite(name, vals, grid):
    bad = ~np.isfinite(vals)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise NonFiniteError(
            f"{name} must be finite; {name}(y={float(grid.points[idx])!r}) "
            f"= {vals[idx].item()!r} at node {idx}"
        )
    return vals


def _require_real_positive(name, vals, grid):
    bad = ~(np.isfinite(vals) & (np.imag(vals) == 0) & (np.real(vals) > 0))
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise PositivityError(name, idx, float(grid.points[idx]),
                              vals[idx].item())
    return np.real(vals).astype(np.float64)


class LiouvilleData:
    """Transformation data shared by the whole pipeline.

    Attributes
    ----------
    grid : Grid
    l : SampledFn
        x = l(y), strictly increasing, l(A) = 0.
    b : float
        Length of the transformed interval, l(B).
    rho, rho_prime : SampledFn
        (p r)^(1/4) and its derivative.
    sqrt_r_over_p : SampledFn
        l'(y).
    Q : SampledFn
        Transformed potential along the grid, Q(l(y)).
    p_s, q_s, r_s : SampledFn
        The sampled coefficients themselves.
    """

    __slots__ = (
        "grid",
        "l",
        "b",
        "rho",
        "rho_prime",
        "sqrt_r_over_p",
        "Q",
        "p_s",
        "q_s",
        "r_s",
    )


def build_liouville(problem: SLProblem, grid: Grid | None = None) -> LiouvilleData:
    """Sample the problem on a grid and construct the transformation data.

    Raises :class:`PositivityError` when p or r fails to be strictly
    positive at some node, :class:`NonFiniteError` when q or Q is not finite
    at one (the first offending node is reported), and :class:`GridError`
    when the grid does not span the problem interval.
    """
    if grid is None:
        grid = Grid(problem.a, problem.b, DEFAULT_M)
    tol = 1e-12 * max(1.0, abs(problem.a), abs(problem.b))
    if abs(grid.a - problem.a) > tol or abs(grid.b - problem.b) > tol:
        raise GridError(
            f"grid [{grid.a}, {grid.b}] does not match problem interval "
            f"[{problem.a}, {problem.b}]"
        )

    p_vals = _require_real_positive("p", _sample(problem.p, grid), grid)
    r_vals = _require_real_positive("r", _sample(problem.r, grid), grid)
    q_vals = _require_finite("q", _sample(problem.q, grid), grid)

    data = LiouvilleData()
    data.grid = grid
    data.p_s = SampledFn(grid, p_vals)
    data.q_s = SampledFn(grid, q_vals)
    data.r_s = SampledFn(grid, r_vals)

    data.sqrt_r_over_p = SampledFn(grid, np.sqrt(r_vals / p_vals))
    lfn = cumulative_integral(data.sqrt_r_over_p)
    if np.any(np.diff(lfn.values) <= 0.0):
        raise GridError("transformed variable l(y) is not strictly increasing")
    data.l = lfn
    data.b = float(lfn.values[-1])

    data.rho = SampledFn(grid, (p_vals * r_vals) ** 0.25)
    pp = rp = None
    if problem.p_prime is not None and problem.r_prime is not None:
        pp = _sample(problem.p_prime, grid)
        rp = _sample(problem.r_prime, grid)
        # rho' = rho * (p'/p + r'/r)/4
        data.rho_prime = SampledFn(
            grid, data.rho.values * (pp / p_vals + rp / r_vals) / 4.0
        )
    else:
        data.rho_prime = differentiate(data.rho)

    data.Q = transformed_potential(data, pp, rp)
    return data


def transformed_potential(data: LiouvilleData, p_prime=None,
                          r_prime=None) -> SampledFn:
    """Transformed potential Q(l(y)) on the y-grid.

    Computed from the logarithmic-derivative form
    Q = q/r + (p/4r) [ (p'/p + r'/r)' + (3/4)(p'/p)^2
                       + (1/2)(p'/p)(r'/r) - (1/4)(r'/r)^2 ],
    with p' and r' the given samples on the grid, or finite differences of
    the sampled p and r when they are None.
    """
    grid = data.grid
    p = data.p_s.values
    r = data.r_s.values
    if p_prime is not None:
        lp = p_prime / p
        lr = r_prime / r
    else:
        lp = differentiate(data.p_s).values / p
        lr = differentiate(data.r_s).values / r
    dsum = differentiate(SampledFn(grid, lp + lr)).values
    bracket = dsum + 0.75 * lp * lp + 0.5 * lp * lr - 0.25 * lr * lr
    q_over_r = data.q_s.values / r
    vals = q_over_r + (p / (4.0 * r)) * bracket
    return SampledFn(grid, _require_finite("Q", vals, grid))


def transformed_potential_second_form(data: LiouvilleData) -> SampledFn:
    """Q via q/r - (rho/r) [p (1/rho)']'; diagnostic cross-check of the
    primary form (the two agree to discretization error)."""
    grid = data.grid
    rho = data.rho.values
    inv_rho_prime = -data.rho_prime.values / (rho * rho)
    inner = SampledFn(grid, data.p_s.values * inv_rho_prime)
    vals = data.q_s.values / data.r_s.values - (
        rho / data.r_s.values
    ) * differentiate(inner).values
    return SampledFn(grid, vals)


def potential_form_discrepancy(data: LiouvilleData) -> float:
    """Max absolute disagreement of the two algebraic forms of Q."""
    alt = transformed_potential_second_form(data)
    return float(np.max(np.abs(data.Q.values - alt.values)))
