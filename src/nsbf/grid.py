"""Uniform grids, sampled functions, and the basic calculus on them.

Everything downstream works with functions tabulated on one shared uniform
grid.  The three operations provided here -- cumulative integration,
differentiation, and local interpolation -- are all built from sliding
Lagrange stencils of degree >= 4, so they are exact (to rounding) for
polynomials up to the stencil degree.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from .errors import GridError

#: default number of grid points (odd, so midpoints of the interval are nodes)
DEFAULT_M = 2001

# stencil widths: degree-6 quadrature/differentiation, degree-5 interpolation
_QUAD_W = 7
_DIFF_W = 7
_INTERP_W = 6


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _lagrange_poly(w, k):
    """Coefficients (ascending) of the Lagrange basis L_k on nodes 0..w-1."""
    poly = [Fraction(1)]
    for j in range(w):
        if j == k:
            continue
        poly = _poly_mul(poly, [Fraction(-j, k - j), Fraction(1, k - j)])
    return poly


def _quad_rows_frac(w):
    """Exact rows: h*dot(row[j], f[s:s+w]) integrates over node gap [j, j+1]."""
    rows = [[Fraction(0)] * w for _ in range(w - 1)]
    for k in range(w):
        poly = _lagrange_poly(w, k)
        anti = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(poly)]
        for j in range(w - 1):
            rows[j][k] = sum(c * (j + 1) ** i for i, c in enumerate(anti)) - sum(
                c * j**i for i, c in enumerate(anti)
            )
    return rows


def _frac_rows_to(frac_rows, dtype, row_sum):
    """Convert exact rows to ``dtype``, re-balancing the largest entry so the
    row sum is exact in that dtype as well (constants then integrate or
    differentiate exactly)."""
    rows = np.array(
        [[dtype(v.numerator) / dtype(v.denominator) for v in row]
         for row in frac_rows],
        dtype=dtype,
    )
    for row in rows:
        k = int(np.argmax(np.abs(row)))
        row[k] -= row.sum() - dtype(row_sum)
    return rows


def _quad_rows(w, dtype=np.float64):
    return _frac_rows_to(_quad_rows_frac(w), dtype, 1)


def _diff_rows(w):
    """Row e: weights so that dot(row, f[s:s+w])/h = f'(node s+e)."""
    frac_rows = [[Fraction(0)] * w for _ in range(w)]
    for k in range(w):
        poly = _lagrange_poly(w, k)
        dpoly = [i * c for i, c in enumerate(poly)][1:]
        for e in range(w):
            frac_rows[e][k] = sum(c * e**i for i, c in enumerate(dpoly))
    return _frac_rows_to(frac_rows, np.float64, 0)


_QUAD_TABLE = {w: _quad_rows(w) for w in (5, _QUAD_W)}
_QUAD_TABLE_LD = {w: _quad_rows(w, np.longdouble) for w in (5, _QUAD_W)}
_DIFF_TABLE = {w: _diff_rows(w) for w in (5, _DIFF_W)}
# barycentric weights for equispaced nodes 0..w-1
_BARY = {w: np.array([(-1.0) ** k * comb(w - 1, k) for k in range(w)])
         for w in (5, _INTERP_W)}


class Grid:
    """Uniform grid of ``m`` points on ``[a, b]``.

    Parameters
    ----------
    a, b : float
        Interval endpoints, ``a < b``, both finite.
    m : int
        Number of nodes; must be odd and at least 5.
    """

    __slots__ = ("a", "b", "m", "h", "points")

    def __init__(self, a: float, b: float, m: int = DEFAULT_M):
        a = float(a)
        b = float(b)
        if not (np.isfinite(a) and np.isfinite(b)) or not a < b:
            raise GridError(f"need finite a < b, got [{a}, {b}]")
        m = int(m)
        if m < 5:
            raise GridError(f"m = {m} is too small (need m >= 5)")
        if m % 2 == 0:
            raise GridError(f"m = {m} must be odd")
        self.a = a
        self.b = b
        self.m = m
        self.h = (b - a) / (m - 1)
        pts = np.linspace(a, b, m)
        pts.flags.writeable = False
        self.points = pts

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.a == other.a
            and self.b == other.b
            and self.m == other.m
        )

    def __hash__(self):
        return hash((self.a, self.b, self.m))

    def __repr__(self):
        return f"Grid(a={self.a}, b={self.b}, m={self.m})"


class SampledFn:
    """A function tabulated on a :class:`Grid`.

    Values are stored as float64 when the data is real (the fast path) and
    complex128 otherwise; ``is_real`` exposes which.  Instances are immutable;
    arithmetic is pointwise and only defined between functions on equal grids.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        vals = np.asarray(values)
        if vals.shape != (grid.m,):
            raise GridError(
                f"values shape {vals.shape} does not match grid (m={grid.m})"
            )
        if np.iscomplexobj(vals):
            vals = vals.astype(np.complex128, copy=True)
            if np.all(vals.imag == 0.0):
                vals = vals.real.copy()
        else:
            vals = vals.astype(np.float64, copy=True)
        vals.flags.writeable = False
        self.grid = grid
        self.values = vals

    @classmethod
    def from_callable(cls, fn, grid: Grid) -> "SampledFn":
        return cls(grid, np.asarray([fn(y) for y in grid.points]))

    @property
    def is_real(self) -> bool:
        return self.values.dtype == np.float64

    def _check(self, other):
        if self.grid != other.grid:
            raise GridError("arithmetic between functions on different grids")

    def __add__(self, other):
        if isinstance(other, SampledFn):
            self._check(other)
            return SampledFn(self.grid, self.values + other.values)
        return SampledFn(self.grid, self.values + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, SampledFn):
            self._check(other)
            return SampledFn(self.grid, self.values - other.values)
        return SampledFn(self.grid, self.values - other)

    def __rsub__(self, other):
        return SampledFn(self.grid, other - self.values)

    def __mul__(self, other):
        if isinstance(other, SampledFn):
            self._check(other)
            return SampledFn(self.grid, self.values * other.values)
        return SampledFn(self.grid, self.values * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, SampledFn):
            self._check(other)
            return SampledFn(self.grid, self.values / other.values)
        return SampledFn(self.grid, self.values / other)

    def __rtruediv__(self, other):
        return SampledFn(self.grid, other / self.values)

    def __neg__(self):
        return SampledFn(self.grid, -self.values)

    def conj(self):
        return SampledFn(self.grid, np.conj(self.values))

    def __repr__(self):
        kind = "real" if self.is_real else "complex"
        return f"SampledFn({self.grid!r}, {kind})"


def _cumint_values(vals, h, rows):
    """Engine behind cumulative_integral on a raw array (dtype follows
    ``vals`` and ``rows``; pass longdouble inputs for extended precision)."""
    m = vals.shape[0]
    w = rows.shape[1]
    inc = np.zeros(m - 1, dtype=vals.dtype)

    # Stencils act on differences from a reference node so that constants
    # integrate exactly even though the float row sums are only ~1 +- eps.
    half = w // 2
    lo, hi = half, m - 1 - half  # interior intervals i in [lo, hi): s = i - half
    if hi > lo:
        iv = np.arange(lo, hi)
        row = rows[half]
        ref = vals[iv]
        acc = row[0] * (vals[iv - half] - ref)
        for k in range(1, w):
            acc = acc + row[k] * (vals[iv - half + k] - ref)
        inc[lo:hi] = ref + acc
    for i in range(0, min(lo, m - 1)):
        inc[i] = vals[i] + rows[i] @ (vals[0:w] - vals[i])
    for i in range(max(hi, 0), m - 1):
        s = m - w
        inc[i] = vals[i] + rows[i - s] @ (vals[s : s + w] - vals[i])

    # Extended-precision accumulation: the running sums feed recurrences that
    # amplify correlated rounding, so plain float64 cumsum is not enough.
    acc_t = np.clongdouble if np.iscomplexobj(vals) else np.longdouble
    out = np.empty(m, dtype=vals.dtype)
    out[0] = 0.0
    out[1:] = np.cumsum(inc.astype(acc_t)).astype(vals.dtype)
    out *= h
    out[0] = 0.0
    return out


def cumulative_integral(f: SampledFn) -> SampledFn:
    """Cumulative integral F(y) = int_a^y f, F(a) = 0.

    Composite sliding-stencil Newton-Cotes rule of polynomial degree 6
    (degree 4 on the minimal 5-point grid); exact to rounding for
    polynomials up to that degree.
    """
    grid = f.grid
    w = _QUAD_W if grid.m >= _QUAD_W else 5
    return SampledFn(grid, _cumint_values(f.values, grid.h, _QUAD_TABLE[w]))


def differentiate(f: SampledFn) -> SampledFn:
    """Pointwise derivative via degree-6 finite differences.

    Centered 7-point stencils in the interior, one-sided stencils of the
    same degree at the endpoints (degree 4 on the minimal grid).
    """
    grid = f.grid
    m, h = grid.m, grid.h
    w = _DIFF_W if m >= _DIFF_W else 5
    rows = _DIFF_TABLE[w]
    vals = f.values
    out = np.empty(m, dtype=vals.dtype)

    # differences from the evaluation node: constants differentiate to 0.0
    half = w // 2
    lo, hi = half, m - half  # nodes with a full centered stencil
    iv = np.arange(lo, hi)
    row = rows[half]
    ref = vals[iv]
    acc = row[0] * (vals[iv - half] - ref)
    for k in range(1, w):
        acc = acc + row[k] * (vals[iv - half + k] - ref)
    out[lo:hi] = acc
    for i in range(0, min(lo, m)):
        out[i] = rows[i] @ (vals[0:w] - vals[i])
    for i in range(max(hi, 0), m):
        s = m - w
        out[i] = rows[i - s] @ (vals[s : s + w] - vals[i])
    return SampledFn(grid, out / h)


def _locate(grid: Grid, ys):
    """Map query ordinates to (stencil starts, local coordinates)."""
    ys = np.asarray(ys, dtype=np.float64)
    span = grid.b - grid.a
    slack = 1e-12 * max(1.0, abs(grid.a), abs(grid.b))
    if np.any(ys < grid.a - slack) or np.any(ys > grid.b + slack):
        bad = ys[(ys < grid.a - slack) | (ys > grid.b + slack)]
        raise GridError(
            f"evaluation point {bad.flat[0]!r} outside [{grid.a}, {grid.b}]"
        )
    t = np.clip((ys - grid.a) / grid.h, 0.0, grid.m - 1.0)
    w = _INTERP_W if grid.m >= _INTERP_W else 5
    s = np.clip(np.floor(t).astype(np.int64) - (w // 2 - 1), 0, grid.m - w)
    return s, t - s, w


def _interp_values(grid: Grid, vals, ys) -> np.ndarray:
    """Interpolate a block ``vals`` of shape (..., m), tabulated on ``grid``
    along its last axis, at the points ``ys`` (degree-5 local Lagrange).

    The result has shape ``vals.shape[:-1] + np.shape(ys)``.
    """
    s, t, w = _locate(grid, ys)
    bw = _BARY[w]
    num = np.zeros(t.shape, dtype=vals.dtype)
    den = np.zeros(t.shape, dtype=np.float64)
    exact = np.zeros(t.shape, dtype=bool)
    exact_vals = np.zeros(t.shape, dtype=vals.dtype)
    for k in range(w):
        d = t - k
        hit = np.abs(d) < 1e-12
        if np.any(hit):
            exact |= hit
            exact_vals = np.where(hit, vals[..., s + k], exact_vals)
            d = np.where(hit, 1.0, d)  # avoid 0-division; overwritten below
        c = bw[k] / d
        num = num + c * vals[..., s + k]
        den = den + c
    out = num / den
    return np.where(exact, exact_vals, out)


def interpolate_many(f: SampledFn, ys) -> np.ndarray:
    """Interpolate ``f`` at an array of points (degree-5 local Lagrange)."""
    return _interp_values(f.grid, f.values, ys)


def interpolate(f: SampledFn, y: float):
    """Interpolate ``f`` at a single point.

    Returns the stored value exactly when ``y`` is a grid node.  Points
    outside ``[a, b]`` raise :class:`GridError`.
    """
    res = interpolate_many(f, np.asarray([float(y)]))
    val = res[0]
    return float(val) if f.is_real else complex(val)
