"""Uniform grids and the basic calculus on functions sampled on them.

Everything downstream works with functions tabulated on one shared uniform
grid.  A sampled function is a plain read-only array of its values at the
nodes, float64 when real and complex128 otherwise (:func:`sampled`).  The
three operations provided here -- cumulative integration, differentiation,
and local interpolation -- are all built from sliding Lagrange stencils:
degree 6 (7 points) for integration and differentiation, degree 5 (6
points) for interpolation, so each is exact (to rounding) for polynomials
up to its stencil degree.  A grid therefore has at least 7 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import GridError

#: default number of grid points (odd, so midpoints of the interval are nodes)
DEFAULT_M = 2001

# stencil widths: degree-6 quadrature/differentiation, degree-5 interpolation
_STENCIL_W = 7
_INTERP_W = 6


# the 7-point Lagrange stencils on nodes 0..6 as integer numerators:
# h * dot(row j, f[s:s+7]) / 60480 integrates over node gap [s+j, s+j+1],
# and dot(row e, f[s:s+7]) / (60 h) is f'(node s+e)
_QUAD_NUM = [
    [19087, 65112, -46461, 37504, -20211, 6312, -863],
    [-863, 25128, 46989, -16256, 7299, -2088, 271],
    [271, -2760, 30819, 37504, -6771, 1608, -191],
    [-191, 1608, -6771, 37504, 30819, -2760, 271],
    [271, -2088, 7299, -16256, 46989, 25128, -863],
    [-863, 6312, -20211, 37504, -46461, 65112, 19087],
]
_DIFF_NUM = [
    [-147, 360, -450, 400, -225, 72, -10],
    [-10, -77, 150, -100, 50, -15, 2],
    [2, -24, -35, 80, -30, 8, -1],
    [-1, 9, -45, 0, 45, -9, 1],
    [1, -8, 30, -80, 35, 24, -2],
    [-2, 15, -50, 100, -150, 77, 10],
    [10, -72, 225, -400, 450, -360, 147],
]


def _float_rows(num, den, row_sum):
    """The rows num/den in float64, re-balancing the largest entry so the
    row sum is exact in float64 as well (constants then integrate or
    differentiate exactly)."""
    rows = np.array(num) / den
    for row in rows:
        k = int(np.argmax(np.abs(row)))
        row[k] -= row.sum() - row_sum
    return rows


_QUAD_ROWS = _float_rows(_QUAD_NUM, 60480, 1)
_DIFF_ROWS = _float_rows(_DIFF_NUM, 60, 0)
# barycentric weights for equispaced nodes 0.._INTERP_W-1
_BARY = np.array([(-1.0) ** k * comb(_INTERP_W - 1, k)
                  for k in range(_INTERP_W)])


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``m`` points on ``[a, b]``.

    Parameters
    ----------
    a, b : float
        Interval endpoints, ``a < b``, both finite.
    m : int
        Number of nodes; must be an odd integer (an integral float or a
        numpy integer is taken) and at least 7, the width of the
        quadrature and differentiation stencils.
    """

    a: float
    b: float
    m: int = DEFAULT_M
    h: float = field(init=False, repr=False, compare=False)
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = float(self.a)
        b = float(self.b)
        if not (np.isfinite(a) and np.isfinite(b)) or not a < b:
            raise GridError(f"need finite a < b, got [{a}, {b}]")
        if not float(self.m).is_integer():
            raise GridError(f"m = {self.m!r} must be an integer")
        m = int(self.m)
        if m < _STENCIL_W:
            raise GridError(f"m = {m} is too small (need m >= {_STENCIL_W})")
        if m % 2 == 0:
            raise GridError(f"m = {m} must be odd")
        pts = np.linspace(a, b, m)
        pts.flags.writeable = False
        for name, value in (("a", a), ("b", b), ("m", m),
                            ("h", (b - a) / (m - 1)), ("points", pts)):
            object.__setattr__(self, name, value)


def sampled(vals) -> np.ndarray:
    """``vals`` as a read-only copy: complex128 where some imaginary part is
    not zero, float64 otherwise."""
    vals = np.asarray(vals)
    if np.iscomplexobj(vals) and np.any(vals.imag):
        out = vals.astype(np.complex128)
    else:
        out = np.real(vals).astype(np.float64)
    out.flags.writeable = False
    return out


def _stencil_dots(vals, rows, n):
    """dot(row, vals[s:s + w] - vals[i]) for the nodes i = 0..n-1, w the
    stencil width: the centered row ``rows[w // 2]`` with s = i - w // 2
    where n leaves room for it, and ``rows[i - s]`` of the first (s = 0) or
    last (s = m - w) stencil near the ends.

    Differences from vals[i] keep constants exact although the float row
    sums are only ~1 +- eps (integration) or ~0 (differentiation).
    """
    m = vals.shape[0]
    w = rows.shape[1]
    half = w // 2
    out = np.empty(n, dtype=vals.dtype)
    inner = n - 2 * half  # nodes half..n-half-1 take the centered row
    row = rows[half]
    ref = vals[half:half + inner]
    acc = row[0] * (vals[:inner] - ref)
    for k in range(1, w):
        acc += row[k] * (vals[k:k + inner] - ref)
    out[half:n - half] = acc
    s = m - w
    for i in range(half):
        out[i] = rows[i] @ (vals[0:w] - vals[i])
    for i in range(n - half, n):
        out[i] = rows[i - s] @ (vals[s : s + w] - vals[i])
    return out


def cumulative_integral(vals, h: float) -> np.ndarray:
    """Cumulative integral F(y) = int_a^y f, F(a) = 0, of the samples
    ``vals`` (float64 or complex128) at node spacing ``h``.

    Composite sliding-stencil Newton-Cotes rule of polynomial degree 6;
    exact to rounding for polynomials up to that degree.
    """
    m = vals.shape[0]
    # interval [i, i + 1] integrates to h * (vals[i] + dots[i])
    inc = vals[:-1] + _stencil_dots(vals, _QUAD_ROWS, m - 1)

    # Compensated running sums (Knuth's TwoSum; Ogita, Rump & Oishi, SIAM
    # J. Sci. Comput. 26, 2005) add back the exact rounding error of each
    # step of the plain cumsum.  Plain float64 sums drift with the node count
    # (cos(3y) + 2 on [0, 2] at m = 8001: 1.4e-14 off, against 8.9e-16), and
    # the ladder integrates them again at every order: on Kamke they raise
    # the identity floor at m = 2001 from 5.1e-9 to 8.3e-9 and the CLI
    # eigenvalue error from 4.5e-13 to 6.4e-13.  Compensated sums match
    # 80-bit ones there (the floors to four digits, the CLI error bitwise)
    # on every platform, and complex input needs nothing more: complex
    # addition rounds each part on its own.
    s = np.cumsum(inc)
    d = np.diff(s)
    err = (s[:-1] - (s[1:] - d)) + (inc[1:] - d)
    out = np.zeros(m, dtype=vals.dtype)
    out[1:] = s
    out[2:] += np.cumsum(err)
    out *= h
    return out


def differentiate(vals, h: float) -> np.ndarray:
    """Pointwise derivative of the samples ``vals`` at node spacing ``h``
    via degree-6 finite differences.

    Centered 7-point stencils in the interior, one-sided stencils of the
    same degree at the endpoints.
    """
    return _stencil_dots(vals, _DIFF_ROWS, vals.shape[0]) / h


def _locate(grid: Grid, ys):
    """Map query ordinates to (stencil starts, local coordinates)."""
    ys = np.asarray(ys, dtype=np.float64)
    slack = 1e-12 * max(1.0, abs(grid.a), abs(grid.b))
    inside = (ys >= grid.a - slack) & (ys <= grid.b + slack)  # NaN fails
    if not np.all(inside):
        bad = float(ys[~inside].flat[0])
        raise GridError(f"evaluation point {bad!r} outside "
                        f"[{grid.a}, {grid.b}]")
    t = np.clip((ys - grid.a) / grid.h, 0.0, grid.m - 1.0)
    s = np.clip(np.floor(t).astype(np.int64) - (_INTERP_W // 2 - 1), 0,
                grid.m - _INTERP_W)
    return s, t - s


def interpolate(grid: Grid, vals, ys) -> np.ndarray:
    """Interpolate a block ``vals`` of shape (..., m), tabulated on ``grid``
    along its last axis, at the points ``ys`` (degree-5 local Lagrange).

    The result has shape ``vals.shape[:-1] + np.shape(ys)``.  A grid node
    gives the stored value exactly; points outside ``[a, b]`` raise
    :class:`GridError`.
    """
    s, t = _locate(grid, ys)
    num = np.zeros(t.shape, dtype=vals.dtype)
    den = np.zeros(t.shape, dtype=np.float64)
    exact = np.zeros(t.shape, dtype=bool)
    exact_vals = np.zeros(t.shape, dtype=vals.dtype)
    for k in range(_INTERP_W):
        d = t - k
        hit = np.abs(d) < 1e-12
        if np.any(hit):
            exact |= hit
            exact_vals = np.where(hit, vals[..., s + k], exact_vals)
            d = np.where(hit, 1.0, d)  # avoid 0-division; overwritten below
        c = _BARY[k] / d
        num = num + c * vals[..., s + k]
        den = den + c
    out = num / den
    return np.where(exact, exact_vals, out)
