"""Grid container, quadrature, differentiation and interpolation."""

from fractions import Fraction

import numpy as np
import pytest

from nsbf.errors import GridError
from nsbf.grid import (
    _DIFF_ROWS,
    _QUAD_ROWS,
    Grid,
    SampledFn,
    cumulative_integral,
    differentiate,
    interpolate,
    interpolate_many,
)


def _lagrange_basis(w):
    """Ascending coefficients of the Lagrange basis L_k on nodes 0..w-1,
    in exact arithmetic."""
    basis = []
    for k in range(w):
        poly = [Fraction(1)]
        for j in range(w):
            if j != k:  # times (x - j)/(k - j)
                factor = (Fraction(-j, k - j), Fraction(1, k - j))
                prod = [Fraction(0)] * (len(poly) + 1)
                for i, c in enumerate(poly):
                    prod[i] += c * factor[0]
                    prod[i + 1] += c * factor[1]
                poly = prod
        basis.append(poly)
    return basis


def _to_float(exact_rows, row_sum):
    # each entry rounded once, then the largest of each row re-balanced so
    # that the row sum is exact in float64
    rows = np.array([[np.float64(v.numerator) / np.float64(v.denominator)
                      for v in row] for row in exact_rows])
    for row in rows:
        k = int(np.argmax(np.abs(row)))
        row[k] -= row.sum() - row_sum
    return rows


def test_stencil_rows_are_the_exact_lagrange_weights():
    # the stored integer rows against the Lagrange basis on nodes 0..6:
    # quadrature row j integrates each L_k over [j, j + 1], differentiation
    # row e is each L_k' at node e
    def value(poly, x):
        return sum(c * x**i for i, c in enumerate(poly))

    basis = _lagrange_basis(7)
    anti = [[Fraction(0)] + [c / (i + 1) for i, c in enumerate(p)]
            for p in basis]
    deriv = [[i * c for i, c in enumerate(p)][1:] for p in basis]
    quad = [[value(a, j + 1) - value(a, j) for a in anti] for j in range(6)]
    diff = [[value(d, e) for d in deriv] for e in range(7)]
    assert np.array_equal(_QUAD_ROWS, _to_float(quad, 1))
    assert np.array_equal(_DIFF_ROWS, _to_float(diff, 0))


def test_grid_basic_properties():
    g = Grid(0.0, 3.0, 7)
    assert g.h == 0.5
    np.testing.assert_allclose(g.points, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    assert g == Grid(0, 3, 7)
    assert hash(g) == hash(Grid(0.0, 3.0, 7))
    assert g != Grid(0.0, 3.0, 9)


def test_grid_validation():
    with pytest.raises(GridError):
        Grid(1.0, 1.0, 7)
    with pytest.raises(GridError):
        Grid(2.0, 1.0, 7)
    with pytest.raises(GridError):
        Grid(0.0, np.inf, 7)
    with pytest.raises(GridError):
        Grid(0.0, 1.0, 8)  # even
    with pytest.raises(GridError):
        Grid(0.0, 1.0, 5)  # narrower than the 7-point stencils
    with pytest.raises(GridError):
        Grid(0.0, 1.0, 3)  # too small


def test_sampledfn_dtype_normalization():
    g = Grid(0.0, 1.0, 7)
    f = SampledFn(g, np.arange(7))
    assert f.is_real and f.values.dtype == np.float64
    # complex input with zero imaginary part collapses to the real fast path
    f2 = SampledFn(g, np.arange(7) + 0j)
    assert f2.is_real
    f3 = SampledFn(g, np.arange(7) * 1j)
    assert not f3.is_real
    with pytest.raises(GridError):
        SampledFn(g, np.arange(6))


def test_sampledfn_arithmetic_and_grid_mismatch():
    g = Grid(0.0, 1.0, 9)
    f = SampledFn(g, g.points)
    h = SampledFn(g, 1.0 + g.points)
    np.testing.assert_allclose((f + h).values, 1.0 + 2.0 * g.points)
    np.testing.assert_allclose((h - f).values, np.ones(9))
    np.testing.assert_allclose((f * h).values, g.points * (1 + g.points))
    np.testing.assert_allclose((f / h).values, g.points / (1 + g.points))
    np.testing.assert_allclose((1.0 / h).values, 1.0 / (1 + g.points))
    np.testing.assert_allclose((-f).values, -g.points)
    other = SampledFn(Grid(0.0, 1.0, 11), np.zeros(11))
    with pytest.raises(GridError):
        f + other


def test_cumulative_integral_polynomial_exactness():
    # The composite quadrature is exact for low-degree polynomials, so a
    # cubic integrand must come back with its antiderivative to rounding.
    g = Grid(0.0, 2.0, 41)
    f = SampledFn(g, g.points**3)
    F = cumulative_integral(f)
    np.testing.assert_allclose(F.values, g.points**4 / 4, rtol=0, atol=5e-15)
    assert F.values[0] == 0.0


def test_cumulative_integral_smooth_accuracy():
    g = Grid(0.0, np.pi, 201)
    F = cumulative_integral(SampledFn(g, np.cos(g.points)))
    assert np.max(np.abs(F.values - np.sin(g.points))) < 1e-12


def test_cumulative_integral_running_sums_do_not_drift():
    # the running sums are compensated (TwoSum), 8.9e-16 off here; plain
    # float64 sums drift to ~1.4e-14 over these 8000 intervals
    g = Grid(0.0, 2.0, 8001)
    y = g.points
    F = cumulative_integral(SampledFn(g, np.cos(3.0 * y) + 2.0))
    assert np.max(np.abs(F.values - (np.sin(3.0 * y) / 3.0 + 2.0 * y))) <= 3e-15


def test_differentiate_polynomial_exactness():
    g = Grid(-1.0, 1.0, 21)
    d = differentiate(SampledFn(g, g.points**3))
    np.testing.assert_allclose(d.values, 3 * g.points**2, rtol=0, atol=2e-13)


def test_differentiate_smooth_accuracy():
    g = Grid(0.0, 1.0, 401)
    d = differentiate(SampledFn(g, np.exp(2 * g.points)))
    assert np.max(np.abs(d.values - 2 * np.exp(2 * g.points))) < 1e-9


def test_interpolation_matches_nodes_and_between():
    g = Grid(0.0, 1.0, 101)
    f = SampledFn(g, np.sin(3 * g.points))
    # exactly at nodes
    np.testing.assert_allclose(
        interpolate_many(f, g.points), f.values, rtol=0, atol=0
    )
    ys = np.linspace(0.013, 0.987, 57)
    err = np.max(np.abs(interpolate_many(f, ys) - np.sin(3 * ys)))
    assert err < 1e-9
    assert interpolate(f, 0.5) == pytest.approx(np.sin(1.5), abs=1e-10)


def test_interpolation_rejects_out_of_range():
    g = Grid(0.0, 1.0, 11)
    f = SampledFn(g, np.ones(11))
    with pytest.raises(GridError):
        interpolate_many(f, np.array([-0.01]))
    with pytest.raises(GridError):
        interpolate_many(f, np.array([1.01]))


def test_complex_roundtrip_through_calculus():
    g = Grid(0.0, 1.0, 101)
    f = SampledFn(g, np.exp(1j * g.points))
    F = cumulative_integral(f)
    exact = (np.exp(1j * g.points) - 1.0) / 1j
    assert np.max(np.abs(F.values - exact)) < 1e-13
    d = differentiate(f)
    assert np.max(np.abs(d.values - 1j * f.values)) < 1e-10
