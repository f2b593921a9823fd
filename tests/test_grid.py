"""Grid container, quadrature, differentiation and interpolation."""

import numpy as np
import pytest

from nsbf.errors import GridError
from nsbf.grid import (
    Grid,
    SampledFn,
    cumulative_integral,
    differentiate,
    interpolate,
    interpolate_many,
)


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
