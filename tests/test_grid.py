"""Grid container, quadrature, differentiation and interpolation."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from nsbf.errors import GridError
from nsbf.grid import (
    _DIFF_ROWS,
    _QUAD_ROWS,
    Grid,
    cumulative_integral,
    differentiate,
    interpolate,
    sampled,
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
    assert hash(g) == hash(Grid(0.0, 3.0, 7)) == hash((0.0, 3.0, 7))
    assert g != Grid(0.0, 3.0, 9)
    assert repr(g) == "Grid(a=0.0, b=3.0, m=7)"
    assert not g.points.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.m = 9


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
    # int() would truncate 201.5 to 201 nodes without a word
    for m in (201.5, np.nan, np.inf):
        with pytest.raises(GridError, match="must be an integer"):
            Grid(0.0, 1.0, m)
    for m in (201.0, np.int64(201), np.int32(201)):
        g = Grid(0.0, 1.0, m)
        assert g == Grid(0.0, 1.0, 201) and type(g.m) is int


def test_sampled_is_a_read_only_normalized_copy():
    src = np.arange(7)
    f = sampled(src)
    assert f.dtype == np.float64 and not f.flags.writeable
    src[0] = 5  # a copy: the caller's array stays its own
    assert f[0] == 0.0
    with pytest.raises(ValueError):
        f[0] = 1.0
    # complex input with zero imaginary part collapses to float64
    assert sampled(np.arange(7) + 0j).dtype == np.float64
    f3 = sampled(np.arange(7) * 1j)
    assert f3.dtype == np.complex128 and not f3.flags.writeable
    assert sampled(np.arange(7, dtype=np.complex64) * 1j).dtype == np.complex128


def test_cumulative_integral_polynomial_exactness():
    # The composite quadrature is exact for low-degree polynomials, so a
    # cubic integrand must come back with its antiderivative to rounding.
    g = Grid(0.0, 2.0, 41)
    F = cumulative_integral(g.points**3, g.h)
    np.testing.assert_allclose(F, g.points**4 / 4, rtol=0, atol=5e-15)
    assert F[0] == 0.0


def test_cumulative_integral_smooth_accuracy():
    g = Grid(0.0, np.pi, 201)
    F = cumulative_integral(np.cos(g.points), g.h)
    assert np.max(np.abs(F - np.sin(g.points))) < 1e-12


def test_cumulative_integral_running_sums_do_not_drift():
    # the running sums are compensated (TwoSum), 8.9e-16 off here; plain
    # float64 sums drift to ~1.4e-14 over these 8000 intervals
    g = Grid(0.0, 2.0, 8001)
    y = g.points
    F = cumulative_integral(np.cos(3.0 * y) + 2.0, g.h)
    assert np.max(np.abs(F - (np.sin(3.0 * y) / 3.0 + 2.0 * y))) <= 3e-15


def test_differentiate_polynomial_exactness():
    g = Grid(-1.0, 1.0, 21)
    d = differentiate(g.points**3, g.h)
    np.testing.assert_allclose(d, 3 * g.points**2, rtol=0, atol=2e-13)


def test_differentiate_smooth_accuracy():
    g = Grid(0.0, 1.0, 401)
    d = differentiate(np.exp(2 * g.points), g.h)
    assert np.max(np.abs(d - 2 * np.exp(2 * g.points))) < 1e-9


def test_interpolation_matches_nodes_and_between():
    g = Grid(0.0, 1.0, 101)
    f = np.sin(3 * g.points)
    # exactly at nodes
    np.testing.assert_allclose(
        interpolate(g, f, g.points), f, rtol=0, atol=0
    )
    ys = np.linspace(0.013, 0.987, 57)
    err = np.max(np.abs(interpolate(g, f, ys) - np.sin(3 * ys)))
    assert err < 1e-9
    at_half = interpolate(g, f, 0.5)
    assert at_half.shape == () and at_half == f[50]
    assert interpolate(g, f, 0.5055) == pytest.approx(np.sin(1.5165),
                                                      abs=1e-10)
    # a block of rows interpolates row by row
    block = np.stack((f, 2.0 * f))
    np.testing.assert_array_equal(interpolate(g, block, ys),
                                  np.stack((interpolate(g, f, ys),
                                            interpolate(g, 2.0 * f, ys))))


def test_interpolation_rejects_out_of_range():
    g = Grid(0.0, 1.0, 11)
    f = np.ones(11)
    with pytest.raises(GridError):
        interpolate(g, f, np.array([-0.01]))
    with pytest.raises(GridError):
        interpolate(g, f, 1.01)
    # every comparison with NaN is false: the check asks "inside?"
    with np.errstate(all="raise"):
        with pytest.raises(GridError, match="point nan outside"):
            interpolate(g, f, [0.5, np.nan])


def test_complex_roundtrip_through_calculus():
    g = Grid(0.0, 1.0, 101)
    f = np.exp(1j * g.points)
    F = cumulative_integral(f, g.h)
    exact = (np.exp(1j * g.points) - 1.0) / 1j
    assert np.max(np.abs(F - exact)) < 1e-13
    d = differentiate(f, g.h)
    assert np.max(np.abs(d - 1j * f)) < 1e-10
