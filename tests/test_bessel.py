"""Spherical Bessel evaluation across its three argument regimes."""

import numpy as np
import pytest
from scipy.special import spherical_jn

from nsbf.bessel import MAX_IMAG, MAX_ORDER, _assert_bound, spherical_jn_matrix
from nsbf.errors import RecurrenceError


def test_low_orders_closed_forms():
    z = np.linspace(0.3, 12.0, 40)
    out = spherical_jn_matrix(z, 2)
    np.testing.assert_allclose(out[0], np.sin(z) / z, rtol=1e-14)
    np.testing.assert_allclose(
        out[1], np.sin(z) / z**2 - np.cos(z) / z, rtol=0, atol=1e-15
    )


def test_matches_scipy_across_regimes():
    # spans tiny arguments (series), z < n (downward) and z > n (upward)
    z = np.array([1e-6, 1e-4, 0.01, 0.5, 1.0, 5.0, 20.0, 60.0, 151.7])
    N = 45
    ours = spherical_jn_matrix(z, N)
    n = np.arange(N + 1)
    ref = np.array([spherical_jn(n, zz) for zz in z]).T
    scale = np.maximum(np.abs(ref), 1e-280)
    assert np.max(np.abs(ours - ref) / scale) < 5e-12


def test_zero_argument():
    out = spherical_jn_matrix(np.array([0.0]), 6)
    assert out[0, 0] == 1.0
    np.testing.assert_allclose(out[1:, 0], 0.0, atol=0)


def test_deep_evanescent_magnitudes():
    # n >> z: j_40(1) ~ 1.5e-61 and j_40(10) ~ 8.4e-22; a naive upward
    # recursion loses all accuracy here.
    out = spherical_jn_matrix(np.array([1.0, 10.0]), 40)
    assert 1.45e-61 <= out[40, 0] <= 1.55e-61
    assert 8.35e-22 <= out[40, 1] <= 8.45e-22
    ref = spherical_jn(40, np.array([1.0, 10.0]))
    np.testing.assert_allclose(out[40], ref, rtol=1e-10)


def test_regime_crossover_consistency():
    # Around z ~ N both recursions are usable; they must agree essentially
    # to rounding where they hand over.
    from nsbf.bessel import _downward, _upward

    z = np.linspace(18.0, 22.0, 9)
    up = _upward(20, z)
    down = _downward(20, z)
    norm = np.max(np.abs(down))
    assert np.max(np.abs(up - down)) / norm < 1e-10


def test_complex_argument():
    z = np.array([2.0 + 1.0j, 30.0 - 3.0j])
    out = spherical_jn_matrix(z, 10)
    # j_0(z) = sin z / z holds for complex z too
    np.testing.assert_allclose(out[0], np.sin(z) / z, rtol=1e-13)
    # symmetry: j_n(conj z) = conj(j_n(z))
    out_c = spherical_jn_matrix(np.conj(z), 10)
    np.testing.assert_allclose(out_c, np.conj(out), rtol=1e-12)


def test_order_validation():
    with pytest.raises(ValueError):
        spherical_jn_matrix(np.array([1.0]), -1)
    with pytest.raises(ValueError):
        spherical_jn_matrix(np.array([1.0]), MAX_ORDER + 1)


def test_magnitude_guard_is_quiet_on_valid_data():
    # every batch passes an upper-bound sanity screen; it must not trip on
    # legitimate values spanning ~300 orders of magnitude.
    z = np.linspace(0.05, 80.0, 160)
    out = spherical_jn_matrix(z, 64)
    assert np.all(np.isfinite(out))


def test_imaginary_part_limit():
    # sin(i y) stays finite for y below arccosh(DBL_MAX) and overflows from
    # there on (MAX_IMAG is that limit rounded up), so the float just below
    # works and anything from the limit on is refused before sin runs
    y = np.nextafter(MAX_IMAG, 0.0)
    out = spherical_jn_matrix(np.array([1j * y, 0.5 - 1j * y]), 8)
    assert np.all(np.isfinite(out))
    for z in (1j * MAX_IMAG, 2.0 - 800.0j):
        with pytest.raises(ValueError, match="arccosh"):
            spherical_jn_matrix(np.array([1.0, z]), 8)


def test_bound_violation_is_a_recurrence_error():
    # |j_0(1)| <= sqrt(pi) / Gamma(3/2) = 2; a raise, unlike an assert,
    # survives python -O
    with pytest.raises(RecurrenceError, match="magnitude bound"):
        _assert_bound(np.array([1.0]), np.array([[3.0]]))
