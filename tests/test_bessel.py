"""Spherical Bessel evaluation across its three argument regimes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import spherical_jn

from nsbf.bessel import (
    _RESCALE_AT,
    _RESCALE_BY,
    MAX_IMAG,
    MAX_ORDER,
    _assert_bound,
    _closed01,
    _downward,
    spherical_jn_matrix,
)
from nsbf.errors import RecurrenceError


def _miller_reference(N, z):
    """Miller's recurrence with the rescale test on every step: the loop
    that _downward's gated test must reproduce bit for bit."""
    M = N + max(15, int(np.ceil(np.max(np.abs(z)))))
    out = np.zeros((N + 1,) + z.shape, dtype=z.dtype)
    jp = np.zeros_like(z)
    jc = np.full(z.shape, 1e-280, dtype=z.dtype)
    for n in range(M, 0, -1):
        if n <= N:
            out[n] = jc
        jm = (2 * n + 1) / z * jc - jp
        jp = jc
        jc = jm
        big = np.abs(jc) > _RESCALE_AT
        if np.any(big):
            jc = np.where(big, jc * _RESCALE_BY, jc)
            jp = np.where(big, jp * _RESCALE_BY, jp)
            out[:, big] *= _RESCALE_BY
    out[0] = jc
    j0, j1 = _closed01(z)
    use0 = np.abs(j0) >= np.abs(j1)
    with np.errstate(under="ignore"):
        out *= np.where(use0, j0, j1) / np.where(use0, out[0], out[1])
    return out


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


def test_rescaled_downward_batch_matches_scipy():
    # |z| far below N: at N = 120 Miller's candidates pass _RESCALE_AT on
    # the way down for 16 of the 40 arguments and are rescaled
    z = np.geomspace(1e-3, 0.5, 40)
    for N in (60, 120):
        ours = spherical_jn_matrix(z, N)
        ref = spherical_jn(np.arange(N + 1)[:, None], z)
        scale = np.maximum(np.abs(ref), 1e-280)
        assert np.max(np.abs(ours - ref) / scale) < 5e-12
        for batch in (z, z * np.exp(0.7j)):
            assert (_downward(N, batch).tobytes()
                    == _miller_reference(N, batch).tobytes())


def test_permuted_batch_gives_identical_columns():
    # the start order and the rescaling depend on the set of arguments, not
    # on their order, so every column is bitwise the same after a shuffle
    rng = np.random.default_rng(8)
    N = 40
    z = np.concatenate([
        [0.0, 3e-6, -5e-5],                 # series
        rng.uniform(1e-3, N, 12),           # downward
        -rng.uniform(N, 4 * N, 12),         # upward
    ])
    for batch in (z, z * np.exp(0.3j)):
        perm = rng.permutation(batch.size)
        ours = spherical_jn_matrix(batch, N)
        assert ours[:, perm].tobytes() == spherical_jn_matrix(
            batch[perm], N).tobytes()


@given(
    st.integers(0, 80),
    st.lists(st.tuples(st.floats(-6.0, 3.0), st.booleans()),
             min_size=1, max_size=24),
)
def test_random_real_batches_match_scipy(N, draws):
    # |z| log-uniform in [1e-6, 1e3], either sign, all three regimes mixed
    z = np.array([(-1.0 if neg else 1.0) * 10.0**e for e, neg in draws])
    ours = spherical_jn_matrix(z, N)
    ref = spherical_jn(np.arange(N + 2)[:, None], z)
    # relative to max(|j_n|, |j_n+1|): a relative error alone is unbounded
    # at the zeros of j_n, and the zeros of j_n+1 interlace with them
    scale = np.maximum(np.maximum(np.abs(ref[:-1]), np.abs(ref[1:])), 1e-280)
    assert np.max(np.abs(ours - ref[:-1]) / scale) < 5e-12


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
