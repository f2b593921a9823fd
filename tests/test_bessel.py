"""Spherical Bessel evaluation across its three argument regimes."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import spherical_jn

from nsbf import bessel
from nsbf.bessel import (
    _RESCALE_AT,
    _RESCALE_BY,
    MAX_IMAG,
    MAX_ORDER,
    _assert_bound,
    _closed01,
    _downward,
    _screen,
    _series,
    _upward,
    spherical_jn_matrix,
)
from nsbf.errors import RecurrenceError


def _ratio(n, z):
    """(2n+1)/z at one order as the batches take it: a real division, or
    (2n+1) times w = 1/z on each part of w for complex z."""
    if not np.iscomplexobj(z):
        return (2 * n + 1) / z
    w = 1.0 / z
    out = np.empty_like(z)
    out.real = (2 * n + 1) * w.real
    out.imag = (2 * n + 1) * w.imag
    return out


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
        jm = _ratio(n, z) * jc - jp
        jp = jc
        jc = jm
        big = np.abs(jc) > _RESCALE_AT
        if np.any(big):
            jc = np.where(big, jc * _RESCALE_BY, jc)
            jp = np.where(big, jp * _RESCALE_BY, jp)
            out[:, big] *= _RESCALE_BY
    out[0] = jc
    j0, j1 = _closed01(z, None, 1.0 / z if np.iscomplexobj(z) else None)
    use0 = np.abs(j0) >= np.abs(j1)
    with np.errstate(under="ignore"):
        out *= np.where(use0, j0, j1) / np.where(use0, out[0], out[1])
    return out


def _bound_reference(z, out):
    """The magnitude bound test on every entry of the batch: the outcome
    that _assert_bound's column screen must reproduce."""
    N = out.shape[0] - 1
    consts = np.array([0.5 * math.log(math.pi) - math.lgamma(n + 1.5)
                       for n in range(N + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs = np.log(np.abs(out))
        bound = np.arange(N + 1)[:, None] * np.log(np.abs(z) / 2.0)
        bound += (consts + 1e-6)[:, None]
        if np.iscomplexobj(z):
            bound += np.abs(z.imag)
    bad = log_abs > bound
    if np.any(bad):
        n_bad, i_bad = np.argwhere(bad)[0]
        raise RecurrenceError(
            f"spherical Bessel magnitude bound violated at n={n_bad}, "
            f"z={z[i_bad]!r}: |j_n|={np.abs(out[n_bad, i_bad]):.3e}"
        )


def _composed(z, N):
    """The three regimes gathered and scattered through boolean masks: the
    batch that filling each regime's view in place must reproduce."""
    az = np.abs(z)
    out = np.empty((N + 1,) + z.shape, dtype=z.dtype)
    tiny = az < 1e-4
    up = ~tiny & (az >= max(N, 1))
    down = ~tiny & ~up
    if np.any(tiny):
        out[:, tiny] = _series(N, z[tiny])
    if np.any(up):
        out[:, up] = _upward(N, z[up])
    if np.any(down):
        out[:, down] = _downward(max(N, 1), z[down])[:N + 1]
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


def _mpmath_columns(z, N):
    """j_0..j_N(z) for each z, one column each, from mpmath's J_{n+1/2}
    at 30 digits."""
    with mpmath.workdps(30):
        cols = []
        for x in z:
            x = mpmath.mpc(x.real, x.imag)
            if x == 0:
                cols.append([1.0] + [0.0] * N)
                continue
            f = mpmath.sqrt(mpmath.pi / (2 * x))
            cols.append([complex(f * mpmath.besselj(n + 0.5, x))
                         for n in range(N + 1)])
    return np.array(cols).T


def _complex_regime_points(N):
    """Complex arguments of each regime at order N: random ones and pure
    imaginary ones, and |Im z| = 700, just inside MAX_IMAG, in the upward
    regime.  The upward ones take |z| >= 4N: nearer N and off the real axis
    the upward recurrence amplifies rounding (up to 1e-9 of the column
    scale at z = 38i, N = 38), which would drown the comparison."""
    rng = np.random.default_rng(32)
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, 20))
    series = np.concatenate((10.0 ** rng.uniform(-9, -4, 12) * phase[:12],
                             [9e-5j, -2e-6j, 0j]))
    miller = np.concatenate((rng.uniform(1e-3, 0.99 * N, 20) * phase,
                             [0.5j, 7j, 20j, 37j, -15j]))
    upward = np.concatenate((rng.uniform(4 * N, 2500, 20) * phase,
                             [700j, -700j, 5 + 700j, 40 - 700j, 700 - 700j,
                              -1500 + 700j, 300j]))
    upward = np.where(np.abs(upward.imag) < 700, upward,
                      upward.real + 700j * np.sign(upward.imag))
    return {"series": series, "miller": miller, "upward": upward}


#: largest error over the column scale (max_n |j_n|) of each regime on
#: _complex_regime_points(38), when complex batches took np.cos and np.sin
#: of z and divided by z; taking them from real functions and one
#: reciprocal of z gave 3.388e-21, 4.990e-16 and 5.069e-15
COMPLEX_REGIME_ERRORS = {"series": 3.388131784443224e-21,
                         "miller": 5.700575721247434e-16,
                         "upward": 5.109390680046964e-15}


def test_complex_batches_match_mpmath_in_each_regime():
    N = 38
    points = _complex_regime_points(N)
    for regime, z in points.items():
        ref = _mpmath_columns(z, N)
        err = (np.max(np.abs(spherical_jn_matrix(z, N) - ref), axis=0)
               / np.max(np.abs(ref), axis=0))
        assert err.max() <= COMPLEX_REGIME_ERRORS[regime], regime
    # cos z and sin z from real functions, over cosh Im z: no further off
    # than np.cos and np.sin of z (2.22e-16 and 2.12e-16 here)
    z = np.concatenate(list(points.values()))
    with mpmath.workdps(30):
        ref = np.array([[complex(f(mpmath.mpc(x.real, x.imag))) for x in z]
                        for f in (mpmath.cos, mpmath.sin)])
    err = np.max(np.abs(bessel.cos_and_sin(z) - ref) / np.cosh(z.imag),
                 axis=1)
    assert err[0] <= 2.2204460492503091e-16 and err[1] <= 2.122492429522659e-16


def test_real_cos_and_sin_are_numpys():
    z = np.linspace(-50.0, 2000.0, 1001)
    assert bessel.cos_and_sin(z).tobytes() == np.array(
        (np.cos(z), np.sin(z))).tobytes()


def _series_loop(N, z):
    """The ascending series of every batch, zero ones included: the loop
    that the zero column's shortcut must reproduce bit for bit."""
    n = np.arange(N + 1)[:, None]
    z2 = z * z
    z4 = z2 * z2
    corr = 1.0 - z2 / (2 * (2 * n + 3)) + z4 / (
        8.0 * (2 * n + 3) * (2 * n + 5)
    )
    pref = np.zeros((N + 1,) + z.shape, dtype=z.dtype)
    pref[0] = 1.0
    rows = list(pref)
    prod = np.empty_like(z)
    for k in range(1, N + 1):
        np.multiply(rows[k - 1], z, out=prod)
        np.divide(prod, 2 * k + 1, out=rows[k])
        if not rows[k].any():
            break
    return pref * corr


def test_zero_series_columns_keep_the_loops_bits():
    # z = 0 of either sign and the four complex zeros, alone and together;
    # a batch with one nonzero entry takes the loop itself
    zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    batches = [np.array([0.0]), np.array([-0.0]), np.array([0.0, -0.0]),
               np.array(zeros)] + [np.array([x]) for x in zeros]
    batches.append(np.array([0.0, 3e-5, -0.0]))
    for N in (0, 1, 2, 3, 38, 120):
        for z in batches:
            ours = _series(N, z)
            assert ours.dtype == z.dtype
            assert ours.tobytes() == _series_loop(N, z).tobytes(), (N, z)


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


def test_non_finite_argument_is_refused():
    # nan or inf anywhere in a batch is refused up front, with no warning
    # (warnings are errors here) and before the start order of Miller's
    # recurrence is taken from max |z|
    for z in ([1.0, np.nan], [np.inf], [-np.inf, 2.0],
              [1.0, complex(np.nan, 1.0)], [complex(1.0, np.inf)]):
        with pytest.raises(ValueError, match="not finite"):
            spherical_jn_matrix(np.array(z), 5)


def test_bound_violation_is_a_recurrence_error():
    # |j_0(1)| <= sqrt(pi) / Gamma(3/2) = 2; a raise, unlike an assert,
    # survives python -O
    with pytest.raises(RecurrenceError, match="magnitude bound"):
        _assert_bound(np.array([1.0]), np.array([[3.0]]))


def _outcome(check, z, out):
    try:
        check(z, out)
    except RecurrenceError as exc:
        return str(exc)
    return None


def _log_bound(z, n):
    """log of the bound at order n, plus the 1e-6 slack, per argument."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (n * np.log(np.abs(z) / 2.0) + 0.5 * math.log(math.pi)
                - math.lgamma(n + 1.5) + 1e-6 + np.abs(np.imag(z)))


def _planted_batches():
    """(z, out) pairs: clean batches and batches with entries planted on,
    just inside, just outside and far outside the bound."""
    rng = np.random.default_rng(17)
    for N in (0, 1, 7, 38):
        base = np.concatenate((
            [0.0, 1e-9, 3e-5], np.linspace(0.02, 3.0 * max(N, 1), 157)))
        for z in (base, base * np.exp(0.4j), 1j * base, base + 650.0j,
                  rng.permutation(base)):
            clean = spherical_jn_matrix(z, N)
            yield z, clean
            m = z.size
            for n in sorted({0, N // 2, N}):
                for i in (0, 1, 2, 40, m - 1):
                    with np.errstate(over="ignore"):
                        lim = np.exp(_log_bound(z[i], n))
                    for value in (lim * (1 + 3e-6), lim * (1 + 1e-10),
                                  lim * np.exp(1e-6), lim * (1 - 1e-12),
                                  1e300, 3.0, 5e-324, np.nan, 0.0):
                        # complex batches take the value on both axes
                        for phase in {1.0, np.exp(0.7j), 1j} if np.iscomplexobj(
                                z) else (1.0,):
                            out = clean.copy()
                            with np.errstate(invalid="ignore"):  # inf * 1j
                                out[n, i] = value * phase
                            yield z, out
                            yield z[i:i + 1], out[:, i:i + 1]
            # two violations: the first in row-major order is named
            out = clean.copy()
            out[N, 10] = 1e300
            out[0, m - 2] = 1e300
            yield z, out
            # a NaN beside a violation in the same column
            out = clean.copy()
            out[0, m - 1] = np.nan
            out[N, m - 1] = 1e300
            yield z, out
    # non-finite arguments, checked as given
    z = np.array([np.inf, np.nan, -np.inf, 5.0] * 40)
    out = np.ones((4, z.size))
    yield z, out
    out[2, 3] = 1e300
    yield z, out


@pytest.mark.parametrize("screen_from", [1, bessel._SCREEN_FROM])
def test_screened_bound_check_matches_reference(monkeypatch, screen_from):
    # every batch, however small, goes through the screen at screen_from = 1
    monkeypatch.setattr(bessel, "_SCREEN_FROM", screen_from)
    raised = passed = 0
    for z, out in _planted_batches():
        ref = _outcome(_bound_reference, z, out)
        assert _outcome(_assert_bound, z, out) == ref
        raised += ref is not None
        passed += ref is None
    assert raised > 1000 and passed > 1000


def test_screen_passes_upward_columns():
    # the screen must do its job: clean columns from 0.83 N on (N = 38)
    # pass without the per-entry test, real and complex
    N = 38
    z = np.linspace(0.0, 6.0 * N, 2001)
    for batch in (z, z * np.exp(0.3j), z + 40.0j):
        passed = _screen(batch, spherical_jn_matrix(batch, N))
        assert np.all(passed[np.abs(batch) >= 0.84 * N])
        assert not np.any(passed[np.abs(batch) < 0.83 * N])


def test_in_place_regimes_match_gathered_composition():
    rng = np.random.default_rng(23)
    l = np.linspace(0.0, 3.0, 2001)
    for N in (0, 1, 38):
        batches = [omega * l for omega in (141.0, 141.0 + 0.5j, 25.0j,
                                           2000.0)]
        batches += [rng.permutation(b) for b in batches]
        batches += [
            np.linspace(0.0, 9e-5, 30),                # series only
            np.linspace(1e-3, 0.99 * max(N, 1), 30),   # Miller only
            np.linspace(max(N, 1), 5.0 * max(N, 1), 30) * (1 - 0.2j),
            np.array([]),
            np.array([], dtype=complex),
        ]
        # one-column batches, where numpy's complex product rounds by the
        # length of the loop it runs
        batches += np.split(rng.uniform(1e-4, 1.5 * max(N, 1), 60)
                            * np.exp(1j * rng.uniform(-3.0, 3.0, 60)), 60)
        for z in batches:
            ours = spherical_jn_matrix(z, N)
            ref = _composed(z, N)
            assert ours.dtype == ref.dtype and ours.shape == ref.shape
            assert ours.tobytes() == ref.tobytes()


def test_any_shape_batch():
    z = np.linspace(0.0, 90.0, 24).reshape(4, 6) * (1 + 0.1j)
    out = spherical_jn_matrix(z, 9)
    assert out.shape == (10, 4, 6)
    assert out.tobytes() == spherical_jn_matrix(z.ravel(), 9).tobytes()
    scalar = spherical_jn_matrix(2.0, 3)
    assert scalar.shape == (4,)
    assert scalar.tobytes() == spherical_jn_matrix([2.0], 3).tobytes()


def test_shaped_batch_is_checked_at_each_order(monkeypatch):
    # z with N + 1 rows: each entry meets the bound of its own order, not
    # that of its row of z (which at n = N is far above |j_0| = 3)
    N = 5
    z = np.linspace(40.0, 80.0, 3 * (N + 1)).reshape(N + 1, 3)
    upward = bessel._upward

    def corrupted(N, z, out=None, cos_sin=None):
        res = upward(N, z, out, cos_sin)
        res[0, -1] = 3.0  # |j_0| <= 2 everywhere
        return res

    monkeypatch.setattr(bessel, "_upward", corrupted)
    msg = re.escape(f"n=0, z={z[-1, -1]!r}")
    with pytest.raises(RecurrenceError, match=msg):
        spherical_jn_matrix(z, N)


def test_out_receives_the_fresh_batch():
    # each regime alone, all three in one batch, a shaped and a 0-d z: the
    # batch written into out, whole or as rows of a larger buffer (the
    # solver's layout), is bitwise the one returned without out
    N = 38
    zs = [
        np.linspace(0.0, 9e-5, 7),                      # series
        np.linspace(1e-3, 30.0, 7) * (1 + 0.1j),        # Miller
        np.linspace(40.0, 90.0, 7),                     # upward
        np.linspace(0.0, 90.0, 24).reshape(4, 6) * (1 - 0.2j),
        np.linspace(0.0, 90.0, 24),
        np.array(2.5),
    ]
    for z in zs:
        fresh = spherical_jn_matrix(z, N)
        out = np.empty_like(fresh)
        assert spherical_jn_matrix(z, N, out=out) is out
        assert out.tobytes() == fresh.tobytes()
        buf = np.full((N + 5,) + z.shape, np.nan, dtype=fresh.dtype)
        rows = buf[4:]
        assert spherical_jn_matrix(z, N, out=rows) is rows
        assert rows.tobytes() == fresh.tobytes()
        assert np.isnan(buf[:4]).all()


def test_bad_out_is_refused():
    # a copy made to reshape a non-contiguous out would take the writes
    N = 9
    z = np.linspace(0.0, 20.0, 24).reshape(4, 6)
    shape = (N + 1, 4, 6)
    bad = [
        np.empty((N, 4, 6)),
        np.empty((N + 1, 24)),
        np.empty((N + 1, 6, 4)),
        np.empty(shape, dtype=complex),
        np.empty(shape, dtype=np.float32),
        np.empty((N + 1, 4, 12))[..., ::2],
        np.empty(shape, order="F"),
        np.zeros(shape).tolist(),
        np.broadcast_to(np.empty((1, 4, 6)), shape),
        np.empty(shape),
    ]
    bad[-1].flags.writeable = False
    for out in bad:
        with pytest.raises(ValueError, match="out must be"):
            spherical_jn_matrix(z, N, out=out)
    with pytest.raises(ValueError, match="out must be"):
        spherical_jn_matrix(z * 1j, N, out=np.empty(shape))


def _cos_sin(z):
    """cos z and sin z as the batches take them: np.cos and np.sin of a
    real z, and of the real part of a complex one, whose parts take cosh
    and sinh of the imaginary part (DLMF 4.21.37-38)."""
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        z = z.astype(float)
        return np.array((np.cos(z), np.sin(z)))
    x, y = z.real, z.imag
    cs = np.empty((2,) + z.shape, dtype=complex)
    cs[0, ...].real = np.cos(x) * np.cosh(y)
    cs[0, ...].imag = -(np.sin(x) * np.sinh(y))
    cs[1, ...].real = np.sin(x) * np.cosh(y)
    cs[1, ...].imag = np.cos(x) * np.sinh(y)
    return cs


def test_shared_cos_sin_gives_the_batch_computed_without_it():
    # the closed forms of the upward and Miller regimes read their columns
    # of cos_sin in place of calling np.cos and np.sin: each regime alone,
    # a mixed batch and its permutation (regimes gathered, not sliced), a
    # shaped and a 0-d z, real and complex, at N = 0 as well
    rng = np.random.default_rng(29)
    for N in (0, 1, 38):
        zs = [
            np.linspace(0.0, 9e-5, 7),                         # series
            np.linspace(1e-3, 0.9 * max(N, 1), 7) * (1 + 0.1j),  # Miller
            np.linspace(max(N, 1), 90.0, 7),                    # upward
            141.0 * np.linspace(0.0, 2.96, 2001),
            (141.0 + 1.0j) * np.linspace(0.0, 2.96, 2001),
            np.linspace(0.0, 90.0, 24).reshape(4, 6) * (1 - 0.2j),
            np.array(2.5),
            np.array(60.0 + 1.0j),
        ]
        zs.append(rng.permutation(zs[4]))
        for z in zs:
            fresh = spherical_jn_matrix(z, N)
            cs = _cos_sin(z)
            shared = spherical_jn_matrix(z, N, cos_sin=cs)
            assert shared.tobytes() == fresh.tobytes()
            # the kernel's layout: cos z, sin z and the batch in one buffer
            buf = np.empty((N + 5,) + np.shape(z), dtype=fresh.dtype)
            buf[:2] = cs
            spherical_jn_matrix(z, N, out=buf[4:], cos_sin=buf[:2])
            assert buf[4:].tobytes() == fresh.tobytes()
            assert buf[:2].tobytes() == cs.tobytes()
            # and they are what the closed forms read: off values give off
            # columns, except in the series, which needs neither
            off = spherical_jn_matrix(z, N, cos_sin=cs * (1 + 2**-20))
            series = np.abs(np.ravel(z)) < 1e-4
            flat_off, flat = off.reshape(N + 1, -1), fresh.reshape(N + 1, -1)
            assert (flat_off[:, series] == flat[:, series]).all()
            assert (flat_off[0, ~series] != flat[0, ~series]).all()


def test_bad_cos_sin_is_refused_and_errors_keep_their_messages():
    N = 9
    z = np.linspace(0.0, 20.0, 24).reshape(4, 6)
    cs = _cos_sin(z)
    for bad in (cs[0], cs.reshape(2, 24), cs[:, :, :3], cs.astype(complex),
                cs.astype(np.float32), cs.tolist(), np.stack((cs, cs))):
        with pytest.raises(ValueError, match="cos_sin must be"):
            spherical_jn_matrix(z, N, cos_sin=bad)
    with pytest.raises(ValueError, match="cos_sin must be"):
        spherical_jn_matrix(z * 1j, N, cos_sin=cs)
    # the argument checks come first and read z, not cos_sin
    with np.errstate(invalid="ignore", over="ignore"):
        for zz in (np.array([1.0, np.inf]), np.array([1.0, 800.0j])):
            with pytest.raises(ValueError, match="not finite|arccosh"):
                spherical_jn_matrix(zz, N, cos_sin=_cos_sin(zz))
    with pytest.raises(ValueError, match="order N"):
        spherical_jn_matrix(z, -1, cos_sin=cs)
