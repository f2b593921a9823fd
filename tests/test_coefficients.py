"""Coefficient ladder: recurrences, cleanup, verification, cache, and the
independent Legendre-coefficient route."""

from fractions import Fraction

import numpy as np
import pytest

import nsbf.coefficients as coefficients_mod
from nsbf.coefficients import (
    DEFAULT_N,
    DIRECT_MAX_N,
    TRIM_FRACTION,
    build_coefficients,
    direct_alpha,
    direct_mu,
    legendre_coefficient_table,
    load_coefficients,
    problem_cache_key,
    save_coefficients,
)
from nsbf.errors import CacheError
from nsbf.grid import SampledFn
from nsbf.liouville import build_liouville
from nsbf.oracles import degenerate_problem, kamke_problem
from nsbf.seed import compute_seed, formal_powers


@pytest.fixture(scope="module")
def kamke():
    prob = kamke_problem()
    data = build_liouville(prob)
    seed = compute_seed(prob, data)
    coeffs = build_coefficients(data, seed)
    return prob, data, seed, coeffs


@pytest.fixture(scope="module")
def degenerate():
    prob = degenerate_problem()
    data = build_liouville(prob)
    seed = compute_seed(prob, data)
    coeffs = build_coefficients(data, seed, N=20)
    return prob, data, seed, coeffs


def test_degenerate_coefficients_vanish_exactly(degenerate):
    # For p = r = 1, q = 0 the series beyond the leading terms is empty:
    # every alpha_n and mu_n must come out exactly zero, not merely small.
    _, _, _, coeffs = degenerate
    assert np.all(coeffs.alpha == 0.0)
    assert np.all(coeffs.mu == 0.0)
    assert coeffs.N_opt == 0
    assert coeffs.report.floor == 0.0


def test_degenerate_order_minus_one_members(degenerate):
    # mu_{-1} = G2/(2 rho) vanishes along with h: G1, G2 and h are zero.
    _, _, _, coeffs = degenerate
    np.testing.assert_allclose(coeffs.G1, 0.0, atol=1e-13)
    np.testing.assert_allclose(coeffs.G2, 0.0, atol=1e-13)
    assert coeffs.h == 0


def test_kamke_n_opt_and_residual_floor(kamke):
    _, _, _, coeffs = kamke
    assert coeffs.N == DEFAULT_N
    assert 34 <= coeffs.N_opt <= 42
    worst = coeffs.report.residuals.max(axis=1)
    assert worst[coeffs.N_opt] < 1e-5
    # the partial sums must improve by orders of magnitude from M = 5
    assert worst[5] > 100.0 * worst[coeffs.N_opt]


def test_kamke_h_constant(kamke):
    _, _, seed, coeffs = kamke
    assert coeffs.h == pytest.approx(1j - 1.0, abs=1e-12)
    assert coeffs.h == seed.h


def test_cleanup_cuts_grow_with_order(kamke):
    # Rounding noise near y = A grows with n, so the cleaned neighborhood
    # must expand (weakly) along each parity chain and stay far from B.
    _, data, _, coeffs = kamke
    cuts = np.maximum(coeffs.cut_alpha, coeffs.cut_mu)
    assert cuts[20] > 0.05
    assert cuts[50] > cuts[20]
    assert np.max(cuts) < 0.8 * data.grid.b
    # monotone along the running maximum used by verification
    running = np.maximum.accumulate(cuts)
    assert np.all(np.diff(running) >= 0)


def test_verification_window_respects_cuts(kamke):
    _, data, _, coeffs = kamke
    ws = coeffs.report.window_start
    # windows never start before the trim edge nor shrink as M grows
    trim_edge = data.grid.a + TRIM_FRACTION * (data.grid.b - data.grid.a)
    assert np.all(ws >= trim_edge - 1e-12)
    assert np.all(np.diff(ws) >= 0)


def test_build_rejects_bad_order(kamke):
    _, data, seed, _ = kamke
    with pytest.raises(ValueError):
        build_coefficients(data, seed, N=0)


def test_legendre_table_known_rows():
    rows = legendre_coefficient_table(4)
    assert rows[0] == [Fraction(1)]
    assert rows[1] == [Fraction(0), Fraction(1)]
    # P_2 = (3x^2 - 1)/2, P_3 = (5x^3 - 3x)/2, P_4 = (35x^4 - 30x^2 + 3)/8
    assert rows[2] == [Fraction(-1, 2), Fraction(0), Fraction(3, 2)]
    assert rows[3] == [Fraction(0), Fraction(-3, 2), Fraction(0), Fraction(5, 2)]
    assert rows[4] == [
        Fraction(3, 8),
        Fraction(0),
        Fraction(-15, 4),
        Fraction(0),
        Fraction(35, 8),
    ]
    with pytest.raises(ValueError):
        legendre_coefficient_table(-1)


def test_direct_route_matches_recurrent_low_orders(kamke):
    # The Legendre-coefficient formulas share no code with the recurrences;
    # away from y = A they must agree to the quadrature accuracy.
    _, data, seed, coeffs = kamke
    powers = formal_powers(seed, data, 3)
    G1 = SampledFn(data.grid, coeffs.G1)
    G2 = SampledFn(data.grid, coeffs.G2)
    sel = data.grid.points >= 0.2
    for n in range(3):
        da = direct_alpha(n, powers, data).values[sel]
        ra = coeffs.alpha[n][sel]
        assert np.max(np.abs(da - ra) / np.maximum(np.abs(da), 1e-30)) < 1e-6
        dm = direct_mu(n, powers, seed, data, G1, G2).values[sel]
        rm = coeffs.mu[n][sel]
        assert np.max(np.abs(dm - rm) / np.maximum(np.abs(dm), 1e-30)) < 1e-6


def test_direct_route_order_cap(kamke):
    _, data, seed, coeffs = kamke
    powers = formal_powers(seed, data, 2)
    with pytest.raises(ValueError):
        direct_alpha(DIRECT_MAX_N + 1, powers, data)
    with pytest.raises(ValueError):
        direct_alpha(3, powers, data)  # beyond available formal powers
    with pytest.raises(ValueError):
        direct_alpha(-1, powers, data)


def test_cache_key_is_stable_digest():
    k1 = problem_cache_key("kamke|m:2001|N:50")
    k2 = problem_cache_key("kamke|m:2001|N:50")
    assert k1 == k2 and len(k1) == 32
    assert problem_cache_key("kamke|m:2001|N:51") != k1


def test_cache_key_tracks_build_constants(monkeypatch):
    # a changed cleanup or N_opt constant must not reuse a stale cache
    k1 = problem_cache_key("kamke|m:2001|N:50")
    monkeypatch.setattr(coefficients_mod, "NOPT_TIE_FACTOR", 4.0)
    assert problem_cache_key("kamke|m:2001|N:50") != k1


def test_cache_roundtrip(tmp_path, kamke):
    _, _, _, coeffs = kamke
    key = problem_cache_key("roundtrip-test")
    path = tmp_path / "c.nsbfc"
    save_coefficients(coeffs, path, key)
    back = load_coefficients(path, key)
    assert back.N == coeffs.N
    assert back.N_opt == coeffs.N_opt
    assert back.h == coeffs.h
    assert back.grid == coeffs.grid
    np.testing.assert_array_equal(back.alpha, coeffs.alpha)
    np.testing.assert_array_equal(back.mu, coeffs.mu)
    np.testing.assert_array_equal(back.G1, coeffs.G1)
    np.testing.assert_array_equal(back.G2, coeffs.G2)
    np.testing.assert_array_equal(back.cut_alpha, coeffs.cut_alpha)
    np.testing.assert_array_equal(back.cut_mu, coeffs.cut_mu)
    np.testing.assert_array_equal(
        back.report.residuals, coeffs.report.residuals
    )
    np.testing.assert_array_equal(
        back.report.window_start, coeffs.report.window_start
    )


def test_cache_rejects_wrong_key(tmp_path, kamke):
    _, _, _, coeffs = kamke
    path = tmp_path / "c.nsbfc"
    save_coefficients(coeffs, path, problem_cache_key("one"))
    with pytest.raises(CacheError):
        load_coefficients(path, problem_cache_key("two"))


def test_cache_rejects_corruption(tmp_path, kamke):
    _, _, _, coeffs = kamke
    key = problem_cache_key("corruption-test")
    path = tmp_path / "c.nsbfc"
    save_coefficients(coeffs, path, key)
    raw = path.read_bytes()

    # truncated
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CacheError):
        load_coefficients(path, key)
    # bad magic
    path.write_bytes(b"XXXXXXXX" + raw[8:])
    with pytest.raises(CacheError):
        load_coefficients(path, key)
    # bad version field (bytes 8..12)
    path.write_bytes(raw[:8] + b"\xff\xff\xff\xff" + raw[12:])
    with pytest.raises(CacheError):
        load_coefficients(path, key)
    # flipped byte inside the compressed payload (zip header slack would
    # go unnoticed, the deflate stream cannot)
    body = bytearray(raw)
    body[3 * len(raw) // 4] ^= 0xFF
    path.write_bytes(bytes(body))
    with pytest.raises(CacheError):
        load_coefficients(path, key)
    # missing file
    with pytest.raises(CacheError):
        load_coefficients(tmp_path / "absent.nsbfc", key)


def test_save_validates_key_length(tmp_path, kamke):
    _, _, _, coeffs = kamke
    with pytest.raises(ValueError):
        save_coefficients(coeffs, tmp_path / "c.nsbfc", b"short")
