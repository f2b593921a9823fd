"""Coefficient ladder: recurrences, cleanup, verification, cache, and the
independent Legendre-coefficient route."""

import dataclasses
import hashlib
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import nsbf.coefficients as coefficients_mod
import nsbf.seed as seed_mod
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
from nsbf.errors import CacheError, GridError, RecurrenceError
from nsbf.grid import Grid
from nsbf.liouville import SLProblem, build_liouville
from nsbf.oracles import (
    degenerate_problem,
    kamke_problem,
    reference_eigenvalues,
)
from nsbf.seed import compute_seed, formal_powers
from nsbf.solver import DIRICHLET, SolutionEvaluator


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
    _, _, seed, coeffs = degenerate
    np.testing.assert_allclose(coeffs.G1, 0.0, atol=1e-13)
    np.testing.assert_allclose(coeffs.G2, 0.0, atol=1e-13)
    assert seed.h == 0


def test_kamke_n_opt_and_residual_floor(kamke):
    _, _, _, coeffs = kamke
    assert coeffs.N == DEFAULT_N
    assert 34 <= coeffs.N_opt <= 42
    worst = coeffs.report.residuals.max(axis=1)
    assert worst[coeffs.N_opt] < 1e-5
    # the partial sums must improve by orders of magnitude from M = 5
    assert worst[5] > 100.0 * worst[coeffs.N_opt]


def test_kamke_h_constant(kamke):
    _, _, seed, _ = kamke
    assert seed.h == pytest.approx(1j - 1.0, abs=1e-12)


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


def test_constant_head_is_exactly_zero_and_spectrum_holds():
    # q = 0 on y < 1: the ladder cancels exactly there, so every alpha_n,
    # mu_n (n >= 1) starts with exact zeros, which cleanup keeps as the cut.
    prob = SLProblem(
        0.0, 2.0, p=lambda y: 1.0,
        q=lambda y: np.maximum(np.asarray(y) - 1.0, 0.0) ** 4,
        r=lambda y: 1.0,
    )
    data = build_liouville(prob, grid=Grid(0.0, 2.0, 2001))
    seed = compute_seed(prob, data)
    coeffs = build_coefficients(data, seed)
    head = data.grid.points < 0.85
    assert np.all(coeffs.alpha[1:, head] == 0.0)
    assert np.all(coeffs.mu[1:, head] == 0.0)
    assert np.all(coeffs.cut_alpha[1:] >= 0.85)
    assert np.all(coeffs.cut_mu[1:] >= 0.85)
    res = SolutionEvaluator(coeffs, data, seed).find_eigenvalues(
        DIRICHLET, count_hint=10)
    assert [r.k for r in res] == list(range(1, 11))
    ref = np.array(reference_eigenvalues(prob, DIRICHLET, 10))
    err = np.abs(np.array([r.lam for r in res]) - ref)
    # criterion-1 tolerances
    assert np.max(err) <= 1e-9
    assert np.max(err / np.abs(ref)) <= 1e-12


def test_records_are_frozen_and_compare_by_identity(kamke, degenerate):
    # array fields make a field-wise == ambiguous; the records answer by
    # identity instead of raising
    _, data, seed, coeffs = kamke
    _, deg_data, deg_seed, _ = degenerate
    other = build_coefficients(data, seed)
    assert coeffs == coeffs and coeffs != other
    assert coeffs.report != other.report
    powers = (formal_powers(deg_seed, deg_data, 3),
              formal_powers(deg_seed, deg_data, 3))
    assert powers[0] != powers[1]
    assert coeffs.N == len(coeffs.alpha) - 1 == DEFAULT_N
    for arr in (coeffs.alpha, coeffs.mu):
        with pytest.raises(ValueError):
            arr[1, 1] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        coeffs.alpha = coeffs.mu


@pytest.mark.parametrize("m", [9, 15, 21])
def test_grids_too_small_to_verify_are_refused(m):
    # the identity residuals are taken over at least the last 32 nodes
    prob = kamke_problem()
    data = build_liouville(prob, grid=Grid(prob.a, prob.b, m))
    with pytest.raises(GridError, match=f"m = {m} is too small"):
        build_coefficients(data, compute_seed(prob, data), N=8)


def test_smallest_verifiable_grid_builds():
    prob = kamke_problem()
    data = build_liouville(prob, grid=Grid(prob.a, prob.b, 33))
    coeffs = build_coefficients(data, compute_seed(prob, data), N=8)
    # every window starts at a node and leaves its last 32 nodes in
    pts = data.grid.points
    assert np.all(np.isin(coeffs.report.window_start, pts))
    assert np.all(coeffs.report.window_start <= pts[1])
    assert np.all(np.isfinite(coeffs.report.residuals))


def test_build_rejects_bad_order(kamke):
    _, data, seed, _ = kamke
    with pytest.raises(ValueError):
        build_coefficients(data, seed, N=0)


def test_build_refuses_orders_beyond_the_bessel_batch():
    # Delta' at order N takes Bessel orders up to N + N mod 2 + 1 <= 512, so
    # 510 is the largest order that works end to end, and 511 is refused
    # before the ladder runs, not at the first Newton step
    prob = degenerate_problem()
    data = build_liouville(prob, grid=Grid(prob.a, prob.b, 201))
    seed = compute_seed(prob, data)
    with pytest.raises(ValueError, match="510"):
        build_coefficients(data, seed, N=511)
    ev = SolutionEvaluator(build_coefficients(data, seed, N=510), data, seed,
                           N=510)
    res = ev.find_eigenvalues(DIRICHLET, count_hint=2)
    assert [r.lam for r in res] == pytest.approx([1.0, 4.0], abs=1e-12)


def test_underflowed_powers_of_l_give_zero_orders():
    # at m = 2001, l(node 1)^n leaves the normal range from n ~ 115; those
    # nodes get alpha_n = mu_n = 0, as y = A does, instead of a division by
    # a subnormal or zero l^n (warnings are errors here)
    prob = degenerate_problem()
    data = build_liouville(prob, grid=Grid(prob.a, prob.b, 2001))
    coeffs = build_coefficients(data, compute_seed(prob, data), N=120)
    assert np.all(coeffs.alpha == 0.0) and np.all(coeffs.mu == 0.0)
    assert coeffs.N_opt == 0
    prob = kamke_problem()
    data = build_liouville(prob, grid=Grid(prob.a, prob.b, 2001))
    coeffs = build_coefficients(data, compute_seed(prob, data), N=150)
    assert coeffs.N_opt == 38
    assert np.all(np.isfinite(coeffs.alpha)) and np.all(np.isfinite(coeffs.mu))


def test_overflowing_orders_are_refused():
    # on a coarse grid the ladder value divided by l^n overflows while l^n is
    # still normal: Kamke at m = 201 passes 1e300 at order 177 (node 2) and
    # inf at 181; the build names the first such order, without a warning
    prob = kamke_problem()
    data = build_liouville(prob, grid=Grid(prob.a, prob.b, 201))
    seed = compute_seed(prob, data)
    for N in (250, 300):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RecurrenceError,
                               match=r"order n = 177, .*use a smaller N"):
                build_coefficients(data, seed, N=N)
        assert not caught
    coeffs = build_coefficients(data, seed, N=176)
    assert np.all(np.isfinite(coeffs.alpha)) and np.all(np.isfinite(coeffs.mu))
    assert coeffs.N_opt == 20


def test_non_finite_ladder_values_are_refused():
    # r = 1e4 on [0, 1] stretches l to [0, 100], so the ladder values
    # Sigma_n = l^n alpha_n leave the float range near B once 100^n passes
    # it, with alpha_n itself far below the cap; for q = 1 the build names
    # the order where they first stop being finite, and for q = 0, whose
    # ladder values are all 0, l^n = inf only sends the orders to 0.  The
    # overflowing products on the way raise no warning
    def built(q):
        prob = SLProblem(0.0, 1.0, p=lambda y: 1.0, q=lambda y: q,
                         r=lambda y: 1e4)
        data = build_liouville(prob, grid=Grid(0.0, 1.0, 201))
        seed = compute_seed(prob, data)
        return build_coefficients(data, seed, N=250)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RecurrenceError,
                           match=r"^non-finite ladder values at order "
                                 r"n = 151$"):
            built(1.0)
        coeffs = built(0.0)
    assert not caught
    assert not np.any(coeffs.alpha) and not np.any(coeffs.mu)
    assert coeffs.N_opt == 0


def test_complex_plateau_rows_are_multiplied_to_the_quotients_bits(kamke):
    # the plateau fallback multiplies a complex row by 1/l where it divided
    # it by l: numpy divides by l + 0i through its reciprocal, so the
    # product has the quotient's bits (numpy 2.4); pinned on Kamke's raw
    # and cleaned families and on random complex rows
    _, data, seed, coeffs = kamke
    l = data.l[1:]
    inv = (1.0 / l).astype(complex)
    raw = coefficients_mod._ladder(data, seed, len(coeffs.alpha) - 1)[2:]
    rng = np.random.default_rng(5)
    noise = rng.standard_normal((2, 8, l.size + 1)) * 10.0 ** rng.uniform(
        -250, 250, (2, 8, l.size + 1))
    for fam in (*raw, coeffs.alpha, coeffs.mu, noise[0] + 1j * noise[1]):
        assert fam.dtype == complex
        assert (fam[:, 1:] * inv).tobytes() == (fam[:, 1:] / l).tobytes()


def test_build_holds_little_beyond_its_coefficients(kamke):
    # the identity check and the cleanup's fallback stream over the orders,
    # so the build's largest working array beyond alpha and mu is one float
    # (N+1, m-1) residual table: its peak stays below twice their bytes
    _, data, seed, coeffs = kamke
    limit = 2 * (coeffs.alpha.nbytes + coeffs.mu.nbytes)
    tracemalloc.start()
    try:
        build_coefficients(data, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


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
    sel = data.grid.points >= 0.2
    for n in range(3):
        da = direct_alpha(n, powers, data)[sel]
        ra = coeffs.alpha[n][sel]
        assert np.max(np.abs(da - ra) / np.maximum(np.abs(da), 1e-30)) < 1e-6
        dm = direct_mu(n, powers, seed, data, coeffs.G1, coeffs.G2)[sel]
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
    k2 = problem_cache_key("kamke|m:2001|N:50")
    assert k2 != k1
    # the cache holds the seed, so its integration tolerance counts too
    monkeypatch.setattr(seed_mod, "_RTOL", 1e-12)
    assert problem_cache_key("kamke|m:2001|N:50") not in (k1, k2)


def test_cache_roundtrip(tmp_path, kamke, degenerate):
    # Kamke's seed is the complex combination of a real q, with a complex h;
    # the degenerate seed is real with a real h; a complex q gives a complex
    # seed of its own
    prob = SLProblem(0.0, 1.0, p=lambda y: 1.0,
                     q=lambda y: (1.0 + 0.5j) * np.cos(y),
                     r=lambda y: 1.0)
    data = build_liouville(prob, grid=Grid(0.0, 1.0, 201))
    complex_q = build_coefficients(data, compute_seed(prob, data), N=8)
    assert kamke[3].seed.used_complex_combination
    assert not degenerate[3].seed.used_complex_combination
    assert isinstance(complex_q.seed.h, complex)
    key = problem_cache_key("roundtrip-test")
    path = tmp_path / "c.nsbfc"
    for coeffs in (kamke[3], degenerate[3], complex_q):
        save_coefficients(coeffs, path, key)
        back = load_coefficients(path, key)
        assert type(back.N) is int and back.N == coeffs.N
        assert type(back.N_opt) is int and back.N_opt == coeffs.N_opt
        assert back.grid == coeffs.grid and type(back.grid.m) is int
        for arr in (back.alpha, back.mu, back.G1, back.G2, back.cut_alpha,
                    back.cut_mu, back.report.residuals,
                    back.report.window_start):
            assert not arr.flags.writeable
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
        # the seed comes back bitwise: same dtypes, shapes, bytes and types
        seed, got = coeffs.seed, back.seed
        for a, b in ((got.g, seed.g), (got.g_prime, seed.g_prime)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes() and not a.flags.writeable
        assert type(got.h) is type(seed.h)
        assert np.array(got.h).tobytes() == np.array(seed.h).tobytes()
        assert got.used_complex_combination is seed.used_complex_combination
        assert type(got.min_abs_g) is float
        assert np.float64(got.min_abs_g).tobytes() == \
            np.float64(seed.min_abs_g).tobytes()


def test_cache_refuses_a_non_numeric_field_when_saving(tmp_path, kamke):
    # such a field could not be loaded without pickle, so every later run
    # would miss the cache; the write fails instead and leaves no file
    _, _, seed, coeffs = kamke
    bad = dataclasses.replace(
        coeffs, seed=dataclasses.replace(seed, h="not a number"))
    path = tmp_path / "c.nsbfc"
    with pytest.raises(TypeError, match="seed.h"):
        save_coefficients(bad, path, problem_cache_key("non-numeric"))
    assert not path.exists()


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
    # flipped byte inside the payload: it is stored uncompressed, so the
    # SHA-256 digest after the key is what catches the change
    body = bytearray(raw)
    body[3 * len(raw) // 4] ^= 0xFF
    path.write_bytes(bytes(body))
    with pytest.raises(CacheError):
        load_coefficients(path, key)
    # shorter than magic + version + key + digest: the length check
    header = 8 + 4 + 32 + 32
    assert raw[header:header + 2] == b"PK"  # the archive's start
    path.write_bytes(raw[:header - 1])
    with pytest.raises(CacheError, match=r"^cache file truncated$"):
        load_coefficients(path, key)
    # a payload np.load cannot read, behind its correct digest
    junk = b"not an npz archive"
    path.write_bytes(raw[:header - 32] + hashlib.sha256(junk).digest() + junk)
    with pytest.raises(CacheError, match=r"^corrupted cache payload: ") as exc:
        load_coefficients(path, key)
    assert "SHA-256" not in str(exc.value)
    # missing file
    with pytest.raises(CacheError):
        load_coefficients(tmp_path / "absent.nsbfc", key)


def test_save_validates_key_length(tmp_path, kamke):
    _, _, _, coeffs = kamke
    with pytest.raises(ValueError):
        save_coefficients(coeffs, tmp_path / "c.nsbfc", b"short")
