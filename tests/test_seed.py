"""Seed solution of the homogeneous equation and formal power ladders."""

import math

import numpy as np
import pytest

from nsbf.grid import Grid
from nsbf.liouville import SLProblem, build_liouville
from nsbf.oracles import degenerate_problem, kamke_problem
from nsbf.seed import compute_seed, formal_powers, seed_residual


@pytest.fixture(scope="module")
def kamke_setup():
    prob = kamke_problem()
    data = build_liouville(prob)
    return prob, data, compute_seed(prob, data)


def test_degenerate_seed_is_constant_one():
    prob = degenerate_problem()
    data = build_liouville(prob)
    seed = compute_seed(prob, data)
    # (g')' = 0 with g(0) = 1/rho(0) = 1, g'(0) = 0 gives g = 1, h = 0.
    np.testing.assert_allclose(seed.g, 1.0, atol=1e-13)
    np.testing.assert_allclose(seed.g_prime, 0.0, atol=1e-13)
    assert seed.h == 0
    assert not seed.used_complex_combination


def test_kamke_seed_closed_form(kamke_setup):
    # (e^{-2y} g')' = -e^{-2y} g admits g = (1 + (i-1) y) e^y; with
    # g(0) = 1/rho(0) = 1 this complex combination is zero-free while every
    # real solution of the same equation oscillates through zero.
    _, data, seed = kamke_setup
    y = data.grid.points
    exact = (1.0 + (1j - 1.0) * y) * np.exp(y)
    assert seed.used_complex_combination
    assert np.max(np.abs(seed.g - exact)) < 1e-10
    exact_prime = (1j + (1j - 1.0) * y) * np.exp(y)
    assert np.max(np.abs(seed.g_prime - exact_prime)) < 1e-10
    # h = sqrt(p(0)/r(0)) (g'(0)/g(0) + rho'(0)/rho(0)) = i + (-1) = i - 1
    assert seed.h == pytest.approx(1j - 1.0, abs=1e-12)
    assert seed.min_abs_g > 0.5


def test_seed_residual_small(kamke_setup):
    _, data, seed = kamke_setup
    assert seed_residual(seed, data) < 1e-9


def test_seed_arrays_are_read_only(kamke_setup):
    _, _, seed = kamke_setup
    for vals in (seed.g, seed.g_prime):
        assert vals.dtype == np.complex128
        with pytest.raises(ValueError):
            vals[0] = 0.0


def test_real_seed_preferred_when_zero_free():
    # q = +1 case: (g')' = g has the zero-free solution cosh, no complex
    # combination needed.
    prob = SLProblem(
        0.0, 1.0, p=lambda y: 1.0, q=lambda y: 1.0, r=lambda y: 1.0
    )
    data = build_liouville(prob, grid=Grid(0.0, 1.0, 501))
    seed = compute_seed(prob, data)
    assert not seed.used_complex_combination
    assert np.max(np.abs(seed.g - np.cosh(data.grid.points))) < 1e-12
    assert seed.h == pytest.approx(0.0, abs=1e-13)


def test_complex_typed_real_q_takes_the_real_path():
    # A q that returns complex values with zero imaginary part is a real
    # problem: it samples to a real q_s and gets the same seed as its
    # real-typed form.
    def build(q):
        prob = SLProblem(0.0, 1.0, p=lambda y: 1.0, q=q, r=lambda y: 1.0)
        data = build_liouville(prob, grid=Grid(0.0, 1.0, 501))
        return compute_seed(prob, data)

    real = build(lambda y: 1.0 + 0.5 * np.cos(y))
    typed = build(lambda y: (1.0 + 0j) * (1.0 + 0.5 * np.cos(y)))
    assert not typed.used_complex_combination
    assert np.array_equal(typed.g, real.g)
    assert np.array_equal(typed.g_prime, real.g_prime)


def test_complex_combination_rescues_oscillatory_case():
    # q = -1: both real fundamental solutions (cos, sin) vanish inside
    # [0, pi], but the combination cos + i sin = e^{iy} is zero-free with
    # |g| = 1, so the seed must switch to it rather than fail.
    prob = SLProblem(
        0.0,
        math.pi,
        p=lambda y: 1.0,
        q=lambda y: -1.0,
        r=lambda y: 1.0,
    )
    data = build_liouville(prob, grid=Grid(0.0, math.pi, 501))
    seed = compute_seed(prob, data)
    assert seed.used_complex_combination
    assert seed.min_abs_g == pytest.approx(1.0, abs=1e-10)
    y = data.grid.points
    assert np.max(np.abs(seed.g - np.exp(1j * y))) < 1e-11


def test_degenerate_formal_powers_are_monomials():
    prob = degenerate_problem()
    data = build_liouville(prob)
    seed = compute_seed(prob, data)
    powers = formal_powers(seed, data, 4)
    y = data.grid.points
    for k in range(5):
        assert np.max(np.abs(powers.Phi[k] - y**k)) < 1e-10 * max(
            1.0, math.pi**k
        )
        assert np.max(np.abs(powers.Psi[k] - y**k)) < 1e-10 * max(
            1.0, math.pi**k
        )


def test_kamke_first_formal_power_endpoint(kamke_setup):
    # Phi_1(y) = g(y) * int_0^y dy / (p g^2); for the closed-form seed this
    # evaluates at y = 2 to 2 e^2.
    #   [DERIVED] 1/(p g^2) = e^{2y} / ((1+(i-1)y)^2 e^{2y}) = (1+(i-1)y)^{-2};
    #   antiderivative y/(1+(i-1)y); Phi_1(2) = (1+(i-1)2) e^2 * 2/(1+(i-1)2)
    #   = 2 e^2.
    _, data, seed = kamke_setup
    powers = formal_powers(seed, data, 1)
    end = complex(powers.Phi[1][-1])
    assert end == pytest.approx(2.0 * math.e**2, abs=1e-8)


def test_formal_power_overflow_guard():
    prob = degenerate_problem()
    data = build_liouville(prob)
    seed = compute_seed(prob, data)
    with pytest.raises(OverflowError):
        formal_powers(seed, data, 400)
    with pytest.raises(ValueError):
        formal_powers(seed, data, -1)
