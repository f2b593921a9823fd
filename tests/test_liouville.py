"""Liouville transformation: l(y), rho, transformed potential Q."""

import dataclasses
import math

import numpy as np
import pytest

from nsbf.errors import GridError, PositivityError
from nsbf.grid import Grid, differentiate
from nsbf.liouville import SLProblem, build_liouville
from nsbf.oracles import degenerate_problem, kamke_problem

# Transformed length of the damped test problem, integral of sqrt(r/p)
# = sqrt(y^2 + 1) over [0, 2]:
#   [DERIVED] closed form (x sqrt(1+x^2) + asinh x)/2 at x = 2.
KAMKE_B = (2.0 * math.sqrt(5.0) + math.asinh(2.0)) / 2.0


def test_degenerate_transform_is_identity():
    data = build_liouville(degenerate_problem())
    np.testing.assert_allclose(data.l, data.grid.points, atol=1e-14)
    assert data.b == pytest.approx(math.pi, abs=1e-13)
    np.testing.assert_allclose(data.rho, 1.0, atol=0)
    np.testing.assert_allclose(data.rho_prime, 0.0, atol=0)
    np.testing.assert_allclose(data.Q, 0.0, atol=0)


def test_kamke_transformed_length():
    data = build_liouville(kamke_problem())
    assert data.b == pytest.approx(KAMKE_B, abs=1e-12)
    # frozen digits guard against silent quadrature regressions
    assert data.b == pytest.approx(2.957885715089195, abs=1e-12)


def test_kamke_potential_endpoint():
    # Q(l(0)) for the damped problem: q/r + bracket term; at y = 0 the
    # closed form gives 1/2.
    #   [DERIVED] by hand from p = e^{-2y}, q = -e^{-2y}, r = (y^2+1)e^{-2y}:
    #   q/r = -1, lp = -2, lr = 2y/(y^2+1) - 2; at 0: dsum = 2, bracket = 6,
    #   Q(0) = -1 + (1/4)*6 = 1/2.
    data = build_liouville(kamke_problem())
    assert data.Q[0] == pytest.approx(0.5, abs=1e-9)


def _second_form_potential(data):
    """Q via q/r - (rho/r) [p (1/rho)']', algebraically different from the
    logarithmic-derivative form the package computes."""
    rho = data.rho
    inv_rho_prime = -data.rho_prime / (rho * rho)
    inner = differentiate(data.p_s * inv_rho_prime, data.grid.h)
    return data.q_s / data.r_s - (rho / data.r_s) * inner


def test_potential_forms_agree():
    # Two algebraically different expressions for Q must agree to
    # discretization error on a smooth problem.
    data = build_liouville(kamke_problem())
    assert np.max(np.abs(_second_form_potential(data) - data.Q)) < 1e-6


def test_finite_difference_fallback_matches_analytic_primes():
    # Dropping the analytic p'/r' must reproduce rho' and Q to the accuracy
    # of the interior finite-difference stencils.
    prob = kamke_problem()
    fd_prob = SLProblem(
        a=prob.a, b=prob.b, p=prob.p, q=prob.q, r=prob.r, name="kamke-fd"
    )
    exact = build_liouville(prob)
    approx = build_liouville(fd_prob)
    assert np.max(np.abs(exact.rho_prime - approx.rho_prime)) < 1e-8
    assert np.max(np.abs(exact.Q - approx.Q)) < 1e-5


def test_positivity_is_enforced():
    bad_p = SLProblem(0.0, 1.0, p=lambda y: y - 0.5, q=lambda y: 0.0, r=lambda y: 1.0)
    with pytest.raises(PositivityError) as info:
        build_liouville(bad_p)
    assert info.value.name == "p"
    bad_r = SLProblem(
        0.0, 1.0, p=lambda y: 1.0, q=lambda y: 0.0, r=lambda y: -1.0
    )
    with pytest.raises(PositivityError) as info:
        build_liouville(bad_r)
    assert info.value.name == "r"
    complex_p = SLProblem(
        0.0, 1.0, p=lambda y: 1.0 + 1j * y, q=lambda y: 0.0, r=lambda y: 1.0
    )
    with pytest.raises(PositivityError):
        build_liouville(complex_p)


def test_complex_q_is_allowed():
    prob = SLProblem(
        0.0, 1.0, p=lambda y: 1.0, q=lambda y: 1j * y, r=lambda y: 1.0
    )
    data = build_liouville(prob)
    assert data.q_s.dtype == np.complex128
    assert data.Q.dtype == np.complex128


def test_complex_typed_real_q_is_real():
    # a complex-typed q with zero imaginary part samples as float64, and
    # gives the same transform as the real q
    prob = kamke_problem()
    typed = build_liouville(dataclasses.replace(prob, q=lambda y: prob.q(y) + 0j))
    real = build_liouville(prob)
    for name in ("q_s", "Q"):
        assert getattr(typed, name).dtype == np.float64
        np.testing.assert_array_equal(getattr(typed, name), getattr(real, name))


def test_samples_are_read_only_and_frozen():
    data = build_liouville(kamke_problem())
    for name in ("l", "rho", "rho_prime", "sqrt_r_over_p", "Q", "p_s", "q_s",
                 "r_s"):
        with pytest.raises(ValueError):
            getattr(data, name)[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.Q = data.q_s


def test_misshapen_samples_are_refused():
    # a q that returns two values per point fails vectorized and pointwise
    two = SLProblem(0.0, 1.0, p=lambda y: 1.0, r=lambda y: 1.0,
                    q=lambda y: np.stack([np.cos(y), np.sin(y)], axis=-1))
    with pytest.raises(GridError, match="q samples have shape"):
        build_liouville(two, grid=Grid(0.0, 1.0, 11))


def test_grid_interval_mismatch_rejected():
    prob = degenerate_problem()
    with pytest.raises(GridError):
        build_liouville(prob, grid=Grid(0.0, 1.0, 201))


def test_transformed_variable_must_increase():
    # l(y), the cumulative integral of sqrt(r/p), is refused where it does
    # not increase: a spike of r at one node of a small background r gives
    # the integration rule's negative weights next to it the upper hand
    grid = Grid(0.0, 1.0, 201)
    spike = grid.points[100]
    prob = SLProblem(0.0, 1.0, p=lambda y: 1.0, q=lambda y: 0.0,
                     r=lambda y: np.where(y == spike, 1.0, 1e-12))
    with pytest.raises(GridError, match="l.y. is not strictly increasing"):
        build_liouville(prob, grid=grid)


def test_scalar_only_coefficients_are_sampled_point_by_point():
    # coefficients written with math functions fail on the grid's array,
    # so each is sampled one node at a time: the data equal those of the
    # numpy twins up to rounding, which the finite differences behind
    # rho' and Q amplify by 1/h and 1/h^2
    def kamke(exp):
        return SLProblem(0.0, 2.0, p=lambda y: exp(-2.0 * y),
                         q=lambda y: -exp(-2.0 * y),
                         r=lambda y: (y * y + 1.0) * exp(-2.0 * y))

    calls = []

    def scalar_exp(x):
        calls.append(type(x))
        return math.exp(x)

    grid = Grid(0.0, 2.0, 401)
    scalar = build_liouville(kamke(scalar_exp), grid=grid)
    vector = build_liouville(kamke(np.exp), grid=grid)
    # per coefficient one failed call on the array, then one per node
    assert calls.count(np.ndarray) == 3
    assert len(calls) == 3 * (1 + grid.m)
    assert scalar.b == pytest.approx(vector.b, rel=1e-15)
    for field in dataclasses.fields(vector):
        if field.name in ("grid", "b"):
            continue
        got, want = getattr(scalar, field.name), getattr(vector, field.name)
        assert got.dtype == want.dtype == np.float64
        assert not got.flags.writeable
        atol = 1e-9 if field.name in ("rho_prime", "Q") else 0.0
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=atol,
                                   err_msg=field.name)
