"""Solution evaluator: basis series, IVP assembly, eigenvalue search."""

import math
import warnings

import numpy as np
import pytest

from nsbf.coefficients import build_coefficients
from nsbf.grid import Grid
from nsbf.liouville import SLProblem, build_liouville
from nsbf.oracles import degenerate_problem, integrate_reference, kamke_problem
from nsbf.seed import compute_seed
from nsbf.solver import DIRICHLET, BoundarySpec, SolutionEvaluator

# Frozen regression anchors for the damped test problem with the Robin
# conditions u(0) - u'(0) = 0, u(2) + u'(2) = 0.
#   [DERIVED] via the shipped reference integrator (independent DOP853
#   shooting at its tolerance floor); the acceptance suite re-derives them
#   live, these digits only pin regressions.
KAMKE_OMEGA_FIRST5 = [
    0.4698139170,
    1.2927807430,
    2.2563288691,
    3.2764927820,
    4.3168043269,
]
KAMKE_CHAR0 = -10.449703348239417
KAMKE_U2_OMEGA52 = -4.899801208374


@pytest.fixture(scope="module")
def kamke_ev():
    prob = kamke_problem()
    data = build_liouville(prob)
    seed = compute_seed(prob, data)
    coeffs = build_coefficients(data, seed)
    return prob, SolutionEvaluator(coeffs, data, seed)


@pytest.fixture(scope="module")
def deg_ev():
    prob = degenerate_problem()
    data = build_liouville(prob, grid=Grid(0.0, math.pi, 1001))
    seed = compute_seed(prob, data)
    coeffs = build_coefficients(data, seed, N=20)
    return prob, SolutionEvaluator(coeffs, data, seed, N=20)


def test_boundary_spec_validation():
    with pytest.raises(ValueError):
        BoundarySpec(0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        BoundarySpec(1.0, 0.0, 0.0, 0.0)
    u0, up0 = BoundarySpec(3.0, 4.0, 1.0, 0.0).initial_values()
    assert u0 == pytest.approx(0.8)
    assert up0 == pytest.approx(-0.6)


def test_evaluator_order_bounds(kamke_ev):
    _, ev = kamke_ev
    assert ev.N_used == ev.coeffs.N_opt
    with pytest.raises(ValueError):
        SolutionEvaluator(ev.coeffs, ev.data, ev.seed, N=ev.coeffs.N + 1)
    with pytest.raises(ValueError):
        SolutionEvaluator(ev.coeffs, ev.data, ev.seed, N=-1)


def test_degenerate_basis_is_cos_sin(deg_ev):
    _, ev = deg_ev
    pts = ev.data.grid.points
    for w in (1.0, 10.0, 100.0):
        v1, v2 = ev.eval_basis(w)
        assert np.max(np.abs(v1 - np.cos(w * pts))) <= 1e-13
        assert np.max(np.abs(v2 - np.sin(w * pts))) <= 1e-13
        v1p, v2p = ev.eval_basis_prime(w)
        assert np.max(np.abs(v1p + w * np.sin(w * pts))) <= 1e-11
        assert np.max(np.abs(v2p - w * np.cos(w * pts))) <= 1e-11


def test_degenerate_wronskian_equals_omega(deg_ev):
    _, ev = deg_ev
    for w in (0.5, 7.0):
        W = ev.wronskian(w)
        assert np.max(np.abs(W - w)) < 1e-12


def test_basis_rejects_omega_zero(deg_ev):
    _, ev = deg_ev
    with pytest.raises(ValueError):
        ev.eval_basis(0.0)


def test_point_evaluation_matches_grid(kamke_ev):
    _, ev = kamke_ev
    pts = ev.data.grid.points[::200]
    v1g, v2g = ev.eval_basis(17.0)
    v1p_, v2p_ = ev.eval_basis(17.0, at=pts)
    assert np.max(np.abs(v1p_ - v1g[::200])) < 1e-10
    assert np.max(np.abs(v2p_ - v2g[::200])) < 1e-10
    # scalar `at` returns scalars (the basis itself is complex here: the
    # damped problem uses a complex seed combination)
    v1s, v2s = ev.eval_basis(17.0, at=float(pts[3]))
    assert np.ndim(v1s) == 0
    assert abs(v1s - v1g[600]) < 1e-10
    assert np.ndim(v2s) == 0


def test_solve_ivp_linearity_and_demotion(kamke_ev):
    _, ev = kamke_ev
    u1, up1 = ev.solve_ivp(52.0, 1.0, 1.0)
    u2, up2 = ev.solve_ivp(52.0, 2.0, 2.0)
    assert u1.dtype == np.float64 and up1.dtype == np.float64
    np.testing.assert_allclose(u2, 2.0 * u1, rtol=0, atol=1e-12 * np.max(np.abs(u1)))
    np.testing.assert_allclose(up2, 2.0 * up1, rtol=0, atol=1e-12 * np.max(np.abs(up1)))
    # complex data keeps complex output
    uc, _ = ev.solve_ivp(52.0, 1.0 + 1.0j, 1.0)
    assert np.iscomplexobj(uc)
    uw, _ = ev.solve_ivp(5.0 + 0.5j, 1.0, 1.0)
    assert np.iscomplexobj(uw)


def test_solve_ivp_initial_conditions_exact(kamke_ev):
    _, ev = kamke_ev
    u, up = ev.solve_ivp(31.0, 2.5, -0.75)
    assert u[0] == pytest.approx(2.5, abs=1e-11)
    assert up[0] == pytest.approx(-0.75, abs=1e-9)


def test_kamke_endpoint_frozen_value(kamke_ev):
    _, ev = kamke_ev
    u, _ = ev.solve_ivp(52.0, 1.0, 1.0)
    assert u[-1] == pytest.approx(KAMKE_U2_OMEGA52, abs=1e-9)


def test_solve_ivp_lambda_zero_degenerate(deg_ev):
    # At lambda = 0 the degenerate solution is the straight line
    # u = u0 + up0 * y, reproduced by the dedicated basis, not the series.
    _, ev = deg_ev
    pts = ev.data.grid.points
    u, up = ev.solve_ivp(0.0, 0.3, 1.7)
    assert np.max(np.abs(u - (0.3 + 1.7 * pts))) < 1e-11
    assert np.max(np.abs(up - 1.7)) < 1e-11


def test_solve_ivp_lambda_zero_kamke_vs_reference(kamke_ev):
    prob, ev = kamke_ev
    u, _ = ev.solve_ivp(0.0, 1.0, 1.0)
    ref = integrate_reference(prob, 0.0, 1.0, 1.0, grid=ev.data.grid)
    assert np.max(np.abs(u - ref.u)) < 1e-9


def test_characteristic_frozen_value(kamke_ev):
    prob, ev = kamke_ev
    delta0 = ev.characteristic(0.0, prob.bc)
    assert delta0.imag == pytest.approx(0.0, abs=1e-10)
    assert delta0.real == pytest.approx(KAMKE_CHAR0, rel=1e-10)


def test_characteristic_batch_matches_scalar_loop(kamke_ev):
    # one batched call per omega family against the scalar calls, including
    # omega = 0, which switches to the lambda = 0 pair inside the batch
    prob, ev = kamke_ev
    for omegas in (
        np.array([0.0, 0.47, 1.3, 5.0, 17.25, 60.0]),
        1j * np.array([0.0, 0.3, 1.1, 2.5]),
        np.array([0.0, 2.0, 0.75j, 3.0 + 0.5j]),
    ):
        batch = ev.characteristic(omegas, prob.bc)
        loop = np.array([ev.characteristic(w, prob.bc) for w in omegas])
        assert batch.shape == omegas.shape
        assert np.max(np.abs(batch - loop)) <= 1e-12 * np.max(np.abs(loop))
    zeros = ev.characteristic(np.zeros(3), prob.bc)
    assert zeros.shape == (3,)
    assert np.all(zeros == ev.characteristic(0.0, prob.bc))
    assert isinstance(ev.characteristic(1.5, prob.bc), complex)


def test_barrier_search_rescans_and_grows():
    # A strong barrier leaves the first scan with no root at all, so the
    # search takes the Weyl re-scan and the count-growth paths.  The values
    # are not asserted: a single interval cannot resolve this potential
    # (the reference spectrum starts 42.82, 42.88).
    prob = SLProblem(
        0.0, math.pi, p=lambda y: 1.0,
        q=lambda y: 400.0 * np.exp(-50.0 * (y - 0.5 * math.pi) ** 2),
        r=lambda y: 1.0,
    )
    data = build_liouville(prob, grid=Grid(0.0, math.pi, 2001))
    seed = compute_seed(prob, data)
    ev = SolutionEvaluator(build_coefficients(data, seed), data, seed)
    with pytest.warns(UserWarning, match="re-scanning"):
        res = ev.find_eigenvalues(DIRICHLET, count_hint=6)
    assert [r.k for r in res] == [1, 2, 3, 4, 5, 6]
    lams = [r.lam for r in res]
    assert all(a < b for a, b in zip(lams, lams[1:]))


def test_degenerate_dirichlet_spectrum(deg_ev):
    _, ev = deg_ev
    res = ev.find_eigenvalues(DIRICHLET, count_hint=6)
    assert [r.k for r in res] == [1, 2, 3, 4, 5, 6]
    for r in res:
        assert r.lam == pytest.approx(r.k**2, abs=1e-10)
        assert r.char_residual < 1e-10
        assert r.omega == pytest.approx(r.k, abs=1e-11)


def test_degenerate_neumann_includes_lambda_zero(deg_ev):
    # u'(0) = u'(pi) = 0 has the constant eigenfunction at lambda = 0.
    _, ev = deg_ev
    res = ev.find_eigenvalues(BoundarySpec(0.0, 1.0, 0.0, 1.0), count_hint=4)
    assert res[0].omega == 0.0
    assert res[0].lam == 0.0
    for r in res[1:]:
        assert r.lam == pytest.approx((r.k - 1) ** 2, abs=1e-10)


def test_degenerate_omega_max_variant(deg_ev):
    _, ev = deg_ev
    res = ev.find_eigenvalues(DIRICHLET, omega_max=4.5)
    assert [round(r.omega) for r in res] == [1, 2, 3, 4]


def test_negative_eigenvalue_robin(deg_ev):
    # u'' = -lambda u with u'(0) = u(0) and u'(pi) = u(pi): the exponential
    # e^y satisfies both conditions at lambda = -1.
    _, ev = deg_ev
    bc = BoundarySpec(1.0, -1.0, 1.0, -1.0)
    neg = ev.find_negative_eigenvalues(bc, lambda_floor=-16.0)
    assert len(neg) == 1
    assert neg[0].lam == pytest.approx(-1.0, abs=1e-11)
    assert neg[0].k == -1
    assert neg[0].omega == pytest.approx(1.0, abs=1e-11)
    # positive part of the same spectrum stays k^2
    pos = ev.find_eigenvalues(bc, count_hint=3)
    for r in pos:
        assert r.lam == pytest.approx(r.k**2, abs=1e-9)
    # an off-node variant exercises the bracket refinement: with
    # u'(pi) = u(pi)/0.9 the root solves tanh(t pi) = 0.1 t/(0.9 t^2 - 1)
    bc2 = BoundarySpec(1.0, -1.0, 1.0, -0.9)
    neg2 = ev.find_negative_eigenvalues(bc2, lambda_floor=-16.0)
    assert len(neg2) == 1
    t = neg2[0].omega
    assert neg2[0].refinement_iterations > 0
    closed = 0.1 * math.cosh(t * math.pi) + (1.0 / t - 0.9 * t) * math.sinh(
        t * math.pi
    )
    assert abs(closed) < 1e-8 * math.cosh(t * math.pi)


def test_negative_search_stays_in_range_on_deep_well():
    # A deep, narrow well makes Delta(i t) steep and badly scaled (the
    # identity floor is ~2.5e4, so the values themselves are not trusted
    # here); the refinement must still keep every root inside the scanned
    # range instead of following a secant step out of its bracket.
    prob = SLProblem(
        0.0, math.pi, p=lambda y: 1.0,
        q=lambda y: -2000.0 * np.exp(-50.0 * (y - 0.5 * math.pi) ** 2),
        r=lambda y: 1.0,
    )
    data = build_liouville(prob, grid=Grid(0.0, math.pi, 2001))
    seed = compute_seed(prob, data)
    ev = SolutionEvaluator(build_coefficients(data, seed), data, seed)
    neg = ev.find_negative_eigenvalues(DIRICHLET, lambda_floor=-2500.0)
    assert neg
    assert all(-2500.0 <= r.lam < 0.0 for r in neg)
    assert [r.k for r in neg] == [-(i + 1) for i in range(len(neg))]


def test_negative_search_validates_floor(deg_ev):
    _, ev = deg_ev
    with pytest.raises(ValueError):
        ev.find_negative_eigenvalues(DIRICHLET, lambda_floor=1.0)


def test_kamke_robin_first_eigenvalues(kamke_ev):
    prob, ev = kamke_ev
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clean search must not warn
        res = ev.find_eigenvalues(prob.bc, count_hint=5)
    for r, w_ref in zip(res, KAMKE_OMEGA_FIRST5):
        assert r.omega == pytest.approx(w_ref, abs=2e-9)


def test_eigen_search_needs_range(deg_ev):
    _, ev = deg_ev
    with pytest.raises(ValueError):
        ev.find_eigenvalues(DIRICHLET)


def test_complex_problem_rejects_eigen_search():
    prob = SLProblem(
        0.0, 1.0, p=lambda y: 1.0, q=lambda y: 1j * y, r=lambda y: 1.0
    )
    data = build_liouville(prob, grid=Grid(0.0, 1.0, 501))
    seed = compute_seed(prob, data)
    coeffs = build_coefficients(data, seed, N=12)
    ev = SolutionEvaluator(coeffs, data, seed, N=12)
    assert not ev.is_real_problem
    with pytest.raises(ValueError):
        ev.find_eigenvalues(DIRICHLET, count_hint=2)
    with pytest.raises(ValueError):
        ev.find_negative_eigenvalues(DIRICHLET, lambda_floor=-1.0)
    # complex IVP evaluation itself still works
    u, _ = ev.solve_ivp(3.0, 1.0, 0.0)
    assert np.iscomplexobj(u)
    assert u[0] == pytest.approx(1.0, abs=1e-10)
