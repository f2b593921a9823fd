"""The package's DOP853 against scipy's, which it reproduces float for float."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau

from nsbf import dop853
from nsbf import seed as seed_mod
from nsbf.errors import SeedError
from nsbf.grid import Grid
from nsbf.liouville import SLProblem, build_liouville
from nsbf.oracles import degenerate_problem, kamke_problem, random_smooth_problem


def complex_q_problem():
    return SLProblem(0.0, 1.0, p=lambda y: 1.0,
                     q=lambda y: (1.0 + 2.0j) * np.cos(y), r=lambda y: 1.0)


def barrier_problem():
    return SLProblem(0.0, np.pi, p=lambda y: 1.0,
                     q=lambda y: 400.0 * np.exp(-50.0 * (y - np.pi / 2) ** 2),
                     r=lambda y: 1.0)


PROBLEMS = {
    "kamke": kamke_problem,
    "degenerate": degenerate_problem,
    "complex_q": complex_q_problem,
    "barrier": barrier_problem,
    **{f"random{k}": (lambda k=k: random_smooth_problem(k)) for k in range(16)},
}


def homogeneous_rhs(problem):
    """(v, p v') for two solutions of (p v')' = q v, as the seed integrates."""
    p, q = problem.p, problem.q

    def rhs(y, s):
        py, qy = p(y), q(y)
        return [s[1] / py, qy * s[0], s[3] / py, qy * s[2]]

    return rhs


def scipy_dop853(fun, t_span, y0, t_eval, tol):
    return solve_ivp(fun, t_span, y0, method="DOP853", t_eval=t_eval,
                     rtol=tol, atol=tol)


def test_tableau_is_scipys_bit_for_bit():
    for name in ("A", "B", "C", "E3", "E5", "D"):
        ours, theirs = getattr(dop853, name), getattr(scipy_tableau, name)
        assert ours.shape == theirs.shape, name
        assert ours.dtype == theirs.dtype, name
        assert ours.tobytes() == theirs.tobytes(), name
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(dop853, name) == getattr(scipy_tableau, name), name


@pytest.mark.parametrize("m", [201, 2001, 8001])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_integrate_equals_solve_ivp(name, m):
    problem = PROBLEMS[name]()
    rhs = homogeneous_rhs(problem)
    pts = Grid(problem.a, problem.b, m).points
    real_q = name != "complex_q"
    kinds = (float, complex) if real_q else (complex,)
    tol = 1e-10 if m == 201 else 1e-13
    for dtype in kinds:
        y0 = np.array([1.0, 0.0, 0.0, 1.0], dtype=dtype)
        ok, message, y = dop853.integrate(
            rhs, (problem.a, problem.b), y0, pts, rtol=tol, atol=tol
        )
        ref = scipy_dop853(rhs, (problem.a, problem.b), y0, pts, tol)
        assert ok and ref.success and message is None
        assert y.dtype == ref.y.dtype == np.dtype(dtype)
        assert np.array_equal(y, ref.y), (name, m, dtype)


def test_integrate_casts_the_rhs_to_the_state_type():
    # an integer or list-valued right-hand side is cast as scipy casts it
    def rhs(t, y):
        return [int(round(10 * t)), -y[0]]

    pts = np.linspace(0.0, 2.0, 21)
    for y0 in ([1.0, 0.0], [1.0 + 1.0j, 0.5j]):
        ok, _, y = dop853.integrate(rhs, (0.0, 2.0), y0, pts, 1e-9, 1e-12)
        ref = solve_ivp(rhs, (0.0, 2.0), y0, method="DOP853", t_eval=pts,
                        rtol=1e-9, atol=1e-12)
        assert ok and np.array_equal(y, ref.y) and y.dtype == ref.y.dtype


def nan_past_half(y):
    """q = 1, but NaN at single points past y = 0.5: finite on every
    sampled grid (an array argument), so only the integrator meets it."""
    if np.ndim(y):
        return np.ones_like(y)
    return 1.0 if y <= 0.5 else np.nan


def test_nan_rhs_fails_as_in_scipy():
    problem = SLProblem(0.0, 1.0, p=lambda y: 1.0, q=nan_past_half,
                        r=lambda y: 1.0)
    rhs = homogeneous_rhs(problem)
    pts = Grid(0.0, 1.0, 201).points
    y0 = np.array([1.0, 0.0, 0.0, 1.0])
    ok, message, y = dop853.integrate(rhs, (0.0, 1.0), y0, pts, 1e-13, 1e-13)
    ref = scipy_dop853(rhs, (0.0, 1.0), y0, pts, 1e-13)
    assert not ok and not ref.success
    assert message == ref.message == dop853.TOO_SMALL_STEP
    # the points passed before the failure, as scipy returns them
    assert 0 < y.shape[1] < pts.size
    assert np.array_equal(y, ref.y)

    data = build_liouville(problem, grid=Grid(0.0, 1.0, 201))
    with pytest.raises(SeedError, match="homogeneous integration failed: "
                       "Required step size"):
        seed_mod.compute_seed(problem, data)


def test_non_finite_start_fails_at_once():
    # scipy's initial-step estimate is NaN for this right-hand side and its
    # step loop never ends; integrate reports it before the first step
    def rhs(t, y):
        return [np.nan, y[0]]

    ok, message, y = dop853.integrate(rhs, (0.0, 1.0), [1.0, 0.0],
                                      np.linspace(0.0, 1.0, 5), 1e-10, 1e-10)
    assert not ok and "not finite" in message and y.shape == (2, 0)


def test_seed_honours_the_tolerance_constant(monkeypatch):
    # compute_seed reads seed._RTOL when it runs, so a patched value (as in
    # the cache-key test) reaches the integrator
    problem = kamke_problem()
    data = build_liouville(problem, grid=Grid(problem.a, problem.b, 201))
    default = seed_mod.compute_seed(problem, data)
    monkeypatch.setattr(seed_mod, "_RTOL", 1e-8)
    loose = seed_mod.compute_seed(problem, data)
    y0 = np.array([1.0, 0.0, 0.0, 1.0])
    ref = scipy_dop853(homogeneous_rhs(problem), (problem.a, problem.b), y0,
                       data.grid.points, 1e-8)
    g1, w1, g2, w2 = ref.y
    g1[0], g2[0] = 1.0, 0.0
    assert np.array_equal(loose.g, g1 + 1j * g2)
    assert not np.array_equal(loose.g, default.g)


def test_integrate_rejects_what_it_does_not_support():
    rhs = homogeneous_rhs(kamke_problem())
    y0 = np.array([1.0, 0.0, 0.0, 1.0])
    pts = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="forward"):
        dop853.integrate(rhs, (1.0, 0.0), y0, pts[::-1], 1e-10, 1e-10)
    with pytest.raises(ValueError, match="t_eval"):
        dop853.integrate(rhs, (0.0, 0.5), y0, pts, 1e-10, 1e-10)
    with pytest.raises(ValueError, match="rtol"):
        dop853.integrate(rhs, (0.0, 1.0), y0, pts, 1e-16, 1e-16)
    with pytest.raises(ValueError, match="finite"):
        dop853.integrate(rhs, (0.0, 1.0), y0 * np.nan, pts, 1e-10, 1e-10)
