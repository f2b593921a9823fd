"""Reference integrator, closed-form solution, and shooting eigenvalues.

These routes are deliberately independent of the series machinery; the
tests here pin their documented contracts and a few frozen values so the
cross-checks in the acceptance suite rest on a verified foundation.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from nsbf.errors import OracleError, PositivityError
from nsbf.grid import Grid
from nsbf.liouville import SLProblem, build_liouville
from nsbf.oracles import (
    degenerate_problem,
    exact_kamke_solution,
    integrate_reference,
    kamke_problem,
    random_smooth_problem,
    reference_eigenvalues,
)
from nsbf.solver import DIRICHLET, BoundarySpec

# Frozen endpoint values for the damped test problem.
#   [DERIVED] closed-form confluent-hypergeometric solution evaluated in
#   extended precision (exact_kamke_solution); the integrator reproduces
#   them independently.
U2_OMEGA52 = -4.899801208374
U1_OMEGA52 = -2.285625428479
U2_COMPLEX = -6.7469610514 - 8.2381513293j

# Neumann eigenvalues k = 160..171 of the damped test problem.
#   [DERIVED] bench/reference.json: shooting roots secant-polished on the
#   reference integrator at its tolerance floor.
KAMKE_NEUMANN_160_171 = [
    28878.269039353723, 29240.380272847975, 29604.747651099362,
    29971.371174107866, 30340.25084187349, 30711.386654396232,
    31084.778611676087, 31460.426713713045, 31838.33096050712,
    32218.491352058296, 32600.907888366582, 32985.58056943197,
]

# What oracles.py may take from the package besides its errors: the grid
# and problem types and the boundary conditions, nothing of the series path.
ORACLE_IMPORTS = {
    "grid": {"Grid", "DEFAULT_M"},
    "liouville": {"SLProblem"},
    "solver": {"BoundarySpec"},
}


def test_degenerate_cosine():
    # u'' = -u with u(0) = 1, u'(0) = 0 on [0, pi] is cos y.
    prob = degenerate_problem()
    ref = integrate_reference(prob, 1.0, 1.0, 0.0, tol=1e-13)
    assert np.max(np.abs(ref.u - np.cos(ref.grid.points))) <= 1e-12
    assert np.max(np.abs(ref.uprime + np.sin(ref.grid.points))) <= 1e-12
    assert ref.method == "DOP853"
    assert ref.grid.m == 2001


def test_linearity():
    prob = kamke_problem()
    lam = 52.0**2
    r1 = integrate_reference(prob, lam, 1.0, 1.0)
    r2 = integrate_reference(prob, lam, 2.0, 2.0)
    scale = np.max(np.abs(r1.u))
    assert np.max(np.abs(r2.u - 2.0 * r1.u)) < 1e-10 * scale


def test_endpoint_consistency_invariant():
    # The reported solution must be stable under tolerance halving: the
    # endpoint moves by at most 10x the tolerance actually used.
    prob = kamke_problem()
    for lam in (52.0**2, 210.0**2):
        ref = integrate_reference(prob, lam, 1.0, 1.0)
        assert np.isfinite(ref.endpoint_shift)
        assert ref.endpoint_shift <= 10.0 * ref.tol
        assert ref.tol <= 1e-12  # never looser than requested


def test_tolerance_validation():
    prob = degenerate_problem()
    with pytest.raises(ValueError):
        integrate_reference(prob, 1.0, 1.0, 0.0, tol=1e-15)


def test_frozen_endpoints():
    prob = kamke_problem()
    r = integrate_reference(prob, 52.0**2, 1.0, 1.0)
    assert r.u[-1] == pytest.approx(U2_OMEGA52, abs=1e-9)
    rc = integrate_reference(prob, (5.0 + 0.5j) ** 2, 1.0, 1.0)
    assert complex(rc.u[-1]) == pytest.approx(U2_COMPLEX, abs=1e-8)
    assert np.iscomplexobj(rc.u)


def test_exact_solution_initial_values():
    u0, up0 = exact_kamke_solution(52.0, 0.0, derivative=True)
    assert u0 == pytest.approx(1.0, abs=1e-14)
    assert up0 == pytest.approx(1.0, abs=1e-12)


def test_exact_solution_omega_zero_is_exponential():
    y = np.linspace(0.0, 2.0, 9)
    u = exact_kamke_solution(0.0, y)
    np.testing.assert_allclose(u.real, np.exp(y), rtol=1e-13)
    _, up = exact_kamke_solution(0.0, y, derivative=True)
    np.testing.assert_allclose(up.real, np.exp(y), rtol=1e-12)


def test_exact_solution_matches_integration():
    prob = kamke_problem()
    ref = integrate_reference(prob, 52.0**2, 1.0, 1.0)
    # stay under the |y^2 omega| <= 200 closed-form cap
    mask = 52.0 * ref.grid.points**2 <= 200.0
    sel = ref.grid.points[mask][::100]
    exact = exact_kamke_solution(52.0, sel)
    ui = ref.u[mask][::100]
    assert np.max(np.abs(exact.real - ui)) <= 1e-8
    assert exact_kamke_solution(52.0, 1.0).real == pytest.approx(
        U1_OMEGA52, abs=1e-9
    )


def test_exact_solution_derivative_against_differences():
    h = 1e-6
    for w in (3.0, 52.0):
        _, up = exact_kamke_solution(w, 1.0, derivative=True)
        fd = (
            exact_kamke_solution(w, 1.0 + h) - exact_kamke_solution(w, 1.0 - h)
        ) / (2 * h)
        assert abs(up - fd) < 1e-6 * max(1.0, abs(up))


def test_exact_solution_argument_cap():
    with pytest.raises(ValueError, match="integrate_reference"):
        exact_kamke_solution(1000.0, 2.0)


def test_reference_eigenvalues_degenerate_dirichlet():
    lams = reference_eigenvalues(degenerate_problem(), DIRICHLET, 10)
    ks = np.arange(1, 11)
    assert np.max(np.abs(np.asarray(lams) - ks**2)) <= 1e-10


def test_reference_eigenvalues_kamke_frozen():
    prob = kamke_problem()
    lams = np.asarray(reference_eigenvalues(prob, prob.bc, 50))
    omegas = np.sqrt(lams)
    assert omegas[0] == pytest.approx(0.4698139170, abs=1e-8)
    assert omegas[49] == pytest.approx(52.048980783574, abs=1e-7)
    # separation precondition holds with margin
    data = build_liouville(prob)
    assert np.min(np.diff(omegas)) >= 0.5 * np.pi / data.b


def test_reference_eigenvalues_resolve_high_roots():
    # The roots themselves, without a polish, meet the tolerances that the
    # acceptance suite holds the series path to (1e-9 absolute, 1e-12
    # relative).  At k = 160..171 a refinement that takes its signs at the
    # scan tolerance lands up to 3.3e-6 off.
    neumann = BoundarySpec(0.0, 1.0, 0.0, 1.0)
    lams = reference_eigenvalues(kamke_problem(), neumann, 171)
    got = np.asarray(lams[159:])
    ref = np.asarray(KAMKE_NEUMANN_160_171)
    assert np.max(np.abs(got - ref)) <= 1e-9
    assert np.max(np.abs(got - ref) / ref) <= 1e-12


def test_oracles_share_no_code_with_the_series_path():
    # Every import of the module, function-level ones included: agreement
    # with the oracles is evidence only while they stay independent.
    import nsbf.oracles

    tree = ast.parse(Path(nsbf.oracles.__file__).read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            taken |= {(a.name.removeprefix("nsbf").lstrip("."), "*")
                      for a in node.names if a.name.split(".")[0] == "nsbf"}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "nsbf":
                    continue
                module = module.removeprefix("nsbf").lstrip(".")
            taken |= {(module, a.name) for a in node.names}
    assert ("solver", "BoundarySpec") in taken  # the walk sees nested imports
    foreign = {(m, n) for m, n in taken
               if m != "errors" and n not in ORACLE_IMPORTS.get(m, ())}
    assert not foreign


def test_reference_eigenvalues_tolerance_stability():
    prob = kamke_problem()
    a = np.asarray(reference_eigenvalues(prob, prob.bc, 12, tol=1e-12))
    b = np.asarray(reference_eigenvalues(prob, prob.bc, 12, tol=5e-13))
    assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))) <= 1e-11


def test_reference_eigenvalues_validation():
    prob = degenerate_problem()
    with pytest.raises(ValueError):
        reference_eigenvalues(prob, DIRICHLET, 201)
    complex_prob = SLProblem(
        0.0, 1.0, p=lambda y: 1.0, q=lambda y: 1j * y, r=lambda y: 1.0
    )
    with pytest.raises(ValueError):
        reference_eigenvalues(complex_prob, DIRICHLET, 3)


def test_integrator_rejects_bad_problem():
    # refused on the sampled nodes, before the integrator starts
    bad = SLProblem(
        0.0, 1.0, p=lambda y: y - 0.5, q=lambda y: 0.0, r=lambda y: 1.0
    )
    with pytest.raises(
        PositivityError,
        match=r"^p must be strictly positive; p\(y=0\.0\) = -0\.5 at node 0$",
    ):
        integrate_reference(bad, 1.0, 1.0, 0.0)
    bad_r = SLProblem(
        0.0, 1.0, p=lambda y: 1.0, q=lambda y: 0.0, r=lambda y: 0.5 - y
    )
    with pytest.raises(
        PositivityError,
        match=r"^r must be strictly positive; r\(y=0\.5\) = 0\.0 at node 4096$",
    ):
        reference_eigenvalues(bad_r, DIRICHLET, 3)


def test_custom_grid_respected():
    prob = degenerate_problem()
    g = Grid(0.0, math.pi, 501)
    ref = integrate_reference(prob, 9.0, 0.0, 1.0, grid=g)
    assert ref.grid == g
    exact = np.sin(3.0 * g.points) / 3.0
    assert np.max(np.abs(ref.u - exact)) < 1e-11


def test_kamke_problem_carries_robin_bc():
    prob = kamke_problem()
    assert isinstance(prob.bc, BoundarySpec)
    assert (prob.bc.a1, prob.bc.a2, prob.bc.b1, prob.bc.b2) == (
        1.0,
        -1.0,
        1.0,
        1.0,
    )
    assert prob.name == "kamke"


def test_random_problem_reproducible():
    p1 = random_smooth_problem(42)
    p2 = random_smooth_problem(42)
    p3 = random_smooth_problem(43)
    y = np.linspace(p1.a, p1.b, 7)
    np.testing.assert_array_equal(p1.p(y), p2.p(y))
    np.testing.assert_array_equal(p1.q(y), p2.q(y))
    np.testing.assert_array_equal(p1.r(y), p2.r(y))
    assert p1.b == p2.b
    assert p3.b != p1.b or np.max(np.abs(p3.p(np.linspace(p3.a, p3.b, 7)) - p1.p(y))) > 0


def test_random_problem_analytic_primes_consistent():
    prob = random_smooth_problem(7)
    y = np.linspace(prob.a + 0.05, prob.b - 0.05, 11)
    h = 1e-6
    fd_p = (prob.p(y + h) - prob.p(y - h)) / (2 * h)
    fd_r = (prob.r(y + h) - prob.r(y - h)) / (2 * h)
    np.testing.assert_allclose(prob.p_prime(y), fd_p, rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(prob.r_prime(y), fd_r, rtol=1e-8, atol=1e-8)


def test_oracle_error_hierarchy():
    from nsbf.errors import NsbfError, StiffnessError

    assert issubclass(OracleError, NsbfError)
    assert issubclass(OracleError, RuntimeError)
    assert issubclass(StiffnessError, OracleError)
