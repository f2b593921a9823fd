"""Solution evaluator: basis series, IVP assembly, eigenvalue search."""

import dataclasses
import hashlib
import math
import re
import sys
import threading
import warnings
from functools import partial

import numpy as np
import pytest

from nsbf import bessel, solver
from nsbf.coefficients import build_coefficients
from nsbf.errors import GridError
from nsbf.grid import Grid
from nsbf.liouville import SLProblem, build_liouville
from nsbf.oracles import (
    degenerate_problem,
    integrate_reference,
    kamke_problem,
    random_smooth_problem,
    reference_eigenvalues,
)
from nsbf.seed import compute_seed
from nsbf.solver import DIRICHLET, BoundarySpec, EigenResult, SolutionEvaluator

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
#: the benchmark's boundary pairs: Robin, Dirichlet, Neumann and mixed
PAIRS = [BoundarySpec(*x) for x in ((1.0, -1.0, 1.0, 1.0),
                                    (1.0, 0.0, 1.0, 0.0),
                                    (0.0, 1.0, 0.0, 1.0),
                                    (1.0, 0.0, 0.0, 1.0))]


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
        SolutionEvaluator(ev.coeffs, ev.data, ev.coeffs.seed,
                          N=ev.coeffs.N + 1)
    with pytest.raises(ValueError):
        SolutionEvaluator(ev.coeffs, ev.data, ev.coeffs.seed, N=-1)


def test_evaluator_rejects_mixed_grids(kamke_ev, deg_ev):
    # a Kamke set on [0, 2] must not pair with data on another grid, even
    # one with the same node count, nor with a seed on another grid
    _, ev = kamke_ev
    _, deg = deg_ev
    prob = degenerate_problem(0.0, math.pi)
    data = build_liouville(prob, grid=Grid(0.0, math.pi, ev.data.grid.m))
    seed = compute_seed(prob, data)
    with pytest.raises(ValueError, match="different grids"):
        SolutionEvaluator(ev.coeffs, data, seed)
    for foreign in (seed, deg.coeffs.seed):
        with pytest.raises(ValueError, match="not the one the coefficients"):
            SolutionEvaluator(ev.coeffs, ev.data, foreign)
    # nor with a seed on its own grid that the set was not built from
    grid = ev.data.grid
    other = degenerate_problem(grid.a, grid.b)
    seed = compute_seed(other, build_liouville(other, grid=grid))
    with pytest.raises(ValueError, match="not the one the coefficients"):
        SolutionEvaluator(ev.coeffs, ev.data, seed)


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


def test_basis_at_omega_zero_is_the_series_limit(deg_ev):
    # omega = 0 is an ordinary point of the series: the degenerate basis
    # there is (cos 0, sin 0) = (1, 0), and the Wronskian is omega = 0
    _, ev = deg_ev
    v1, v2 = ev.eval_basis(0.0)
    assert np.max(np.abs(v1 - 1.0)) <= 1e-13
    assert np.all(v2 == 0.0)
    v1p, v2p = ev.eval_basis_prime(0.0)
    assert np.max(np.abs(v1p)) <= 1e-11
    assert np.all(v2p == 0.0)
    assert np.all(ev.wronskian(0.0) == 0.0)


def test_point_evaluation_matches_grid(kamke_ev):
    _, ev = kamke_ev
    pts = ev.data.grid.points[::200]
    v1g, v2g = ev.eval_basis(17.0)
    v1p_, v2p_ = ev.eval_basis(17.0, at=pts)
    assert np.max(np.abs(v1p_ - v1g[::200])) < 1e-10
    assert np.max(np.abs(v2p_ - v2g[::200])) < 1e-10
    # scalar `at` returns scalars
    v1s, v2s = ev.eval_basis(17.0, at=float(pts[3]))
    assert np.ndim(v1s) == 0
    assert abs(v1s - v1g[600]) < 1e-10
    assert np.ndim(v2s) == 0


def test_nan_ordinate_is_refused_by_name(kamke_ev):
    # before the Bessel batch, which would only name its argument z = nan
    _, ev = kamke_ev
    for at in (np.nan, [0.5, np.nan]):
        with pytest.raises(GridError, match="point nan outside"):
            ev.solve_ivp(37.0 + 0.5j, 1.0, 0.5, at=at)


def test_shaped_ordinates(kamke_ev):
    # a 2-D `at` gives 2-D results, entry for entry those of the flat one
    _, ev = kamke_ev
    pts = ev.data.grid.points[5:605:100].reshape(2, 3)
    for omega in (17.0, 17.0 + 0.5j):
        for shaped, flat in (
            (ev.eval_basis(omega, at=pts), ev.eval_basis(omega, at=pts.ravel())),
            (ev.eval_basis_prime(omega, at=pts),
             ev.eval_basis_prime(omega, at=pts.ravel())),
            ((ev.wronskian(omega, at=pts),), (ev.wronskian(omega, at=pts.ravel()),)),
            (ev.solve_ivp(omega, 1.0, 0.5, at=pts),
             ev.solve_ivp(omega, 1.0, 0.5, at=pts.ravel())),
        ):
            for a, b in zip(shaped, flat):
                assert a.shape == (2, 3)
                assert a.ravel().tobytes() == b.tobytes()


def test_one_bessel_batch_per_evaluation(kamke_ev, monkeypatch):
    # the benchmark counts Bessel calls and elements through this name: one
    # batch of (N + 1) x (omegas or grid points) per call, N the truncation
    # order rounded up to even (the odd terms need j_{N+1} for odd N)
    from nsbf import solver

    _, ev = kamke_ev
    jn = solver.spherical_jn_matrix
    sizes = []

    def counted(*args, **kwargs):
        out = jn(*args, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(solver, "spherical_jn_matrix", counted)
    rows = ev.N_used + 1
    omegas = np.array([0.0, 0.5, 3.0, 40.0, 2.0j])
    ev.characteristic(omegas, DIRICHLET)
    ev.characteristic(2.5, DIRICHLET)
    assert sizes == [rows * omegas.size, rows]
    sizes.clear()
    ev.solve_ivp(141.0, 1.0, 0.5)
    ev.solve_ivp(141.0 + 0.5j, 1.0, 0.5)
    assert sizes == [rows * ev.data.grid.points.size] * 2
    sizes.clear()
    odd = SolutionEvaluator(ev.coeffs, ev.data, ev.coeffs.seed,
                            N=ev.N_used - 1)
    odd.characteristic(2.5, DIRICHLET)
    odd.solve_ivp(0.0, 1.0, 0.5)
    assert sizes == [rows, rows * ev.data.grid.points.size]
    sizes.clear()
    at = np.linspace(0.1, 1.9, 7)
    ev.solve_ivp(141.0, 1.0, 0.5, at=at)
    odd.wronskian(3.0 + 1.0j, at=at)
    assert sizes == [rows * at.size] * 2


def _copied_and_cast_kernel(omega, l, R):
    """The contraction with X copied together from a fresh Bessel batch and
    einsum casting a real operand to complex when the other is complex."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.multiply.outer(omega, l)
    J = solver.spherical_jn_matrix(z, 2 * len(R) - 6)
    w = omega.reshape(omega.shape + (1,) * np.ndim(l))
    cz, sz = bessel.cos_and_sin(np.asarray(z))
    X = np.concatenate(([cz, w * sz], J[0::2]))
    return np.einsum("ki...,k...->i...", R, X)


def test_kernel_keeps_the_bits_of_the_copied_and_cast_contraction(
        kamke_ev, monkeypatch):
    # _contract takes a view of the buffer the Bessel batch writes into,
    # and splits a real-by-complex contraction into two real ones; every
    # contraction the evaluators make, Delta's from its scan table too,
    # must give the bits of the plain version, for each pairing of real
    # and complex weights (complex q) and X
    prob = SLProblem(0.0, 1.0, p=lambda y: 1.0,
                     q=lambda y: (1.0 + 2.0j) * np.cos(y), r=lambda y: 1.0)
    data = build_liouville(prob, grid=Grid(0.0, 1.0, 401))
    seed = compute_seed(prob, data)
    complex_q = SolutionEvaluator(build_coefficients(data, seed), data, seed)
    bessel_buffer, contract = solver._bessel_buffer, solver._contract
    buffers, calls = [], []

    def buffered(omega, l, K):
        B = bessel_buffer(omega, l, K)
        buffers.append((B, l))
        return B

    def recorded(omega, R, B):
        S = contract(omega, R, B)
        l = next(l for b, l in buffers if b is B)
        calls.append(((omega, l, R), S))
        return S

    monkeypatch.setattr(solver, "_bessel_buffer", buffered)
    monkeypatch.setattr(solver, "_contract", recorded)
    omegas = (0.0, 7.5, 141.0, 300.0 + 1.0j, 2.5j,
              np.array([0.0, 0.5, 40.0, 900.0]),
              np.array([1.0 + 0.5j, 60.0 - 2.0j, 3.0j]),
              1j * np.array([0.3, 4.0]))
    neumann = BoundarySpec(0.0, 1.0, 0.0, 1.0)  # on Dirichlet's table
    for ev in (_own_evaluator(kamke_ev), complex_q):
        pts = ev.data.grid.points
        at = np.linspace(pts[0], pts[-1], 7)[1:-1]
        for omega in omegas:
            ev.solve_ivp(omega, 1.0, 0.5)
            ev.solve_ivp(omega, 1.0, 0.5, at=at)
            ev.eval_basis(omega, at=at[2])
            ev.characteristic(omega, DIRICHLET)
            ev.characteristic(omega, neumann)
            ev.characteristic(omega, DIRICHLET, derivative=True)
    kinds = set()
    for (omega, l, R), S in calls:
        ref = _copied_and_cast_kernel(omega, l, R)
        assert S.dtype == ref.dtype and S.shape == ref.shape
        assert S.tobytes() == ref.tobytes(), (omega, np.shape(l), R.shape)
        kinds.add((R.dtype.kind, np.asarray(omega).dtype.kind))
    assert kinds == {("f", "f"), ("f", "c"), ("c", "f"), ("c", "c")}


def test_long_double_omega_is_evaluated_in_double(kamke_ev):
    # the kernel's buffer takes the Bessel batch's dtype, float64 or
    # complex128, so a long-double omega is evaluated in double; z = omega l
    # is formed in long double, so the values agree with the double omega's
    # to rounding, not bit for bit
    _, ev = kamke_ev
    for omega in (7.5, 300.0 + 1.0j, 2.5j):
        wide = np.asarray(omega, dtype=np.clongdouble if isinstance(
            omega, complex) else np.longdouble)
        for call in (lambda w: ev.solve_ivp(w, 1.0, 0.5),
                     lambda w: ev.eval_basis(w, at=0.7),
                     lambda w: (ev.characteristic(w, DIRICHLET),)):
            for x, y in zip(call(wide), call(omega)):
                assert np.all(np.isfinite(x))
                np.testing.assert_allclose(x, y, rtol=1e-10,
                                           atol=1e-10 * np.max(np.abs(y)))


# SHA-256 of the bytes of u, then of u', of Kamke solves with u(A) = 1,
# u'(A) = 0.5 on the grid: at omega = 10 every column is in Miller's
# regime, the others mix it with the upward one, real and complex.  The
# real ones were recorded before the Bessel batch took its sin z and cos z
# from the kernel, the complex ones once complex batches took cos z and
# sin z from real functions and their ratios from one reciprocal of z
KAMKE_GRID_SOLVE_DIGESTS = {
    10.0: "96e619ca4a91ba092d85b52de0a66883908b6af72cc5d3a982156837b689473c",
    141.0: "d83129026a06dc2e38c9912e9e41eba0f9957272f009a186a822df9a5ed6a48c",
    2000.0: "725172e129c3e2a24fdb3b956fc899ce97ad79b7966412c9676b755d0e1c358f",
    141.0 + 1.0j:
        "af3aadb9f5cac15b80015778589d29d7814904cc2d540cc0213d36a4b114e1aa",
    30.0 + 1.5j:
        "2756cf7ae82284c114150c34d47dec600338a1673a66bdc0e4cd36376cc08164",
    600.0 + 0.5j:
        "ffdabf1b667528e601f7ec5c11ed6b71460ec23213ac6e6e280ab15e83389277",
}
# the same for the solve at omega = 141 + 1i at np.linspace(0.1, 1.9, 7)
KAMKE_AT_SOLVE_DIGEST = (
    "4034b7d790104b7fb6b45941f885a08b29f9bb301c97e3b5e2ef374d690e782b")


def _solve_digest(u, up):
    h = hashlib.sha256(u.tobytes())
    h.update(up.tobytes())
    return h.hexdigest()


def test_kamke_solves_are_pinned(kamke_ev):
    _, ev = kamke_ev
    for omega, expected in KAMKE_GRID_SOLVE_DIGESTS.items():
        assert _solve_digest(*ev.solve_ivp(omega, 1.0, 0.5)) == expected, omega
    at = np.linspace(0.1, 1.9, 7)
    assert _solve_digest(*ev.solve_ivp(141.0 + 1.0j, 1.0, 0.5, at=at)) == (
        KAMKE_AT_SOLVE_DIGEST)


def test_one_sin_and_one_cos_per_kernel_call(kamke_ev, monkeypatch):
    # the kernel writes sin z and cos z into its buffer and the Bessel
    # batch's closed forms read them there: at omega = 141 the batch has
    # upward and Miller columns, each of which took its own pair before.
    # Delta alone builds its buffer without the kernel, so the count is of
    # buffers, on an evaluator whose scan table holds no other test's nodes.
    # A complex batch takes them of Re z, so no call has a complex argument
    ev = _own_evaluator(kamke_ev)
    counts = {"sin": 0, "cos": 0, "buffer": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            assert name == "buffer" or not np.iscomplexobj(args[0])
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(np, "sin", counted("sin", np.sin))
    monkeypatch.setattr(np, "cos", counted("cos", np.cos))
    monkeypatch.setattr(solver, "_bessel_buffer",
                        counted("buffer", solver._bessel_buffer))
    scan = np.linspace(0.0, 300.0, 501)
    for call in (lambda: ev.solve_ivp(141.0, 1.0, 0.5),
                 lambda: ev.solve_ivp(141.0 + 1.0j, 1.0, 0.5),
                 lambda: ev.characteristic(scan, DIRICHLET),
                 lambda: ev.characteristic(scan, DIRICHLET, derivative=True)):
        for name in counts:
            counts[name] = 0
        call()
        assert counts == {"sin": 1, "cos": 1, "buffer": 1}


def test_refusals_keep_their_messages_with_the_shared_sin_and_cos(kamke_ev):
    # the kernel takes sin z and cos z before the Bessel batch looks at z;
    # the batch still names a z it refuses, with no warning on the way
    # (warnings are errors here)
    _, ev = kamke_ev
    for omega, reason in ((1e308, "is not finite"),
                          (1.0 + 400.0j, r"below arccosh\(DBL_MAX\)")):
        for call in (lambda: ev.solve_ivp(omega, 1.0, 0.5),
                     lambda: ev.characteristic(np.array([1.0, omega]),
                                               DIRICHLET, derivative=True)):
            with pytest.raises(ValueError, match=reason):
                call()


def test_huge_real_omega_evaluates_without_overflow_warnings():
    # the Bessel batch's closed form of j_1 divides by z * z, which is inf
    # above |z| = 1.3e154, where sin z / inf is the right 0: the calls
    # return finite values with no warning (warnings are errors here),
    # while the basis at 5e307 overflows in its own products and is
    # refused, and so is the Wronskian at 1 + 150j, whose products overflow
    # where the basis is finite
    prob = kamke_problem()
    data = build_liouville(prob, grid=Grid(prob.a, prob.b, 201))
    seed = compute_seed(prob, data)
    ev = SolutionEvaluator(build_coefficients(data, seed), data, seed)
    for out in (ev.characteristic(1e307, DIRICHLET),
                *ev.characteristic([1.0, 1e307], DIRICHLET, derivative=True),
                *ev.solve_ivp(1e306 + 1j, 1.0, 0.5),
                *ev.solve_ivp(1e307, 1.0, 0.5)):
        assert np.all(np.isfinite(out))
    with pytest.raises(ValueError, match="series values overflow"):
        ev.eval_basis(5e307)
    basis = ev.eval_basis(1 + 150j) + ev.eval_basis_prime(1 + 150j)
    assert all(np.isfinite(part).all() for part in basis)
    for omega in (1 + 150j, np.array([1.0, 1 + 150j])):
        with pytest.raises(ValueError,
                           match=r"series values overflow at omega = "
                           r"\(1\+150j\)"):
            ev.wronskian(omega)


# omega batches of each kind, 0 included.  The Bessel batch starts Miller's
# recurrence from an order set by its largest |z|, which is N + 15 for the
# batch and for each scalar call alike while |z| <= 15: on Kamke, l(B) = 2.96,
# so |omega| <= 5.  A complex batch evaluates a real entry in complex
# arithmetic, which rounds differently from the real scalar call, so the
# complex batches hold no real entry but 0.
SMALL_OMEGA_BATCHES = (
    np.array([0.0, 0.47, 1.3, 5.0]),
    1j * np.array([0.0, 0.3, 2.5]),
    np.array([0.0, 0.75j, 3.0 + 0.5j, -1.0 + 2.0j]),
)


def test_basis_takes_an_omega_batch(kamke_ev):
    # a scalar omega is a batch of one: a batch gives the scalar calls'
    # values side by side, bit for bit, on the grid and at a scalar or a
    # shaped `at`, at an odd order too
    _, ev = kamke_ev
    odd = SolutionEvaluator(ev.coeffs, ev.data, ev.coeffs.seed, N=37)
    pts = ev.data.grid.points[5:605:100].reshape(2, 3)
    for e in (ev, odd):
        calls = (e.eval_basis, e.eval_basis_prime,
                 lambda w, at: (e.wronskian(w, at=at),),
                 lambda w, at: e.solve_ivp(w, 1.0, 0.5, at=at))
        for at, shape in ((None, ev.data.grid.points.shape), (1.3, ()),
                          (pts, pts.shape)):
            for omegas in SMALL_OMEGA_BATCHES:
                for call in calls:
                    batch = call(omegas, at=at)
                    for b, *loop in zip(batch, *(call(w, at=at)
                                                 for w in omegas)):
                        assert b.shape == omegas.shape + shape
                        for x, y in zip(b, loop):
                            assert np.array_equal(x, y), (at, omegas)


@pytest.fixture(scope="module")
def complex_seed_evs(kamke_ev):
    # real problems whose lambda = 0 solution oscillates, so that their seed
    # is the complex combination g1 + i g2
    prob = random_smooth_problem(3)
    data = build_liouville(prob, grid=Grid(prob.a, prob.b, 2001))
    seed = compute_seed(prob, data)
    evs = [kamke_ev[1], SolutionEvaluator(build_coefficients(data, seed),
                                          data, seed)]
    assert all(ev.coeffs.seed.used_complex_combination for ev in evs)
    return evs


def test_real_problem_evaluates_in_real_arithmetic(complex_seed_evs):
    # phi and psi are real on a real problem, whatever its seed, so the
    # basis, the IVP and a batch of Delta at real omega are float64 as
    # computed; an initial value with zero imaginary part counts as real
    omegas = np.array([0.0, 0.5, 7.0, 141.0])
    for ev in complex_seed_evs:
        outputs = [*ev.eval_basis(7.0), *ev.eval_basis_prime(7.0, at=0.5),
                   *ev.solve_ivp(7.0, 1.0, 2.0),
                   *ev.solve_ivp(0.0, 1.0 + 0.0j, 2.0 + 0.0j, at=[0.5, 1.0]),
                   ev.characteristic(omegas, DIRICHLET),
                   *ev.characteristic(omegas, DIRICHLET, derivative=True)]
        assert [np.asarray(x).dtype for x in outputs] == [np.float64] * 11


def test_basis_is_the_initial_value_pair_at_A(complex_seed_evs, deg_ev):
    # eval_basis is (phi, omega psi) with phi(A) = 1, phi'(A) = 0, psi(A) = 0
    # and p(A) psi'(A) = 1, so its Wronskian is omega
    for ev in complex_seed_evs + [deg_ev[1]]:
        p_A = ev.data.p_s[0]
        v1, v2 = ev.eval_basis(7.0)
        v1p, v2p = ev.eval_basis_prime(7.0)
        assert (v1[0], v2[0]) == pytest.approx((1.0, 0.0), abs=1e-15)
        assert (v1p[0], v2p[0]) == pytest.approx((0.0, 7.0 / p_A), rel=1e-15,
                                                 abs=1e-14)
        W = ev.wronskian(7.0)
        assert np.max(np.abs(W - 7.0)) <= 1e-8 * 7.0


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
    # u = u0 + up0 * y, the omega -> 0 limit of the series.
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
    # omega = 0 inside the batch
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
    # within one Miller start order (SMALL_OMEGA_BATCHES) a scalar call is
    # the batch's entry, bit for bit, Delta' included
    for omegas in SMALL_OMEGA_BATCHES:
        for derivative in (False, True):
            batch = ev.characteristic(omegas, prob.bc, derivative)
            for i, w in enumerate(omegas):
                scalar = ev.characteristic(w, prob.bc, derivative)
                assert np.array_equal(np.asarray(batch)[..., i], scalar)
    zeros = ev.characteristic(np.zeros(3), prob.bc)
    assert zeros.shape == (3,)
    assert np.all(zeros == ev.characteristic(0.0, prob.bc))
    # real on a real problem at real omega, complex otherwise
    assert ev.characteristic(1.5, prob.bc).dtype == np.float64
    assert ev.characteristic(1.5j, prob.bc).dtype == np.complex128


def test_characteristic_is_continuous_at_omega_zero(kamke_ev):
    # one series serves every omega, 0 included, so Delta(0) is the limit
    # of its neighbours, on Kamke and on the deep well alike, whose series
    # is far from converged (identity floor ~2.5e4)
    prob, ev = kamke_ev
    for ev, bc in ((ev, prob.bc), (_well(2000.0), DIRICHLET)):
        delta = ev.characteristic(np.array([0.0, 1e-8, 1e-8j]), bc)
        assert np.max(np.abs(delta - delta[0])) <= 1e-10 * abs(delta[0])


def test_characteristic_matches_ivp_endpoint(kamke_ev, deg_ev):
    # Delta folds the series at B into one weight row; it must be the
    # boundary form of the grid solution that solve_ivp assembles
    # (on the grid and, through the interpolated table, at=B), also at an
    # odd order, where the last folded column holds j_{N+1} alone
    robin = BoundarySpec(1.0, -1.0, 1.0, -0.9)
    prob, ev = kamke_ev
    odd = SolutionEvaluator(ev.coeffs, ev.data, ev.coeffs.seed,
                            N=ev.N_used - 1)
    assert odd.N_used % 2 == 1
    kamke_bcs = (prob.bc, DIRICHLET, robin)
    for ev, bcs in ((ev, kamke_bcs), (odd, kamke_bcs),
                    (deg_ev[1], (DIRICHLET, robin))):
        B = ev.data.grid.b
        for bc in bcs:
            for omega in (0.0, 0.3, 5.0, 40.0, 3.0 + 0.5j, 2.0j):
                u, up = ev.solve_ivp(omega, *bc.initial_values())
                ua, upa = ev.solve_ivp(omega, *bc.initial_values(), at=B)
                delta = ev.characteristic(omega, bc)
                for ref in (bc.b1 * u[-1] + bc.b2 * up[-1],
                            bc.b1 * ua + bc.b2 * upa):
                    assert abs(delta - ref) <= 1e-13 * abs(ref), (bc, omega)


def test_characteristic_derivative_matches_central_difference(kamke_ev):
    # Delta' comes from the Bessel batch of Delta (DLMF 10.51.2); against a
    # central difference of Delta along real omega (Delta is analytic, so
    # that is the complex derivative off the real axis too)
    prob, ev = kamke_ev
    for bc in (prob.bc, DIRICHLET, BoundarySpec(0.0, 1.0, 0.0, 1.0)):
        omegas = np.array([0.47, 3.0, 17.25, 60.0, 0.3j, 2.5j,
                           3.0 + 0.5j, 11.0 - 0.25j])
        h = 1e-6 * np.maximum(1.0, np.abs(omegas))
        fd = (ev.characteristic(omegas + h, bc)
              - ev.characteristic(omegas - h, bc)) / (2.0 * h)
        delta, ddelta = ev.characteristic(omegas, bc, derivative=True)
        values = ev.characteristic(omegas, bc)
        assert np.all(np.abs(delta - values) <= 1e-13 * np.abs(values))
        assert np.all(np.abs(ddelta - fd) <= 1e-7 * np.abs(fd)), bc
        # Delta is a function of lambda = omega^2, so Delta'(0) = 0, with
        # no 1/omega on the way
        d0, dd0 = ev.characteristic(0.0, bc, derivative=True)
        assert d0.dtype == dd0.dtype == np.float64
        assert dd0 == 0.0
        fd0 = (ev.characteristic(1e-5, bc) - ev.characteristic(-1e-5, bc)) / 2e-5
        assert abs(fd0) <= 1e-7 * abs(d0)


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
    # u = e^{0.1 y} at lambda = -0.01: the root t = 0.1 lies in the first
    # scan cell, and Delta(0) ~ 0.03 is far below the scan's largest value
    # (~e^{10 pi} at this floor) yet not a root; the bracket must be kept
    bc3 = BoundarySpec(0.1, -1.0, 0.1, -1.0)
    neg3 = ev.find_negative_eigenvalues(bc3, lambda_floor=-100.0)
    assert len(neg3) == 1
    assert neg3[0].lam == pytest.approx(-0.01, abs=1e-11)


def test_negative_search_compares_signs_without_overflow(deg_ev):
    # u' = k u at both ends has the single negative eigenvalue -k^2
    # (u = e^{k y}).  Delta(i t) grows like e^{t pi}, past 1e154 on this
    # range, so products of neighbouring samples would overflow; the scan
    # compares signs instead and stays quiet.
    _, ev = deg_ev
    k = 150.0
    neg = ev.find_negative_eigenvalues(
        BoundarySpec(k, -1.0, k, -1.0), lambda_floor=-155.0**2
    )
    assert len(neg) == 1
    assert neg[0].lam == pytest.approx(-k * k, rel=1e-12)


def _well(depth):
    """p = r = 1 on [0, pi] with a Gaussian well of the given depth."""
    prob = SLProblem(
        0.0, math.pi, p=lambda y: 1.0,
        q=lambda y: -depth * np.exp(-50.0 * (y - 0.5 * math.pi) ** 2),
        r=lambda y: 1.0,
    )
    data = build_liouville(prob, grid=Grid(0.0, math.pi, 2001))
    seed = compute_seed(prob, data)
    return SolutionEvaluator(build_coefficients(data, seed), data, seed)


def test_negative_search_refines_inside_range_on_shallow_well():
    # q = -20 exp(-50 (y - pi/2)^2) has one negative Dirichlet eigenvalue,
    # -4.1005340 (second-order finite differences at n = 20000 and 40000,
    # Richardson-extrapolated); its bracket is refined, and every root must
    # stay inside the scanned range instead of following a secant step out
    # of its bracket
    ev = _well(20.0)
    neg = ev.find_negative_eigenvalues(DIRICHLET, lambda_floor=-2500.0)
    assert len(neg) == 1
    assert all(-2500.0 <= r.lam < 0.0 for r in neg)
    assert neg[0].k == -1
    assert neg[0].refinement_iterations > 0
    assert neg[0].lam == pytest.approx(-4.1005340, abs=1e-6)


def test_negative_search_stays_in_range_on_deep_well():
    # A deep, narrow well makes Delta(i t) steep and badly scaled (the
    # identity floor is ~2.5e4, so the values themselves are not trusted
    # here).  A root that the refinement closes onto t = 0 is lambda = 0,
    # which is not negative, and must not come back as a tiny negative
    # lambda.
    ev = _well(2000.0)
    neg = ev.find_negative_eigenvalues(DIRICHLET, lambda_floor=-2500.0)
    assert all(-2500.0 <= r.lam < 0.0 for r in neg)
    assert [r.k for r in neg] == [-(i + 1) for i in range(len(neg))]
    assert all(abs(r.lam) >= 1e-6 for r in neg)


def test_neumann_root_at_the_origin_is_counted_once():
    # q = -pi^2 cos(pi y) / (2 + cos(pi y)) on [0, 1] with u'(0) = u'(1) = 0
    # has lambda_1 = 0 exactly, eigenfunction 2 + cos(pi y).  Delta(0) is
    # rounding-level but nonzero and the first scan cell has a sign change;
    # it must not come back as a second root next to 0.
    def one(y):
        return np.ones_like(np.asarray(y, dtype=np.float64))

    prob = SLProblem(
        0.0, 1.0, p=one, r=one,
        q=lambda y: -math.pi**2 * np.cos(math.pi * y)
        / (2.0 + np.cos(math.pi * y)),
    )
    bc = BoundarySpec(0.0, 1.0, 0.0, 1.0)
    data = build_liouville(prob, grid=Grid(0.0, 1.0, 2001))
    seed = compute_seed(prob, data)
    ev = SolutionEvaluator(build_coefficients(data, seed), data, seed)
    res = ev.find_eigenvalues(bc, count_hint=5)
    ref = reference_eigenvalues(prob, bc, 5)
    assert [r.k for r in res] == [1, 2, 3, 4, 5]
    assert res[0].lam == 0.0
    # the tolerances of acceptance criterion 1
    for r, lam in zip(res, ref):
        assert abs(r.lam - lam) <= 1e-9
        assert abs(r.lam - lam) <= 1e-12 * abs(lam)


def test_negative_search_validates_floor(deg_ev):
    _, ev = deg_ev
    for floor in (1.0, 0.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="lambda_floor"):
            ev.find_negative_eigenvalues(DIRICHLET, lambda_floor=floor)


def test_kamke_robin_first_eigenvalues(kamke_ev):
    prob, ev = kamke_ev
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clean search must not warn
        res = ev.find_eigenvalues(prob.bc, count_hint=5)
    for r, w_ref in zip(res, KAMKE_OMEGA_FIRST5):
        assert r.omega == pytest.approx(w_ref, abs=2e-9)


def test_unmet_count_hint_warns(kamke_ev):
    # eight 1.3x extensions from omega_max = 1 reach omega ~ 8.2, which holds
    # 8 Kamke eigenvalues: fewer than asked for is said, not returned quietly
    prob, ev = kamke_ev
    with pytest.warns(UserWarning, match=r"found 8 of the 100 eigenvalues "
                      r"asked for, scanning up to omega = 8\.157"):
        res = ev.find_eigenvalues(prob.bc, omega_max=1.0, count_hint=100)
    assert [r.k for r in res] == list(range(1, 9))


def test_eigen_search_needs_range(deg_ev):
    _, ev = deg_ev
    with pytest.raises(ValueError):
        ev.find_eigenvalues(DIRICHLET)
    with pytest.raises(ValueError, match="count_hint"):
        ev.find_eigenvalues(DIRICHLET, count_hint=-1)
    # a nan range would return no roots, an infinite one would overflow,
    # and a huge one is refused before its scan batch is allocated
    for omega_max, reason in (
        (math.nan, "omega_max must be finite"),
        (math.inf, "omega_max must be finite"),
        (1e300, r"omega_max = 1e\+300 is beyond the largest usable omega_max"),
    ):
        with pytest.raises(ValueError, match=reason):
            ev.find_eigenvalues(DIRICHLET, omega_max=omega_max)
    with pytest.raises(ValueError, match=f"from count_hint = {10**18}"):
        ev.find_eigenvalues(DIRICHLET, count_hint=10**18)


def test_non_finite_omega_is_refused(deg_ev):
    # refused by the Bessel batch before any arithmetic on omega can warn
    # (warnings are errors here)
    _, ev = deg_ev
    for omega in (math.nan, math.inf, complex(math.nan, 1.0), 1e308):
        with pytest.raises(ValueError, match="not finite"):
            ev.solve_ivp(omega, 1.0, 0.0)
        with pytest.raises(ValueError, match="not finite"):
            ev.characteristic(np.array([1.0, omega]), DIRICHLET)


def test_negative_scan_beyond_the_bessel_limit_is_refused_before_its_batch(
        deg_ev, monkeypatch):
    # lambda_floor = -1e8 scans t up to 1e4, z = i t l up to |Im z| = 1e4 pi,
    # far beyond the Bessel batch's limit |Im z| = t l(B) < MAX_IMAG, so the
    # search refuses before it builds the batch, with the same refusal as
    # the deeper floor -1e12: the named floor depends on l(B) alone
    _, ev = deg_ev
    calls = _counted_batches(monkeypatch)
    usable = []
    for floor in (-1e8, -1e12):
        with pytest.raises(ValueError, match=re.escape(
                f"lambda_floor = {floor:.6g} is below ")) as refused:
            ev.find_negative_eigenvalues(DIRICHLET, lambda_floor=floor)
        usable.append(str(refused.value).split(" is below ")[1])
    assert usable[0] == usable[1] and calls == []


def test_deep_negative_scan_names_the_bessel_limit_as_its_floor(
        deg_ev, monkeypatch):
    # a negative scan on t in [0, sqrt(-lambda_floor)] reaches the Bessel
    # batch's limit |Im z| = t l(B) < MAX_IMAG (l(B) = pi here) long before
    # it could lay too many nodes: -1e12 is refused, before any Bessel
    # batch, naming -t^2 for the largest such t and warning that floors
    # near it can still overflow in the series.  Just inside the named
    # floor the scan lays the most nodes any negative scan can,
    # ceil(MAX_IMAG / (SCAN_STEP_FACTOR pi)) + 1 = 1132, in one batch that
    # passes the Bessel limit; just below it the refusal repeats
    _, ev = deg_ev
    calls = _counted_batches(monkeypatch)
    with pytest.raises(ValueError, match=r"lambda_floor = -1e\+12 is below "
                       r"the most negative usable lambda_floor = (\S+) for "
                       r"this problem; floors near it can still overflow "
                       r"in the series$") as refused:
        ev.find_negative_eigenvalues(DIRICHLET, lambda_floor=-1e12)
    assert calls == []
    usable = str(refused.value).split(" is below ")[1]
    named = float(re.search(r"lambda_floor = (\S+) for", usable).group(1))
    assert named == pytest.approx(-(bessel.MAX_IMAG / math.pi) ** 2,
                                  rel=1e-6)
    try:
        ev.find_negative_eigenvalues(DIRICHLET, lambda_floor=named * 0.99999)
    except ValueError as exc:
        assert str(exc).startswith("series values overflow")
    nodes = math.ceil(bessel.MAX_IMAG / (solver.SCAN_STEP_FACTOR * math.pi))
    assert calls[0] == (nodes + 1,) == (1132,)
    calls.clear()
    with pytest.raises(ValueError, match=re.escape(usable)):
        ev.find_negative_eigenvalues(DIRICHLET, lambda_floor=named * 1.00001)
    assert calls == []


def test_half_step_rescan_is_refused_before_it_passes_the_cap(deg_ev,
                                                              monkeypatch):
    # the half-step re-scan (forced here by a negative WEYL_SLACK, which
    # every root count's miss exceeds) samples ceil(omega_max / 0.1) + 1
    # nodes, step 0.2 here (b = pi): with 90 nodes omega_max = 89 * 0.1
    # lays exactly 90, and a hair more would lay 91, so it is refused,
    # naming 8.9, before any Bessel batch is made
    ev = deg_ev[1]
    ev = SolutionEvaluator(ev.coeffs, ev.data, ev.coeffs.seed, N=20)
    calls = _counted_batches(monkeypatch)
    monkeypatch.setattr(solver, "MAX_SCAN_NODES", 90)
    monkeypatch.setattr(solver, "WEYL_SLACK", -1)
    usable = 89 * (0.5 * solver.SCAN_STEP_FACTOR * math.pi / ev.data.b)
    with pytest.warns(UserWarning, match="re-scanning at half step"):
        spec = ev.find_eigenvalues(DIRICHLET, omega_max=usable)
    np.testing.assert_allclose(spec.omega, np.arange(1, 9), rtol=1e-9)
    assert max(shape[0] for shape in calls) == 90
    calls.clear()
    with pytest.raises(ValueError, match=re.escape(
            "is beyond the largest usable omega_max = 8.9 for")):
        ev.find_eigenvalues(DIRICHLET, omega_max=usable * (1.0 + 1e-12))
    assert calls == []


def test_overflowing_characteristic_is_refused(deg_ev):
    # the contraction itself can overflow where every Bessel value and
    # series term is finite: here a huge B form times u(B) ~ sinh(30 pi)/30
    _, ev = deg_ev
    bc = BoundarySpec(1.0, 0.0, 1e300, 0.0)
    for omega in (30j, np.array([1.0, 30j])):
        for derivative in (False, True):
            with pytest.raises(ValueError, match=r"overflow at omega = 30j"):
                ev.characteristic(omega, bc, derivative)


def test_sweep_refines_all_brackets_in_few_batched_calls(kamke_ev,
                                                         monkeypatch):
    # the scan is one batched call and every bracket is refined in
    # lockstep by Newton steps, each one call for Delta and Delta', so a
    # sweep costs a handful of calls, not one per refinement step and root
    _, ev = kamke_ev
    calls = []
    delta_pair = ev._delta_pair

    def counted(*args, **kwargs):
        calls.append(args[0])
        return delta_pair(*args, **kwargs)

    monkeypatch.setattr(ev, "_delta_pair", counted)
    for count in (100, 1000):
        calls.clear()
        res = ev.find_eigenvalues(DIRICHLET, count_hint=count)
        assert [r.k for r in res] == list(range(1, count + 1))
        assert len(calls) <= 6
        assert max(r.char_residual for r in res) < 1e-12


def _counted_batches(monkeypatch):
    """A list that gets the z shape of every Bessel batch the solver takes
    from here on."""
    shapes = []
    jn_matrix = solver.spherical_jn_matrix

    def counted(*args, **kwargs):
        shapes.append(args[0].shape)
        return jn_matrix(*args, **kwargs)

    monkeypatch.setattr(solver, "spherical_jn_matrix", counted)
    return shapes


def _own_evaluator(kamke_ev):
    """A Kamke evaluator of its own, so that no other test's scan is in
    its scan table."""
    ev = kamke_ev[1]
    return SolutionEvaluator(ev.coeffs, ev.data, ev.coeffs.seed)


def _kept_sizes(ev):
    """The node counts of ev's scan table, newest first, read from its
    buffers, each read-only and keyed by its nodes' dtype, shape and
    immutable bytes."""
    sizes = []
    for (dtype, shape, data), buffer in ev._scan_table:
        assert isinstance(data, bytes) and not buffer.flags.writeable
        with pytest.raises(ValueError):
            buffer[0] = 0.0
        assert buffer.shape[1:] == shape
        assert len(data) == buffer[0].size * dtype.itemsize
        sizes.append(buffer[0].size)
    return sizes


def _batches_against_fresh(kamke_ev, calls, ev, name, *args, **kwargs):
    """The Bessel batches of the search ``name`` on ev and on a fresh
    evaluator, whose every column ev's must equal bitwise."""
    counts, specs = [], []
    for evaluator in (ev, _own_evaluator(kamke_ev)):
        calls.clear()
        specs.append(getattr(evaluator, name)(*args, **kwargs))
        counts.append(len(calls))
    for col in dataclasses.fields(specs[0]):
        assert getattr(specs[0], col.name).tobytes() == getattr(
            specs[1], col.name).tobytes(), (name, args, kwargs, col.name)
    return tuple(counts)


def test_kamke_sweep_search_is_pinned(kamke_ev, monkeypatch):
    # the Robin 1000-sweep's Bessel batches, Newton evaluations and roots,
    # recorded when Newton's method began at the root of each bracket's
    # interpolant through 32 scan values (the Hermite cubic took 4 cold
    # batches and 2360 evaluations, the secant start 5 and 3002): the
    # search must not change them or a bit of its result.  The pins are for
    # a cold sweep; the same sweep again reuses the scan's batch
    prob = kamke_ev[0]
    ev = _own_evaluator(kamke_ev)
    calls = _counted_batches(monkeypatch)
    for batches in (2, 1):
        calls.clear()
        spec = ev.find_eigenvalues(prob.bc, count_hint=1000)
        assert len(calls) == batches
        assert spec.refinement_iterations.sum() == 1000
        assert hashlib.sha256(spec.omega.tobytes()).hexdigest() == (
            "49d4cf9728d48871a63194682aa3fd9f03d0a3f9e6e88a24f79acde99ab2fbcc")


def test_scans_on_one_lattice_share_one_bessel_batch(kamke_ev, monkeypatch):
    # Delta depends on omega only through its Bessel batch, and a boundary
    # pair only folds the rows at B; so a scan on the nodes of one of the
    # two lattices before, on any pair, takes that scan's batch from the
    # evaluator and makes one batch fewer, while every column keeps the
    # bits of a fresh evaluator's
    ev = _own_evaluator(kamke_ev)
    calls = _counted_batches(monkeypatch)
    batches = partial(_batches_against_fresh, kamke_ev, calls, ev)

    sweep = "find_eigenvalues"
    for bc, n in zip(PAIRS, (2, 1, 1, 1)):
        assert batches(sweep, bc, count_hint=100) == (n, 2)
    assert batches(sweep, PAIRS[1], count_hint=200) == (2, 2)
    # the 100-sweep's lattice is the table's older entry
    assert batches(sweep, PAIRS[0], count_hint=100) == (1, 2)
    # Robin has no root above -100, Neumann one: the scan's batch and the
    # refinement's two
    negative = "find_negative_eigenvalues"
    assert batches(negative, PAIRS[0], lambda_floor=-100.0) == (1, 1)
    assert batches(negative, PAIRS[2], lambda_floor=-100.0) == (2, 3)
    # the newest entry is the negative scan's lattice: i t on [0, 10]
    (dtype, shape, data), buffer = ev._scan_table[0]
    assert dtype == complex and np.iscomplexobj(buffer)
    assert np.frombuffer(data, dtype)[-1] == 10j
    assert len(_kept_sizes(ev)) == 2


def test_characteristic_leaves_the_scan_table_untouched(kamke_ev,
                                                        monkeypatch):
    # both forms of characteristic compute their own Bessel batch and
    # leave the scan table as it is: after a 1000-sweep and a 100-sweep
    # even Delta on 100k nodes keeps both entries, so the next 1000-sweep
    # takes its scan's batch from the table.  On a kept scan's nodes Delta
    # has the bits of the Delta the scan takes from its batch
    ev = _own_evaluator(kamke_ev)
    calls = _counted_batches(monkeypatch)
    robin, dirichlet = PAIRS[:2]
    ev.find_eigenvalues(robin, count_hint=1000)
    ev.find_eigenvalues(robin, count_hint=100)
    table = ev._scan_table
    calls.clear()
    ev.characteristic(np.linspace(0.0, 500.0, 100_000), robin)
    assert calls == [(100_000,)]
    for (dtype, shape, data), _ in table:
        omegas = np.frombuffer(data, dtype).reshape(shape)
        for bc in PAIRS:
            calls.clear()
            delta = ev.characteristic(omegas, bc)
            ev.characteristic(omegas, bc, derivative=True)
            assert calls == [shape] * 2
            scanned = ev._delta_pair(omegas, bc, scan=True)[0]
            assert len(calls) == 2
            assert delta.tobytes() == scanned.tobytes()
    assert ev._scan_table is table  # the same entries, none added
    assert _batches_against_fresh(kamke_ev, calls, ev, "find_eigenvalues",
                                  dirichlet, count_hint=1000) == (1, 2)


def test_the_scan_table_keeps_two_lattices(kamke_ev, monkeypatch):
    # the benchmark's cycle: a 1000-sweep, 100-sweeps on every pair, then
    # a 1000-sweep on another pair, which finds its scan's batch in the
    # table's older entry; a third lattice evicts the oldest, and of two
    # scans' lattices that together hold more than MAX_SCAN_NODES nodes
    # only the newest is kept.  Every result has a fresh evaluator's bits
    ev = _own_evaluator(kamke_ev)
    calls = _counted_batches(monkeypatch)
    batches = partial(_batches_against_fresh, kamke_ev, calls, ev,
                      "find_eigenvalues")
    robin, dirichlet = PAIRS[:2]
    assert batches(robin, count_hint=1000) == (2, 2)
    for bc, n in zip(PAIRS, (2, 1, 1, 1)):
        assert batches(bc, count_hint=100) == (n, 2)
    assert batches(dirichlet, count_hint=1000) == (1, 2)
    sizes = _kept_sizes(ev)
    assert len(sizes) == 2 and sizes[0] < sizes[1]  # the 100-sweep first
    assert batches(robin, count_hint=200) == (2, 2)  # evicts the 1000-sweep
    assert batches(dirichlet, count_hint=1000) == (2, 2)
    assert batches(robin, count_hint=200) == (1, 2)

    # negative scans on 101 and 51 nodes (t_max = 99.5 and 49.5 steps):
    # both are kept while the cap holds them, else only the newer, and the
    # first scan again takes a batch of its own unless it was kept
    step = solver.SCAN_STEP_FACTOR * math.pi / ev.data.b
    floors = [-(cells * step) ** 2 for cells in (99.5, 49.5)]
    for most, kept in ((152, [51, 101]), (151, [51])):
        monkeypatch.setattr(solver, "MAX_SCAN_NODES", most)
        ev = _own_evaluator(kamke_ev)
        negative = partial(_batches_against_fresh, kamke_ev, calls, ev,
                           "find_negative_eigenvalues", robin)
        for floor in floors:
            negative(lambda_floor=floor)
        assert _kept_sizes(ev) == kept
        n, n_cold = negative(lambda_floor=floors[0])
        assert n == n_cold - (len(kept) == 2)


def test_a_scan_raced_by_another_keeps_the_batch_it_found(kamke_ev,
                                                        monkeypatch):
    # the scan table is read once per scan and replaced by one assignment,
    # so a scan keeps the batch it found when another scan replaces the
    # table: first with a scan of another lattice run between the lookup and
    # the contraction, then with one run right after the table is read,
    # then in threads switched as often as the interpreter can; every
    # search keeps the bits of its own on a fresh evaluator
    shared = _own_evaluator(kamke_ev)
    jobs = [(name, BoundarySpec(*bc), kwargs)
            for bc in ((1.0, -1.0, 1.0, 1.0), (0.0, 1.0, 0.0, 1.0))
            for name, kwargs in (("find_eigenvalues", {"count_hint": 4}),
                                 ("find_eigenvalues", {"count_hint": 8}),
                                 ("find_negative_eigenvalues",
                                  {"lambda_floor": -9.0}))]

    def run(evaluator, job):
        name, bc, kwargs = job
        spec = getattr(evaluator, name)(bc, **kwargs)
        return b"".join(getattr(spec, f.name).tobytes()
                        for f in dataclasses.fields(spec))

    expected = [run(_own_evaluator(kamke_ev), job) for job in jobs]
    assert run(shared, jobs[0]) == expected[0]
    contract, raced = solver._contract, []

    def racing(omega, R, B):
        # once, in jobs[3]'s scan, on the batch it found in the table
        monkeypatch.setattr(solver, "_contract", contract)
        assert any(B is buf for _, buf in shared._scan_table)
        raced.append(run(shared, jobs[1]))
        return contract(omega, R, B)

    monkeypatch.setattr(solver, "_contract", racing)
    assert run(shared, jobs[3]) == expected[3]  # on jobs[0]'s lattice
    assert raced == [expected[1]]
    monkeypatch.undo()

    class Racing(SolutionEvaluator):
        # another scan replaces the table right after the next read of
        # it, which a second read in the same call would see
        @property
        def _scan_table(self):
            table = self.__dict__["_scan_table"]
            if racers:
                raced.append(run(self, racers.pop()))
            return table

        @_scan_table.setter
        def _scan_table(self, table):
            self.__dict__["_scan_table"] = table

    racers, raced[:] = [jobs[2]], []
    shared.__class__ = Racing
    assert run(shared, jobs[4]) == expected[4]  # on jobs[1]'s lattice
    shared.__class__ = SolutionEvaluator
    assert raced == [expected[2]]

    done, wrong = [], []

    def worker(shift):
        for _ in range(10):
            for i in np.roll(np.arange(len(jobs)), shift):
                (done if run(shared, jobs[i]) == expected[i] else
                 wrong).append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [] and len(done) == 4 * 10 * len(jobs)


def test_spectrum_is_a_table_of_read_only_columns(deg_ev):
    # Neumann has the scan-node root lambda = 0 (|Delta(0)| residual, no
    # refinement) next to refined ones; Robin has a negative eigenvalue
    _, ev = deg_ev
    neumann = BoundarySpec(0.0, 1.0, 0.0, 1.0)
    robin = BoundarySpec(1.0, -1.0, 1.0, -0.9)
    pos = ev.find_eigenvalues(neumann, count_hint=4)
    neg = ev.find_negative_eigenvalues(robin, lambda_floor=-16.0)
    empty = ev.find_eigenvalues(DIRICHLET, omega_max=0.0)
    assert (len(pos), len(neg), len(empty)) == (4, 1, 0)
    assert pos.k.tolist() == [1, 2, 3, 4] and neg.k.tolist() == [-1]
    assert pos.refinement_iterations[0] == 0 < pos.refinement_iterations[1]
    np.testing.assert_array_equal(pos.lam, pos.omega * pos.omega)
    np.testing.assert_array_equal(neg.lam, -(neg.omega * neg.omega))
    for spec in (pos, neg, empty):
        cols = [getattr(spec, f.name) for f in dataclasses.fields(spec)]
        assert [c.dtype for c in cols] == [np.int64] + [np.float64] * 3 + [
            np.int64]
        assert {c.shape for c in cols} == {(len(spec),)}
        assert not any(c.flags.writeable for c in cols)
        rows = list(zip(*(c.tolist() for c in cols)))
        assert list(spec) == rows == spec[:]
        assert spec[1:3] == rows[1:3]
        for i, row in enumerate(rows):
            assert spec[i] == spec[i - len(spec)] == row
            assert type(spec[i]) is EigenResult
            assert list(map(type, spec[i])) == [int, float, float, float, int]
    with pytest.raises(ValueError):
        pos.lam[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        pos.lam = np.zeros(4)
    with pytest.raises(IndexError):
        pos[4]


#: the roots of _known: two in neighbouring scan cells of width 0.2
KNOWN_ROOTS = (0.33, 0.52, np.pi / 2, 3 * np.pi / 2)


def _known(slopes=True, scale=1.0):
    """f = (t - 0.33)(t - 0.52) cos t, times ``scale``, with f' as the pair
    _scan_roots takes, the scan's slopes NaN unless ``slopes``."""
    def f(t, scan=False):
        g = (t - 0.33) * (t - 0.52)
        df = (2 * t - 0.85) * np.cos(t) - g * np.sin(t)
        if scan and not slopes:
            df = np.full_like(t, np.nan)
        return scale * g * np.cos(t), scale * df
    return f


def _secant_start(lo, hi, flo, fhi):
    big = np.maximum(np.abs(flo), np.abs(fhi))
    x = lo + (hi - lo) * (flo / big) / (flo / big - fhi / big)
    return np.clip(x, np.nextafter(lo, hi), np.nextafter(hi, lo))


def _first_iterates(f, t1, **kwargs):
    """The brackets (lo, hi) of f's sign changes on the nodes of a scan of
    [0, t1] in cells of 0.2, their Hermite starts, and the first iterates
    that _scan_roots hands to the refinement: the nodes of its first call
    of f outside the scan."""
    ts = np.linspace(0.0, t1, round(t1 / 0.2) + 1)
    fs, dfs = f(ts)
    i = np.flatnonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0.0)
    cubic = solver._hermite_start(ts[i], ts[i + 1], fs[i], fs[i + 1], dfs[i],
                                  dfs[i + 1])
    starts = []

    def spied(t, scan=False):
        if not scan and not starts:
            starts.append(t.copy())
        return f(t, scan)

    solver._scan_roots(spied, 0.0, t1, 0.2, **kwargs)[1]()
    return ts[i], ts[i + 1], cubic, starts[0]


def test_newton_starts_at_the_interpolant_root_inside_each_bracket():
    # on the 51 nodes of [0, 10] each root starts from the root of the
    # interpolant through the 32 scan values around its cell, a window
    # moved inwards at both ends (_known is not even, so nothing is
    # mirrored).  At the isolated roots, in cell 7 of the left window, in
    # the middle of a centred one and in cell 20 of the right window, that
    # start is within rounding of the root, where the Hermite cubic's is
    # 3e-6 to 8e-6 off; at the close pair, in cells 1 and 2 of the left
    # window, where two Newton steps on the strongly curved interpolant
    # have not yet reached its root, it is still far nearer than the cubic's
    roots = np.array(KNOWN_ROOTS + (5 * np.pi / 2,))
    lo, hi, cubic, x = _first_iterates(_known(), 10.0)
    assert np.all((lo < x) & (x < hi))
    err, cubic_err = np.abs(x - roots), np.abs(cubic - roots)
    assert np.all(err[:2] < 1e-4 * cubic_err[:2])
    assert np.all(err[2:] < 1e-14) and np.all(err[2:] < 1e-8 * cubic_err[2:])


def test_a_short_scan_interpolates_all_its_nodes():
    # a scan of fewer than 32 nodes, here the 9 of [0, 1.6], starts each
    # root from the root of the interpolant through all of them, of degree
    # 8: an independent fit of that polynomial has its root near pi/2
    # where the start is, 2.5e-7 from pi/2 (the close pair's starts are
    # still two Newton steps from theirs); every start is nearer the true
    # root than the Hermite cubic's
    lo, hi, cubic, x = _first_iterates(_known(), 1.6)
    ts = np.linspace(0.0, 1.6, 9)
    fit = np.polynomial.Polynomial.fit(ts, _known()(ts)[0], 8)
    real = fit.roots().real[np.abs(fit.roots().imag) == 0.0]
    expected = real[(lo[2] < real) & (real < hi[2])].item()
    assert abs(x[2] - expected) < 1e-12 and abs(x[2] - np.pi / 2) > 1e-7
    roots = np.array(KNOWN_ROOTS[:3])
    assert np.all(np.abs(x - roots) < np.abs(cubic - roots))


def test_starts_are_finite_where_f_is_near_dbl_max():
    # f up to 1e306: each window is scaled by its largest |f| before its
    # weights, which reach 1e7 at the ends of a 32-node window, so the
    # starts are finite and, the scale being a power of two, those of f
    for scale in (2.0**1010, -(2.0**1010)):
        x = _first_iterates(_known(scale=scale), 10.0)[3]
        assert np.isfinite(x).all()
        assert x.tobytes() == _first_iterates(_known(), 10.0)[3].tobytes()


def test_an_even_scan_mirrors_its_samples_at_the_left_end():
    # with ``even`` a scan from 0 interpolates f(-t) = f(t) as well, so
    # the windows of the first cells are centred: on g = (t^2 - 0.33^2)
    # (t^2 - 0.52^2) cos t, the starts at 0.33 and pi/2 come nearer the
    # roots than from the windows moved inwards, and as near as the
    # Hermite cubic's or nearer everywhere
    def g(t, scan=False):
        a, b = t * t - 0.33**2, t * t - 0.52**2
        return a * b * np.cos(t), 2 * t * (a + b) * np.cos(t) - a * b * np.sin(
            t)

    roots = np.array(KNOWN_ROOTS + (5 * np.pi / 2,))
    *_, cubic, mirrored = _first_iterates(g, 10.0, even=True)
    plain = _first_iterates(g, 10.0)[3]
    err, plain_err = np.abs(mirrored - roots), np.abs(plain - roots)
    assert np.all(err[[0, 2]] < 0.1 * plain_err[[0, 2]])
    assert np.all(err <= np.abs(cubic - roots))


def test_roots_near_scan_nodes_keep_the_secant_start():
    # a first iterate within REFINE_TOL * max(1, |x|) of a bracket end is
    # the secant point at a root on a scan node, and no interpolant moves
    # it; one further inside moves to the interpolant's root
    ts = np.linspace(0.0, 10.0, 51)
    fs = _known()(ts)[0]
    lo, hi = ts[[1, 23]], ts[[2, 24]]  # around 0.33 and 3 pi / 2
    first, at = np.array([0, 8]), np.array([1, 15])
    x = np.array([np.nextafter(lo[0], 1.0), np.nextafter(hi[1], 0.0)])
    np.testing.assert_array_equal(
        solver._window_start(x, lo, hi, fs, first, at), x)
    moved = solver._window_start(0.5 * (lo + hi), lo, hi, fs, first, at)
    np.testing.assert_allclose(moved, [0.33, 3 * np.pi / 2], rtol=0,
                               atol=1e-4)


def test_newton_falls_back_to_the_secant_start():
    # a slope that is not a number, a cubic with a flat spot at the secant
    # point (its Newton step divides by 0) and one whose Newton steps leave
    # the bracket each start from the secant point, bitwise; here f = -1,
    # 1 at the ends of [2, 2.5], so the secant point is the midpoint, where
    # the cubic's slope is 3 - (da + db)/4 for the end slopes da, db in
    # units of f per bracket
    lo, hi = np.full(4, 2.0), np.full(4, 2.5)
    flo, fhi = np.full(4, -1.0), np.full(4, 1.0)
    da = np.array([np.nan, 1.0, 8.0, 8.0])
    db = np.array([1.0, np.inf, 4.0, 3.9])
    x = solver._hermite_start(lo, hi, flo, fhi, da / 0.5, db / 0.5)
    np.testing.assert_array_equal(x, _secant_start(lo, hi, flo, fhi))
    assert np.all(x == 2.25)


def test_roots_on_scan_nodes_start_at_the_secant_point(deg_ev):
    # a secant point within REFINE_TOL of a bracket end marks a root on a
    # scan node and is kept, whatever the slopes: here f = t - 1 (root at
    # lo) and 1.2 - t (root at hi) on [1, 1.2], with a nearly flat slope
    # at the root, on which the cubic's Newton steps leave the node.  The
    # degenerate problem at its automatic N (N_opt = 0) has every Dirichlet
    # root omega = k on a scan node, where the scan's slope, cut from the
    # j_0 row, is far off (module docstring): one evaluation closes each
    # of the 100 roots (the cubic start took 2864)
    lo, hi = np.full(2, 1.0), np.full(2, 1.2)
    flo, fhi = np.array([-1e-17, 0.2]), np.array([0.2, -1e-17])
    dflo, dfhi = np.array([1e-12, -1.0]), np.array([1.0, -1e-12])
    x = solver._hermite_start(lo, hi, flo, fhi, dflo, dfhi)
    np.testing.assert_array_equal(x, _secant_start(lo, hi, flo, fhi))
    assert x.tolist() == [np.nextafter(1.0, 2.0), np.nextafter(1.2, 0.0)]

    ev = deg_ev[1]
    ev = SolutionEvaluator(ev.coeffs, ev.data, ev.coeffs.seed)
    assert ev.N_used == 0
    spec = ev.find_eigenvalues(DIRICHLET, count_hint=100)
    np.testing.assert_allclose(spec.omega, np.arange(1, 101), rtol=0,
                               atol=1e-13)
    assert spec.refinement_iterations.sum() == 100


def test_roots_agree_with_and_without_the_scan_slopes():
    # NaN slopes make the secant point the Hermite start, from which the
    # interpolant's two Newton steps do not reach its root in every cell:
    # both starts close every root, those in neighbouring cells too, within
    # REFINE_TOL, and the one from the slopes takes fewer evaluations
    found = [solver._scan_roots(_known(slopes), 0.0, 5.0, 0.2)[1]()
             for slopes in (True, False)]
    (x, res, iters), (x0, _, iters0) = found
    tol = solver.REFINE_TOL * np.maximum(1.0, x)
    assert np.all(np.abs(x - x0) <= tol)
    np.testing.assert_allclose(x, KNOWN_ROOTS, rtol=0, atol=2e-15)
    assert np.all(res <= tol)
    assert np.all(iters <= iters0) and iters.sum() < iters0.sum()


def test_kamke_sweep_takes_few_refinement_evaluations(kamke_ev, monkeypatch):
    # from the root of each bracket's interpolant through 32 scan values
    # one evaluation closes every root of a 100- and a 1000-sweep on every
    # pair, within REFINE_TOL * max(1, omega) (the Hermite cubic took about
    # 2.4 per root, the secant start 3); the one refinement batch has a
    # column for each returned root and none for the roots past count_hint
    ev = _own_evaluator(kamke_ev)
    calls = _counted_batches(monkeypatch)
    for count in (100, 1000):
        for bc in PAIRS:
            calls.clear()
            spec = ev.find_eigenvalues(bc, count_hint=count)
            assert len(spec) == count
            assert spec.refinement_iterations.tolist() == [1] * count
            assert np.all(spec.char_residual <= solver.REFINE_TOL
                          * np.maximum(1.0, spec.omega))
            assert calls[1 if bc is PAIRS[0] else 0:] == [(count,)]


def test_kamke_negative_eigenvalues(kamke_ev):
    # of the Kamke boundary pairs only Neumann has a negative eigenvalue
    # above lambda = -50 (a secant on u'(B) from the reference integrator
    # gives -0.75661316088917)
    prob, ev = kamke_ev
    neumann = BoundarySpec(0.0, 1.0, 0.0, 1.0)
    neg = ev.find_negative_eigenvalues(neumann, lambda_floor=-50.0)
    assert [r.k for r in neg] == [-1]
    assert neg[0].lam == pytest.approx(-0.7566131608890402, abs=1e-12)
    for bc in (prob.bc, DIRICHLET):
        assert len(ev.find_negative_eigenvalues(bc, lambda_floor=-50.0)) == 0


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
    for x in (ev.characteristic(3.0, DIRICHLET),
              *ev.characteristic(3.0, DIRICHLET, derivative=True)):
        assert x.dtype == np.complex128
    assert u[0] == pytest.approx(1.0, abs=1e-10)
