"""A ledger of inputs the series method gets wrong without saying so, or
refuses where it should answer.

The spectral entries are p = r = 1 with Dirichlet conditions on [0, pi] at
m = 2001 and the automatic N, checked against a sine-Galerkin oracle built
here from numpy alone, so that it shares no code with the series path:
two wells, broad barriers c exp(-2 (y - pi/2)^2), the narrow barrier
400 exp(-50 (y - pi/2)^2) and Mathieu's 2 theta cos 2y.  The barrier and
Mathieu entries record the warnings raised on the way, so that the values
decide their outcome.  Item 4's entries are far up the imaginary axis,
where the series values pass DBL_MAX although the answer does not: a Robin
eigenvalue of the degenerate problem known in closed form, and a Kamke
solution that should be finite.  An entry that is wrong today is a strict
xfail naming the ROADMAP item expected to mend it: the fix has to flip it.
A sampled family of seeded trigonometric potentials follows the ledger:
its builds are counted as correct, flagged or silently wrong, and the
silent count may not rise above its recorded ceiling.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import mathieu_b

from nsbf.coefficients import build_coefficients
from nsbf.grid import Grid
from nsbf.liouville import SLProblem, build_liouville
from nsbf.oracles import degenerate_problem, kamke_problem
from nsbf.seed import compute_seed
from nsbf.solver import DIRICHLET, BoundarySpec, SolutionEvaluator


def _gaussian(depth):
    return lambda y: depth * np.exp(-50.0 * (y - 0.5 * math.pi) ** 2)


def _mathieu(theta):
    return lambda y: 2.0 * theta * np.cos(2.0 * y)


def _broad(c):
    return lambda y: c * np.exp(-2.0 * (y - 0.5 * math.pi) ** 2)


WELL20 = _gaussian(-20.0)
DEEP_WELL = _gaussian(-2000.0)
NARROW_BARRIER = _gaussian(400.0)
MATHIEU3 = _mathieu(3.0)
MATHIEU5 = _mathieu(5.0)


def sine_galerkin(q, modes=200, points=4001):
    """Eigenvalues of -u'' + q u = lam u, u(0) = u(pi) = 0, in increasing
    order: the Galerkin matrix on sqrt(2/pi) sin(n y), n <= ``modes``, with
    its q integrals by the trapezoid rule on ``points`` nodes."""
    y = np.linspace(0.0, math.pi, points)
    w = np.full(points, math.pi / (points - 1))
    w[[0, -1]] *= 0.5
    n = np.arange(1, modes + 1)
    S = np.sin(np.outer(n, y))
    A = (2.0 / math.pi) * (S * (w * q(y))) @ S.T + np.diag(n * n.astype(float))
    return np.linalg.eigvalsh(A)


def _evaluator(q):
    prob = SLProblem(0.0, math.pi, p=lambda y: 1.0, q=q, r=lambda y: 1.0)
    return _built(prob, 2001)


def _built(prob, m, **order):
    data = build_liouville(prob, grid=Grid(prob.a, prob.b, m))
    seed = compute_seed(prob, data)
    return SolutionEvaluator(build_coefficients(data, seed, **order), data,
                             seed, **order)


def _silently_wrong(item, what):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item {item}: {what}")


def test_oracle_reproduces_known_spectra():
    # q = 0 gives n^2; Mathieu's Dirichlet eigenvalues are the b_n(theta)
    # of the odd solutions; the well's one negative eigenvalue matches the
    # finite-difference value of tests/test_solver.py; the narrow barrier's
    # close pairs have converged in the number of modes
    n = np.arange(1.0, 13.0)
    np.testing.assert_allclose(sine_galerkin(np.zeros_like)[:12], n * n,
                               rtol=1e-14)
    b = [mathieu_b(k, 3.0) for k in range(1, 13)]
    np.testing.assert_allclose(sine_galerkin(MATHIEU3)[:12], b, atol=1e-10)
    lam = sine_galerkin(WELL20)
    assert np.count_nonzero(lam < 0.0) == 1
    assert lam[0] == pytest.approx(-4.1005340, abs=1e-6)
    np.testing.assert_allclose(sine_galerkin(NARROW_BARRIER)[:12],
                               sine_galerkin(NARROW_BARRIER, modes=400)[:12],
                               rtol=0, atol=1e-6)


@pytest.mark.parametrize("q, tol", [
    pytest.param(WELL20, 1e-4, id="well20", marks=_silently_wrong(
        1, "the first positive eigenvalue is labelled k = 1, not 2")),
    pytest.param(MATHIEU3, 1e-9, id="mathieu-theta3", marks=_silently_wrong(
        1, "the first positive eigenvalue is labelled k = 1, not 2")),
])
def test_positive_eigenvalues_carry_their_true_index(q, tol):
    # one eigenvalue lies below 0, so the first positive one is the second
    lam = sine_galerkin(q)
    spec = _evaluator(q).find_eigenvalues(DIRICHLET, count_hint=12)
    assert spec.k[0] == 2
    np.testing.assert_allclose(spec.lam, lam[spec.k - 1], rtol=0, atol=tol)


def _spectra(q, lambda_floor):
    """The first 12 eigenvalues and those in [lambda_floor, 0), with the
    warnings raised on the way (recorded, so that the assertions on the
    values decide the outcome)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ev = _evaluator(q)
        pos = ev.find_eigenvalues(DIRICHLET, count_hint=12)
        neg = ev.find_negative_eigenvalues(DIRICHLET, lambda_floor)
    return pos, neg, [str(w.message) for w in caught]


@pytest.mark.parametrize("c, tol", [
    pytest.param(25.0, 1e-6, id="broad-c25"),
    pytest.param(50.0, 1e-4, id="broad-c50", marks=_silently_wrong(
        1, "the lowest pair 14.2546 / 14.2623 falls in one scan cell and is "
        "missed; the only signal is the count warning")),
    pytest.param(100.0, 1e-4, id="broad-c100", marks=_silently_wrong(
        1, "the three lowest pairs are missed and the values returned are "
        "off by up to 179; the only signal is the count warning (7 found "
        "where the estimate gives 14)")),
])
def test_broad_barrier_eigenvalues(c, tol):
    # q >= 0, so every eigenvalue is positive and k = 1 is the lowest
    lam = sine_galerkin(_broad(c))
    pos, neg, caught = _spectra(_broad(c), lambda_floor=-4.0)
    assert len(neg) == 0
    assert pos.k.tolist() == list(range(1, 13))
    np.testing.assert_allclose(pos.lam, lam[:12], rtol=0, atol=tol)
    assert caught == []


@pytest.mark.parametrize("q, lambda_floor", [
    pytest.param(MATHIEU5, -10.0, id="theta5", marks=_silently_wrong(
        11, "N_opt 0 and floor 17.7: the free spectrum 1, 4, 9, 16, ... is "
        "returned, lambda = -5.79 is missed, and nothing is flagged")),
    pytest.param(_mathieu(10.0), -20.0, id="theta10", marks=_silently_wrong(
        11, "no negative eigenvalue is returned where -13.937 and -2.382 "
        "are, the positive ones are off by up to 52, and nothing is "
        "flagged")),
])
def test_mathieu_theta5_eigenvalues(q, lambda_floor):
    lam = sine_galerkin(q)
    pos, neg, _ = _spectra(q, lambda_floor)
    np.testing.assert_allclose(neg.lam, lam[lam < 0.0], rtol=0, atol=1e-6)
    np.testing.assert_allclose(pos.lam, lam[lam > 0.0][:12], rtol=0,
                               atol=1e-6)


@_silently_wrong("2/3", "N_opt = 0 and floor 2.5e4: no negative eigenvalue "
                 "is returned and nothing is flagged")
def test_deep_well_negative_eigenvalues():
    lam = sine_galerkin(DEEP_WELL)
    spec = _evaluator(DEEP_WELL).find_negative_eigenvalues(
        DIRICHLET, lambda_floor=-2500.0)
    assert len(spec) == np.count_nonzero(lam < 0.0)
    np.testing.assert_allclose(spec.lam, lam[lam < 0.0], rtol=1e-6)


@_silently_wrong("2/3", "N_opt 39 and floor 87.0: the values returned, "
                 "160.27, 173.00, ..., are not in the spectrum 4.8132, "
                 "4.8169, 19.169, 19.187, 42.823, 42.878, and the only "
                 "signal is the half-step re-scan warning (the CHANGES.md "
                 "FOUND starts the spectrum at 42.82, 42.88, 75.38: its "
                 "reference misses the two close pairs below)")
def test_narrow_barrier_eigenvalues():
    lam = sine_galerkin(NARROW_BARRIER)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        spec = _evaluator(NARROW_BARRIER).find_eigenvalues(DIRICHLET,
                                                          count_hint=6)
    assert spec.k.tolist() == list(range(1, 7))
    np.testing.assert_allclose(spec.lam, lam[:6], rtol=0, atol=1e-6)


def _refused(item, what):
    return pytest.mark.xfail(strict=True, raises=ValueError,
                             reason=f"ROADMAP item {item}: {what}")


@_refused(4, "the search refuses a floor whose |Im z| = 738 passes the "
          "Bessel limit arccosh(DBL_MAX)")
def test_far_negative_robin_eigenvalue_of_the_degenerate_problem():
    # u = exp(230 y) satisfies u' = 230 u at both ends, and no other
    # lambda < 0 does (q = 0)
    ev = _built(degenerate_problem(), 1001, N=20)
    spec = ev.find_negative_eigenvalues(BoundarySpec(230.0, -1.0, 230.0, -1.0),
                                        lambda_floor=-235.0**2)
    np.testing.assert_allclose(spec.lam, [-52900.0], rtol=1e-9)


@_refused(4, "the series values pass DBL_MAX near B and are refused")
def test_kamke_solution_far_up_the_imaginary_axis():
    u, up = _built(kamke_problem(), 201).solve_ivp(1.0 + 238.0j, 1.0, 0.5)
    assert np.isfinite(u).all() and np.isfinite(up).all()


# The sampled family (ROADMAP item 17): seeded trigonometric potentials at a
# set sup|q|, each build counted as correct, flagged or silently wrong.
# tools/family.py runs all five amplitudes on ten seeds each.

#: the family's outcomes, in table order
OUTCOMES = ("correct", "flagged", "index only", "values")


def family_q(amplitude, seed):
    """q(y) = s sum_{j=1..4} (a_j cos jy + b_j sin jy), with a, b =
    ``default_rng(seed).standard_normal((2, 4))`` and s such that the
    largest |q| on the m = 2001 grid of [0, pi] is ``amplitude``."""
    a, b = np.random.default_rng(seed).standard_normal((2, 4))
    j = np.arange(1, 5)

    def shape(y):
        jy = j * np.asarray(y, dtype=float)[..., None]
        return (a * np.cos(jy) + b * np.sin(jy)).sum(axis=-1)

    s = amplitude / np.abs(shape(np.linspace(0.0, math.pi, 2001))).max()
    return lambda y: s * shape(y)


def family_outcome(q):
    """(outcome, evaluations) for q, p = r = 1, Dirichlet on [0, pi],
    m = 2001 and the automatic N: one of ``OUTCOMES`` and the Newton
    evaluations the searches took.  The eigenvalues above min q - 1 that
    are negative and the first 12 positive ones are each checked against
    the sine-Galerkin value of its index to 1e-6 relative.  A build that
    warns or raises is flagged; a silently wrong one is wrong in its
    indices only (every value found belongs to the spectrum in order, from
    its lowest eigenvalue, as the positive ones are numbered from 1) or in
    its values."""
    lam = sine_galerkin(q)
    y = np.linspace(0.0, math.pi, 2001)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ev = _evaluator(q)
            neg = ev.find_negative_eigenvalues(DIRICHLET,
                                               lambda_floor=q(y).min() - 1.0)
            pos = ev.find_eigenvalues(DIRICHLET, count_hint=12)
        except Exception:
            return "flagged", 0
    evaluations = int(neg.refinement_iterations.sum()
                      + pos.refinement_iterations.sum())
    found = np.concatenate((neg.lam, pos.lam))
    n_neg = np.count_nonzero(lam < 0.0)

    def matches(k):
        return (found.size == n_neg + 12 and np.all(
            np.abs(found - lam[k - 1]) <= 1e-6 * np.abs(lam[k - 1])))

    if caught:
        outcome = "flagged"
    elif matches(np.concatenate((-neg.k, pos.k))):
        outcome = "correct"
    elif matches(np.arange(1, found.size + 1)):
        outcome = "index only"
    else:
        outcome = "values"
    return outcome, evaluations


#: the most silently wrong builds the tier-1 family may have: the count
#: when the family joined tier-1 (1, 3 and 4 at sup|q| = 3, 10 and 30), a
#: ceiling that only falls
FAMILY_SILENT_CEILING = 8


def test_sampled_family_silent_count():
    # sup|q| = 3, 10 and 30 on seeds 0-5; every build is counted
    outcomes = [family_outcome(family_q(amplitude, seed))[0]
                for amplitude in (3.0, 10.0, 30.0) for seed in range(6)]
    counts = {o: outcomes.count(o) for o in OUTCOMES}
    silent = counts["index only"] + counts["values"]
    assert silent <= FAMILY_SILENT_CEILING, counts
