"""Truncated-series evaluation, initial-value solutions, and eigenvalues.

The series assembles the solution basis

    v1(w, y) = cos(w l)/rho + 2 sum_{k} (-1)^k alpha_{2k}(y)  j_{2k}(w l)
    v2(w, y) = sin(w l)/rho + 2 sum_{k} (-1)^k alpha_{2k+1}(y) j_{2k+1}(w l)

(truncated at order ``N_used``: even indices up to N for v1, odd up to N for
v2) together with the derivative series built from the mu coefficients and
the closed-form envelope carrying G1, G2.  Because the coefficients do not
depend on the spectral parameter, a single :class:`~nsbf.coefficients.
CoefficientSet` serves every w with uniform accuracy: initial-value problems
are combinations of one initial-value basis, and eigenvalues of two-point
boundary problems are located as roots of the characteristic function
Delta(w), whose evaluation needs the series only at the right endpoint.

The series is assembled once per evaluator, as a weight table R stored
orders first, of shape (ceil(N/2) + 3, 4, m): R[:, i] gives the i-th of
(phi, psi, phi', psi') at each node as weights over X = (cos z, w sin z,
j_0(z), j_2(z), ...), z = w l, where phi(A) = 1, phi'(A) = 0 and psi(A) = 0,
p(A) psi'(A) = 1.  The rows are first built for (v1, v2/w, v1', v2'/w):
odd orders fold onto their even neighbours through j_n(z)/w = l (j_{n-1} +
j_{n+1})(z)/(2n+1) (DLMF 10.51.1), and sin(z)/w = l j_0(z).  They are then
mixed, two by two, by their values at A, where z = 0 for every w; for real
q only the real part is kept, since phi and psi are then real, also where
the seed is the complex combination.  phi and psi are entire in lambda, so
w = 0 is an ordinary point of the same truncated series.

Every evaluation is one contraction of weight rows with one Bessel batch
over X, for a batch of w (a scalar is a batch of one): on the grid, at given
ordinates through the interpolated table, and at B for Delta(w), whose rows
are R's column there folded with the initial values and the B form.  The
Bessel batch is written into rows of the buffer that holds cos z, sin z
and w sin z, and takes its closed forms' cos z and sin z from there, so a
batch takes one sine and one cosine, of Re z and with cosh and sinh of Im z
when z is complex; X is a view of every other row, so nothing is copied,
and real weights meet a complex X in two real contractions of its
contiguous parts, not by a cast.  The IVP
solution is u(A) phi + p(A) u'(A) psi.  dDelta/dw = w (D . X'), where the
rows D of R's column at B run over X one even order longer: the
w-derivative of each j_n(w l) is a combination of its neighbours (DLMF
10.51.2), and its odd neighbours fold onto even orders as above, so
Delta'(0) = 0 with no 1/w on the way.

Both half-axes of a real spectrum go through one search: lambda > 0 on real
w, lambda < 0 on w = i t, where Delta is real as well.  The search samples
Delta and its slope (Re Delta(i t) and -Im Delta'(i t) on the imaginary
axis) on equal cells in one Bessel batch, the one Delta alone takes: the
slope's rows D are cut to the orders of that batch, which drops the term in
j_{2K-4}: up to 2e-13 of max |Delta'| on Kamke at N_opt = 38, but at N = 0,
where it belongs to the j_0 row that carries the sin z/w fold, 0.85 of it on
the degenerate problem's Dirichlet pair and 1.3e-3 to 0.85 on Kamke's four
pairs (2001 nodes up to w = 200).  The slope only seeds Newton's method.  The
sign changes are counted first, and those of the roots a search returns
(all of them unless it asks for a count) are refined in lockstep by
Newton's method on Delta kept inside each bracket, one batched call of
Delta and dDelta/dw per step, until the Newton step is no longer than
``REFINE_TOL * max(1, w)``.  Delta is an entire function of lambda = w^2 of
exponential type, sampled at ten nodes per period, so the interpolant of
the 32 scanned values around a bracket places its root at rounding level
(barycentric form: Berrut & Trefethen, SIAM Rev. 46, 2004), or near it on
w = i t, where Delta grows like exp(t b) across the window; both searches'
functions are even in w, so at w = 0 the samples are mirrored.  Each root
starts from that interpolant's root, reached by two Newton steps on it
from the root of the bracket's cubic Hermite interpolant of the scanned
values and slopes; a root on a scan node starts there.  On Kamke one
evaluation closes every root of a sweep, so a sweep takes one Bessel batch
after its scan.  The scan only moves forward: more range appends cells
past the last node, so roots come out in increasing order and none is
refined twice.  All of Delta's dependence on w is in its Bessel batch, and
the boundary conditions only fold the rows at B, so a scan's batch at given
nodes is the same for every boundary pair: the evaluator keeps the batches
of the last two scan lattices it met, each under the dtype, shape and bytes
of its nodes, and a scan on the same nodes (a scan of the same size on
another pair, the same sweep again, or a large sweep after small ones)
contracts its own rows with one of them and takes no Bessel batch of its
own.  Every other evaluation -- Delta, the refinement's pair (Delta,
Delta'), the solutions and the basis -- computes its batch.  A search
returns one :class:`Spectrum`, a table of aligned arrays (index, omega,
lambda, residual, iterations) straight from the refiner's arrays; its rows
are :class:`EigenResult` tuples, built only when a caller reads them.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .bessel import MAX_IMAG, cos_and_sin, spherical_jn_matrix
from .coefficients import CoefficientSet
from .grid import interpolate
from .liouville import LiouvilleData
from .seed import SeedSolution

#: eigenvalue scan step, as a fraction of the asymptotic spacing pi/b
SCAN_STEP_FACTOR = 0.2
#: refinement closes a root once its Newton step (or its bracket) is no
#: longer than this, relative to max(1, omega): ~2 ulps
REFINE_TOL = 4e-16
#: allowed difference between found roots and the Weyl count estimate
WEYL_SLACK = 2
#: most nodes one eigenvalue scan may sample.  A scan evaluates all its
#: nodes in one batch of about 0.7 kB per node (Kamke, m = 2001, N_opt = 38),
#: so this caps the batch near 0.75 GB; a larger range is refused up front.
#: A negative scan never reaches it: the Bessel limit |Im z| < MAX_IMAG
#: leaves it at most ceil(MAX_IMAG / (SCAN_STEP_FACTOR pi)) + 1 = 1132 nodes.
#: The evaluator keeps the batches of its last two scans (its scan table)
#: only while together they hold at most this many nodes, so it never holds
#: more nodes than that: on Kamke 0.18 MB for the 516 real nodes of a
#: 100-sweep, 1.7 MB for the 5017 of a 1000-sweep, 1.9 MB for the two,
#: twice as much per node on the imaginary axis
MAX_SCAN_NODES = 2**20
#: scan samples each root's first iterate interpolates
_WINDOW = 32
#: terms in sigma that carry that interpolant on its root's cell: at ten
#: samples per period they drop (pi/10)^12 / (12! 2^11) = 1e-18 of max |f|
_CELL_TERMS = 12


@dataclass(frozen=True)
class BoundarySpec:
    """Separated two-point boundary conditions.

    ``a1 * v(A) + a2 * v'(A) = 0`` and ``b1 * v(B) + b2 * v'(B) = 0``;
    each coefficient must be finite and each pair nontrivial.
    """

    a1: float
    a2: float
    b1: float
    b2: float

    def __post_init__(self):
        if not np.all(np.isfinite((self.a1, self.a2, self.b1, self.b2))):
            raise ValueError(f"boundary coefficients must be finite: {self}")
        if self.a1 == 0.0 and self.a2 == 0.0:
            raise ValueError("boundary pair (a1, a2) must not be (0, 0)")
        if self.b1 == 0.0 and self.b2 == 0.0:
            raise ValueError("boundary pair (b1, b2) must not be (0, 0)")

    def initial_values(self):
        """The unit-norm initial pair (u(A), u'(A)) killing the A-form."""
        nrm = float(np.hypot(self.a1, self.a2))
        return self.a2 / nrm, -self.a1 / nrm


DIRICHLET = BoundarySpec(1.0, 0.0, 1.0, 0.0)


class EigenResult(NamedTuple):
    """A row of a :class:`Spectrum`: one eigenvalue with its diagnostics,
    each field a Python ``int`` or ``float``."""

    k: int
    omega: float
    lam: float
    char_residual: float
    refinement_iterations: int


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The eigenvalues of one search as five aligned read-only arrays.

    Entry i of every column belongs to the same root:

    ``k`` (int64)
        the index: 1, 2, ... in increasing lam from
        :meth:`SolutionEvaluator.find_eigenvalues`; -1, -2, ... from the
        most negative lam from
        :meth:`SolutionEvaluator.find_negative_eigenvalues`.
    ``omega``
        sqrt(|lam|).
    ``lam``
        the eigenvalue, omega * omega, or its negative.
    ``char_residual``
        an estimate of the distance to the true root in omega units: the
        last Newton step |Delta / Delta'| (0 on a scan node; at omega = 0,
        where Delta' vanishes, |Delta| itself).
    ``refinement_iterations`` (int64)
        the evaluations of Delta and Delta' spent on the root after the
        scan.

    ``len()``, iteration and indexing by an integer or a slice give
    :class:`EigenResult` rows (a slice gives a list of them), built on
    demand.
    """

    k: np.ndarray
    omega: np.ndarray
    lam: np.ndarray
    char_residual: np.ndarray
    refinement_iterations: np.ndarray

    def __post_init__(self):
        for col in self._columns:
            col.flags.writeable = False

    @property
    def _columns(self):
        return (self.k, self.omega, self.lam, self.char_residual,
                self.refinement_iterations)

    def __len__(self):
        return len(self.k)

    def __iter__(self):
        return iter(self[:])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(EigenResult._make,
                            zip(*(col[i].tolist() for col in self._columns))))
        return EigenResult._make(col[i].item() for col in self._columns)


class SolutionEvaluator:
    """Evaluates the basis, its derivatives, IVP solutions, and eigenvalues.

    Parameters
    ----------
    coeffs : CoefficientSet
    data : LiouvilleData
    seed : SeedSolution
        The three artifacts of the construction pipeline, on one grid and
        ``seed`` the one ``coeffs`` was built from (else ``ValueError``).
        The seed is only checked: no evaluation reads it, since the
        coefficients do not depend on omega.
    N : int, optional
        Truncation order; defaults to ``coeffs.N_opt``.  Must not exceed
        ``coeffs.N``.

    Notes
    -----
    Instances are safe to share across threads; evaluation at distinct
    spectral points is independent.  The one state that changes after
    construction is the scan table: the read-only Bessel buffers of the
    last two eigenvalue scans' lattices (each scan takes one, for Delta and
    its slope), newest first, each keyed by its nodes' dtype, shape and
    bytes, which a later scan on the same nodes contracts with its own
    boundary rows instead of computing the batch again.  Only scans read
    or write it.  A new lattice goes in front, and the one before it stays
    while the two hold at most ``MAX_SCAN_NODES`` nodes (counted from the
    buffers).  The table is one tuple, replaced by a single assignment and
    read once per scan, so a scan that races another one builds and uses
    its own table, and every result has the bits it has on a fresh
    evaluator.
    """

    def __init__(self, coeffs: CoefficientSet, data: LiouvilleData,
                 seed: SeedSolution, N: int | None = None):
        if not coeffs.grid == data.grid:
            raise ValueError("coefficients and transformation data are on "
                             "different grids")
        if not (np.array_equal(seed.g, coeffs.seed.g)
                and np.array_equal(seed.g_prime, coeffs.seed.g_prime)):
            raise ValueError("the seed is not the one the coefficients "
                             "were built from")
        if N is None:
            N = coeffs.N_opt
        if not 0 <= N <= coeffs.N:
            raise ValueError(f"N = {N} outside [0, {coeffs.N}]")
        self.coeffs = coeffs
        self.data = data
        self.N_used = int(N)

        # the weight table R (module docstring): the odd orders fold onto
        # their even neighbours, up to j_{N+1} for odd N
        l, rho = data.l, data.rho
        s = data.rho_prime / rho
        n = np.arange(N + 1)[:, None]
        sign = 2.0 * (-1.0) ** (n // 2)
        # l/(2n+1) on odd n turns j_{n-1} + j_{n+1} into j_n/omega
        c = np.where(n % 2, sign / (2 * n + 1) * l, sign)
        R = np.zeros((4, (N + 1) // 2 + 3, l.size), dtype=complex)
        R[0, 0] = 1.0 / rho
        R[2, 0], R[2, 1], R[3, 0] = coeffs.G1 / rho, -1.0 / rho, 1.0 / rho
        for i, a in ((0, coeffs.alpha), (2, coeffs.mu)):
            np.multiply(c[0::2], a[0:N + 1:2], out=R[i, 2:3 + N // 2])
            odd = c[1::2] * a[1:N + 1:2]  # onto j_{n-1} and j_{n+1}
            R[i + 1, 2:2 + len(odd)] = odd
            R[i + 1, 3:3 + len(odd)] += odd
        R[1, 2] += l / rho  # sin(z)/omega = l j_0(z)
        R[3, 2] += coeffs.G2 * l / rho
        R[2:] *= data.sqrt_r_over_p
        R[2:] -= s * R[:2]
        # mix the rows into the initial-value basis phi, psi by their values
        # at A, where z = 0 for every omega (cos z = j_0 = 1, j_n = 0 for
        # n > 0) and v2/omega = 0 since l(A) = 0
        v1, _, v1p, v2p = R[:, 0, 0] + R[:, 2, 0]
        self._p_A = data.p_s[0]
        R[0::2] -= (v1p / v2p) * R[1::2]
        R[0::2] /= v1
        R[1::2] /= self._p_A * v2p
        if self.is_real_problem:
            # phi and psi are real; the imaginary part is the discretization
            # residue of a complex seed
            R = R.real
        # stored orders first, as the kernel takes its rows
        R = np.ascontiguousarray(np.moveaxis(R, 1, 0))
        self._grid_table = (l, R, data.p_s)
        # R's column at B and, one even order longer, the rows of Delta'/omega
        self._l_B = l[-1]
        R_B = R[..., -1]
        self._end_rows = np.stack((np.vstack((R_B, np.zeros(4))),
                                   _derivative_rows(R_B, self._l_B)), axis=1)
        # (key, read-only Bessel buffer) pairs of the last two scan
        # lattices, newest first; a key is the nodes' (dtype, shape, bytes)
        self._scan_table = ()

    # -- basic properties ---------------------------------------------------

    @property
    def is_real_problem(self) -> bool:
        """True when p, q, r are all real-valued (eigenvalues live on the
        real lambda axis and the characteristic function is analytically
        real for real omega)."""
        return np.isrealobj(self.data.q_s)

    # -- series assembly ----------------------------------------------------

    def _table(self, at):
        """(l, R, p) on the grid (``at`` None) or interpolated at ``at``."""
        if at is None:
            return self._grid_table
        return tuple(interpolate(self.data.grid, arr, at)
                     for arr in self._grid_table)

    def _basis(self, omega, table):
        omega = _as_array(omega)
        phi, psi, phip, psip = _kernel(omega, *table[:2])
        w = omega.reshape(omega.shape + (1,) * np.ndim(table[0]))
        with _refuse_overflow(omega):
            return phi, w * psi, phip, w * psip

    def eval_basis(self, omega, at=None):
        """The truncated basis pair (phi, omega psi) at spectral parameter
        omega, where phi(A) = 1, phi'(A) = 0 and psi(A) = 0, p(A) psi'(A) = 1;
        real for a real problem at real omega.

        Parameters
        ----------
        omega : real or complex, scalar or array
        at : None, scalar, or array of ordinates
            ``None`` evaluates on the construction grid; otherwise the
            coefficient functions are interpolated at the given points.

        Returns
        -------
        (phi, omega psi) : arrays of shape ``omega.shape + ordinates.shape``
            (scalars for a scalar omega and a scalar ``at``)
        """
        return self._basis(omega, self._table(at))[:2]

    def eval_basis_prime(self, omega, at=None):
        """Derivatives (phi', omega psi') of the basis pair, same
        conventions."""
        return self._basis(omega, self._table(at))[2:]

    def wronskian(self, omega, at=None):
        """p * (v1 v2' - v1' v2); equals omega identically for the true
        solutions, so its flatness measures the truncation error.  Its
        products can overflow where the basis is finite; they raise
        ``ValueError`` like the basis itself."""
        table = self._table(at)
        # as arrays: numpy's product of two complex scalars can round
        # differently from its array loop, which a batch entry goes through
        v1, v2, v1p, v2p = map(np.asarray, self._basis(omega, table))
        with _refuse_overflow(omega):
            return table[-1] * (v1 * v2p - v1p * v2)

    # -- initial-value problems ----------------------------------------------

    def solve_ivp(self, omega, u_A, uprime_A, at=None):
        """Solution of the initial-value problem on the grid.

        Returns the pair (u, u') with u(A) = ``u_A``, u'(A) = ``uprime_A``,
        assembled as u_A phi + p(A) u'_A psi, one truncated series for every
        omega, 0 included; a batch of omegas gives arrays of shape
        ``omega.shape + ordinates.shape``.  Non-finite initial values raise
        ``ValueError``.  An initial value with zero imaginary part counts as
        real, so a real problem with real omega and data has a real result.
        """
        for name, x in (("u_A", u_A), ("uprime_A", uprime_A)):
            if not np.isfinite(x):
                raise ValueError(f"{name} must be finite, got {x!r}")
        omega = _as_array(omega)
        phi, psi, phip, psip = _kernel(omega, *self._table(at)[:2])
        c1, c2 = _as_array(u_A), self._p_A * _as_array(uprime_A)
        with _refuse_overflow(omega):
            return c1 * phi + c2 * psi, c1 * phip + c2 * psip

    # -- eigenvalue machinery -------------------------------------------------

    def characteristic(self, omega, bc: BoundarySpec, derivative=False):
        """Delta(omega) = b1 u(B) + b2 u'(B), u the unit A-side solution.

        ``omega`` is a scalar or an array (omega = 0 is an ordinary entry);
        the result has its shape and is real for a real problem at real
        omega.  With ``derivative`` the result is the pair (Delta,
        dDelta/domega), both from one Bessel batch two orders longer.
        Either form computes its own batch and leaves the scan table (class
        notes) as it is.
        """
        omega = _as_array(omega)
        rows = self._rows_at_B(bc)
        if derivative:
            S = _kernel(omega, self._l_B, rows)
            with _refuse_overflow(omega):
                return S[0], omega * S[1]
        # Delta's row alone, without its zero last order
        return _kernel(omega, self._l_B, rows[:-1, :1])[0]

    def _rows_at_B(self, bc):
        """The rows of (Delta, Delta'/omega): R's rows at B folded by the B
        form of c1 phi + c2 psi."""
        u_A, uprime_A = bc.initial_values()
        c1, c2 = u_A, self._p_A * uprime_A
        form = np.array([bc.b1 * c1, bc.b1 * c2, bc.b2 * c1, bc.b2 * c2])
        return self._end_rows @ form

    def _delta_pair(self, omega, bc, scan=False):
        """(Delta, dDelta/domega) at omega, ``characteristic(omega, bc,
        derivative=True)``; with ``scan`` a scan's pair from the Bessel
        buffer of Delta alone, taken from the scan table or computed and put
        in front of it (class notes), so that a scan takes no other batch:
        Delta with the bits of ``characteristic(omega, bc)``, and Delta' from
        its rows cut to the buffer's orders, which drops the j_{2K-4} term
        that only the longer batch holds."""
        if not scan:
            return self.characteristic(omega, bc, derivative=True)
        omega = _as_array(omega)
        rows = self._rows_at_B(bc)[:-1]
        key = (omega.dtype, omega.shape, omega.tobytes())
        table = self._scan_table
        B = next((buf for k, buf in table if k == key), None)
        if B is None:
            B = _bessel_buffer(omega, self._l_B, len(rows))
            if omega.size <= MAX_SCAN_NODES:
                B.flags.writeable = False
                # the newest entry before this one stays while both fit
                self._scan_table = ((key, B),) + tuple(
                    (k, buf) for k, buf in table[:1]
                    if buf[0].size + omega.size <= MAX_SCAN_NODES)
        S = _contract(omega, rows, B)
        with _refuse_overflow(omega):
            return S[0], omega * S[1]

    def find_eigenvalues(self, bc: BoundarySpec, omega_max=None,
                         count_hint=None):
        """Eigenvalues lam = omega^2 with omega in [0, omega_max], as one
        :class:`Spectrum` with k = 1, 2, ... in increasing omega.

        Delta(omega) and its slope are sampled with step
        ``SCAN_STEP_FACTOR * pi / b`` (a fifth of the asymptotic eigenvalue
        spacing in the transformed variable) in one batched call, and its
        sign changes are refined together by Newton's method, each from the
        root of the interpolant through the 32 scanned values around its
        cell, mirrored about omega = 0 since Delta is even in omega (module
        docstring).  When the number of sign changes and roots on scan
        nodes disagrees with the Weyl count estimate floor(omega_max*b/pi)
        by more than ``WEYL_SLACK``, the scan is repeated once at half step
        and a warning is emitted.  With ``count_hint`` (>= 0) the scan is
        extended by (omega_max, 1.3 omega_max] at full step, up to eight
        times, until that many roots are counted; only the first
        ``count_hint`` are refined and returned, or a warning names how
        many were found up to which omega.  No batch
        exceeds ``MAX_SCAN_NODES`` nodes: an ``omega_max`` (or the one
        ``count_hint`` implies) whose half-step re-scan would sample more,
        ceil(2 omega_max / step) + 1, is refused up front, above about
        ``(MAX_SCAN_NODES - 1) * step / 2``.  The first scan and each
        extension sample fewer nodes at once (an extension at most
        1.9 omega_max / step).

        Only real spectra are searched: complex q is rejected.
        """
        if not self.is_real_problem:
            raise ValueError(
                "eigenvalue search requires real p, q, r "
                "(complex problems have complex spectra)"
            )
        if count_hint is not None and count_hint < 0:
            raise ValueError(f"count_hint must be >= 0, got {count_hint}")
        source = ""
        if omega_max is None:
            if count_hint is None:
                raise ValueError("provide omega_max or count_hint")
            omega_max = (count_hint + 3) * np.pi / self.data.b
            source = f" (from count_hint = {count_hint})"
        elif not np.isfinite(omega_max):
            raise ValueError(f"omega_max must be finite, got {omega_max}")
        step = SCAN_STEP_FACTOR * np.pi / self.data.b
        half = 0.5 * step
        # the half-step re-scan samples the most nodes at once
        if np.ceil(omega_max / half) + 1 > MAX_SCAN_NODES:
            usable = (MAX_SCAN_NODES - 1) * half
            raise ValueError(
                f"omega_max = {omega_max:.6g}{source} is beyond the largest "
                f"usable omega_max = {usable:.6g} for this problem"
            )

        delta = partial(self._delta_pair, bc=bc)
        scans = []  # (roots found, their refinement, end pair) per scan
        if omega_max > 0:
            # Delta depends on omega only through omega^2
            scans = [_scan_roots(delta, 0.0, omega_max, step, even=True)]
            expected = int(np.floor(omega_max * self.data.b / np.pi))
            if abs(scans[0][0] - expected) > WEYL_SLACK:
                warnings.warn(
                    f"found {scans[0][0]} eigenvalues where the count "
                    f"estimate gives {expected}; re-scanning at half step",
                    stacklevel=2,
                )
                scans = [_scan_roots(delta, 0.0, omega_max, half, even=True)]
            for _ in range(0 if count_hint is None else 8):
                if sum(s[0] for s in scans) >= count_hint:
                    break
                scans.append(_scan_roots(delta, omega_max, 1.3 * omega_max,
                                         step, scans[-1][2]))
                omega_max *= 1.3
        found = sum(s[0] for s in scans)
        if count_hint is not None:
            if found < count_hint:
                warnings.warn(
                    f"found {found} of the {count_hint} eigenvalues "
                    f"asked for, scanning up to omega = {omega_max:.6g}",
                    stacklevel=2,
                )
            found = min(found, count_hint)
        parts = [(np.zeros(0), np.zeros(0), np.zeros(0, dtype=int))]
        for n, roots, _ in scans:
            parts.append(roots(found))
            found = max(found - n, 0)
        omega, res, iters = map(np.concatenate, zip(*parts))
        return Spectrum(np.arange(1, omega.size + 1), omega, omega * omega,
                        res, iters)

    def find_negative_eigenvalues(self, bc: BoundarySpec, lambda_floor):
        """Roots with lam in [lambda_floor, 0), scanned as omega = i*t.

        Delta(i t) is real for real problems; its real part goes through
        the scan and refinement of :meth:`find_eigenvalues` on
        t in [0, t_max = sqrt(-lambda_floor)], with step
        min(SCAN_STEP_FACTOR * pi / b, t_max / 8).  A root at t = 0, or
        within the refinement's closing width REFINE_TOL of it, is lambda = 0
        and is dropped (lambda = 0 is not negative).  Returns one
        :class:`Spectrum` with omega = t = sqrt(-lam), so lam = -omega**2,
        most negative lambda first, at k = -1.  A floor whose scan would
        reach |Im z| = t_max l(B) >= ``bessel.MAX_IMAG``, where the Bessel
        batch refuses, is refused before any batch, naming the most negative
        usable floor -t^2, t the largest value with t l(B) < ``MAX_IMAG``
        (floors near it can still overflow in the series).  Every floor
        above it scans at most 1132 nodes in one batch.
        """
        if not self.is_real_problem:
            raise ValueError("eigenvalue search requires real p, q, r")
        if not -np.inf < lambda_floor < 0:
            raise ValueError("lambda_floor must be negative and finite")
        t_max = float(np.sqrt(-lambda_floor))
        if t_max * self._l_B >= MAX_IMAG:  # the scan's largest |Im z|
            # the largest t with |Im z| = t l(B) < MAX_IMAG
            t = MAX_IMAG / self._l_B
            while t * self._l_B >= MAX_IMAG:
                t = np.nextafter(t, 0.0)
            raise ValueError(
                f"lambda_floor = {lambda_floor:.6g} is below the most "
                f"negative usable lambda_floor = {-t * t:.6g} for this "
                "problem; floors near it can still overflow in the series"
            )
        step = min(SCAN_STEP_FACTOR * np.pi / self.data.b, t_max / 8)

        def delta(t, scan=False):
            # d/dt Re Delta(i t) = Re(i Delta'(i t)) = -Im Delta'(i t)
            value, slope = self._delta_pair(1j * t, bc, scan)
            return value.real, -slope.imag

        # Re Delta(i t) depends on t only through t^2
        roots = _scan_roots(delta, 0.0, t_max, step, even=True)[1]()
        keep = roots[0] > REFINE_TOL
        t, res, iters = (col[keep][::-1] for col in roots)
        return Spectrum(-np.arange(1, t.size + 1), t, -t * t, res, iters)


def _as_array(x):
    """x as an array, real when its imaginary part is zero throughout."""
    x = np.asarray(x)
    return x if np.any(np.imag(x)) else x.real


@contextmanager
def _refuse_overflow(omega):
    """Turn an overflow or invalid value in the arithmetic of the block into
    ``ValueError`` naming the omega with the largest imaginary part: the
    series values grow like exp(|Im omega| l) and pass DBL_MAX just below
    the Bessel batch's own limit on |Im z|."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        omega = np.asarray(omega)
        worst = omega.flat[np.argmax(np.abs(np.imag(omega)))]
        raise ValueError(
            f"series values overflow at omega = {complex(worst)}: "
            "|Im omega| is too large for this interval"
        ) from exc


def _kernel(omega, l, R):
    """Weight rows R of shape (K, r) + l.shape, orders first, contracted
    with X = (cos z, omega sin z, j_0(z), j_2(z), ..., j_{2K-6}(z)), z =
    omega (x) l, the even rows of one Bessel batch: an array of shape (r,) +
    omega.shape + l.shape, for omega an array from :func:`_as_array`.

    Every evaluation of the series is this, a scalar omega as a batch of
    one: the batch's buffer (:func:`_bessel_buffer`) contracted with R
    (:func:`_contract`), two steps that a scan takes apart to keep its
    buffer.  With the orders first, einsum adds each value's
    terms in order, whatever the batch shape, so a scalar gives the bits of
    its batch entry (where the batch has the same Bessel values).
    """
    return _contract(omega, R, _bessel_buffer(omega, l, len(R)))


def _bessel_buffer(omega, l, K):
    """The buffer of one Bessel batch for K weight orders, of shape
    (2K - 1,) + omega.shape + l.shape: (cos z, sin z, omega sin z, spare,
    j_0(z), j_1(z), ..., j_{2K-6}(z)), z = omega (x) l, float64 or
    complex128 as the Bessel batch is.

    cos z and sin z are computed once, into rows 0 and 1, by the batch's
    own :func:`~nsbf.bessel.cos_and_sin` (real functions of Re z and Im z
    for a complex z), which the batch reads for its closed forms of j_0 and
    j_1 (``cos_sin``) before it writes its rows from the fifth on; omega sin
    z is omega times row 1.  These three rows are taken before the batch
    checks z, with their warnings off: the batch then refuses a z that is
    not finite or too far from the real axis by name, and an overflow in
    omega sin z leaves a value that is not finite, which every contraction
    with the row refuses (:func:`_contract`).
    """
    w = omega.reshape(omega.shape + (1,) * np.ndim(l))
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.multiply.outer(omega, l)
        B = np.empty((2 * K - 1,) + z.shape,
                     dtype=complex if np.iscomplexobj(z) else float)
        z = z.astype(B.dtype, copy=False)
        cos_and_sin(z, out=B[:2])
        np.multiply(w, B[1, ...], out=B[2, ...])
    spherical_jn_matrix(z, 2 * K - 6, out=B[4:], cos_sin=B[:2])
    return B


def _contract(omega, R, B):
    """Weight rows R of shape (K, r) + l.shape contracted with X, every
    other row of the buffer B of :func:`_bessel_buffer` at omega: a view,
    so nothing is copied, and B is only read.

    When R is real and X complex, the real and imaginary parts of the
    result are two real contractions of R with contiguous copies of the
    parts of X, so R is never cast and einsum runs on contiguous operands
    and outputs (the strided parts and outputs cost more than the copies).
    The bits are those of the cast: a complex product with a zero imaginary
    part, x (a + ib) = (x a - 0 b) + i (x b + 0 a), has the real products as
    its parts up to the sign of a zero, which each sum, started from +0,
    drops.  Complex weights (a complex q) meet X in one einsum, which casts
    a real X.  einsum does not report overflow, so the result is checked for
    values that are not finite; they raise ``ValueError``
    (:func:`_refuse_overflow`).
    """
    X = B[0::2]
    spec = "ki...,k...->i..."
    with _refuse_overflow(omega):
        if np.iscomplexobj(R) or not np.iscomplexobj(X):
            S = np.einsum(spec, R, X)
        else:  # a real problem at complex omega
            S = np.empty(R.shape[1:2] + B.shape[1:], dtype=complex)
            S.real = np.einsum(spec, R, np.ascontiguousarray(X.real))
            S.imag = np.einsum(spec, R, np.ascontiguousarray(X.imag))
        if not np.isfinite(S).all():
            raise FloatingPointError
    return S


def _derivative_rows(R, l):
    """Rows D of shape (K + 1, r) with d/domega (R . X) = omega (D . X'),
    for rows R (K, r) over X of :func:`_kernel` at the ordinate ``l``;
    X' is X one even order longer.

    d cos z = -omega l^2 j_0, d(omega sin z) = omega l (cos z + j_0), and
    l j_n' = l (n j_{n-1} - (n+1) j_{n+1})/(2n+1) (DLMF 10.51.2), whose odd
    neighbours fold onto even orders by j_m = omega l (j_{m-1} +
    j_{m+1})/(2m+1) (DLMF 10.51.1).
    """
    D = np.zeros((len(R) + 1,) + R.shape[1:], dtype=R.dtype)
    D[0] = l * R[1]
    D[2] = l * R[1] - l * l * R[0]
    n = 2.0 * np.arange(len(R) - 2)[:, None]  # the orders of R's j rows
    down = n / ((2 * n + 1) * (2 * n - 1))  # on j_{n-2} + j_n
    up = (n + 1) / ((2 * n + 1) * (2 * n + 3))  # on j_n + j_{n+2}
    c = l * l * R[2:]
    D[1:-2] += down * c
    D[2:-1] += (down - up) * c
    D[3:] -= up * c
    return D


def _hermite_start(lo, hi, flo, fhi, dflo, dfhi):
    """The first iterate in each bracket [lo, hi] where f = (``flo``,
    ``fhi``) and f' = (``dflo``, ``dfhi``) at the ends, f changing sign.

    The secant point, clipped into the open bracket (its midpoint where the
    secant is not a number), is moved by two Newton steps on the cubic
    Hermite interpolant of f and f' at the ends, to that cubic's root; the
    move is kept only where its result is finite and strictly inside the
    bracket (a slope that is not finite, or a root of the cubic outside,
    keeps the secant point), and where the secant point is not within
    ``REFINE_TOL * max(1, |x|)`` of an end: that marks a root on a scan
    node, where the scanned slope can be far off (module docstring) and
    the secant point is already the root.  Both are taken with f scaled by
    the larger |f| at the ends, which can pass 1e300 (f(t) = Delta(i t)).
    """
    h = hi - lo
    big = np.maximum(np.abs(flo), np.abs(fhi))
    a, b = flo / big, fhi / big
    x = lo + h * a / (a - b)
    x = np.clip(x, np.nextafter(lo, hi), np.nextafter(hi, lo))
    x = np.where(np.isnan(x), 0.5 * (lo + hi), x)
    with np.errstate(all="ignore"):
        # the cubic a + da s + c2 s^2 + c3 s^3 on s = (x - lo) / h in [0, 1]
        da, db = h * (dflo / big), h * (dfhi / big)
        c2, c3 = 3.0 * (b - a) - 2.0 * da - db, 2.0 * (a - b) + da + db
        s = (x - lo) / h
        for _ in range(2):
            s = s - (a + s * (da + s * (c2 + s * c3))) / (
                da + s * (2.0 * c2 + s * (3.0 * c3)))
        cubic = lo + h * s
    near_end = np.minimum(x - lo, hi - x) <= REFINE_TOL * np.maximum(
        1.0, np.abs(x))
    return np.where(~near_end & np.isfinite(cubic) & (lo < cubic)
                    & (cubic < hi), cubic, x)


@lru_cache(maxsize=None)  # bounded: n <= _WINDOW and p < n
def _cell_rows(n, p):
    """Weights of shape (2, T, n), T = ``_CELL_TERMS``, that take n samples
    at the equispaced nodes s = 0, ..., n - 1 to the coefficients of their
    interpolant P(s) of degree n - 1 on the cell [p, p + 1], as a
    polynomial in sigma = 2 (s - p) - 1 in [-1, 1] truncated after
    sigma^(T-1) ([0]), and to those of dP/dsigma ([1]).

    The interpolant's values at T Chebyshev points of the cell come from
    the barycentric weights (-1)^j C(n - 1, j) (Berrut & Trefethen, SIAM
    Rev. 46, 2004), and a solve with their Vandermonde matrix turns them
    into coefficients that reproduce those values to rounding.  The
    truncation is below rounding for samples of an entire function of
    exponential type taken at ten nodes per period, as the scans take
    Delta: its coefficients in sigma then fall like (pi/10)^k / k!, and
    those the T points miss are 2^(1-T) smaller still.
    """
    sigma = np.cos((np.arange(_CELL_TERMS) + 0.5) * np.pi / _CELL_TERMS)
    j = np.arange(n)
    w = (-1.0) ** j * np.array([math.comb(n - 1, i) for i in j], float)
    q = w / (p + 0.5 * (1.0 + sigma)[:, None] - j)
    rows = np.zeros((2, _CELL_TERMS, n))
    rows[0] = np.linalg.solve(np.vander(sigma, increasing=True),
                              q / q.sum(axis=1, keepdims=True))
    rows[1, :-1] = rows[0, 1:] * np.arange(1, _CELL_TERMS)[:, None]
    rows.flags.writeable = False  # shared by every call through the cache
    return rows


def _window_start(x, lo, hi, samples, first, at):
    """The first iterate in each bracket [lo, hi], from x, the start of
    :func:`_hermite_start`: the root of the interpolant through the window
    of n = min(``_WINDOW``, len(samples)) equispaced samples of f from
    ``samples[first]`` on (``samples`` a contiguous float array), in which
    the bracket is the cell between the samples ``at`` and ``at`` + 1.

    Two Newton steps from x on the interpolant, carried on the bracket by
    :func:`_cell_rows`, find that root.  It is kept only where it is finite
    and strictly inside the bracket, and where x is not within
    ``REFINE_TOL * max(1, |x|)`` of an end, which marks a root on a scan
    node (:func:`_hermite_start`); elsewhere x stays.  Each window is
    scaled by its largest |f| first, since f can pass 1e300 (f(t) = Re
    Delta(i t)) and the weights reach 1e7 at the ends of a window of 32.
    """
    n = min(_WINDOW, samples.size)
    # the largest |f| from each sample on: over 2, 4, 8, ... samples, then n
    # (cheaper than a maximum over the gathered windows' short rows)
    big, width = np.abs(samples), 1
    while width < n:
        step = min(width, n - width)
        big = np.maximum(big[:-step], big[step:])
        width += step
    # the windows, gathered from the rows of one strided view of samples
    scaled = np.ndarray((samples.size - n + 1, n), samples.dtype, samples,
                        0, samples.strides * 2)[first]
    scaled /= big[first, None]
    scaled = scaled.T
    # one product for the windows at the most common place, the middle
    mid = at[at.size // 2] if at.size else 0
    c = _cell_rows(n, mid) @ scaled
    for p in set(at[at != mid].tolist()):
        rows = at == p
        c[..., rows] = _cell_rows(n, p) @ scaled[:, rows]
    h = 0.5 * (hi - lo)
    powers = np.ones((_CELL_TERMS, x.size))
    with np.errstate(all="ignore"):
        s = (x - lo) / h - 1.0
        for _ in range(2):
            for k in range(1, _CELL_TERMS):
                np.multiply(powers[k - 1], s, out=powers[k])
            value, slope = np.einsum("ikb,kb->ib", c, powers)
            s = s - value / slope
        y = lo + h * (1.0 + s)
    near_end = np.minimum(x - lo, hi - x) <= REFINE_TOL * np.maximum(
        1.0, np.abs(x))
    return np.where(~near_end & (lo < y) & (y < hi), y, x)


def _refine_brackets(f, x, lo, hi, flo):
    """Roots of ``f`` in the brackets [lo, hi] (arrays, narrowed in place),
    where f(lo) = ``flo`` and f changes sign, from the first iterates x
    (moved in place).  :func:`_scan_roots` passes only the brackets of the
    roots a search returns, each with the root of the interpolant of the
    scan's values around it (:func:`_window_start`, on samples mirrored
    about t = 0 for an even f).

    Newton's method in lockstep: each step calls ``f(xs)`` once for the
    open brackets, which gives f and f' there, and the sign of f narrows
    the bracket.  A Newton step that would leave its bracket, or that is
    not at least halving the one before it, gives way to the midpoint, so
    brackets shrink even where f is rounding noise.  A root closes when f
    vanishes, when its bracket is no wider than ``REFINE_TOL * max(1,
    |x|)``, or when its Newton step |f/f'| is no longer than that; the
    closing step is then taken, only clipped to the bracket, since it can
    be below one ulp of x.  Returns arrays (x, |f/f'| at the last iterate,
    evaluations).
    """
    sign_lo = np.sign(flo)
    moved = hi - lo  # the length of the step before
    res = np.zeros(lo.size)
    iters = np.zeros(lo.size, dtype=int)
    todo = np.arange(lo.size)
    while todo.size:
        xs = x[todo]
        fs, dfs = f(xs)
        iters[todo] += 1
        up = np.sign(fs) == sign_lo[todo]  # the root is in [xs, hi]
        a = lo[todo] = np.where(up, xs, lo[todo])
        b = hi[todo] = np.where(up, hi[todo], xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(fs == 0.0, 0.0, fs / dfs)
        res[todo] = np.abs(step)
        new = xs - step
        tol = REFINE_TOL * np.maximum(1.0, np.abs(xs))
        done = (res[todo] <= tol) | (b - a <= tol)
        newton = (a < new) & (new < b) & (res[todo] <= 0.5 * moved[todo])
        new = np.where(done, np.clip(np.where(np.isnan(new), xs, new), a, b),
                       np.where(newton, new, 0.5 * (a + b)))
        moved[todo] = np.abs(new - xs)
        x[todo] = new
        todo = todo[~done]
    return x, res, iters


def _scan_roots(f, t0, t1, step, end=None, even=False):
    """The roots of the real function ``f`` on (t0, t1], in increasing t,
    as (n, roots, end): their number n, counted from the scan alone; a
    function ``roots(k=None)`` that refines the first k of them (all by
    default) and returns them as aligned arrays (t, residual, iterations);
    and the pair (f, f') at t1.

    ``f(ts, scan=False)`` takes a 1-D array and returns the pair (f, f')
    there: with ``scan`` from the scan's own batch (Delta's buffer in the
    scan table), else from the refinement's.  It is sampled on equal cells
    no wider than ``step``, all new nodes in one call ``f(ts, scan=True)``.
    ``end`` is the pair at t0 from the scan that ended at t0.  Without it
    the scan is a fresh one and samples t0 as well; t0 then counts as a
    root when |f(t0)| is at rounding level against the largest |f| on the
    first four cells, and a sign change in the first cell is dropped: it
    would only find that root again, through the noise of f next to it.
    The scale is local because f(t) = Delta(i t) grows like exp(t b):
    against the whole scan, any f(t0) would look like rounding.  A node
    where f vanishes is a root as it stands; the cells with a sign change
    among the first k roots go, each with its first iterate, to one
    :func:`_refine_brackets` call.  That iterate is :func:`_window_start`'s,
    from the ``_WINDOW`` samples around the cell (all of them on a shorter
    scan), a window moved inwards at the scan's ends.  ``even`` states that
    f(-t) = f(t): a fresh scan from t0 = 0 then mirrors its samples about
    0, so that the windows at its left end are centred too.  Signs are
    compared, not products, which overflow where |f| grows exponentially
    (f(t) = Delta(i t)).
    """
    n_cells = max(2, int(np.ceil((t1 - t0) / step)))
    ts = np.linspace(t0, t1, n_cells + 1)
    if end is None:
        fs, dfs = f(ts, scan=True)
        scale = max(np.max(np.abs(fs[:5])), np.finfo(float).tiny)
        at_t0 = abs(fs[0]) <= 1e-11 * scale
    else:
        fs, dfs = (np.concatenate(([e], new))
                   for e, new in zip(end, f(ts[1:], scan=True)))
        at_t0 = False  # t0 was the last node of the scan before
    cells = np.flatnonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0.0)
    if at_t0:
        cells = cells[cells > 0]
    node = fs == 0.0
    node[0] = at_t0
    nodes = np.flatnonzero(node)
    # the roots in order: a node's place is its index, a cell's its middle
    places = np.sort(np.concatenate((nodes, cells + 0.5)))
    # the mirrored samples before t0 = 0, then the scan's
    m = min(_WINDOW // 2 - 1, n_cells) if even and t0 == 0.0 else 0
    samples = np.concatenate((fs[m:0:-1], fs))

    def roots(k=None):
        kept = places[:k]
        last = kept[-1] if kept.size else -1.0
        i, j = cells[cells < last], nodes[nodes <= last]
        lo, hi = ts[i], ts[i + 1]
        x = _hermite_start(lo, hi, fs[i], fs[i + 1], dfs[i], dfs[i + 1])
        first = np.clip(i + m - (_WINDOW // 2 - 1), 0,
                        max(samples.size - _WINDOW, 0))
        x = _window_start(x, lo, hi, samples, first, i + m - first)
        x, res, iters = _refine_brackets(f, x, lo, hi, fs[i])
        t = np.concatenate((ts[j], x))
        order = np.argsort(t, kind="stable")
        res = np.concatenate((np.abs(fs[j]), res))
        iters = np.concatenate((np.zeros(j.size, dtype=int), iters))
        return t[order], res[order], iters[order]

    return places.size, roots, (fs[-1], dfs[-1])
