"""Batches of spherical Bessel functions j_0..j_N of the first kind.

Three regimes, selected per argument:

* ``|z| < 1e-4`` -- ascending series (three terms; relative error < 1e-24),
* ``|z| >= N``  -- upward recurrence from the closed forms j_0, j_1 (stable
  there because j_n does not decay for n below |z|),
* otherwise     -- Miller's downward recurrence started at order
  ``N + max(15, ceil(|z|))`` from an arbitrary tail, normalized against the
  closed form of whichever of j_0, j_1 is larger in magnitude.

Finite arguments may be negative or complex with |Im z| < ``MAX_IMAG``, and of
any shape; underflow flushes to zero silently.  In a batch sorted by |z|,
such as the solver's scans and refinement steps and its solves at one
omega (z = omega l on increasing l), each regime is one run of columns.
The upward recurrence then runs straight in its view of the output, and
the series and Miller's columns, normalized on its own work array, go in
by one slice copy each; a regime that is not one run is gathered and
scattered.  That is the case for every regime of a solve or basis at
several omegas, where z = omega (x) l starts again at 0 for each omega,
and of Delta at unsorted omegas.  The output may be the caller's
(``out``), such as rows of a larger buffer: the regimes fill the same views
of it as of a fresh array, so the bits are the same.

Each per-argument quantity is computed once per batch.  |z| is taken once
and passed to Miller's recurrence and to the bound check.  cos z and sin z,
which the closed forms of j_0 and j_1 need in the upward and Miller
regimes, are one :func:`cos_and_sin` over the whole batch -- one
``np.cos`` and one ``np.sin``, of Re z when z is complex -- or the
caller's (``cos_sin``): the solver's kernel needs them for its own rows,
writes them once into its buffer by the same function and hands those rows
over, and each regime reads its columns of them.  That function gives an
argument the same bits in a whole batch as in any part of it, so the
result does not depend on who computed them.  A complex batch also takes
w = 1/z once per column, in each of the two recurrences, and multiplies by
it where a real batch divides by z: in its closed forms and its ratio
table.

Every entry is checked against the magnitude bound
|j_n(z)| <= sqrt(pi) |z/2|^n e^{|Im z|} / Gamma(n + 3/2), with a slack of
1e-6 in its log (``RecurrenceError`` otherwise, naming the first violating
(n, z) in row-major order).  The log bound is concave in n, so a large batch
first passes, by one comparison per column, every column whose largest entry
stays below the bound's least value over n (:func:`_screen`).  Only the
columns that screen cannot pass -- those where that least value is at
n = N (|z| below 0.83 N at N = 38, most of Miller's), z = 0, non-finite
entries -- take the per-entry test, so the outcome is that of the per-entry
test on the whole batch.

A batch costs a fixed handful of array operations per order, whatever its
size.  Both recurrences take their factors (2n+1)/z from one table built by
a single operation, laid into the output rows that the recurrence later
overwrites: a division for a real batch (each entry the same float as a
per-order division), real products with the parts of w for a complex one
(:func:`_fill_ratios`).  Miller's
candidates grow by up to |(2n+1)/z| per step and are multiplied by
``_RESCALE_BY`` wherever they pass ``_RESCALE_AT``.  Testing that on every
step is most of the work for small batches, so a scalar bound rides along
instead: B_{n-1} = (2n+1)/min|z| * B_n + B_{n+1} bounds every candidate of
order n - 1, and the per-entry test runs only on the steps where twice the
bound passes the threshold (the factor 2 absorbs rounding).  Every entry
that would be rescaled is rescaled at the same step by the same factor, so
the output is bitwise that of the test on every step; the start order and
the rescaling depend on the set of arguments, not on their order in the
batch.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RecurrenceError

#: refuse batches beyond this order (downward starts at ~2N; keep it sane)
MAX_ORDER = 512
#: refuse arguments from this |Im z| on, where sin and cos overflow (~710.48)
MAX_IMAG = float(np.arccosh(np.finfo(float).max))

_TINY = 1e-4
_RESCALE_AT = 1e250
_RESCALE_BY = 1e-250

# log(sqrt(pi) / Gamma(n + 3/2)) + 1e-6 for n = 0..MAX_ORDER: the magnitude
# bound, less its z-dependent terms, plus the slack the check allows
_LOG_BOUND = np.array([
    0.5 * math.log(math.pi) - math.lgamma(n + 1.5)
    for n in range(MAX_ORDER + 1)
]) + 1e-6

#: _assert_bound screens batches from this many columns on
_SCREEN_FROM = 128
# log distance a screened column keeps from the bound; the per-entry bound
# at n <= 512 rounds by less than 512 * log(2^1075) * 2^-52 ~ 1e-10
_SCREEN_MARGIN = 1e-8
# a column's largest |j_n| below this (times e^|Im z|) clears the bound at
# n = 0 with that margin
_PEAK_LIMIT = math.exp(_LOG_BOUND[0] - _SCREEN_MARGIN)


def _series(N, z):
    """Ascending series for |z| < 1e-4: j_n = z^n/(2n+1)!! * (1 - ...).

    Every grid solve and fresh scan has a column at z = 0.  A batch of
    zeros alone takes a shortcut: the loop would stop at k = 1, and the
    correction (zeros over positive denominators) has the same bits at
    every order, so the rows are built from n = 0's correction alone, with
    the bits of the general path, signed zeros included.  For real zeros
    that correction is exactly 1 and z / 3 is z, so the rows are 1, z, 0.
    """
    if not z.any():
        out = np.zeros((N + 1,) + z.shape, dtype=z.dtype)
        out[0] = 1.0
        if np.iscomplexobj(z):
            z2 = z * z
            out[1:2] = out[0] * z / 3
            out *= 1.0 - z2 / 6 + z2 * z2 / 120.0
        else:
            out[1:2] = z
        return out
    z2 = z * z
    z4 = z2 * z2
    n = np.arange(N + 1)[:, None]
    corr = 1.0 - z2 / (2 * (2 * n + 3)) + z4 / (
        8.0 * (2 * n + 3) * (2 * n + 5)
    )
    # z^n/(2n+1)!! one order at a time: a product over n in one pass rounds
    # differently, up to 16 ulp away at N = 120
    pref = np.zeros((N + 1,) + z.shape, dtype=z.dtype)
    pref[0] = 1.0
    rows = list(pref)
    prod = np.empty_like(z)
    for k in range(1, N + 1):
        np.multiply(rows[k - 1], z, out=prod)
        np.divide(prod, 2 * k + 1, out=rows[k])
        if not rows[k].any():
            break  # zero from here on: every term underflowed
    return pref * corr


def cos_and_sin(z, out=None):
    """cos z and sin z of an array z, stacked as an array of shape (2,) +
    z.shape (written into ``out`` when given, and returned).

    A real z takes ``np.cos`` and ``np.sin``.  A complex z = x + iy takes
    them of x alone, with ``np.cosh`` and ``np.sinh`` of y: cos z = cos x
    cosh y - i sin x sinh y and sin z = sin x cosh y + i cos x sinh y (DLMF
    4.21.37-38): four real functions and four real products, cheaper than
    ``np.cos`` and ``np.sin`` of the complex z.  Each value depends on its
    own argument alone, so z gives the same bits in a whole batch as in any
    part of it.
    """
    if out is None:
        out = np.empty((2,) + z.shape, dtype=z.dtype)
    cz, sz = out[0, ...], out[1, ...]
    if not np.iscomplexobj(z):
        np.cos(z, out=cz)
        np.sin(z, out=sz)
        return out
    c, s = np.cos(z.real), np.sin(z.real)
    ch, sh = np.cosh(z.imag), np.sinh(z.imag)
    np.multiply(c, ch, out=cz.real)
    np.multiply(s, sh, out=cz.imag)
    np.negative(cz.imag, out=cz.imag)
    np.multiply(s, ch, out=sz.real)
    np.multiply(c, sh, out=sz.imag)
    return out


def _reciprocal(z):
    """1/z for a complex z, whose closed forms and ratio table multiply by
    it; None for a real z, which keeps its divisions (a reciprocal saves it
    no time and rounds Miller's columns further from the true values)."""
    return 1.0 / z if np.iscomplexobj(z) else None


def _closed01(z, cos_sin, w):
    """j_0 and j_1 from their closed forms, with (cos z, sin z) given as
    ``cos_sin`` or, when it is None, computed here (:func:`cos_and_sin`),
    and w = :func:`_reciprocal` of z.

    A real z divides: j_0 = sin z / z, j_1 = sin z / z^2 - cos z / z.  A
    complex z multiplies by w: j_0 = sin z w, j_1 = (j_0 - cos z) w, so
    that one complex division per argument serves both and its ratio table.
    """
    cz, sz = cos_and_sin(z) if cos_sin is None else cos_sin
    if w is None:
        j0 = sz / z
        # z * z = inf above 1.3e154: sz / inf = 0
        with np.errstate(over="ignore"):
            j1 = sz / (z * z) - cz / z
        return j0, j1
    j0 = sz * w
    return j0, (j0 - cz) * w


def _fill_ratios(dest, z, w):
    """Row i of ``dest`` gets the recurrence factor (2n+1)/z at n = i + 1,
    with w = :func:`_reciprocal` of z.

    The input's dtype selects the rule.  A real z takes one division for
    the whole table; its entries equal those of ``(2n+1)/z`` taken one
    order at a time.  A complex z takes (2n+1) w as two real products per
    entry, on the parts of w through float views (so each row of ``dest``
    must be contiguous); they equal the complex product up to the sign of a
    zero and cost less than a complex division.
    """
    n = (2.0 * np.arange(1, dest.shape[0] + 1) + 1.0)[:, None]
    if w is None:
        np.divide(n, z, out=dest)
    else:
        np.multiply(n, w.view(np.float64), out=dest.view(np.float64))


def _upward(N, z, out=None, cos_sin=None):
    """j_0..j_N by the upward recurrence, started from the closed forms of
    j_0 and j_1 (:func:`_closed01`, with ``cos_sin``), written into ``out``
    when given, else into a fresh array."""
    if out is None:
        out = np.empty((N + 1,) + z.shape, dtype=z.dtype)
    w = _reciprocal(z)
    out[:2] = _closed01(z, cos_sin, w)[:N + 1]
    # row n + 1 holds the factor at order n until the step that fills it
    _fill_ratios(out[2:], z, w)
    rows = list(out)
    # the product goes to a separate buffer: a complex multiply written over
    # one of its inputs can round differently
    prod = np.empty_like(z)
    for n in range(1, N):
        np.multiply(rows[n + 1], rows[n], out=prod)
        np.subtract(prod, rows[n - 1], out=rows[n + 1])
    return out


def _downward(N, z, az=None, cos_sin=None):
    if az is None:
        az = np.abs(z)
    M = N + max(15, int(np.ceil(np.max(az))))
    # row n holds the candidate at order n, started from rows M and M + 1;
    # row n - 1 holds the factor at order n until the step that fills it
    work = np.empty((M + 2,) + z.shape, dtype=z.dtype)
    w = _reciprocal(z)
    _fill_ratios(work[:M], z, w)
    work[M] = 1e-280
    work[M + 1] = 0.0
    rows = list(work)
    prod = np.empty_like(z)
    # upper bounds on |row n + 1| and |row n| over the batch
    bound_p, bound_c = 0.0, 1e-280
    # a Python float, so that the bound's update on every step is plain
    # float arithmetic rather than slower numpy scalar arithmetic
    inv_zmin = 1.0 / float(np.min(az))
    for n in range(M, 0, -1):
        jc = rows[n - 1]
        np.multiply(jc, rows[n], out=prod)
        np.subtract(prod, rows[n + 1], out=jc)
        bound_p, bound_c = bound_c, (2 * n + 1) * inv_zmin * bound_c + bound_p
        # the factor 2 covers the rounding of the bound and of the rows
        if 2.0 * bound_c > _RESCALE_AT:
            big = np.abs(jc) > _RESCALE_AT
            if np.any(big):
                # the two live rows and the stored orders n..N
                work[n - 1:max(n, N) + 1, big] *= _RESCALE_BY
            # a rescaled entry drops far below the threshold
            bound_c = min(bound_c, _RESCALE_AT)
    out = work[:N + 1]

    j0, j1 = _closed01(z, cos_sin, w)
    use0 = np.abs(j0) >= np.abs(j1)
    denom = np.where(use0, out[0], out[1])
    true_val = np.where(use0, j0, j1)
    with np.errstate(under="ignore"):
        out *= true_val / denom
    return out


def spherical_jn_matrix(z, N: int, out=None, *, cos_sin=None) -> np.ndarray:
    """j_n(z) for n = 0..N over an array of arguments.

    Returns an array of shape (N+1,) + np.shape(z); dtype follows the
    input (float64 for real arguments, complex128 otherwise).  With
    ``out`` the values are written into it and it is returned; it must
    have that shape and dtype and be writeable and C-contiguous (else
    ``ValueError``), so that its flat view is the array written.
    ``cos_sin``, an array of shape (2,) + np.shape(z) and that dtype
    (else ``ValueError``), holds cos z and sin z as :func:`cos_and_sin`
    gives them, for a caller that needs them too; they are computed here
    otherwise.
    """
    if N < 0:
        raise ValueError("order N must be >= 0")
    if N > MAX_ORDER:
        raise ValueError(f"order N = {N} exceeds the supported cap {MAX_ORDER}")
    z = np.asarray(z)
    shape = z.shape
    z = z.astype(np.complex128 if np.iscomplexobj(z) else np.float64,
                 copy=False).ravel()
    if out is None:
        out = np.empty((N + 1,) + shape, dtype=z.dtype)
    elif not (isinstance(out, np.ndarray) and out.shape == (N + 1,) + shape
              and out.dtype == z.dtype and out.flags.c_contiguous
              and out.flags.writeable):
        raise ValueError(
            f"out must be a writeable C-contiguous {z.dtype} array of shape "
            f"{(N + 1,) + shape}")
    if cos_sin is not None and not (
            isinstance(cos_sin, np.ndarray) and cos_sin.shape == (2,) + shape
            and cos_sin.dtype == z.dtype):
        raise ValueError(
            f"cos_sin must be a {z.dtype} array of shape {(2,) + shape}")
    finite = np.isfinite(z)
    if not finite.all():
        raise ValueError(f"Bessel argument z = {z[~finite][0]} is not finite")
    if np.iscomplexobj(z) and np.any(np.abs(z.imag) >= MAX_IMAG):
        raise ValueError(
            f"Bessel argument |Im z| = {np.max(np.abs(z.imag)):.6g} is not "
            f"below arccosh(DBL_MAX) = {MAX_IMAG:.6g}, where sin and cos "
            "overflow")
    cs = cos_and_sin(z) if cos_sin is None else cos_sin.reshape(2, z.size)
    az = np.abs(z)
    # the three regimes below fill every column of this view of out
    flat = out.reshape(N + 1, z.size)

    tiny = az < _TINY
    up = ~tiny & (az >= max(N, 1))
    cols = _columns(tiny)
    if cols is not None:
        flat[:, cols] = _series(N, z[cols])
    cols = _columns(up)
    if cols is not None:
        # a run of columns is filled in its view (writing it back is then no
        # copy); gathered columns go through a fresh array
        rows = flat[:, cols] if isinstance(cols, slice) else None
        flat[:, cols] = _upward(N, z[cols], rows, cs[:, cols])
    cols = _columns(~tiny & ~up)
    if cols is not None:
        # Miller needs j_1 for normalization; N = 0 still computes row 1
        flat[:, cols] = _downward(max(N, 1), z[cols], az[cols],
                                  cs[:, cols])[:N + 1]
    _assert_bound(z, flat, az)
    return out


def _columns(mask):
    """The columns set in ``mask``: None if there are none, a slice if they
    are one run (indexing then gives a view, not a gathered copy), else
    ``mask`` itself."""
    idx = np.flatnonzero(mask)
    if not idx.size:
        return None
    if idx[-1] - idx[0] == idx.size - 1:
        return slice(idx[0], idx[-1] + 1)
    return mask


def _assert_bound(z, out, az=None):
    """Raise ``RecurrenceError`` at the first (n, z), in row-major order,
    where log|j_n(z)| exceeds the log of the magnitude bound plus 1e-6;
    ``az`` is |z| when the caller has it.

    Batches of ``_SCREEN_FROM`` columns or more go through :func:`_screen`
    first, and only the columns it cannot pass through the per-entry test;
    the screen costs more than it saves on smaller ones.
    """
    if az is None:
        az = np.abs(z)
    if out.shape[1] >= _SCREEN_FROM:
        cols = _columns(~_screen(z, out, az))
        if cols is None:
            return
        z, out, az = z[cols], out[:, cols], az[cols]
    N = out.shape[0] - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs = np.log(np.abs(out))
        # log of the bound plus the slack, built in place
        bound = np.arange(N + 1)[:, None] * np.log(az / 2.0)
        bound += _LOG_BOUND[:N + 1, None]
        if np.iscomplexobj(z):
            bound += np.abs(z.imag)
    # a zero or NaN entry, and a NaN bound (n = 0 at z = 0), never count
    bad = log_abs > bound
    if np.any(bad):
        n_bad, i_bad = np.argwhere(bad)[0]
        raise RecurrenceError(
            f"spherical Bessel magnitude bound violated at n={n_bad}, "
            f"z={z[i_bad]!r}: |j_n|={np.abs(out[n_bad, i_bad]):.3e}"
        )


def _screen(z, out, az=None):
    """True for the columns that cannot violate the bound (``az`` is |z|
    when the caller has it).

    The log bound is concave in n, so its least value over 0..N is at n = 0
    or n = N.  From ``|z| >= 2 exp((c_0 - c_N + margin) / N)`` on, with c_n
    the constant of order n, it is the one at n = 0, log 2 + 1e-6 + |Im z|,
    and a column passes when an upper bound on its largest |j_n| stays
    ``_SCREEN_MARGIN`` below that: the largest |entry| for real batches,
    max|Re| + max|Im| (on the float view) for complex ones.  A NaN anywhere
    in the column fails it.
    """
    N = out.shape[0] - 1
    flat = out.view(np.float64)
    # largest |entry| of each float column, without an |out|-sized temporary
    peak = np.maximum(flat.max(axis=0), -flat.min(axis=0))
    limit = _PEAK_LIMIT
    if np.iscomplexobj(out):
        peak = peak[0::2] + peak[1::2]
        with np.errstate(over="ignore"):  # inf: no finite entry reaches it
            limit = limit * np.exp(np.abs(z.imag))
    flat_from = 0.0 if N == 0 else 2.0 * math.exp(
        (_LOG_BOUND[0] - _LOG_BOUND[N] + _SCREEN_MARGIN) / N)
    return (peak < limit) & ((np.abs(z) if az is None else az) >= flat_from)
