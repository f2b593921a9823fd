"""Batches of spherical Bessel functions j_0..j_N of the first kind.

Three regimes, selected per argument:

* ``|z| < 1e-4`` -- ascending series (three terms; relative error < 1e-24),
* ``|z| >= N``  -- upward recurrence from the closed forms j_0, j_1 (stable
  there because j_n does not decay for n below |z|),
* otherwise     -- Miller's downward recurrence started at order
  ``N + max(15, ceil(|z|))`` from an arbitrary tail, normalized against the
  closed form of whichever of j_0, j_1 is larger in magnitude.

Arguments may be negative or complex; underflow flushes to zero silently.
Every batch is checked against the magnitude bound
|j_n(z)| <= sqrt(pi) |z/2|^n e^{|Im z|} / Gamma(n + 3/2).
"""

from __future__ import annotations

import math

import numpy as np

#: refuse batches beyond this order (downward starts at ~2N; keep it sane)
MAX_ORDER = 512

_TINY = 1e-4
_RESCALE_AT = 1e250
_RESCALE_BY = 1e-250

# log(sqrt(pi) / Gamma(n + 3/2)) for n = 0..MAX_ORDER, the magnitude bound
_LOG_BOUND_CONSTS = np.array([
    0.5 * math.log(math.pi) - math.lgamma(n + 1.5)
    for n in range(MAX_ORDER + 1)
])


def _series(N, z):
    """Ascending series for |z| < 1e-4: j_n = z^n/(2n+1)!! * (1 - ...)."""
    z2 = z * z
    z4 = z2 * z2
    out = np.zeros((N + 1,) + z.shape, dtype=z.dtype)
    pref = np.ones_like(z)
    for n in range(N + 1):
        if n > 0:
            pref = pref * z / (2 * n + 1)
        corr = 1.0 - z2 / (2 * (2 * n + 3)) + z4 / (
            8.0 * (2 * n + 3) * (2 * n + 5)
        )
        out[n] = pref * corr
    return out


def _closed01(z):
    sz = np.sin(z)
    cz = np.cos(z)
    j0 = sz / z
    j1 = sz / (z * z) - cz / z
    return j0, j1


def _upward(N, z):
    out = np.empty((N + 1,) + z.shape, dtype=z.dtype)
    j0, j1 = _closed01(z)
    out[0] = j0
    if N >= 1:
        out[1] = j1
    for n in range(1, N):
        out[n + 1] = (2 * n + 1) / z * out[n] - out[n - 1]
    return out


def _downward(N, z):
    M = N + max(15, int(np.ceil(np.max(np.abs(z)))))
    out = np.zeros((N + 1,) + z.shape, dtype=z.dtype)
    jp = np.zeros_like(z)  # candidate at order n+1
    jc = np.full(z.shape, 1e-280, dtype=z.dtype)  # candidate at order n
    for n in range(M, 0, -1):
        if n <= N:
            out[n] = jc
        jm = (2 * n + 1) / z * jc - jp
        jp = jc
        jc = jm
        big = np.abs(jc) > _RESCALE_AT
        if np.any(big):
            jc = np.where(big, jc * _RESCALE_BY, jc)
            jp = np.where(big, jp * _RESCALE_BY, jp)
            out[:, big] *= _RESCALE_BY
    out[0] = jc

    j0, j1 = _closed01(z)
    use0 = np.abs(j0) >= np.abs(j1)
    denom = np.where(use0, out[0], out[1])
    true_val = np.where(use0, j0, j1)
    with np.errstate(under="ignore"):
        out *= true_val / denom
    return out


def spherical_jn_matrix(z, N: int) -> np.ndarray:
    """j_n(z_i) for n = 0..N over an array of arguments.

    Returns an array of shape (N+1, len(z)); dtype follows the input
    (float64 for real arguments, complex128 otherwise).
    """
    if N < 0:
        raise ValueError("order N must be >= 0")
    if N > MAX_ORDER:
        raise ValueError(f"order N = {N} exceeds the supported cap {MAX_ORDER}")
    z = np.atleast_1d(np.asarray(z))
    z = z.astype(np.complex128 if np.iscomplexobj(z) else np.float64)
    az = np.abs(z)
    out = np.zeros((N + 1,) + z.shape, dtype=z.dtype)

    tiny = az < _TINY
    up = ~tiny & (az >= max(N, 1))
    down = ~tiny & ~up

    if np.any(tiny):
        out[:, tiny] = _series(N, z[tiny])
    if np.any(up):
        out[:, up] = _upward(N, z[up])
    if np.any(down):
        # Miller needs j_1 for normalization; N = 0 still computes row 1
        out[:, down] = _downward(max(N, 1), z[down])[:N + 1]
    _assert_bound(z, out)
    return out


def _assert_bound(z, out):
    N = out.shape[0] - 1
    consts = _LOG_BOUND_CONSTS[:N + 1]
    az = np.abs(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_half = np.log(az / 2.0)
        log_abs = np.log(np.abs(out))
        im = np.abs(z.imag) if np.iscomplexobj(z) else 0.0
        bound = (
            consts[:, None]
            + np.arange(N + 1)[:, None] * log_half[None, :]
            + im
        )
    bad = log_abs > bound + 1e-6
    bad &= np.abs(out) > 0.0
    if np.any(bad):
        n_bad, i_bad = np.argwhere(bad)[0]
        raise AssertionError(
            f"spherical Bessel magnitude bound violated at n={n_bad}, "
            f"z={z[i_bad]!r}: |j_n|={np.abs(out[n_bad, i_bad]):.3e}"
        )
