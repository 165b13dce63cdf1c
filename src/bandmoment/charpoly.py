"""Overflow-safe characteristic polynomial evaluation for Hermitian matrices.

Determinants det(lambda - H) scale exponentially in the matrix dimension, so
they are carried in signed-log form.  A Hermitian sample is reduced once to a
real symmetric tridiagonal matrix (unitary similarity, spectrum preserved);
each determinant evaluation is then a three-term recurrence, and eigenvalue
counting is a Sturm sign count on the same recurrence.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np
from scipy.linalg.lapack import zhetrd, zhetrd_lwork

from .lattice import TridiagonalSymmetric

# rescaling window for the determinant recurrence
_RESCALE_HI = 1e150
_RESCALE_LO = 1e-150
# zero-pivot substitute for Sturm counting; negative sign breaks the tie
# toward "not below" (an eigenvalue exactly at lambda is not counted)
_PIVOT_SUB = -1e-300
# below this order zhetrd runs on the calling thread only: waking the BLAS
# pool per reduction costs more than it saves (n=64 on a 2-vCPU x86_64 VM:
# 300 us serial against 280-510 us with 2 BLAS threads, at twice the CPU) and
# makes the time per reduction swing with the load on the other core
_SERIAL_BLAS_N = 400


@functools.lru_cache(maxsize=64)
def _zhetrd_lwork(n: int) -> int:
    work, info = zhetrd_lwork(n)
    if info != 0:  # pragma: no cover - the workspace query cannot fail for n >= 1
        raise RuntimeError(f"zhetrd_lwork failed with info={info}")
    return int(work.real)


@functools.cache
def _blas_threads_local():
    """OpenBLAS's per-thread `openblas_set_num_threads_local` behind scipy's LAPACK, or None.

    It sets the BLAS thread count of the calling thread only and returns the
    previous count, so other threads and the process-wide setting are left
    alone.  Other BLAS builds and older OpenBLAS releases lack it; there the
    reduction runs with whatever threading the library chooses.
    """
    try:
        from scipy.linalg import _flapack
        fn = ctypes.CDLL(_flapack.__file__).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        return None
    fn.argtypes = [ctypes.c_int]
    fn.restype = ctypes.c_int
    return fn


def tridiagonalize(H: np.ndarray, overwrite_a: bool = False) -> TridiagonalSymmetric:
    """Householder reduction of a Hermitian matrix to real symmetric tridiagonal form.

    The result is unitarily similar to H (same characteristic polynomial);
    off-diagonals are normalized to be nonnegative, which leaves the
    characteristic polynomial unchanged (diagonal +-1 similarity).  Only the
    diagonal and upper triangle of H are read.  With `overwrite_a`, a
    Fortran-ordered complex128 H is reduced in place (its contents are
    destroyed) instead of being copied first.  The workspace is LAPACK's
    optimal size, so the blocked reduction runs for n above its crossover.
    Below `_SERIAL_BLAS_N` the reduction uses no BLAS threads besides the
    calling one (where OpenBLAS allows it per thread).
    """
    H = np.asarray(H)
    n = H.shape[0]
    if n == 1:
        return TridiagonalSymmetric(np.array([H[0, 0].real]), np.zeros(0))
    set_local = _blas_threads_local() if n < _SERIAL_BLAS_N else None
    prev = set_local(1) if set_local is not None else None
    try:
        _, d, e, _, info = zhetrd(H, lwork=_zhetrd_lwork(n), overwrite_a=overwrite_a)
    finally:
        if prev is not None:
            set_local(prev)
    if info != 0:  # pragma: no cover - zhetrd cannot fail on finite input
        raise RuntimeError(f"zhetrd failed with info={info}")
    return TridiagonalSymmetric(d, np.abs(e))


def tridiagonalize_batch(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Householder reduction of a stack of Hermitian matrices.

    Parameters
    ----------
    H : (B, N, N) complex array.

    Returns
    -------
    d : (B, N) diagonals, e : (B, N-1) nonnegative off-diagonals.

    Intended for small N where per-sample LAPACK call overhead dominates; the
    arithmetic is O(B N^3) like the LAPACK path.
    """
    H = np.array(H, dtype=complex, copy=True)
    B, n, _ = H.shape
    d = np.empty((B, n))
    e = np.zeros((B, max(n - 1, 0)))
    work = H
    for k in range(n - 1):
        d[:, k] = work[:, 0, 0].real
        x = work[:, 1:, 0]
        nrm = np.linalg.norm(x, axis=1)
        e[:, k] = nrm
        blk = work[:, 1:, 1:]
        m = n - 1 - k
        if m == 1:
            work = blk
            continue
        safe = nrm > 0
        u = np.where(safe[:, None], x / np.where(safe, nrm, 1.0)[:, None],
                     np.eye(m, dtype=complex)[0])
        u0 = u[:, 0]
        a0 = np.abs(u0)
        w = np.where(a0 > 0, u0 / np.where(a0 > 0, a0, 1.0), 1.0)
        v = u.copy()
        v[:, 0] += w
        beta = 2.0 / np.einsum("bi,bi->b", v.conj(), v).real
        vb = np.einsum("bi,bij->bj", v.conj(), blk)
        bv = np.einsum("bij,bj->bi", blk, v)
        vbv = np.einsum("bi,bi->b", v.conj(), bv)
        C = (
            blk
            - beta[:, None, None] * (v[:, :, None] * vb[:, None, :])
            - beta[:, None, None] * (bv[:, :, None] * v[:, None, :].conj())
            + (beta * beta * vbv)[:, None, None] * (v[:, :, None] * v[:, None, :].conj())
        )
        # phase rotation making the new off-diagonal entry equal to +nrm
        C[:, 0, 1:] *= -w.conj()[:, None]
        C[:, 1:, 0] *= -w[:, None]
        if not safe.all():
            C[~safe] = blk[~safe]
        work = C
    d[:, n - 1] = work[:, 0, 0].real
    return d, e


def char_det_many(d: np.ndarray, e2: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det(lambda - T) for a stack of tridiagonal matrices at several lambdas.

    Parameters
    ----------
    d : (B, N) diagonals, e2 : (B, N-1) squared off-diagonals, lams : (L,).

    Returns
    -------
    sign : (B, L) in {-1, 0, +1}, log_mag : (B, L) with -inf where the
    determinant is exactly zero.

    The recurrence p_k = (lambda - d_k) p_{k-1} - e_{k-1}^2 p_{k-2} is rescaled
    whenever |p_k| leaves [1e-150, 1e150], keeping doubles finite for any N.
    """
    d = np.atleast_2d(np.asarray(d, dtype=float))
    e2 = np.atleast_2d(np.asarray(e2, dtype=float))
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    B, n = d.shape
    L = len(lams)
    lam = lams[None, :]
    p_prev = np.zeros((B, L))
    p = np.ones((B, L))
    scale = np.zeros((B, L))
    for k in range(n):
        if k == 0:
            p_prev, p = p, (lam - d[:, 0, None]) * p
        else:
            p_prev, p = p, (lam - d[:, k, None]) * p - e2[:, k - 1, None] * p_prev
        ap = np.abs(p)
        bad = (ap > _RESCALE_HI) | ((ap > 0) & (ap < _RESCALE_LO))
        if bad.any():
            c = np.where(bad, ap, 1.0)
            p = p / c
            p_prev = p_prev / c
            scale += np.log(c)
    sign = np.sign(p)  # float so that NaN inputs propagate to the caller
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mag = np.where(sign != 0, np.log(np.abs(np.where(sign != 0, p, 1.0))) + scale, -np.inf)
    return sign, log_mag


def count_below_many(d: np.ndarray, e2: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Number of eigenvalues strictly below each lambda, for a stack of tridiagonals.

    Sturm count through the LDL^T pivot recurrence q_k = (lambda - d_k)
    - e_{k-1}^2 / q_{k-1}; the number of positive pivots equals the number of
    eigenvalues below lambda (Sylvester inertia).  Exact zero pivots are
    replaced by a tiny negative so an eigenvalue equal to lambda is not
    counted as below.
    """
    d = np.atleast_2d(np.asarray(d, dtype=float))
    e2 = np.atleast_2d(np.asarray(e2, dtype=float))
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    B, n = d.shape
    lam = lams[None, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = lam - d[:, 0, None]
        count = (q > 0).astype(np.int64)
        for k in range(1, n):
            q = np.where(q == 0.0, _PIVOT_SUB, q)
            q = (lam - d[:, k, None]) - e2[:, k - 1, None] / q
            count += q > 0
    return count
