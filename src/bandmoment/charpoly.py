"""Overflow-safe characteristic polynomial evaluation for Hermitian matrices.

Determinants det(lambda - H) scale exponentially in the matrix dimension, so
they are carried in signed-log form.  A Hermitian sample is reduced once to a
real symmetric tridiagonal matrix (unitary similarity, spectrum preserved);
each determinant evaluation is then a three-term recurrence, and eigenvalue
counting is a Sturm sign count on the same recurrence.

The reduction is LAPACK's: the one-stage Householder `zhetrd` through scipy
below order `_TWO_STAGE_N`, and from there the two-stage `zhetrd_2stage`
(dense to band, then band to tridiagonal; Haidar, Ltaief and Dongarra,
SC'11), which scipy does not wrap and which is called through ctypes.  Both
run on the calling thread alone, so their bits do not depend on the BLAS
thread count.
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
# from this order on, the reduction is the two-stage zhetrd_2stage instead of
# zhetrd.  Serial median ms per reduction, one process, 2-vCPU x86_64 VM:
#   n            256    400    600   1000   1500
#   zhetrd       9.5   26.9   99.5    446   1445
#   two-stage   12.6   25.2   81.3    294    918
# Every reduction runs on the calling thread only.  Waking the BLAS pool costs
# more than it saves for a small matrix (n=64: 300 us serial against 280-510 us
# with 2 BLAS threads, at twice the CPU); for a large one the serial two-stage
# reduction takes about the wall time of the two-thread zhetrd at half its CPU
# (n=1000: 294 ms wall, 289 ms CPU against 309 ms, 586 ms).
_TWO_STAGE_N = 400


@functools.lru_cache(maxsize=64)
def _zhetrd_lwork(n: int) -> int:
    work, info = zhetrd_lwork(n)
    if info != 0:  # pragma: no cover - the workspace query cannot fail for n >= 1
        raise RuntimeError(f"zhetrd_lwork failed with info={info}")
    return int(work.real)


@functools.cache
def _lapack_library():
    """The shared library behind scipy's LAPACK wrappers (ctypes), or None."""
    try:
        from scipy.linalg import _flapack
        return ctypes.CDLL(_flapack.__file__)
    except (ImportError, OSError):
        return None


@functools.cache
def _blas_threads_local():
    """OpenBLAS's per-thread `openblas_set_num_threads_local` behind scipy's LAPACK, or None.

    It sets the BLAS thread count of the calling thread only and returns the
    previous count, so other threads and the process-wide setting are left
    alone.  Other BLAS builds and older OpenBLAS releases lack it; there the
    reduction runs with whatever threading the library chooses.
    """
    fn = getattr(_lapack_library(), "openblas_set_num_threads_local", None)
    if fn is None:
        return None
    fn.argtypes = [ctypes.c_int]
    fn.restype = ctypes.c_int
    return fn


@functools.cache
def _zhetrd_2stage():
    """LAPACK's `zhetrd_2stage` (LAPACK >= 3.7) behind scipy's LAPACK, or None.

    scipy's OpenBLAS exports it with a `scipy_` prefix; a plain LAPACK build
    without one.  LP64 integers, and the two character arguments' lengths
    trail as size_t.
    """
    lib = _lapack_library()
    for name in ("scipy_zhetrd_2stage_", "zhetrd_2stage_"):
        fn = getattr(lib, name, None)
        if fn is not None:
            break
    else:
        return None
    char, ptr, size = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
    intp = ctypes.POINTER(ctypes.c_int)
    # VECT, UPLO, N, A, LDA, D, E, TAU, HOUS2, LHOUS2, WORK, LWORK, INFO
    fn.argtypes = [char, char, intp, ptr, intp, ptr, ptr, ptr, ptr, intp, ptr, intp, intp,
                   size, size]
    fn.restype = None
    return fn


@functools.lru_cache(maxsize=64)
def _zhetrd_2stage_lwork(n: int) -> tuple[int, int]:
    """(LHOUS2, LWORK) that `zhetrd_2stage` asks for at order n, in complex entries."""
    hous2, work, scratch = (np.zeros(1, dtype=complex) for _ in range(3))
    order, query, info = ctypes.c_int(n), ctypes.c_int(-1), ctypes.c_int(0)
    _zhetrd_2stage()(b"N", b"U", order, scratch.ctypes.data, order, scratch.ctypes.data,
                     scratch.ctypes.data, scratch.ctypes.data, hous2.ctypes.data, query,
                     work.ctypes.data, query, info, 1, 1)
    if info.value != 0:  # pragma: no cover - the workspace query cannot fail for n >= 1
        raise RuntimeError(f"zhetrd_2stage workspace query failed with info={info.value}")
    return int(hous2[0].real), int(work[0].real)


def _reduce_two_stage(reduce, H: np.ndarray, overwrite_a: bool):
    """d, e and info of `zhetrd_2stage` (no vectors, upper triangle) on H."""
    n = H.shape[0]
    if H.ndim != 2 or H.shape[1] != n:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    in_place = (overwrite_a and H.dtype == np.complex128 and H.flags.f_contiguous
                and H.flags.writeable and H.flags.aligned)
    a = H if in_place else np.array(H, dtype=np.complex128, order="F")
    lhous2, lwork = _zhetrd_2stage_lwork(n)
    d = np.empty(n)
    e = np.empty(n - 1)
    tau = np.empty(n - 1, dtype=complex)
    hous2 = np.empty(lhous2, dtype=complex)
    work = np.empty(lwork, dtype=complex)
    order, info = ctypes.c_int(n), ctypes.c_int(0)
    reduce(b"N", b"U", order, a.ctypes.data, order, d.ctypes.data, e.ctypes.data,
           tau.ctypes.data, hous2.ctypes.data, ctypes.c_int(lhous2), work.ctypes.data,
           ctypes.c_int(lwork), info, 1, 1)
    return d, e, info.value


def tridiagonalize(H: np.ndarray, overwrite_a: bool = False) -> TridiagonalSymmetric:
    """Householder reduction of a Hermitian matrix to real symmetric tridiagonal form.

    The result is unitarily similar to H (same characteristic polynomial);
    off-diagonals are normalized to be nonnegative, which leaves the
    characteristic polynomial unchanged (diagonal +-1 similarity).  Only the
    diagonal and upper triangle of H are read.  With `overwrite_a`, a
    Fortran-ordered complex128 H is reduced in place (its contents are
    destroyed) instead of being copied first.

    Below `_TWO_STAGE_N` the reduction is scipy's `zhetrd` with LAPACK's
    optimal workspace, so the blocked reduction runs for n above its
    crossover.  From there it is LAPACK's two-stage `zhetrd_2stage` (dense to
    band by blocked Householder, then band to tridiagonal by bulge chasing),
    which does most of its work in matrix-matrix products; where the library
    lacks it, `zhetrd` is used at every order.  Either way the reduction uses
    no BLAS threads besides the calling one (where OpenBLAS allows it per
    thread), so its bits do not depend on the BLAS thread count.
    """
    H = np.asarray(H)
    n = H.shape[0]
    if n == 1:
        return TridiagonalSymmetric(np.array([H[0, 0].real]), np.zeros(0))
    two_stage = _zhetrd_2stage() if n >= _TWO_STAGE_N else None
    set_local = _blas_threads_local()
    prev = set_local(1) if set_local is not None else None
    try:
        if two_stage is not None:
            d, e, info = _reduce_two_stage(two_stage, H, overwrite_a)
        else:
            _, d, e, _, info = zhetrd(H, lwork=_zhetrd_lwork(n), overwrite_a=overwrite_a)
    finally:
        if prev is not None:
            set_local(prev)
    if info != 0:  # pragma: no cover - the reduction cannot fail on finite input
        raise RuntimeError(f"Hermitian tridiagonal reduction failed with info={info}")
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
        shift = np.empty_like(q)
        mask = np.empty(q.shape, dtype=bool)
        for k in range(1, n):
            np.copyto(q, _PIVOT_SUB, where=np.equal(q, 0.0, out=mask))
            np.divide(e2[:, k - 1, None], q, out=q)
            np.subtract(lam, d[:, k, None], out=shift)
            np.subtract(shift, q, out=q)
            count += np.greater(q, 0.0, out=mask)
    return count
