"""Overflow-safe characteristic polynomial evaluation for Hermitian matrices.

Determinants det(lambda - H) scale exponentially in the matrix dimension, so
they are carried in signed-log form.  A Hermitian sample is reduced once to a
real symmetric tridiagonal matrix (unitary similarity, spectrum preserved),
held as its diagonal and off-diagonal arrays (d, e); each determinant
evaluation is then a three-term recurrence, and eigenvalue counting is a
Sturm sign count on the same recurrence.

The reduction is LAPACK's, called through ctypes (`_lapack`): the one-stage
Householder `zhetrd` below order `_TWO_STAGE_N`, and from there the two-stage
`zhetrd_2stage` (dense to band, then band to tridiagonal; Haidar, Ltaief and
Dongarra, SC'11).  Both run on the calling thread alone, so their bits do not
depend on the BLAS thread count, and both release the interpreter lock, so
worker threads reduce samples at the same time.
"""

from __future__ import annotations

import ctypes
import threading
import weakref

import numpy as np

from . import _lapack

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
_COMPLEX = np.dtype(np.complex128)


class _Reduction:
    """LAPACK's reduction of one order n to tridiagonal form, set up once.

    Below `_TWO_STAGE_N` it is `zhetrd` with the workspace LAPACK's query
    asks for, so the blocked reduction runs for n above its crossover.  From
    there it is the two-stage `zhetrd_2stage` (dense to band by blocked
    Householder, then band to tridiagonal by bulge chasing), which does most
    of its work in matrix-matrix products; where the library lacks it, `zhetrd`
    is used at every order.  The workspace and every ctypes argument are built
    here, so a loop over many samples of one order pays for them once.  The
    object holds its buffers across calls, so each thread has its own
    (`_thread_reduction`).
    """

    def __init__(self, n: int):
        self.n = n
        two_stage = _lapack.zhetrd_2stage() if n >= _TWO_STAGE_N else None
        self._call = two_stage or _lapack.zhetrd()
        # N, LHOUS2, LWORK, INFO; -1 sizes make the first call a workspace query
        self._ints, (order, lh, lw, info) = _lapack.c_ints(n, -1, -1, 0)
        one = ctypes.c_size_t(1)

        def args(a, d, e, tau, hous2, work):
            if two_stage is not None:
                return [b"N", b"U", order, a, order, d, e, tau, hous2, lh, work, lw, info, one, one]
            return [b"U", order, a, order, d, e, tau, work, lw, info, one]

        sizes = np.zeros(2, dtype=complex)  # the query's answers: LHOUS2, LWORK
        at = [ctypes.c_void_p(sizes.ctypes.data + 16 * i) for i in (0, 1)]
        self._call(*args(at[0], at[0], at[0], at[0], at[0], at[1]))
        if self._ints[3] != 0:  # pragma: no cover - the workspace query cannot fail for n >= 2
            raise RuntimeError(f"workspace query failed with info={self._ints[3]}")
        lhous2, lwork = (int(x.real) for x in sizes)
        self._ints[1], self._ints[2] = lhous2, lwork
        # separate arrays: carving them from one buffer made n = 64 ~8% slower
        # (2-vCPU x86_64 VM)
        self.d, self.e = np.empty(n), np.empty(n - 1)
        self._buffers = [np.empty(k, dtype=complex) for k in (n - 1, lhous2, lwork)]
        self._args = args(None, *(ctypes.c_void_p(x.ctypes.data)
                                  for x in (self.d, self.e, *self._buffers)))
        self._a_at = self._args.index(None)
        self._a = lambda: None   # a weak reference to the array `_args` points at
        self._set_local = _lapack.blas_threads_local()

    def __call__(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reduce `a` in place; its tridiagonal form (d, e) in fresh arrays, e made nonnegative.

        `a` must be an (n, n) Fortran-ordered, writeable complex128 array;
        only its diagonal and upper triangle are read.  The BLAS of the
        calling thread is set to one thread for the call and put back after.
        """
        if self._a() is not a:
            # pointer first: an interrupt between these two lines then leaves
            # a stale reference, which only costs a recomputed pointer
            self._args[self._a_at] = ctypes.c_void_p(a.ctypes.data)
            self._a = weakref.ref(a)
        set_local = self._set_local
        if set_local is None:
            self._call(*self._args)
        else:
            prev = set_local(1)
            try:
                self._call(*self._args)
            finally:
                set_local(prev)
        if self._ints[3] != 0:  # pragma: no cover - the reduction cannot fail on finite input
            raise RuntimeError(f"Hermitian tridiagonal reduction failed with info={self._ints[3]}")
        return self.d.copy(), np.abs(self.e)


_per_thread = threading.local()


def _thread_reduction(n: int) -> _Reduction:
    """The calling thread's `_Reduction` of order n.

    Each thread keeps the one of the last order it reduced (its workspace is
    about 1 MB at n = 1000).
    """
    reduction = getattr(_per_thread, "reduction", None)
    if reduction is None or reduction.n != n:
        reduction = _per_thread.reduction = _Reduction(n)
    return reduction


def tridiagonalize(H: np.ndarray, overwrite_a: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Householder reduction of a Hermitian matrix to real symmetric tridiagonal form.

    Returns fresh arrays d (length n) and e (length n - 1), the layout
    `tridiagonalize_batch` returns for a stack, of a matrix unitarily similar
    to H (same characteristic polynomial); e is made nonnegative, which leaves
    the characteristic polynomial unchanged (diagonal +-1 similarity).  Only
    the diagonal and upper triangle of H are read.  With `overwrite_a`, a
    Fortran-ordered complex128 H is reduced in place (its contents are
    destroyed) instead of being copied first.  The reduction is LAPACK's,
    through the calling thread's `_Reduction`, so a loop over samples of one
    order builds its workspace and ctypes arguments once.
    """
    H = np.asarray(H)
    shape = H.shape
    if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
        raise ValueError(f"expected a nonempty square matrix, got shape {shape}")
    n = shape[0]
    if n == 1:
        return np.array([H[0, 0].real]), np.zeros(0)
    flags = H.flags
    in_place = (overwrite_a and H.dtype == _COMPLEX and flags.f_contiguous
                and flags.writeable and flags.aligned)
    return _thread_reduction(n)(H if in_place else np.array(H, dtype=_COMPLEX, order="F"))


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
