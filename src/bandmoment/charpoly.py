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
    is used at every order.  The workspace and every ctypes argument but the
    matrix's pointer are built here, so a loop over many samples of one order
    pays for them once.  The object holds its buffers across calls, so each
    thread has its own (`_thread_reduction`).
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
        self._set_local = _lapack.blas_threads_local()

    def __call__(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reduce `a` in place; its tridiagonal form (d, e) in fresh arrays, e made nonnegative.

        `a` must be an (n, n) Fortran-ordered, writeable complex128 array;
        only its diagonal and upper triangle are read.  The BLAS of the
        calling thread is set to one thread for the call and put back after.
        """
        self._args[self._a_at] = ctypes.c_void_p(a.ctypes.data)
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
    """Vectorized Householder reduction of a (B, N, N) stack of Hermitian matrices.

    Returns d (B, N) and e (B, N-1) >= 0, the transposes of (N, B) and
    (N-1, B) arrays.  Intended for small N where per-sample LAPACK call
    overhead dominates; the arithmetic is O(B N^3) like the LAPACK path.  The
    stack is copied once into an (N, N, B) array, so every step works on rows
    of B contiguous samples.  Step k reflects the subcolumn x below the
    diagonal onto -phase |x| e_1 by I - beta v v^H and updates the trailing
    block S to S - v w^H - w v^H, with p = beta S v and w = p - (beta/2)
    (v^H p) v (Golub & Van Loan, "Matrix Computations", section 8.3); a zero
    subcolumn gets beta = 0.  Then e_k = |x|: d and |e| do not change under
    the diagonal phase similarity that would make the off-diagonal real.
    """
    H = np.asarray(H)
    B, n, _ = H.shape
    S = np.empty((n, n, B), dtype=complex)
    S[...] = np.moveaxis(H, 0, -1)
    d, e = np.empty((n, B)), np.empty((max(n - 1, 0), B))
    for k in range(n - 1):
        d[k] = S[k, k].real
        x = S[k + 1:, k]
        e[k] = nrm = np.linalg.norm(x, axis=0)
        if k == n - 2:  # a 1 x 1 trailing block is already real
            break
        a0 = np.abs(x[0])
        v = x.copy()  # v_0 = x_0 + phase |x|, the phase x_0 / |x_0| or 1 at x_0 = 0
        v[0] = np.divide(x[0], a0, out=np.ones(B, dtype=complex), where=a0 > 0) * (a0 + nrm)
        denom = nrm * (nrm + a0)  # v^H v / 2
        beta = np.divide(1.0, denom, out=np.zeros(B), where=denom > 0)
        T = S[k + 1:, k + 1:]
        p = T[:, 0] * v[0]
        for j in range(1, n - 1 - k):
            p += T[:, j] * v[j]
        p *= beta
        w = p - (0.5 * beta * np.add.reduce(v.conj() * p, axis=0)) * v
        vc, wc = v.conj(), w.conj()
        for i in range(n - 1 - k):
            T[i] -= v[i] * wc + w[i] * vc
    d[n - 1] = S[n - 1, n - 1].real
    return d.T, e.T


def char_det_many(d: np.ndarray, e2: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det(lambda - T) for a stack of tridiagonal matrices at several lambdas.

    Takes diagonals d (B, N), squared off-diagonals e2 (B, N-1) and lams (L,);
    returns sign (B, L) in {-1, 0, +1} and log_mag (B, L), -inf where the
    determinant is exactly zero, as transposes of (L, B) arrays.  The
    recurrence p_k = (lambda - d_k) p_{k-1} - e_{k-1}^2 p_{k-2} runs on (L, B)
    arrays, a row of d.T per step, and is rescaled whenever |p_k| leaves
    [1e-150, 1e150], keeping doubles finite for any N.  Every operation is
    elementwise, so the bits do not depend on the layout of d and e2.
    """
    d = np.atleast_2d(np.asarray(d, dtype=float)).T
    e2 = np.atleast_2d(np.asarray(e2, dtype=float)).T
    lam = np.atleast_1d(np.asarray(lams, dtype=float))[:, None]
    shape = (len(lam), d.shape[1])
    p_prev, p, scale = np.zeros(shape), np.ones(shape), np.zeros(shape)
    for k in range(len(d)):
        if k == 0:
            p_prev, p = p, (lam - d[0]) * p
        else:
            p_prev, p = p, (lam - d[k]) * p - e2[k - 1] * p_prev
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
    return sign.T, log_mag.T


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
