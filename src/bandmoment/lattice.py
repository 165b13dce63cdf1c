"""1D Neumann lattice toolkit.

Builds the second-difference operator on a finite chain with free (Neumann)
boundary conditions as (d, e) arrays, the covariance profile
J = (W^2 K + 1)^-1 that drives the band-matrix entry variances, and the
family of tridiagonal chain determinants (recurrences, closed forms,
Green's-function diagonal, Gaussian partition function) used throughout the
package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _lapack


@dataclass(frozen=True)
class Lattice1D:
    """Finite chain of ``size >= 1`` sites."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("lattice size must be >= 1")


@dataclass(frozen=True, eq=False)
class CovarianceProfile:
    """Entrywise variance profile J (symmetric, rows summing to 1)."""

    J: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.J)
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
            raise ValueError(f"profile J must be a nonempty square matrix, got shape {shape}")

    @property
    def size(self) -> int:
        return self.J.shape[0]


def neumann_laplacian(lat: Lattice1D) -> tuple[np.ndarray, np.ndarray]:
    """Second-difference operator (the negated Laplacian) with free boundaries.

    Returned as its diagonal d (length n) and off-diagonal e (length n - 1).
    Interior diagonal entries are 2, boundary entries 1, off-diagonals -1, so
    every row sums to zero and the constant vector spans the kernel.  The
    single-site chain is the 1x1 zero matrix.
    """
    n = lat.size
    if n == 1:
        return np.zeros(1), np.zeros(0)
    d = np.full(n, 2.0)
    d[0] = d[-1] = 1.0
    return d, np.full(n - 1, -1.0)


class BandwidthError(ValueError):
    """A bandwidth at which `covariance_profile` cannot hold J.1 = 1 for its chain."""


_ROW_SUM_TOL = 1e-9  # largest max |J.1 - 1| that covariance_profile returns


def covariance_profile(lat: Lattice1D, W: float) -> CovarianceProfile:
    """Covariance profile J = (W^2 K + 1)^-1 with K the free-boundary chain operator.

    Computed column by column with a tridiagonal L D L^T solve (the matrix is
    symmetric positive definite with spectrum in [1, 1+4W^2]), followed by one
    step of iterative refinement, and made exactly symmetric.  Inside the
    theorem's range, W <= n, the rows sum to 1 within 7.8e-12 (measured up to
    n = 1000).  The error grows with the condition number 1 + 4W^2: it passes
    _ROW_SUM_TOL from W ~ 5e3 at n = 2 to W ~ 1.6e4 at n = 1000, the solve
    breaks down where W^2 + 1 rounds to W^2 (W ~ 9.5e7), and the operator
    overflows from W ~ 9.5e153.  Each of these raises BandwidthError, naming
    W and n.
    """
    if not W > 0:
        raise ValueError("bandwidth W must be positive")
    n = lat.size
    if n == 1:
        # single site: the chain operator is 0, so J = (0 + 1)^-1 = 1 exactly
        return CovarianceProfile(np.ones((1, 1)))
    d, e = neumann_laplacian(lat)
    rhs = np.eye(n)
    try:
        w2 = float(W) ** 2
        with np.errstate(over="raise"):
            diag, off = w2 * d + 1.0, w2 * e
        J = _solve_spd_tridiagonal(diag, off, rhs)
        # residual correction: one refinement pass removes the O(kappa*eps) drift
        R = rhs - _mul_shifted_tridiag(d, e, w2, J)
        J = J + _solve_spd_tridiagonal(diag, off, R)
    except (OverflowError, FloatingPointError, np.linalg.LinAlgError) as exc:
        raise BandwidthError(f"bandwidth W={W:g} is too large for n={n}: the profile "
                             "J = (W^2 K + 1)^-1 cannot be computed in double precision") from exc
    J = 0.5 * (J + J.T)
    drift = float(np.abs(J.sum(axis=1) - 1.0).max())
    if not drift <= _ROW_SUM_TOL:
        raise BandwidthError(f"bandwidth W={W:g} is too large for n={n}: the rows of the "
                             f"profile sum to 1 only within {drift:.1e}, not {_ROW_SUM_TOL:g}")
    return CovarianceProfile(J)


def _solve_spd_tridiagonal(d: np.ndarray, e: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with T X = B, T symmetric positive definite tridiagonal (diagonal d, off-diagonal e).

    LAPACK's `dptsv` (an L D L^T factorization), the routine scipy's
    `solveh_banded` calls for a band of one off-diagonal, with the same inputs,
    so the bits are those of `solveh_banded`.  X is Fortran-ordered.
    """
    if not (np.isfinite(d).all() and np.isfinite(e).all() and np.isfinite(B).all()):
        raise ValueError("array must not contain infs or NaNs")
    n, nrhs = B.shape
    d = np.array(d, dtype=float)    # dptsv overwrites d and e with the factors
    e = np.array(e, dtype=float)
    X = np.array(B, dtype=float, order="F")
    ints, (order, cols, info) = _lapack.c_ints(n, nrhs, 0)
    _lapack.dptsv()(order, cols, d.ctypes.data, e.ctypes.data, X.ctypes.data, order, info)
    if ints[2] > 0:
        raise np.linalg.LinAlgError(f"{ints[2]}th leading minor not positive definite")
    if ints[2] < 0:  # pragma: no cover - every argument is checked above
        raise ValueError(f"illegal value in argument {-ints[2]} of dptsv")
    return X


def _mul_shifted_tridiag(d: np.ndarray, e: np.ndarray, scale: float,
                         X: np.ndarray) -> np.ndarray:
    """(scale*T + I) @ X without forming the dense matrix, T with diagonal d and off-diagonal e."""
    Y = (scale * d + 1.0)[:, None] * X
    if len(e):
        Y[:-1] += (scale * e)[:, None] * X[1:]
        Y[1:] += (scale * e)[:, None] * X[:-1]
    return Y


def charpoly_pinned(m: int, x: complex) -> complex:
    """Determinant of the m-site chain operator with one pinned end, shifted by x.

    Satisfies T_m = (2+x) T_{m-1} - T_{m-2} with T_0 = 1, T_1 = 1+x.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    p_prev, p = 1.0 + 0j, 1.0 + x
    if m == 0:
        return p_prev
    for _ in range(m - 1):
        p_prev, p = p, (2.0 + x) * p - p_prev
    return p


def charpoly_neumann(m: int, x: complex) -> complex:
    """Determinant of the free-boundary m-site chain operator shifted by x.

    S_m = (1+x) T_{m-1} - T_{m-2} for m >= 2; the single-site chain gives
    S_1 = x (determinant of the 1x1 zero operator shifted by x).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return complex(x)
    return (1.0 + x) * charpoly_pinned(m - 1, x) - charpoly_pinned(m - 2, x)


def _zeta(x: complex) -> complex:
    return (2.0 + x + cmath.sqrt(x * x + 4.0 * x)) / 2.0


def charpoly_pinned_closed(m: int, x: complex) -> complex:
    """Closed form T_m = (zeta^(m+1) + zeta^-m) / (zeta + 1), zeta = (2+x+sqrt(x^2+4x))/2."""
    z = _zeta(x)
    return (z ** (m + 1) + z ** (-m)) / (z + 1.0)


def charpoly_neumann_closed(m: int, x: complex) -> complex:
    """Closed form S_m = (zeta^m - zeta^-m)(zeta - 1) / (zeta + 1)."""
    z = _zeta(x)
    return (z ** m - z ** (-m)) * (z - 1.0) / (z + 1.0)


def _log_ratios(steps: int, x: complex) -> tuple[complex, complex]:
    """Sum of the principal logs of t_1..t_steps (steps >= 1), and t_steps.

    The ratios t_k = T_k / T_{k-1} (t_1 = 1+x, t_k = (2+x) - 1/t_{k-1}) stay
    bounded where the plain recurrence would overflow, and summing their
    principal logs keeps the imaginary part continuous as k grows.
    """
    t = 1.0 + x
    if t == 0:
        raise ZeroDivisionError("chain determinant hit an exact zero ratio")
    acc = cmath.log(t)
    for _ in range(steps - 1):
        t = (2.0 + x) - 1.0 / t
        if t == 0:
            raise ZeroDivisionError("chain determinant hit an exact zero ratio")
        acc += cmath.log(t)
    return acc, t


def _log_charpoly_pinned(m: int, x: complex) -> complex:
    """log T_m(x) accumulated from per-step ratios, continuous in m (see `_log_ratios`)."""
    if m == 0:
        return 0.0 + 0j
    return _log_ratios(m, x)[0]


def _log_charpoly_neumann(m: int, x: complex) -> complex:
    """log S_m(x), same continuity convention as :func:`_log_charpoly_pinned`."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if x == 0:
        raise ValueError("free-boundary chain determinant vanishes at x=0 (zero mode)")
    if m == 1:
        return cmath.log(x)
    # S_m / T_{m-1} = (1+x) - 1/t_{m-1}
    acc, t = _log_ratios(m - 1, x)
    return acc + cmath.log((1.0 + x) - 1.0 / t)


def green_diag(m: int, gamma: complex, W: float, i: int) -> complex:
    """Diagonal entry (i,i), 1-based, of (K + 2*gamma/W^2)^-1 on the free m-chain.

    Uses the cofactor identity G_ii = T_{i-1}(x) T_{m-i}(x) / S_m(x) with
    x = 2*gamma/W^2, evaluated in log form so large m cannot overflow.
    """
    if not 1 <= i <= m:
        raise ValueError(f"index i={i} outside 1..{m}")
    if gamma == 0:
        raise ValueError("gamma=0 is singular (zero mode of the free chain)")
    if complex(gamma).real <= 0:
        raise ValueError("need Re gamma > 0")
    x = 2.0 * complex(gamma) / float(W) ** 2
    log_val = (
        _log_charpoly_pinned(i - 1, x)
        + _log_charpoly_pinned(m - i, x)
        - _log_charpoly_neumann(m, x)
    )
    return cmath.exp(log_val)


def log_gaussian_partition(m: int, gamma: complex, W: float) -> complex:
    """log of the m-dimensional Gaussian chain integral.

    The integrand couples neighbours through exp(-(x_j - x_{j-1})^2 / 2) and
    confines through exp(-gamma x_j^2 / W^2); the quadratic form equals
    (1/2) x^T (K + 2*gamma/W^2) x, so

        log Z = (m/2) log(2 pi) - (1/2) log S_m(2*gamma/W^2),

    with the log of S_m tracked continuously in m (principal branch per ratio
    step, no branch jumps for Re gamma > 0).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if complex(gamma).real <= 0:
        raise ValueError("need Re gamma > 0")
    x = 2.0 * complex(gamma) / float(W) ** 2
    return 0.5 * m * math.log(2.0 * math.pi) - 0.5 * _log_charpoly_neumann(m, x)
