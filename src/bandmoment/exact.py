"""Exact finite-N values of the second mixed moment F2(x, y) = E[det(x - H) det(y - H)].

For any variance profile at n <= 3, `wick_exact_f2` expands both
determinants over permutations and evaluates every Gaussian moment by
Isserlis pairing: the oracle the Monte Carlo path is validated against.

For GUE in `sampler.gue_profile(n)`'s normalization (E|H_ij|^2 = 1/n) the
moment is Brezin and Hikami's quotient of the monic orthogonal polynomials of
the weight exp(-n t^2/2), p_{k+1} = x p_k - (k/n) p_{k-1}:

    F2(x, y) = [p_{n+1}(x) p_n(y) - p_n(x) p_{n+1}(y)] / (x - y)
             = (n!/n^n) sum_{k=0..n} phi_k(x) phi_k(y),

the second line its Christoffel-Darboux sum over the orthonormal
phi_k = p_k sqrt(n^k/k!) (E. Brezin, S. Hikami, Commun. Math. Phys. 214
(2000)).  The sum is used: it needs no derivative on the diagonal and does not
cancel as y approaches x.  It is carried in signed-log form, as
`charpoly.char_det_many` carries a determinant, so it stays in double range
at any n: F2(0, 0) is about 1e-41 at n = 100 and underflows from n of about
720.

For a band profile `transfer_f2` evaluates the paper's dual representation
of F2(l1, l2) as an integral over one 2x2 Hermitian field X_j per site:

    F2 = (-1)^n (2 pi^2)^-n det(J)^-2
         * Int exp{ -(W^2/2) sum_j Tr (X_j - X_{j-1})^2 - (1/2) sum_j Tr (X_j + i M)^2 }
         * prod_j det(X_j - i A) dX_j,

diag(l1, l2) = M + A (the paper takes A = lambda0/2), dX = dX11 dX22 dReX12
dImX12.  The integrand is entire with Gaussian decay: shifting each (X_j)_kk
by -i m_k keeps the value, cancels the phase, recombines M and A into l1 and
l2 and leaves a Gaussian, normalized by the prefactor, of covariance J =
(W^2 K + 1)^-1 in each diagonal channel and J/2 in Re and Im of X_12:

    F2(l1, l2) = (-1)^n E[prod_j ((g_j - i l1)(h_j - i l2) - |c_j|^2)],

g and h real and c complex Gaussian fields of covariance J.  J^-1 is
tridiagonal, so each field is a Gauss-Markov chain, and so is |c_j|^2 alone.
A function of site j's state is held as a coefficient tensor a[p, q, r] over
the normalized Hermite polynomials He_p(x)/sqrt(p!) of x = g_j/sigma_j and of
y = h_j/sigma_j and the Laguerre polynomials L_r of t = |c_j|^2/sigma_j^2,
which is Exp(1) (sigma_j^2 = J_jj).  In this basis multiplying by x or t is
a three-term stencil, and the conditional expectation from site j + 1 to
site j multiplies entry (p, q, r) by rho_j^(p + q + 2r), rho_j =
J_{j,j+1}/(sigma_j sigma_{j+1}) (Mehler's and the Hille-Hardy formula; the
transfer-operator view of M. and T. Shcherbina, Commun. Math. Phys. 351
(2017)).  GUE's flat profile is the chain with rho = 1.

This module is not imported by the package, so `import bandmoment` stays as
light as it is.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import CovarianceProfile

# a pair phi_{k-1}, phi_k is rescaled once it leaves [-_RESCALE, _RESCALE], so
# that a sum of products of two of them stays in double range
_RESCALE = 1e100
_WICK_MAX_N = 3
_CAP_STEP = 8        # the transfer tensor's cap grows by this many degrees per axis
_TOL = 1e-10         # relative change of a transfer value at which its cap stops growing
_MARKOV_TOL = 1e-9   # largest |J - chain J| / max J that transfer_f2 accepts


def _perm_sign(p: tuple[int, ...]) -> int:
    n = len(p)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _pairing_sum(factors: list[tuple[int, int]], J) -> float:
    """Sum over perfect matchings of the entry covariances.

    The only nonzero second moment is E[H_ab H_ba] = J_ab, so a pairing
    contributes only when the paired factors have mirrored indices.
    """
    if len(factors) % 2 == 1:
        return 0.0
    if not factors:
        return 1.0
    a, b = factors[0]
    total = 0.0
    for k in range(1, len(factors)):
        c, d = factors[k]
        if c == b and d == a:
            total += J[a, b] * _pairing_sum(factors[1:k] + factors[k + 1:], J)
    return total


def wick_exact_f2(lambda1: float, lambda2: float, profile: CovarianceProfile) -> float:
    """Exact E[det(l1 - H) det(l2 - H)] by permutation expansion and pairing.

    Both determinants are expanded over permutations, the (lambda - H_ii)
    factors at fixed points are multiplied out, and every Gaussian moment is
    evaluated by Isserlis pairing with E[H_ab H_cd] = J_ab [c=b, d=a].
    Supported for n = profile.size <= 3 only (combinatorial guard).
    """
    n = profile.size
    if not 1 <= n <= _WICK_MAX_N:
        raise ValueError(f"exact expansion supported for n in 1..{_WICK_MAX_N}, got {n}")
    J = profile.J
    perms = list(itertools.permutations(range(n)))
    expansions = []
    for p in perms:
        sgn = _perm_sign(p)
        fixed = [i for i in range(n) if p[i] == i]
        moved = [(i, p[i]) for i in range(n) if p[i] != i]
        expansions.append((sgn, fixed, moved))
    total = 0.0
    for sgn1, fix1, mov1 in expansions:
        for sgn2, fix2, mov2 in expansions:
            base_sign = sgn1 * sgn2 * (-1) ** (len(mov1) + len(mov2))
            for k1 in range(len(fix1) + 1):
                for sub1 in itertools.combinations(fix1, k1):
                    for k2 in range(len(fix2) + 1):
                        for sub2 in itertools.combinations(fix2, k2):
                            factors = (mov1 + [(i, i) for i in sub1]
                                       + mov2 + [(j, j) for j in sub2])
                            ev = _pairing_sum(factors, J)
                            if ev == 0.0:
                                continue
                            coeff = (base_sign * (-1) ** (k1 + k2)
                                     * lambda1 ** (len(fix1) - k1)
                                     * lambda2 ** (len(fix2) - k2))
                            total += coeff * ev
    return total


def _orthonormal(n: int, x: float):
    """phi_0(x), ..., phi_n(x) as pairs (mantissa, log scale), a mantissa at most _RESCALE."""
    prev, cur, log_scale = 0.0, 1.0, 0.0
    yield cur, log_scale
    for k in range(n):
        prev, cur = cur, (x * cur - math.sqrt(k / n) * prev) / math.sqrt((k + 1) / n)
        big = max(abs(prev), abs(cur))
        if big > _RESCALE:
            prev, cur = prev / big, cur / big
            log_scale += math.log(big)
        yield cur, log_scale


def gue_log_f2(n: int, x: float, y: float) -> tuple[int, float]:
    """Sign and log magnitude of GUE's exact F2(x, y) at order n (-inf for an exact zero)."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    total, log_scale = 0.0, 0.0  # sum_k phi_k(x) phi_k(y) = total * exp(log_scale)
    for (a, log_a), (b, log_b) in zip(_orthonormal(n, x), _orthonormal(n, y)):
        if log_a + log_b > log_scale:
            total *= math.exp(log_scale - log_a - log_b)
            log_scale = log_a + log_b
        total += a * b
    sign = (total > 0) - (total < 0)
    if not sign:
        return 0, -math.inf
    return sign, math.lgamma(n + 1) - n * math.log(n) + log_scale + math.log(abs(total))


def gue_ratio(n: int, x: float, y: float) -> float:
    """GUE's exact normalized moment F2(x, y) / (sqrt(F2(x, x)) sqrt(F2(y, y))) at order n.

    It is formed from the three logs, so it stays in double range where the
    product F2(x, x) F2(y, y) does not (at x = y = 0 from n of about 360).
    """
    sign, log_xy = gue_log_f2(n, x, y)
    return sign * math.exp(log_xy - 0.5 * (gue_log_f2(n, x, x)[1] + gue_log_f2(n, y, y)[1]))


@dataclass(frozen=True)
class TransferF2:
    """F2(l1, l2) from `transfer_f2`: sign * exp(log_abs), with its convergence record.

    `cap` is the cube cap K (degrees below K kept per axis) and `change` the
    relative change of the value over the cap's last growth (0 if one cap
    ran).  The value is exactly real, so its imaginary part cannot flag
    rounding: entries with p + q even stay real and odd ones imaginary.
    """

    sign: int
    log_abs: float
    cap: int
    change: float


def _chain(profile: CovarianceProfile) -> tuple[np.ndarray, np.ndarray]:
    """sigma_j and rho_j of the Gauss-Markov chain whose covariance is profile.J."""
    J = profile.J
    sigma = np.sqrt(np.diag(J))
    rho = np.diag(J, 1) / (sigma[:-1] * sigma[1:])
    chain = np.diag(sigma ** 2)  # J_jk = sigma_j sigma_k rho_j ... rho_{k-1}
    for j in range(len(rho)):
        chain[j, j + 1:] = sigma[j] * sigma[j + 1:] * np.cumprod(rho[j:])
    chain = np.triu(chain) + np.triu(chain, 1).T
    if not np.abs(chain - J).max() <= _MARKOV_TOL * np.abs(J).max():
        raise ValueError("the profile's fields are not a Markov chain: J^-1 is not tridiagonal")
    return sigma, rho


def _times_x(c: np.ndarray, axis: int) -> np.ndarray:
    """x times the cube `c` along `axis`, degrees above the cube's dropped.

    x psi_p = sqrt(p + 1) psi_{p+1} + sqrt(p) psi_{p-1}.
    """
    out = np.zeros_like(c)
    c, o = np.moveaxis(c, axis, 0), np.moveaxis(out, axis, 0)
    root = np.sqrt(np.arange(1.0, len(c)))[:, None, None]
    o[1:] += root * c[:-1]
    o[:-1] += root * c[1:]
    return out


def _transfer(sigma, rho, l1: float, l2: float, cap: int) -> tuple[complex, float]:
    """(-1)^n E[prod_j site_j] as mantissa * exp(log_scale), degrees below `cap` kept."""
    n = len(sigma)
    a, log_scale = np.ones((1, 1, 1), dtype=complex), 0.0
    for j in range(n - 1, -1, -1):
        if j < n - 1 and rho[j] != 1.0:  # condition site j + 1 on site j
            w = rho[j] ** np.arange(len(a))
            a = a * (w[:, None, None] * w[:, None] * w ** 2)
        size = min(len(a) + 1, cap)
        b = np.zeros((size,) * 3, dtype=complex)
        b[:len(a), :len(a), :len(a)] = a[:size, :size, :size]
        r = np.arange(size)  # t L_r = -(r + 1) L_{r+1} + (2r + 1) L_r - r L_{r-1}
        tb = (2 * r + 1) * b
        tb[:, :, 1:] -= r[1:] * b[:, :, :-1]
        tb[:, :, :-1] -= r[1:] * b[:, :, 1:]
        s = sigma[j]
        xb, yb = _times_x(b, 0), _times_x(b, 1)
        a = s * s * (_times_x(yb, 0) - tb) - 1j * s * (l2 * xb + l1 * yb) - l1 * l2 * b
        big = np.abs(a).max()
        a /= big
        log_scale += math.log(big)
    return (-1) ** n * complex(a[0, 0, 0]), log_scale


def transfer_f2(profile: CovarianceProfile, l1: float, l2: float) -> TransferF2:
    """Exact F2(l1, l2) of a profile whose J^-1 is tridiagonal, by the transfer recursion.

    The sites are run backward, n to 1: for j < n the tensor is first
    conditioned from site j + 1 to site j, then multiplied by the site factor
    (sigma_j x - i l1)(sigma_j y - i l2) - sigma_j^2 t, then rescaled by its
    largest entry, whose log adds to a running scale.  The answer is (-1)^n
    a[0, 0, 0] times the scale.  The tensor grows by one degree per axis and
    site, up to a cube cap K: K starts at 8 and grows by 8 until the value
    moves by at most _TOL relative, or until 2K > n.  Then the cut is exact:
    a degree K first appears after K sites, and each site lowers a degree by
    at most one, so the n - K sites left cannot bring it back to 0.  A cap
    costs about n K^3: at band n = W = 64 the cap grows to K = 40 and a value
    takes about 0.5 s (2-vCPU x86_64 VM).

    Rounding, not the cap, limits the value away from the band centre, and
    the imaginary part cannot show it: it is exactly 0 (`TransferF2`).
    Against the same recursion in 50-digit arithmetic: at x, y = 0.5, -0.4
    and nearer 0 the relative error is at most 3e-13 at band n = W <= 24;
    at 1.5, -1.2 it is 1.4e-12 at n = 16 and 2.1e-10 at n = 24, and on GUE's
    flat profile 1.1e-10 at n = 20.  Raises ValueError if J is not a
    Gauss-Markov chain's covariance.
    """
    sigma, rho = _chain(profile)
    cap, change, last = _CAP_STEP, 0.0, None
    while True:
        value, log_scale = _transfer(sigma, rho, l1, l2, cap)
        if last is not None:
            change = abs(value.real - last[0].real * math.exp(last[1] - log_scale)) / abs(value.real)
        if 2 * cap > len(sigma) or (last is not None and change <= _TOL):
            break
        last = value, log_scale
        cap += _CAP_STEP
    sign = (value.real > 0) - (value.real < 0)
    log_abs = math.log(abs(value.real)) + log_scale if sign else -math.inf
    return TransferF2(sign, log_abs, cap, change)


def transfer_ratio(profile: CovarianceProfile, x: float, y: float) -> float:
    """The exact normalized moment F2(x, y) / (sqrt(F2(x, x)) sqrt(F2(y, y))) by `transfer_f2`."""
    xy, xx, yy = (transfer_f2(profile, a, b) for a, b in ((x, y), (x, x), (y, y)))
    return xy.sign * math.exp(xy.log_abs - 0.5 * (xx.log_abs + yy.log_abs))
