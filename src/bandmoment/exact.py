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

This module is not imported by the package, so `import bandmoment` stays as
light as it is.
"""

from __future__ import annotations

import itertools
import math

from .lattice import CovarianceProfile

# a pair phi_{k-1}, phi_k is rescaled once it leaves [-_RESCALE, _RESCALE], so
# that a sum of products of two of them stays in double range
_RESCALE = 1e100
_WICK_MAX_N = 3


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
