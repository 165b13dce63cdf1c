"""Exact finite-N values of the second mixed moment F2(x, y) = E[det(x - H) det(y - H)].

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

import math

# a pair phi_{k-1}, phi_k is rescaled once it leaves [-_RESCALE, _RESCALE], so
# that a sum of products of two of them stays in double range
_RESCALE = 1e100


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
