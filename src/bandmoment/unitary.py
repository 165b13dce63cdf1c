"""Haar sampling on U(2) and closed-form unitary-group integrals.

Two exact formulas are provided with Monte Carlo cross-checks in the test
suite: the rank-2 character integral of exp(t Tr C U* D U) over Haar measure,
and the family h_s(x) = (-1)^s (d/dx)^s (1 - e^-x)/x of |U_12|^(2s) moments
under the same tilted measure.
"""

from __future__ import annotations

import math

import numpy as np

from .sampler import RngStream

# below this |x| the 0/0 form of the character integral is evaluated by series
_DEGENERATE_CUTOFF = 1e-6
# series/closed-form crossover for h_s
_SERIES_RANGE = 8.0
_MAX_ORDER = 30


def haar_u2_batch(stream: RngStream, count: int) -> np.ndarray:
    """Stack of `count` Haar 2x2 unitaries from a single substream.

    QR of a complex Ginibre matrix, with column phases fixed by the standard
    convention that the diagonal of R be real positive.
    """
    g = stream.generator()
    z = (g.standard_normal((count, 2, 2)) + 1j * g.standard_normal((count, 2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("bii->bi", r)
    q = q * (diag / np.abs(diag))[:, None, :]
    return q


def _expm1_over_x(x: float) -> float:
    """(e^x - 1) / x, series below the degenerate cutoff."""
    if abs(x) < _DEGENERATE_CUTOFF:
        return 1.0 + x / 2.0 + x * x / 6.0
    return math.expm1(x) / x


def hciz_2x2(c1: float, c2: float, d1: float, d2: float, t: float) -> float:
    """Haar integral of exp(t Tr C U* D U) over U(2), C = diag(c1,c2), D = diag(d1,d2).

    Equals (e^{t(c1 d1 + c2 d2)} - e^{t(c1 d2 + c2 d1)}) / (t (c1-c2)(d1-d2)),
    rewritten as e^{t(c1 d2 + c2 d1)} (e^x - 1)/x with x = t (c1-c2)(d1-d2) so
    the coincident-eigenvalue limit is smooth.
    """
    x = t * (c1 - c2) * (d1 - d2)
    return math.exp(t * (c1 * d2 + c2 * d1)) * _expm1_over_x(x)


def v12_moment(s: int, x: float) -> float:
    """h_s(x) = (-1)^s (d/dx)^s (1 - e^-x)/x.

    This is the Haar expectation of |V_12|^(2s) under the measure tilted by
    exp(t (Tr C V* D V - Tr C D)), evaluated at x = t (c1-c2)(d1-d2).
    Series for |x| <= 8, explicitly differentiated closed form beyond.
    """
    if not 0 <= s <= _MAX_ORDER:
        raise ValueError(f"order s={s} outside 0..{_MAX_ORDER}")
    if abs(x) <= _SERIES_RANGE:
        # sum_k (-1)^k x^k / (k! (k+s+1)), alternating with factorial decay
        term = 1.0 / (s + 1.0)
        total = term
        k = 0
        while True:
            k += 1
            term = term * (-x) / k * (k + s) / (k + s + 1.0)
            total += term
            if abs(term) <= 1e-16 * abs(total) or k > 200:
                return total
    return _v12_closed(s, x)


def _v12_closed(s: int, x: float) -> float:
    """h_s(x) in closed form; it cancels badly near 0, so `v12_moment` takes it for |x| > 8."""
    # d^s/dx^s x^-1 = (-1)^s s! x^-(s+1) and Leibniz on e^-x / x give
    # h_s(x) = s!/x^(s+1) - e^-x sum_j (s!/(s-j)!) x^-(j+1)
    sfac = math.factorial(s)
    lead = sfac / x ** (s + 1)
    acc = 0.0
    fall = 1.0  # s!/(s-j)! accumulated
    for j in range(s + 1):
        acc += fall / x ** (j + 1)
        fall *= s - j
    return lead - math.exp(-x) * acc
