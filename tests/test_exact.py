"""Exact F2 at any order: GUE's Christoffel-Darboux sum against two independent forms, and
the band transfer recursion against the pairing oracle and the CD sum."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bandmoment import exact
from bandmoment.lattice import CovarianceProfile, Lattice1D, covariance_profile
from bandmoment.saddle import scaled_lambdas, sine_kernel
from bandmoment.sampler import gue_profile


def f2(n, x, y):
    sign, log_mag = exact.gue_log_f2(n, x, y)
    return sign * math.exp(log_mag)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("x, y", [(0.3, -0.2), (0.5, 0.5), (1.7, -0.4), (0.0, 0.0), (-2.5, 0.9)])
def test_matches_wick_oracle(n, x, y):
    assert f2(n, x, y) == pytest.approx(exact.wick_exact_f2(x, y, gue_profile(n)), rel=1e-13)


def brezin_hikami_quotient(n, x, y):
    """[p_{n+1}(x) p_n(y) - p_n(x) p_{n+1}(y)] / (x - y) in exact rational arithmetic."""
    x, y = Fraction(x), Fraction(y)
    p = [(Fraction(1), Fraction(1)), (x, y)]
    for k in range(1, n + 1):
        p.append(tuple(t * a - Fraction(k, n) * b for t, a, b in zip((x, y), p[k], p[k - 1])))
    return float((p[n + 1][0] * p[n][1] - p[n][0] * p[n + 1][1]) / (x - y))


@pytest.mark.parametrize("n, x, y", [
    (10, 0.3, -0.5), (10, 1.1, 2.5),
    (100, 0.1, 0.13), (100, -1.2, 0.7), (100, 2.5, -0.3),  # 2.5 lies outside the spectrum
])
def test_matches_quotient_off_the_diagonal(n, x, y):
    assert f2(n, x, y) == pytest.approx(brezin_hikami_quotient(n, x, y), rel=1e-12)


@pytest.mark.parametrize("n, expected", [(15, -0.6960), (16, -0.2416), (99, -0.7412),
                                         (100, -0.2487)])
def test_sine_kernel_deviation(n, expected):
    # N (ratio - sine) at lambda0 = 0, delta = 1; each parity tends to its own limit
    p = scaled_lambdas(0.0, 0.5, -0.5, n)
    deviation = n * (exact.gue_ratio(n, p.lambda1, p.lambda2) - sine_kernel(1.0))
    assert deviation == pytest.approx(expected, abs=5e-5)  # to the digits shown


def test_stays_in_double_range():
    # at n = 10^4, F2(0, 0) underflows and F2(3, 3) overflows
    for x, y in ((0.0, 0.0), (3.0, 3.0), (-5.0, 4.0)):
        sign, log_mag = exact.gue_log_f2(10_000, x, y)
        assert sign == 1 and math.isfinite(log_mag)
    assert exact.gue_log_f2(10_000, 0.0, 0.0)[1] < -745.0
    assert exact.gue_log_f2(10_000, 3.0, 3.0)[1] > 709.0
    p = scaled_lambdas(0.0, 0.5, -0.5, 10_000)
    assert math.isfinite(exact.gue_ratio(10_000, p.lambda1, p.lambda2))


def test_rejects_empty_order():
    with pytest.raises(ValueError, match="order"):
        exact.gue_log_f2(0, 0.0, 0.0)


def transfer(profile, x, y):
    t = exact.transfer_f2(profile, x, y)
    return t.sign * math.exp(t.log_abs)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("W", [0.7, 1.3, 2.0])
def test_transfer_matches_wick_oracle_and_dual_rule(n, W):
    prof = covariance_profile(Lattice1D(n), W)
    for x, y in ((0.3, -0.2), (1.1, 0.7), (0.0, 0.0), (-2.5, 0.9)):
        assert transfer(prof, x, y) == pytest.approx(exact.wick_exact_f2(x, y, prof), rel=1e-13)


@pytest.mark.parametrize("n", [2, 5, 10, 20])
def test_transfer_matches_cd_sum_on_the_flat_profile(n):
    # GUE's profile is the chain with rho = 1: nothing decays, and K > n keeps every degree
    for x, y in ((0.3, -0.2), (1.1, 0.7), (0.0, 0.0)):
        assert transfer(gue_profile(n), x, y) == pytest.approx(f2(n, x, y), rel=1e-12)


@pytest.mark.parametrize("n, expected", [(16, -0.3023), (32, -0.3052)])
def test_transfer_sine_kernel_deviation(n, expected):
    # N (ratio - sine) at band n = W, lambda0 = 0, delta = 1
    p = scaled_lambdas(0.0, 0.5, -0.5, n)
    ratio = exact.transfer_ratio(covariance_profile(Lattice1D(n), float(n)), p.lambda1, p.lambda2)
    assert n * (ratio - sine_kernel(1.0)) == pytest.approx(expected, abs=5e-5)


@pytest.mark.parametrize("profile", [covariance_profile(Lattice1D(24), 24.0), gue_profile(20)],
                         ids=["band24", "gue20"])
@pytest.mark.parametrize("lambda0", [0.0, 1.0])
def test_transfer_trim_is_exact(profile, lambda0):
    # after site j the tensor is cut to j + 1 degrees per axis, so no cap above the
    # trim's largest size (about n/2 + 1) changes a bit
    n = profile.size
    sigma, rho = exact._chain(profile)
    p = scaled_lambdas(lambda0, 0.5, -0.5, n)
    values = [exact._transfer(sigma, rho, p.lambda1, p.lambda2, cap) for cap in (n // 2 + 2, n + 8)]
    assert values[0] == values[1]


def test_transfer_cap_settles(monkeypatch):
    # the cap stops growing once the value moves by at most _TOL, or once 2K > n: the
    # trim by the sites left already holds the tensor to about n/2 + 1 degrees per axis
    prof = covariance_profile(Lattice1D(64), 64.0)
    monkeypatch.setattr(exact, "_TOL", 1e-2)
    t = exact.transfer_f2(prof, 0.05, -0.05)
    assert t.cap == 32 and 0 < t.change <= 1e-2
    monkeypatch.setattr(exact, "_TOL", 0.0)
    assert exact.transfer_f2(prof, 0.05, -0.05).cap == 40


def test_transfer_rejects_a_profile_that_is_no_chain():
    J = np.array([[1.0, 0.1, 0.4], [0.1, 1.0, 0.1], [0.4, 0.1, 1.0]])
    with pytest.raises(ValueError, match="Markov"):
        exact.transfer_f2(CovarianceProfile(J), 0.1, 0.2)
