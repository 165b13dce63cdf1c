"""Dual Hermitian-field representation of the moment, evaluated by the transfer recursion."""

import math

import pytest

from bandmoment import exact
from bandmoment.lattice import Lattice1D, covariance_profile
from bandmoment.saddle import scaled_lambdas


@pytest.fixture(scope="module")
def profile1():
    return covariance_profile(Lattice1D(1), 1.0)


def value(t):
    return t.sign * math.exp(t.log_abs)


class TestSingleSite:
    def test_trivial_point(self, profile1):
        t = exact.transfer_f2(profile1, 0.0, 0.0)
        assert value(t) == pytest.approx(1.0, rel=1e-14)

    def test_symmetric_pair(self, profile1):
        # lambda_j = xi_j * pi at one site, center of the bulk:
        # F2 = (pi/2)(-pi/2) + 1 = 1 - pi^2/4
        t = exact.transfer_f2(profile1, math.pi / 2, -math.pi / 2)
        assert value(t) == pytest.approx(1.0 - math.pi**2 / 4.0, rel=1e-14)

    @pytest.mark.parametrize("lambda0", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("xis", [(0.0, 0.0), (0.5, -0.5), (0.3, -0.2), (0.7, 0.1)])
    def test_representation_identity(self, profile1, lambda0, xis):
        # the strongest statement in the package: the dual field integral
        # reproduces the direct-ensemble moment pointwise
        p = scaled_lambdas(lambda0, xis[0], xis[1], 1)
        t = exact.transfer_f2(profile1, p.lambda1, p.lambda2)
        ref = exact.wick_exact_f2(p.lambda1, p.lambda2, profile1)
        assert abs(value(t) - ref) <= 1e-12 * abs(ref)


class TestTwoSite:
    def test_matches_oracle(self):
        p = scaled_lambdas(0.0, 0.2, -0.1, 2)
        prof = covariance_profile(Lattice1D(2), 1.0)
        t = exact.transfer_f2(prof, p.lambda1, p.lambda2)
        ref = exact.wick_exact_f2(p.lambda1, p.lambda2, prof)
        assert abs(value(t) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("W", [0.7, 1.0, 2.0, 13.0])
    def test_bandwidth_sweep(self, W):
        # the coupling J_12 runs from 0.25 (W = 0.7) to 0.499 (W = 13); pairs off the
        # bulk scaling, of either sign, and one outside the bulk
        prof = covariance_profile(Lattice1D(2), W)
        for l1, l2 in ((0.3, -0.2), (1.7, 0.4), (-1.1, -1.9), (0.0, 2.5)):
            t = exact.transfer_f2(prof, l1, l2)
            ref = exact.wick_exact_f2(l1, l2, prof)
            assert abs(value(t) - ref) <= 1e-12 * abs(ref)
