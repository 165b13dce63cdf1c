"""Dual Hermitian-field representation of the moment: quadrature and MC checks."""

import math

import pytest

from bandmoment import dualrep as dr
from bandmoment import moments as mo
from bandmoment.lattice import Lattice1D, covariance_profile
from bandmoment.saddle import scaled_lambdas


@pytest.fixture(scope="module")
def grid40():
    return dr.QuadratureGrid.build(40)


@pytest.fixture(scope="module")
def profile1():
    return covariance_profile(Lattice1D(1), 1.0)


class TestQuadratureGrid:
    def test_normalization(self, grid40):
        assert grid40.diag_weights.sum() == pytest.approx(math.sqrt(2 * math.pi), rel=1e-13)
        assert grid40.off_weights.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert (grid40.diag_weights > 0).all() and (grid40.off_weights > 0).all()

    def test_too_small(self):
        with pytest.raises(ValueError):
            dr.QuadratureGrid.build(1)


class TestSingleSite:
    def test_trivial_point(self, grid40, profile1):
        val = dr.dual_f2_n1(0.0, 0.0, 0.0, grid40)
        assert val.real == pytest.approx(1.0, rel=1e-10)
        assert abs(val.imag) <= 1e-8

    def test_symmetric_pair(self, grid40):
        # lambda_j = xi_j * pi at one site, center of the bulk:
        # F2 = (pi/2)(-pi/2) + 1 = 1 - pi^2/4
        val = dr.dual_f2_n1(0.0, 0.5, -0.5, grid40)
        assert val.real == pytest.approx(1.0 - math.pi**2 / 4.0, rel=1e-6)

    @pytest.mark.parametrize("lambda0", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("xis", [(0.0, 0.0), (0.5, -0.5), (0.3, -0.2), (0.7, 0.1)])
    def test_representation_identity(self, grid40, profile1, lambda0, xis):
        # the strongest statement in the package: the dual field integral
        # reproduces the direct-ensemble moment pointwise
        val = dr.dual_f2_n1(lambda0, xis[0], xis[1], grid40)
        p = scaled_lambdas(lambda0, xis[0], xis[1], 1)
        exact = mo.wick_exact_f2(1, p.lambda1, p.lambda2, profile1)
        assert abs(val.real - exact) <= 1e-6 * abs(exact)
        assert abs(val.imag) <= 1e-8 * max(abs(val.real), 1e-30)

    def test_grid_convergence_all_acceptance_points(self, grid40):
        # 32 vs 40 nodes across the full parameter set; 40 vs 48 is exercised
        # for the same points by the in-op convergence check elsewhere
        grid32 = dr.QuadratureGrid.build(32)
        for lambda0 in (0.0, 0.5, 1.0):
            for (x1, x2) in ((0.0, 0.0), (0.5, -0.5), (0.3, -0.2), (0.7, 0.1)):
                coarse = dr.dual_f2_n1(lambda0, x1, x2, grid32, check_convergence=False)
                fine = dr.dual_f2_n1(lambda0, x1, x2, grid40, check_convergence=False)
                assert abs(fine - coarse) <= 1e-8

    def test_coarse_grid_raises(self):
        with pytest.raises(dr.AccuracyError):
            dr.dual_f2_n1(1.0, 1.4, -1.3, dr.QuadratureGrid.build(4))

    def test_outside_bulk(self, grid40):
        with pytest.raises(ValueError):
            dr.dual_f2_n1(2.1, 0.0, 0.0, grid40)


class TestTwoSite:
    def test_matches_oracle(self):
        est = dr.dual_f2_n2_mc(0.0, 0.2, -0.1, 1.0, 200_000, 7)
        p = scaled_lambdas(0.0, 0.2, -0.1, 2)
        exact = mo.wick_exact_f2(2, p.lambda1, p.lambda2,
                                 covariance_profile(Lattice1D(2), 1.0))
        assert abs(est.value.real - exact) <= 4 * est.stderr_real

    def test_imaginary_part_consistent_with_zero(self):
        est = dr.dual_f2_n2_mc(0.0, 0.15, -0.05, 1.0, 100_000, 8)
        assert abs(est.value.imag) <= 4 * est.stderr_imag

    def test_seed_stability(self):
        a = dr.dual_f2_n2_mc(0.0, 0.1, -0.1, 1.0, 100_000, 1)
        b = dr.dual_f2_n2_mc(0.0, 0.1, -0.1, 1.0, 100_000, 2)
        combined = math.hypot(a.stderr_real, b.stderr_real)
        assert abs(a.value.real - b.value.real) <= 4 * combined

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            dr.dual_f2_n2_mc(0.0, 0.1, -0.1, 1.0, 5_000, 1)

    def test_effective_sample_size_reported(self):
        est = dr.dual_f2_n2_mc(0.0, 0.1, -0.1, 1.0, 50_000, 3)
        assert est.effective_samples >= 100
