"""Spectral closed forms: density, saddle bundle, exponent, sinc, bulk scaling."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from bandmoment import saddle as sp


class TestSemicircle:
    def test_edges_and_outside(self):
        assert sp.semicircle_density(2.0) == 0.0
        assert sp.semicircle_density(-2.0) == 0.0
        assert sp.semicircle_density(3.7) == 0.0

    def test_normalization_by_quadrature(self):
        mass, err = scipy.integrate.quad(sp.semicircle_density, -2, 2, epsabs=1e-13)
        assert abs(mass - 1.0) <= 1e-10

    def test_cdf_matches_quadrature(self):
        for lam in (-1.7, -0.3, 0.0, 0.9, 1.99):
            mass, _ = scipy.integrate.quad(sp.semicircle_density, -2, lam, epsabs=1e-13)
            assert sp.semicircle_cdf(lam) == pytest.approx(mass, abs=1e-10)
        assert sp.semicircle_cdf(-2.5) == 0.0
        assert sp.semicircle_cdf(2.5) == 1.0


class TestSaddleData:
    def test_conjugacy(self):
        rng = np.random.default_rng(0)
        for lam0 in rng.uniform(-1.95, 1.95, 20):
            sd = sp.saddle_data(lam0)
            assert sd.c_minus == np.conj(sd.c_plus)
            assert sd.a_plus == pytest.approx(math.pi * sd.rho, rel=1e-14)

    def test_outside_bulk(self):
        for lam0 in (2.0, -2.0, 2.5):
            with pytest.raises(ValueError):
                sp.saddle_data(lam0)


class TestExponent:
    def test_excess_is_real_part_of_exponent_gap(self):
        lam0 = 0.8
        sd = sp.saddle_data(lam0)
        for x in (-2.3, -0.4, 0.9, 1.7):
            direct = (sp.saddle_exponent(x, lam0) - sp.saddle_exponent(sd.a_plus, lam0)).real
            assert sp.saddle_exponent_excess(x, lam0) == pytest.approx(direct, abs=1e-12)

    def test_singularity_raises(self):
        with pytest.raises(ValueError):
            sp.saddle_exponent(0.5j, 1.0)


class TestSineKernel:
    def test_series_matches_direct_at_cutoff(self):
        for d in (1e-5, 3e-5, 0.99e-4, 1.01e-4):
            direct = math.sin(math.pi * d) / (math.pi * d)
            assert sp.sine_kernel(d) == pytest.approx(direct, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_even_and_bounded(self, d):
        v = sp.sine_kernel(d)
        assert v == sp.sine_kernel(-d)
        assert abs(v) <= 1.0 + 1e-15

    def test_zeros_at_nonzero_integers(self):
        for k in range(1, 8):
            assert abs(sp.sine_kernel(float(k))) <= 1e-14
            assert abs(sp.sine_kernel(float(-k))) <= 1e-14


class TestScaledLambdas:
    def test_coincident(self):
        p = sp.scaled_lambdas(0.0, 0.0, 0.0, 10)
        assert p.lambda1 == 0.0 and p.lambda2 == 0.0

    def test_scaling_at_center(self):
        # rho(0) = 1/pi, so xi=1 at n=100 shifts by pi/100
        p = sp.scaled_lambdas(0.0, 1.0, 0.0, 100)
        assert p.lambda1 == pytest.approx(math.pi / 100, rel=1e-14)
        assert p.lambda2 == 0.0

    def test_monotone_in_xi(self):
        vals = [sp.scaled_lambdas(0.5, x, 0.0, 50).lambda1 for x in np.linspace(-2, 2, 9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_outside_bulk(self):
        with pytest.raises(ValueError):
            sp.scaled_lambdas(2.0, 0.0, 0.0, 10)
        with pytest.raises(ValueError):
            sp.scaled_lambdas(0.0, 0.0, 0.0, 0)
