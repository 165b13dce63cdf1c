"""Haar U(2) sampling and the closed-form unitary-group integrals."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from bandmoment import unitary as un
from bandmoment.sampler import RngStream


def tilted_trace(C, D, V):
    """Tr C V* D V for a stack of 2x2 unitaries."""
    return np.einsum("ij,bkj,kl,bli->b", C, V.conj(), D, V).real


def h_by_quadrature(s, x):
    """Independent oracle: h_s(x) = integral_0^1 t^s e^{-x t} dt."""
    val, err = scipy.integrate.quad(lambda t: t**s * math.exp(-x * t), 0.0, 1.0,
                                    epsabs=1e-14, epsrel=1e-13)
    return val


class TestHaarU2:
    def test_single_draw_deterministic(self):
        assert np.array_equal(un.haar_u2_batch(RngStream(4, 9), 1)[0],
                              un.haar_u2_batch(RngStream(4, 9), 1)[0])

    def test_offdiagonal_weight(self):
        # |U_12|^2 is uniform on [0,1] under Haar, so its mean is 1/2
        U = un.haar_u2_batch(RngStream(12, 0), 100_000)
        m = np.abs(U[:, 0, 1]) ** 2
        se = m.std(ddof=1) / math.sqrt(len(m))
        assert abs(m.mean() - 0.5) <= 4 * se
        # and the full distribution is uniform
        ks = scipy.stats.kstest(m, "uniform")
        assert ks.pvalue > 0.01


class TestCharacterIntegral:
    def test_scalar_c(self):
        c, d1, d2, t = 0.4, 0.5, 0.1, 0.7
        assert un.hciz_2x2(c, c, d1, d2, t) == pytest.approx(
            math.exp(t * c * (d1 + d2)), rel=1e-14)

    def test_direct_formula_away_from_degeneracy(self):
        c1, c2, d1, d2, t = 0.9, -0.4, 0.7, -0.2, 1.3
        x = t * (c1 - c2) * (d1 - d2)
        direct = (math.exp(t * (c1 * d1 + c2 * d2))
                  - math.exp(t * (c1 * d2 + c2 * d1))) / x
        assert un.hciz_2x2(c1, c2, d1, d2, t) == pytest.approx(direct, rel=1e-13)

    def test_series_branch_continuous(self):
        base = dict(c1=0.5, c2=0.5 - 1e-7, d1=0.3, d2=-0.1, t=1.0)
        inside = un.hciz_2x2(**base)
        base["c2"] = 0.5 - 2e-5  # outside the series window
        outside = un.hciz_2x2(**base)
        assert inside == pytest.approx(outside, rel=1e-5)

    def test_swap_symmetry(self):
        c1, c2, d1, d2, t = 0.8, -0.3, 0.6, -0.4, 0.9
        assert un.hciz_2x2(c1, c2, d1, d2, t) == pytest.approx(
            un.hciz_2x2(c2, c1, d2, d1, t), rel=1e-14)

    def test_against_haar_monte_carlo(self):
        rng = np.random.default_rng(7)
        V = un.haar_u2_batch(RngStream(17, 0), 400_000)
        for _ in range(4):
            c1, c2, d1, d2 = rng.uniform(-1, 1, 4)
            t = rng.uniform(0.2, 1.5)
            vals = np.exp(t * tilted_trace(np.diag([c1, c2]), np.diag([d1, d2]), V))
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - un.hciz_2x2(c1, c2, d1, d2, t)) <= 4 * se


class TestV12Moment:
    @pytest.mark.parametrize("s", [0, 1, 2, 5, 10, 30])
    @pytest.mark.parametrize("x", [-20.0, -8.0, -1.3, 0.7, 8.0, 25.0])
    def test_against_quadrature_oracle(self, s, x):
        assert un.v12_moment(s, x) == pytest.approx(h_by_quadrature(s, x), rel=1e-9)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            un.v12_moment(31, 0.0)
        with pytest.raises(ValueError):
            un.v12_moment(-1, 0.0)

    def test_first_moment_against_haar_mc(self):
        c1, c2, d1, d2, t = 0.8, -0.3, 0.6, -0.4, 0.9
        x = t * (c1 - c2) * (d1 - d2)
        V = un.haar_u2_batch(RngStream(19, 0), 400_000)
        w = (np.abs(V[:, 0, 1]) ** 2
             * np.exp(t * (tilted_trace(np.diag([c1, c2]), np.diag([d1, d2]), V)
                           - (c1 * d1 + c2 * d2))))
        se = w.std(ddof=1) / math.sqrt(len(w))
        assert abs(w.mean() - un.v12_moment(1, x)) <= 4 * se

    def test_zeroth_moment_is_shifted_character_integral(self):
        # s=0 reduces to e^{-t Tr CD} times the character integral
        c1, c2, d1, d2, t = 0.5, -0.7, 0.2, 0.9, 1.1
        x = t * (c1 - c2) * (d1 - d2)
        expect = math.exp(-t * (c1 * d1 + c2 * d2)) * un.hciz_2x2(c1, c2, d1, d2, t)
        assert un.v12_moment(0, x) == pytest.approx(expect, rel=1e-12)

