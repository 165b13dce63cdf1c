"""Lattice toolkit: chain operators, covariance profile, tridiagonal determinants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solveh_banded

from bandmoment import charpoly as cp
from bandmoment import lattice as lt
from bandmoment.verify import _dense_chain as dense_chain


class TestNeumannLaplacian:
    def test_three_sites(self):
        d, e = lt.neumann_laplacian(lt.Lattice1D(3))
        assert np.array_equal(d, [1.0, 2.0, 1.0])
        assert np.array_equal(e, [-1.0, -1.0])

    def test_two_sites(self):
        d, e = lt.neumann_laplacian(lt.Lattice1D(2))
        assert np.array_equal(d, [1.0, 1.0])
        assert np.array_equal(e, [-1.0])

    def test_single_site_is_zero(self):
        d, e = lt.neumann_laplacian(lt.Lattice1D(1))
        assert np.array_equal(d, [0.0]) and len(e) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_row_sums_zero(self, n):
        d, e = lt.neumann_laplacian(lt.Lattice1D(n))
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        assert np.abs(dense.sum(axis=1)).max() == 0.0

    def test_lattice_validators(self):
        with pytest.raises(ValueError):
            lt.Lattice1D(0)


class TestCovarianceProfile:
    def test_single_site_identity(self):
        prof = lt.covariance_profile(lt.Lattice1D(1), 5.0)
        assert prof.J.shape == (1, 1) and prof.J[0, 0] == 1.0

    def test_row_sums_exact(self):
        prof = lt.covariance_profile(lt.Lattice1D(3), 1.0)
        assert np.abs(prof.J.sum(axis=1) - 1.0).max() <= 1e-14

    def test_row_sums_large(self):
        prof = lt.covariance_profile(lt.Lattice1D(1001), 100.0)
        assert np.abs(prof.J.sum(axis=1) - 1.0).max() <= 1e-12

    def test_symmetry_and_positivity(self):
        prof = lt.covariance_profile(lt.Lattice1D(201), 10.0)
        assert np.array_equal(prof.J, prof.J.T)
        assert prof.J.min() > 0.0
        # positive definiteness via Sturm count on W^2 K + 1
        d, e = lt.neumann_laplacian(lt.Lattice1D(201))
        counts = cp.count_below_many(100.0 * d + 1.0, (100.0 * e) ** 2, [0.0, 1.0 - 1e-9])
        assert counts[0, 0] == 0
        assert counts[0, 1] == 0  # spectrum starts at 1

    def test_exponential_decay(self):
        # |J_0k| ~ exp(-C k / W): the log profile along a row is essentially linear
        prof = lt.covariance_profile(lt.Lattice1D(201), 10.0)
        k = np.arange(60, 181)
        logj = np.log(prof.J[0, k])
        slope, intercept = np.polyfit(k, logj, 1)
        resid = logj - (slope * k + intercept)
        assert 1.0 - resid.var() / logj.var() >= 0.999
        assert slope < 0

    def test_matches_dense_inverse(self):
        lap = dense_chain(9, 0.0, pinned=False).real
        expected = np.linalg.inv(4.0 * lap + np.eye(9))
        prof = lt.covariance_profile(lt.Lattice1D(9), 2.0)
        assert np.abs(prof.J - expected).max() <= 1e-13

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            lt.covariance_profile(lt.Lattice1D(3), 0.0)
        with pytest.raises(ValueError, match="infs or NaNs"):
            lt.covariance_profile(lt.Lattice1D(3), math.inf)

    @pytest.mark.parametrize("W", [0.7, 64.0])
    @pytest.mark.parametrize("n", [2, 3, 64, 1000])
    def test_bits_of_the_solveh_banded_route(self, n, W):
        # the profile as computed through scipy's solveh_banded, which calls
        # dptsv for a band of one off-diagonal
        d, e = lt.neumann_laplacian(lt.Lattice1D(n))
        w2 = W ** 2
        ab = np.zeros((2, n))
        ab[1] = w2 * d + 1.0
        ab[0, 1:] = w2 * e
        rhs = np.eye(n)
        J = solveh_banded(ab, rhs)
        J = J + solveh_banded(ab, rhs - lt._mul_shifted_tridiag(d, e, w2, J))
        J = 0.5 * (J + J.T)
        assert lt.covariance_profile(lt.Lattice1D(n), W).J.tobytes() == J.tobytes()

    def test_rejects_non_square_or_empty(self):
        for J in (np.ones((2, 3)), np.ones(3), np.ones((0, 0))):
            with pytest.raises(ValueError, match="nonempty square"):
                lt.CovarianceProfile(J)

    def test_solver_raises_on_indefinite_band(self):
        with pytest.raises(np.linalg.LinAlgError, match="2th leading minor"):
            lt._solve_spd_tridiagonal(np.array([1.0, -1.0]), np.array([0.0]), np.eye(2))
        with pytest.raises(ValueError, match="infs or NaNs"):
            lt._solve_spd_tridiagonal(np.ones(2), np.array([math.nan]), np.eye(2))


class TestChainCharpolys:
    def test_pinned_small_values(self):
        assert lt.charpoly_pinned(1, 0.5) == 1.5
        assert lt.charpoly_pinned(2, 0.5) == pytest.approx(2.75, abs=1e-15)
        # quadratic closed form x^2 + 3x + 1
        x = 0.37
        assert lt.charpoly_pinned(2, x) == pytest.approx(x * x + 3 * x + 1, rel=1e-15)

    def test_pinned_vs_dense_at_random_points(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(0.05, 3.0, 10)
        for m in range(1, 6):
            for x in xs:
                oracle = np.linalg.det(dense_chain(m, x, pinned=True))
                assert abs(lt.charpoly_pinned(m, x) - oracle) <= 1e-12 * abs(oracle)

    def test_free_small_values(self):
        # S_2(x) = x^2 + 2x, so S_2(1) = 3 (dense oracle [[1+x,-1],[-1,1+x]])
        assert lt.charpoly_neumann(2, 1.0) == pytest.approx(3.0, abs=1e-15)
        x = -0.3 + 0.2j
        oracle = np.linalg.det(np.array([[1 + x, -1], [-1, 1 + x]]))
        assert abs(lt.charpoly_neumann(2, x) - oracle) <= 1e-14

    @pytest.mark.parametrize("m", range(1, 13))
    def test_free_zero_mode(self, m):
        assert lt.charpoly_neumann(m, 0.0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40),
           st.complex_numbers(min_magnitude=0.01, max_magnitude=3.0).filter(lambda z: z.real > 0.01))
    def test_closed_form_property(self, m, x):
        r = lt.charpoly_neumann(m, x)
        c = lt.charpoly_neumann_closed(m, x)
        assert abs(c - r) <= 1e-9 * max(abs(r), 1e-30)

    def test_log_form_matches_plain(self):
        from bandmoment.lattice import _log_charpoly_neumann, _log_charpoly_pinned
        x = 0.02 + 0.013j
        for m in (1, 2, 7, 33):
            assert np.exp(_log_charpoly_pinned(m, x)) == pytest.approx(
                lt.charpoly_pinned(m, x), rel=1e-12)
            assert np.exp(_log_charpoly_neumann(m, x)) == pytest.approx(
                lt.charpoly_neumann(m, x), rel=1e-12)


class TestGreenDiag:
    def test_two_site_closed_form(self):
        # G_11 = (1+x)/(x^2+2x); x = 2 gamma / W^2 = 1 at gamma=2, W=2
        val = lt.green_diag(2, 2.0, 2.0, 1)
        assert val == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_reflection_symmetry(self):
        m, gam, W = 9, 0.7 + 1.1j, 2.5
        for i in range(1, m + 1):
            assert lt.green_diag(m, gam, W, i) == pytest.approx(
                lt.green_diag(m, gam, W, m + 1 - i), rel=1e-13)

    def test_cofactor_identity(self):
        # G_ii * det(full) equals the determinant of the complementary minor
        m, gam, W = 8, 0.9 + 0.4j, 2.0
        x = 2 * gam / W**2
        full = dense_chain(m, x, pinned=False)
        det_full = np.linalg.det(full)
        for i in range(1, m + 1):
            minor = np.delete(np.delete(full, i - 1, axis=0), i - 1, axis=1)
            lhs = lt.green_diag(m, gam, W, i) * det_full
            rhs = np.linalg.det(minor)
            assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

    def test_singularity_and_domain_errors(self):
        with pytest.raises(ValueError):
            lt.green_diag(5, 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            lt.green_diag(5, 1.0, 1.0, 6)


class TestGaussianPartition:
    def test_one_dimensional_integral(self):
        # Z = W sqrt(pi / gamma) for a single site
        for gam, W in [(2.0, 3.0), (0.5, 1.0)]:
            z = np.exp(lt.log_gaussian_partition(1, gam, W))
            assert z == pytest.approx(W * math.sqrt(math.pi / gam), rel=1e-13)

    def test_branch_continuity_along_path(self):
        # moving gamma from real into the upper half plane must not jump branches
        m, W = 40, 3.0
        ts = np.linspace(0.0, 1.0, 101)
        logs = [lt.log_gaussian_partition(m, 1.0 + 5.0j * t, W) for t in ts]
        steps = np.abs(np.diff([l.imag for l in logs]))
        assert steps.max() < math.pi

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lt.log_gaussian_partition(3, -1.0, 1.0)
        with pytest.raises(ValueError):
            lt.log_gaussian_partition(0, 1.0, 1.0)
