"""Ensemble sampling: determinism, Hermiticity, entry covariances, block memory."""

import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from bandmoment import sampler as sm
from bandmoment.lattice import Lattice1D, covariance_profile


class TestRngStream:
    def test_pure_function_of_seed_and_index(self):
        a = sm.RngStream(123, 5).generator().standard_normal(4)
        b = sm.RngStream(123, 5).generator().standard_normal(4)
        c = sm.RngStream(123, 6).generator().standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            sm.RngStream(1, -1)


class TestSampleRbm:
    def test_deterministic_and_hermitian(self):
        prof = covariance_profile(Lattice1D(11), 2.0)
        s = sm.RngStream(42, 7)
        H1 = sm.sample_rbm(prof, s)
        H2 = sm.sample_rbm(prof, s)
        assert np.array_equal(H1, H2)
        assert np.array_equal(H1, H1.conj().T)
        assert np.abs(H1.diagonal().imag).max() == 0.0
        for n in (3, 11):
            for p in (covariance_profile(Lattice1D(n), 2.0), sm.gue_profile(n)):
                H = sm.sample_batch(p, s, 7)
                assert H.tobytes() == sm.sample_batch(p, s, 7).tobytes()
                assert np.array_equal(H, np.conj(np.swapaxes(H, -1, -2)))
                assert not np.diagonal(H, axis1=-2, axis2=-1).imag.any()

    def test_single_site_variance(self):
        prof = covariance_profile(Lattice1D(1), 1.0)
        vals = sm.sample_batch(prof, sm.RngStream(5, 0), 100_000)[:, 0, 0].real
        assert 0.97 <= vals.var() <= 1.03

    def test_entry_covariances(self):
        # E|H_ij|^2 = J_ij and E[H_ij^2] = 0 within 4 standard errors
        prof = covariance_profile(Lattice1D(11), 2.0)
        n_samp = 100_000
        H = sm.sample_batch(prof, sm.RngStream(8, 0), n_samp)
        abs2 = (np.abs(H) ** 2).mean(axis=0)
        sq = (H * H).mean(axis=0)
        for i in range(11):
            for j in range(11):
                x = np.abs(H[:, i, j]) ** 2
                se = x.std(ddof=1) / np.sqrt(n_samp)
                assert abs(abs2[i, j] - prof.J[i, j]) <= 4 * se
                if i != j:
                    se2 = (H[:, i, j] ** 2).real.std(ddof=1) / np.sqrt(n_samp)
                    assert abs(sq[i, j].real) <= 4 * se2
                    assert abs(sq[i, j].imag) <= 4 * se2


class TestSampleGue:
    def test_single_site_variance(self):
        vals = sm.sample_batch(sm.gue_profile(1), sm.RngStream(3, 0), 50_000)[:, 0, 0].real
        assert abs(vals.var() - 1.0) <= 4 * np.sqrt(2.0 / 50_000)

    def test_trace_of_square(self):
        # E[Tr H^2] = sum of entry variances = n
        n, n_samp = 20, 10_000
        H = sm.sample_batch(sm.gue_profile(n), sm.RngStream(17, 0), n_samp)
        tr2 = np.einsum("bij,bji->b", H, H).real
        se = tr2.std(ddof=1) / np.sqrt(n_samp)
        assert abs(tr2.mean() - n) <= 4 * se

    def test_profile_rows_sum_to_one(self):
        prof = sm.gue_profile(5)
        assert np.allclose(prof.J.sum(axis=1), 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty square"):
            sm.sample_rbm(sm.gue_profile(0), sm.RngStream(1))


class TestUpperEntries:
    def test_cached_per_profile_and_read_only(self):
        prof = covariance_profile(Lattice1D(6), 2.0)
        first = sm._upper_entries(prof)
        second = sm._upper_entries(prof)
        assert all(a is b for a, b in zip(first, second))
        assert not first[2].flags.writeable
        other = sm._upper_entries(covariance_profile(Lattice1D(6), 2.0))
        assert other[2] is not first[2] and np.array_equal(other[2], first[2])

    def test_threads_share_one_entry(self):
        # threads that miss the cache at once still all get the entry that is kept
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                prof = covariance_profile(Lattice1D(40), 5.0)
                barrier, got = threading.Barrier(8), []

                def work():
                    barrier.wait(timeout=10)
                    got.append(sm._upper_entries(prof)[2])

                workers = [threading.Thread(target=work) for _ in range(8)]
                for t in workers:
                    t.start()
                for t in workers:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in workers)
                assert len(got) == 8 and all(sd is sm._upper_entries(prof)[2] for sd in got)
        finally:
            sys.setswitchinterval(old)

    def test_entry_goes_with_its_profile(self):
        gc.collect()  # profiles of earlier tests go first
        before = len(sm._entries_cache)
        prof = sm.gue_profile(7)
        sm._upper_entries(prof)
        assert prof in sm._entries_cache and len(sm._entries_cache) == before + 1
        del prof
        gc.collect()
        assert len(sm._entries_cache) == before


class TestUpperSamples:
    @staticmethod
    def upper(X):
        n = X.shape[-1]
        return X[np.triu_indices(n)].tobytes()

    @pytest.mark.parametrize("kind,n", [("band", 9), ("band", 16), ("gue", 12)])
    def test_bitwise_equal_to_sample_batch(self, kind, n):
        prof = covariance_profile(Lattice1D(n), 3.0) if kind == "band" else sm.gue_profile(n)
        piece = sm._DRAW_PIECE // (n * n)  # samples per real-part draw
        for count in (5, 2 * piece + 3):
            H = sm.sample_batch(prof, sm.RngStream(61, 4096), count)
            buf = np.full((n, n), np.nan, dtype=complex, order="F")
            seen = 0
            for b, a in enumerate(sm.upper_samples(prof, sm.RngStream(61, 4096), count, buf)):
                assert a is buf
                assert self.upper(a) == self.upper(H[b])
                assert not np.tril(a, -1).any()
                seen += 1
            assert seen == count

    def test_block_memory_is_the_packed_real_half(self):
        # a block keeps n(n+1)/2 scaled real normals per sample, no (count, n, n) stack
        n, count = 64, 512
        prof = covariance_profile(Lattice1D(n), 64.0)
        buf = np.empty((n, n), dtype=complex, order="F")
        tracemalloc.start()
        try:
            for _ in sm.upper_samples(prof, sm.RngStream(7), count, buf):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= count * n * (n + 1) // 2 * 8 + 4 * 2**20

    def test_single_sample_equals_sample_rbm_and_gue(self):
        n = 11
        prof = covariance_profile(Lattice1D(n), 2.0)
        buf = np.empty((n, n), dtype=complex, order="F")
        s = sm.RngStream(42, 7)
        gue = sm.gue_profile(n)
        a = next(sm.upper_samples(prof, s, 1, buf))
        assert self.upper(a) == self.upper(sm.sample_rbm(prof, s))
        a = next(sm.upper_samples(gue, s, 1, buf))
        assert self.upper(a) == self.upper(sm.sample_rbm(gue, s))
        assert sm.sample_rbm(prof, s).tobytes() == sm.sample_batch(prof, s, 1)[0].tobytes()
        assert sm.sample_rbm(gue, s).tobytes() == sm.sample_batch(gue, s, 1)[0].tobytes()
