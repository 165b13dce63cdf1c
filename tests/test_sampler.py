"""Ensemble sampling: determinism, Hermiticity, entry covariances, one sample layout."""

import gc
import sys
import threading

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

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_lower_triangle_mirrors_upper(self, n):
        # below the diagonal the exact conjugate of the entry above it, and +0.0
        # (not -0.0) as the imaginary part of the diagonal
        for prof in (covariance_profile(Lattice1D(n), 2.0), sm.gue_profile(n)):
            H = sm.sample_batch(prof, sm.RngStream(23, n), 64)
            assert H.shape == (64, n, n)
            i, j = np.tril_indices(n, -1)
            assert H[:, i, j].tobytes() == np.conj(H[:, j, i]).tobytes()
            diag_imag = np.diagonal(H, axis1=1, axis2=2).imag
            assert diag_imag.tobytes() == np.zeros((64, n)).tobytes()


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
        assert not first[0].flags.writeable and not first[1].flags.writeable
        other = sm._upper_entries(covariance_profile(Lattice1D(6), 2.0))
        assert other[1] is not first[1] and np.array_equal(other[1], first[1])

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
                    got.append(sm._upper_entries(prof)[1])

                workers = [threading.Thread(target=work) for _ in range(8)]
                for t in workers:
                    t.start()
                for t in workers:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in workers)
                assert len(got) == 8 and all(sd is sm._upper_entries(prof)[1] for sd in got)
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


class TestKeyed:
    @pytest.mark.parametrize("index", [0, 1, 4095, 4096, 2 ** 63])
    def test_equals_a_fresh_generator(self, index):
        # the re-keyed Philox draws RngStream(seed, index)'s stream, whatever it drew before
        key = sm.keyed(123)
        key(index + 1).standard_normal(7)
        key(index + 1).integers(0, 10, size=3, dtype=np.uint32)  # leaves a half-used word
        assert key(index).standard_normal(5000).tobytes() == (
            sm.RngStream(123, index).generator().standard_normal(5000).tobytes())


def upper_samples(prof, seed, start, count, rows):
    """Samples start, ..., start + count - 1, sample b keyed by RngStream(seed, b), written
    `rows` at a time into one slab and reduced there in place, as a worker writes them."""
    from bandmoment.charpoly import tridiagonalize

    n = prof.size
    key = sm.keyed(seed)
    slab = np.zeros((rows, n * n), dtype=complex)
    z = np.empty((rows, min(n * n, sm._DRAW_PIECE)))
    for first in range(start, start + count, rows):
        run = range(first, min(first + rows, start + count))
        sm.write_samples(prof, key, run, slab, z)
        for j in range(len(run)):
            yield slab[j].reshape(n, n).T
            tridiagonalize(slab[j].reshape(n, n).T, overwrite_a=True)


def upper(X):
    n = X.shape[-1]
    return X[np.triu_indices(n)].tobytes()


class TestUpperSamples:
    @pytest.mark.parametrize("kind,n", [("band", 9), ("band", 16), ("gue", 12)])
    def test_bitwise_equal_to_sample_batch(self, kind, n):
        # a slab's samples equal sample_batch's one-sample stacks of the same keys
        prof = covariance_profile(Lattice1D(n), 3.0) if kind == "band" else sm.gue_profile(n)
        piece = sm._DRAW_PIECE // (n * n)  # samples per slab
        for count in (5, 2 * piece + 3):
            seen = 0
            for b, a in enumerate(upper_samples(prof, 61, 4096, count, piece)):
                H = sm.sample_batch(prof, sm.RngStream(61, 4096 + b), 1)[0]
                assert upper(a) == upper(H)
                assert not np.tril(a, -1).any() and not np.diag(a).imag.any()
                seen += 1
            assert seen == count

    def test_single_sample_equals_sample_rbm_and_gue(self):
        n = 11
        prof = covariance_profile(Lattice1D(n), 2.0)
        s = sm.RngStream(42, 7)
        gue = sm.gue_profile(n)
        a = next(upper_samples(prof, 42, 7, 1, 1))
        assert upper(a) == upper(sm.sample_rbm(prof, s))
        a = next(upper_samples(gue, 42, 7, 1, 1))
        assert upper(a) == upper(sm.sample_rbm(gue, s))
        assert sm.sample_rbm(prof, s).tobytes() == sm.sample_batch(prof, s, 1)[0].tobytes()
        assert sm.sample_rbm(gue, s).tobytes() == sm.sample_batch(gue, s, 1)[0].tobytes()

    def test_stack_takes_consecutive_normals(self):
        # sample b of a stack takes normals b n^2, ..., (b + 1) n^2 - 1 of the stream
        n, count = 5, 3
        prof = covariance_profile(Lattice1D(n), 2.0)
        H = sm.sample_batch(prof, sm.RngStream(9, 2), count)
        z = sm.RngStream(9, 2).generator().standard_normal((count, n * n))
        rows = np.zeros((count, n * n), dtype=complex)
        sm._scatter(prof, z, 0, rows)
        for b in range(count):
            assert upper(H[b]) == upper(rows[b].reshape(n, n).T)


def write_one(prof, stream, width):
    """One sample of `stream` written as a worker writes it, the normals `width` at a time."""
    n = prof.size
    rows = np.zeros((1, n * n), dtype=complex)
    sm.write_samples(prof, lambda b: stream.generator(), [0], rows, np.empty((1, width)))
    return rows[0].reshape(n, n).T


class TestWriteSample:
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 255, 256, 257, 1000])
    def test_bitwise_equal_to_sample_batch(self, n):
        # one piece of normals, a piece's edge (256^2 = _DRAW_PIECE), a row split
        # across two pieces, and sixteen pieces; each write lands on the last
        # sample's slab after LAPACK reduced it in place, as in a worker
        from bandmoment.charpoly import tridiagonalize

        prof = covariance_profile(Lattice1D(n), max(1.0, n / 10))
        rows = np.zeros((1, n * n), dtype=complex)
        z = np.empty((1, min(n * n, sm._DRAW_PIECE)))
        for index in (5, 6):
            stream = sm.RngStream(83, index)
            sm.write_samples(prof, lambda b: sm.RngStream(83, b).generator(), [index], rows, z)
            a = rows[0].reshape(n, n).T
            H = sm.sample_batch(prof, stream, 1)[0]
            assert upper(a) == upper(H)
            assert not np.tril(a, -1).any() and not np.diag(a).imag.any()
            tridiagonalize(a, overwrite_a=True)

    @pytest.mark.parametrize("n", [256, 257, 1000])
    def test_pieced_draw_equals_one_shot(self, n):
        # normals drawn a piece at a time land where one draw of all n^2 puts them
        prof = covariance_profile(Lattice1D(n), n / 10)
        stream = sm.RngStream(17, 3)
        whole = upper(write_one(prof, stream, n * n))
        for width in (sm._DRAW_PIECE, 1000):
            assert upper(write_one(prof, stream, width)) == whole


def documented_sample(prof, seed, index):
    """Sample `index` of `prof` built from the module docstring's layout alone."""
    n = prof.size
    z = sm.RngStream(seed, index).generator().standard_normal(n * n)
    i, j = np.triu_indices(n, 1)  # the strict upper triangle row by row
    strict, sd = len(i), np.sqrt(prof.J[i, j] / 2.0)
    H = np.zeros((n, n), dtype=complex)
    H.real[i, j] = z[:strict] * sd
    H.real[range(n), range(n)] = z[strict:strict + n] * np.sqrt(np.diag(prof.J))
    H.imag[i, j] = z[strict + n:] * sd
    return H


class TestWorkerLaw:
    # the samples a scan's worker reduces at n = 64 (16-row slabs, each row reduced
    # in place before the next write) follow the law the sampler states
    n = 64

    def test_reduced_forms_equal_the_documented_samples(self):
        from bandmoment import moments as mo
        from bandmoment.charpoly import tridiagonalize

        prof = covariance_profile(Lattice1D(self.n), float(self.n))
        reduce = mo._slab_reducer(prof, 29, 40)  # runs of 40: three slab parts each
        for run in (range(0, 40), range(4090, 4130)):
            d, e = reduce(run)
            for k, b in enumerate(run):
                H = documented_sample(prof, 29, b)
                d_ref, e_ref = tridiagonalize(H)
                assert d[k].tobytes() == d_ref.tobytes() and e[k].tobytes() == e_ref.tobytes()

    def test_entry_moments(self):
        # per distance |i - j|: E Re^2 = E Im^2 = J/2 and E Re Im = 0 above the
        # diagonal (so E|H_ij|^2 = J_ij and E H_ij^2 = 0), E Re^2 = J on it, and
        # neighbouring entries uncorrelated; each within 5 standard errors
        n, count = self.n, 2048
        prof = covariance_profile(Lattice1D(n), float(n))
        rr, ii, ri, nb = (np.zeros((n, n)) for _ in range(4))
        for a in upper_samples(prof, 5, 0, count, sm._DRAW_PIECE // (n * n)):
            re, im = a.real, a.imag
            rr += re * re
            ii += im * im
            ri += re * im
            nb[:, :-1] += re[:, :-1] * re[:, 1:]
        half = prof.J / 2.0
        for k in range(n):
            i = np.arange(n - k)
            m = count * (n - k)
            if k == 0:
                stats = [(rr[i, i] / np.diag(prof.J)).sum() / m - 1.0]
                ses = [np.sqrt(2.0 / m)]
            else:
                s = half[i, i + k]
                stats = [(rr[i, i + k] / s).sum() / m - 1.0, (ii[i, i + k] / s).sum() / m - 1.0,
                         (ri[i, i + k] / s).sum() / m]
                ses = [np.sqrt(2.0 / m)] * 2 + [np.sqrt(1.0 / m)]
            if k < n - 1:  # entries (i, i + k) and (i, i + k + 1), both drawn
                i = np.arange(n - k - 1)
                sd = np.sqrt(prof.J[i, i + k] / (1.0 if k == 0 else 2.0) * half[i, i + k + 1])
                stats.append((nb[i, i + k] / sd).sum() / (count * len(i)))
                ses.append(np.sqrt(1.0 / (count * len(i))))
            for stat, se in zip(stats, ses):
                assert abs(stat) <= 5 * se, (k, stat, se)
