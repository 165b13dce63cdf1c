"""Signed-log determinants, tridiagonalization, Sturm counting."""

import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg

from bandmoment import _lapack
from bandmoment import charpoly as cp


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


def bits(t):
    """The bytes of a tridiagonal form (d, e), for bitwise comparison."""
    return tuple(a.tobytes() for a in t)


def assert_matches_f2py_zhetrd(n, seed):
    """The ctypes zhetrd gives the bits of scipy's f2py zhetrd with the
    workspace scipy's own query asks for (from n = 32 on, a smaller one
    changes the blocking and the bits)."""
    H = np.asfortranarray(random_hermitian(n, seed))
    ours = cp.tridiagonalize(H)
    work, info = scipy.linalg.lapack.zhetrd_lwork(n)
    assert info == 0
    set_local = _lapack.blas_threads_local()
    prev = set_local(1) if set_local is not None else None
    try:
        _, d, e, _, info = scipy.linalg.lapack.zhetrd(H, lwork=int(work.real))
    finally:
        if prev is not None:
            set_local(prev)
    assert info == 0
    assert bits(ours) == bits((d, np.abs(e)))


def bisection_eigenvalues(d, e):
    """Independent oracle: LAPACK bisection on the tridiagonal arrays."""
    if len(d) == 1:
        return np.array([d[0]])
    return np.sort(scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="stebz"))


def det_one(d, e, lam):
    """(sign, log_mag) of det(lam - T) from the batch recurrence on a one-row stack."""
    sign, log_mag = cp.char_det_many(d[None, :], e[None, :] ** 2, [lam])
    return int(sign[0, 0]), float(log_mag[0, 0])


def count_one(d, e, lam):
    """Eigenvalues of T strictly below lam, from the batch Sturm count on a one-row stack."""
    return int(cp.count_below_many(d[None, :], e[None, :] ** 2, [lam])[0, 0])


class TestTridiagonalize:
    def test_diagonal_input(self):
        d, e = cp.tridiagonalize(np.diag([1.0 + 0j, 2.0, 3.0]))
        assert np.allclose(d, [1.0, 2.0, 3.0])
        assert np.allclose(e, 0.0)

    def test_trace_preserved(self):
        H = random_hermitian(50, 3)
        d, e = cp.tridiagonalize(H)
        assert d.sum() == pytest.approx(np.trace(H).real, abs=1e-10)

    def test_frobenius_preserved(self):
        H = random_hermitian(50, 4)
        d, e = cp.tridiagonalize(H)
        frob_t = np.sum(d**2) + 2 * np.sum(e**2)
        assert frob_t == pytest.approx(np.linalg.norm(H, "fro") ** 2, abs=1e-8)

    def test_offdiagonals_nonnegative(self):
        d, e = cp.tridiagonalize(random_hermitian(20, 5))
        assert (e >= 0).all()

    def test_spectrum_preserved(self):
        H = random_hermitian(30, 6)
        d, e = cp.tridiagonalize(H)
        assert np.abs(bisection_eigenvalues(d, e) - np.linalg.eigvalsh(H)).max() <= 1e-10

    @pytest.mark.parametrize("n", [9, 31, 32, 64, 100, 400])
    def test_upper_buffer_reduced_in_place(self, n):
        # n on both sides of LAPACK's blocked-zhetrd crossover, and the two-stage order
        H = random_hermitian(n, 200 + n)
        kept = H.copy()
        full = cp.tridiagonalize(H)  # C order: reduced in a copy
        assert np.array_equal(H, kept)
        Hf = np.asfortranarray(H)
        assert bits(cp.tridiagonalize(Hf)) == bits(full)
        assert np.array_equal(Hf, H)  # not overwritten by default
        buf = np.asfortranarray(np.triu(H))
        d, e = cp.tridiagonalize(buf, overwrite_a=True)
        assert bits((d, e)) == bits(full)
        assert not np.array_equal(np.triu(buf), np.triu(H))  # reduced in place, no copy
        err = np.abs(bisection_eigenvalues(d, e) - np.linalg.eigvalsh(H)).max()
        assert err <= 1e-12 * np.linalg.norm(H, 2)

    @pytest.mark.parametrize("n", [64, 100])
    def test_serial_blas_reduction(self, n):
        # below _TWO_STAGE_N zhetrd reduces on the calling thread alone; at
        # these orders that gives the same bits as scipy's threaded call, and
        # the thread's BLAS setting is put back afterwards
        set_local = _lapack.blas_threads_local()
        if set_local is None:
            pytest.skip("BLAS without a per-thread thread count")
        H = np.asfortranarray(random_hermitian(n, 300 + n))
        before = set_local(0)
        set_local(before)
        ours = cp.tridiagonalize(H)
        work, _ = scipy.linalg.lapack.zhetrd_lwork(n)
        _, d, e, _, info = scipy.linalg.lapack.zhetrd(H, lwork=int(work.real))
        assert info == 0
        assert bits(ours) == bits((d, np.abs(e)))
        after = set_local(before)
        assert after == before

    @pytest.mark.parametrize("n", [400, 1000])
    def test_two_stage_spectrum(self, n):
        H = random_hermitian(n, 400 + n)
        d, e = cp.tridiagonalize(H)
        assert (e >= 0).all()
        err = np.abs(bisection_eigenvalues(d, e) - np.linalg.eigvalsh(H)).max()
        assert err <= 1e-12 * np.linalg.norm(H, 2)

    @pytest.mark.parametrize("n", [400, 1000])
    def test_bits_independent_of_blas_threads(self, n):
        set_local = _lapack.blas_threads_local()
        if set_local is None:
            pytest.skip("BLAS without a per-thread thread count")
        H = random_hermitian(n, 500 + n)
        before = set_local(1)
        try:
            one = cp.tridiagonalize(H)
            set_local(2)
            two = cp.tridiagonalize(H)
            assert set_local(2) == 2  # the reduction put the count back
        finally:
            set_local(before)
        assert bits(one) == bits(two)

    def test_one_stage_below_threshold(self):
        assert_matches_f2py_zhetrd(cp._TWO_STAGE_N - 1, 700)

    @pytest.mark.parametrize("n", [2, 3, 9, 64])
    def test_one_stage_small_orders(self, n):
        assert_matches_f2py_zhetrd(n, 700 + n)

    def test_one_stage_fallback_without_two_stage(self, monkeypatch):
        monkeypatch.setattr(_lapack, "zhetrd_2stage", lambda: None)
        monkeypatch.setattr(cp, "_per_thread", threading.local())  # no cached two-stage setup
        H = random_hermitian(cp._TWO_STAGE_N, 800)
        d, e = cp.tridiagonalize(H)
        err = np.abs(bisection_eigenvalues(d, e) - np.linalg.eigvalsh(H)).max()
        assert err <= 1e-12 * np.linalg.norm(H, 2)

    @pytest.mark.parametrize("n", [5, 64, cp._TWO_STAGE_N])
    def test_reused_workspace_gives_fresh_bits(self, n):
        # one thread's workspace serves every reduction of its order: reducing
        # B in place after A gives the bits of reducing B with a new workspace
        A = np.asfortranarray(random_hermitian(n, 900 + n))
        B = np.asfortranarray(random_hermitian(n, 950 + n))
        cp._per_thread.reduction = None
        fresh = cp.tridiagonalize(B)
        cp.tridiagonalize(A, overwrite_a=True)  # A stays alive, and B is another array
        reused = cp.tridiagonalize(B, overwrite_a=True)
        assert bits(reused) == bits(fresh)

    @pytest.mark.parametrize("n", [5, cp._TWO_STAGE_N])
    def test_result_does_not_alias_workspace(self, n):
        # the next reduction of the same order on this thread writes into the
        # same workspace: a result reduced before it keeps its bytes
        A = np.asfortranarray(random_hermitian(n, 1100 + n))
        B = np.asfortranarray(random_hermitian(n, 1150 + n))
        first = cp.tridiagonalize(A)
        kept = bits(first)
        cp.tridiagonalize(B)
        assert bits(first) == kept

    def test_threads_reduce_concurrently_with_serial_bits(self):
        # more threads than cores, each with its own workspace, switching often:
        # every reduction has the bits of the same reduction done serially
        mats = [np.asfortranarray(random_hermitian(n, 1000 + i)) for i, n in
                enumerate([9, 64, 9, 64, 17, 64])]
        want = [cp.tridiagonalize(H) for H in mats]
        got = [[] for _ in mats]

        def work(i):
            for _ in range(30):
                buf = mats[i].copy(order="F")
                got[i].append(cp.tridiagonalize(buf, overwrite_a=True))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(mats))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for w, g in zip(want, got):
            assert len(g) == 30
            assert all(bits(t) == bits(w) for t in g)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 4), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError):
            cp.tridiagonalize(np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_batch_matches_lapack_path(self, n):
        rng = np.random.default_rng(100 + n)
        A = rng.standard_normal((7, n, n)) + 1j * rng.standard_normal((7, n, n))
        H = (A + np.conj(np.transpose(A, (0, 2, 1)))) / 2
        d, e = cp.tridiagonalize_batch(H)
        assert (e >= 0).all()
        for b in range(7):
            ours = (np.sort(scipy.linalg.eigvalsh_tridiagonal(d[b], e[b]))
                    if n > 1 else d[b])
            assert np.abs(ours - np.linalg.eigvalsh(H[b])).max() <= 1e-10


class TestCharDet:
    def test_single_site(self):
        sign, log_mag = det_one(np.array([0.0]), np.zeros(0), 2.0)
        assert sign == 1 and log_mag == pytest.approx(math.log(2.0))

    def test_zero_matrix_power(self):
        n = 17
        d, e = cp.tridiagonalize(np.zeros((n, n), dtype=complex))
        sign, log_mag = det_one(d, e, 1.5)
        assert sign == 1 and log_mag == pytest.approx(n * math.log(1.5), rel=1e-12)

    def test_matches_eigenvalue_product(self):
        H = random_hermitian(30, 7)
        d, e = cp.tridiagonalize(H)
        evs = bisection_eigenvalues(d, e)
        for lam in (-3.0, -0.4, 0.1, 1.2, 4.0):
            sign, log_mag = det_one(d, e, lam)
            oracle_log = float(np.sum(np.log(np.abs(lam - evs))))
            oracle_sign = int(np.prod(np.sign(lam - evs)))
            assert sign == oracle_sign
            assert log_mag == pytest.approx(oracle_log, rel=1e-6)

    def test_exact_zero_at_eigenvalue(self):
        d, e = np.array([1.0, 2.0, 3.0]), np.zeros(2)
        assert det_one(d, e, 2.0)[0] == 0

    def test_scale_robustness_large_n(self):
        # spectral radius ~2, n up to 2000: log magnitudes stay finite
        rng = np.random.default_rng(11)
        n = 2000
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = (A + A.conj().T) / (2 * math.sqrt(n))
        d, e = cp.tridiagonalize(H)
        for lam in (-1.0, 0.0, 0.5, 2.5):
            sign, log_mag = det_one(d, e, lam)
            assert sign != 0 and math.isfinite(log_mag)

    def test_rescaled_recurrence_matches_oracle(self):
        # n=600 in the bulk: |det| ~ e^-300, so the rescaling path is active;
        # the eigenvalue-product oracle still works in log form
        rng = np.random.default_rng(14)
        n = 600
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = (A + A.conj().T) / (2 * math.sqrt(n))
        d, e = cp.tridiagonalize(H)
        evs = np.linalg.eigvalsh(H)
        for lam in (0.0, 0.3, -1.1):
            sign, log_mag = det_one(d, e, lam)
            oracle_log = float(np.sum(np.log(np.abs(lam - evs))))
            assert log_mag < -100  # genuinely out of plain-double range territory
            assert sign == int(np.prod(np.sign(lam - evs)))
            assert log_mag == pytest.approx(oracle_log, rel=1e-6)

    def test_sign_consistency_with_count(self):
        H = random_hermitian(25, 8)
        d, e = cp.tridiagonalize(H)
        n = len(d)
        for lam in np.linspace(-4, 4, 17):
            sign, _ = det_one(d, e, lam)
            if sign != 0:
                assert sign == (-1) ** (n - count_one(d, e, lam))


class TestCountBelow:
    def test_diagonal_example(self):
        d, e = np.array([1.0, 2.0, 3.0]), np.zeros(2)
        assert count_one(d, e, 2.5) == 2

    def test_eigenvalue_not_counted(self):
        # tie broken toward "not below": eigenvalue exactly at lambda
        d, e = np.array([1.0, 2.0, 3.0]), np.zeros(2)
        assert count_one(d, e, 2.0) == 1

    def test_gershgorin_extremes(self):
        H = random_hermitian(40, 9)
        d, e = cp.tridiagonalize(H)
        bound = np.abs(d).max() + 2 * np.abs(e).max()
        assert count_one(d, e, -bound - 1) == 0
        assert count_one(d, e, bound + 1) == 40

    def test_matches_bisection_oracle(self):
        H = random_hermitian(40, 10)
        d, e = cp.tridiagonalize(H)
        evs = bisection_eigenvalues(d, e)
        rng = np.random.default_rng(12)
        for lam in rng.uniform(-5, 5, 25):
            assert count_one(d, e, lam) == int(np.sum(evs < lam))

    def test_monotone_in_lambda(self):
        H = random_hermitian(30, 13)
        d, e = cp.tridiagonalize(H)
        lams = np.linspace(-5, 5, 101)
        counts = cp.count_below_many(d[None, :], e[None, :] ** 2, lams)[0]
        assert (np.diff(counts) >= 0).all()

    def test_exact_zero_pivots_match_reference(self):
        # the pivot recurrence written out with fresh arrays, as a reference
        def reference(d, e2, lams):
            lam = lams[None, :]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                q = lam - d[:, 0, None]
                count = (q > 0).astype(np.int64)
                for k in range(1, d.shape[1]):
                    q = np.where(q == 0.0, cp._PIVOT_SUB, q)
                    q = (lam - d[:, k, None]) - e2[:, k - 1, None] / q
                    count += q > 0
            return count

        rng = np.random.default_rng(14)
        d = np.zeros((4, 6))
        e2 = np.zeros((4, 5))
        d[2] = rng.integers(-2, 3, 6)  # integer diagonal: pivots hit 0 exactly
        d[3] = rng.standard_normal(6)
        e2[1] = 1.0
        e2[3] = rng.random(5)
        lams = np.array([-1.0, 0.0, 1e-300, 1.0, 2.0])
        counts = cp.count_below_many(d, e2, lams)
        assert np.array_equal(counts, reference(d, e2, lams))
        assert np.array_equal(counts[0], [0, 0, 6, 6, 6])  # d = 0, e = 0: none below 0
