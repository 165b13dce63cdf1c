"""Moment estimators: exact pairing oracle, Monte Carlo agreement, ratio machinery."""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from bandmoment import charpoly, moments as mo
from bandmoment.lattice import Lattice1D, covariance_profile
from bandmoment.sampler import gue_profile
from bandmoment.saddle import sine_kernel


class TestWickExact:
    def test_single_site_closed_form(self):
        # E[(l1 - h)(l2 - h)] with Eh = 0, Eh^2 = 1
        prof = covariance_profile(Lattice1D(1), 1.0)
        for l1, l2 in ((0.3, -0.2), (1.1, 0.7), (0.0, 0.0)):
            assert mo.wick_exact_f2(1, l1, l2, prof) == pytest.approx(l1 * l2 + 1.0, abs=1e-14)

    def test_symmetry(self):
        prof = covariance_profile(Lattice1D(3), 2.0)
        rng = np.random.default_rng(2)
        for _ in range(5):
            l1, l2 = rng.uniform(-1.5, 1.5, 2)
            a = mo.wick_exact_f2(3, l1, l2, prof)
            b = mo.wick_exact_f2(3, l2, l1, prof)
            assert a == pytest.approx(b, rel=1e-12)

    def test_two_site_against_direct_isserlis(self):
        # independent oracle at n=2: det(l-H) = (l-a)(l-c) - |b|^2 with a, c
        # independent real Gaussians (different diagonal sites never pair) and
        # b an independent complex Gaussian with E|b|^2 = J01, E|b|^4 = 2 J01^2:
        #   E[det1 det2] = (l1 l2 + J00)(l1 l2 + J11)
        #                  - l1^2 J01 - l2^2 J01 + 2 J01^2
        prof = covariance_profile(Lattice1D(2), 1.0)
        j00, j11, j01 = prof.J[0, 0], prof.J[1, 1], prof.J[0, 1]
        l1, l2 = 0.5, -0.3
        expect = ((l1 * l2 + j00) * (l1 * l2 + j11)
                  - l1 * l1 * j01 - l2 * l2 * j01 + 2 * j01 ** 2)
        assert mo.wick_exact_f2(2, l1, l2, prof) == pytest.approx(expect, rel=1e-12)

    def test_guards(self):
        prof = covariance_profile(Lattice1D(1), 1.0)
        with pytest.raises(ValueError):
            mo.wick_exact_f2(4, 0.0, 0.0, prof)
        with pytest.raises(ValueError):
            mo.wick_exact_f2(2, 0.0, 0.0, prof)  # profile size mismatch


class TestMcF2:
    def test_single_site_band(self):
        est = mo.mc_f2("band", 1, 1.0, [0.3, -0.2], 200_000, 11)[(0, 1)]
        assert abs(est.value - 0.94) <= 4 * est.stderr
        assert est.rejected == 0

    def test_three_site_band_vs_oracle(self):
        prof = covariance_profile(Lattice1D(3), 2.0)
        exact = mo.wick_exact_f2(3, 0.4, -0.1, prof)
        est = mo.mc_f2("band", 3, 2.0, [0.4, -0.1], 200_000, 12)[(0, 1)]
        assert abs(est.value - exact) <= 4 * est.stderr

    def test_two_site_gue_profile_vs_oracle(self):
        # flat-variance profile: oracle from the pairing expansion, estimate
        # from the GUE sampler (E|H_ij|^2 = 1/n matches gue_profile)
        exact = mo.wick_exact_f2(2, 0.6, -0.4, gue_profile(2))
        est = mo.mc_f2("gue", 2, None, [0.6, -0.4], 2_000_000, 13)[(0, 1)]
        assert abs(est.value - exact) <= 4 * est.stderr
        assert est.stderr / abs(est.value) <= 0.02

    def test_diagonal_pairs_present(self):
        out = mo.mc_f2("band", 1, 1.0, [0.2, 0.7], 1000, 5)
        assert set(out) == {(0, 0), (0, 1), (1, 1)}
        assert out[(0, 0)].sign == 1 and out[(1, 1)].sign == 1

    def test_sample_guard(self):
        with pytest.raises(mo.EstimatorError):
            mo.mc_f2("band", 1, 1.0, [0.0], 1, 5)

    def test_unknown_ensemble(self):
        with pytest.raises(ValueError, match="unknown ensemble"):
            mo.det_log_samples("goe", 3, None, [0.0], 100, 1)

    def test_thread_count_invariance(self):
        a = mo.mc_f2("band", 3, 2.0, [0.4, -0.1], 20_000, 77, threads=1)
        b = mo.mc_f2("band", 3, 2.0, [0.4, -0.1], 20_000, 77, threads=4)
        for key in a:
            assert a[key].value == b[key].value
            assert a[key].stderr == b[key].stderr

    def test_beyond_double_range(self):
        # |det(+-40 - H)| ~ 40^120 at n=120, so every moment is ~e^880: the
        # plain value overflows and only the log fields carry the estimate
        args = ("band", 120, 12.0, [40.0, -40.0], 300, 7)
        out = mo.mc_f2(*args, threads=1)
        dets = mo.det_log_samples(*args)
        assert (dets.signs == 1).all()  # n even: both determinants positive
        for (a, b), est in out.items():
            assert est.value == math.inf and est.sign == 1
            assert math.isfinite(est.log_abs_value) and est.log_abs_value > 709
            assert est.log_abs_stderr < est.log_abs_value
            logp = dets.logmags[:, a] + dets.logmags[:, b]
            expect = np.logaddexp.reduce(logp) - math.log(len(logp))
            assert est.log_abs_value == pytest.approx(expect, rel=1e-12)
        threaded = mo.mc_f2(*args, threads=2)
        for key, est in out.items():
            assert est == threaded[key]
            for name in ("value", "stderr", "log_abs_value", "log_abs_stderr"):
                assert getattr(est, name).hex() == getattr(threaded[key], name).hex()

    def test_failed_block_cancels_queued_blocks(self, monkeypatch):
        # above n = 8 a run of keyed samples fails; the runs no worker has claimed are not run
        started = []

        def fake_reducer(profile, seed, step):
            def reduce(run):
                started.append(run.start)
                if run.start == step:
                    raise RuntimeError("run 1 failed")
                time.sleep(0.05)
                return np.zeros((len(run), 16)), np.zeros((len(run), 15))
            return reduce

        monkeypatch.setattr(mo, "_slab_reducer", fake_reducer)
        with pytest.raises(RuntimeError, match="run 1 failed"):
            mo.det_log_samples("band", 16, 4.0, [0.0], 8 * mo._CHUNK, 1, threads=2)
        assert mo._CHUNK in started  # runs of 4096: samples // (4 * threads)
        assert len(started) < 8


def helper_threads():
    return {t for t in threading.enumerate() if t is not threading.main_thread()}


class TestClaims:
    # the one work-sharing primitive every worker loop runs on
    @staticmethod
    def run_workers(claims, work, threads=8):
        """Run `work` on `threads` workers at a short switch interval; no helper outlives it."""
        before = helper_threads()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            mo._run_workers(work, threads, claims.close)
        finally:
            sys.setswitchinterval(interval)
            assert helper_threads() == before

    def test_ranges_in_order_and_close(self):
        claims = mo._Claims(10, 4)
        assert [claims.claim() for _ in range(4)] == [range(0, 4), range(4, 8), range(8, 10),
                                                      None]
        claims = mo._Claims(10, 4)
        assert claims.claim() == range(0, 4)
        claims.close()
        assert claims.claim() is None

    def test_finish_reports_increasing_counts(self):
        reports = []
        claims = mo._Claims(20_000, 7, lambda done, total: reports.append((done, total)))

        def work(i):
            while (run := claims.claim()) is not None:
                claims.finish(len(run))

        self.run_workers(claims, work)
        done = [d for d, _ in reports]
        assert len(reports) == -(-20_000 // 7) and {t for _, t in reports} == {20_000}
        assert all(a < b for a, b in zip(done, done[1:])) and done[-1] == 20_000

    def test_helper_error_closes_the_claims(self):
        claims, claimed = mo._Claims(10_000, 1), []

        def work(i):
            while (run := claims.claim()) is not None:
                claimed.append(run)
                if i == 1:
                    raise RuntimeError("helper failed")
                time.sleep(1e-4)

        with pytest.raises(RuntimeError, match="helper failed"):
            self.run_workers(claims, work, threads=2)
        assert claims.claim() is None and len(claimed) < 10_000


class TestSharedBlock:
    # above n = 8 each sample is keyed by its index, so the bits do not depend on
    # threads, on the run length or on _CHUNK
    @pytest.mark.parametrize("n", [9, 16, 48, 64])
    @pytest.mark.parametrize("samples, chunk", [
        (5, None),         # runs of one sample: fewer than four runs per worker
        (83, None),        # runs of 20, 10, 6 and 2 samples at 1, 2, 3 and 8 threads
        (83, 40),          # _CHUNK patched: blocks of 40, 40 and 3 samples up to n = 8
    ])
    def test_bits_independent_of_threads(self, n, samples, chunk, monkeypatch):
        unpatched = mo.det_log_samples("band", n, float(n), [0.0, 0.3], samples, 11, threads=1)
        if chunk is not None:
            monkeypatch.setattr(mo, "_CHUNK", chunk)
        before = helper_threads()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more workers than cores, switching often
        try:
            runs = [mo.det_log_samples("band", n, float(n), [0.0, 0.3], samples, 11, threads=t)
                    for t in (1, 2, 3, 8)]
        finally:
            sys.setswitchinterval(interval)
        assert helper_threads() == before
        for dets in runs:
            assert dets.signs.tobytes() == unpatched.signs.tobytes()
            assert dets.logmags.tobytes() == unpatched.logmags.tobytes()

    @staticmethod
    def reductions(monkeypatch, fail):
        """Count reductions; `fail(calls)` may raise, with the calls made so far."""
        reduce, calls, lock = mo.charpoly.tridiagonalize, [], threading.Lock()

        def fake(H, overwrite_a=False):
            with lock:
                calls.append(threading.current_thread())
            fail(calls)
            return reduce(H, overwrite_a)

        monkeypatch.setattr(mo.charpoly, "tridiagonalize", fake)
        return calls

    def test_helper_exception_stops_the_block(self, monkeypatch):
        def fail(calls):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper failed")

        calls = self.reductions(monkeypatch, fail)
        before = helper_threads()
        with pytest.raises(RuntimeError, match="helper failed"):
            mo.det_log_samples("band", 64, 64.0, [0.0], 512, 3, threads=2)
        assert helper_threads() == before
        assert any(t is not threading.main_thread() for t in calls)
        assert len(calls) < 512 // 2

    def test_interrupt_on_calling_thread_stops_within_a_claim(self, monkeypatch):
        main_calls, cut = [], []

        def fail(calls):
            if threading.current_thread() is threading.main_thread():
                main_calls.append(1)
                if len(main_calls) == 20:
                    cut.append(len(calls))
                    raise KeyboardInterrupt

        calls = self.reductions(monkeypatch, fail)
        before = helper_threads()
        with pytest.raises(KeyboardInterrupt):
            mo.det_log_samples("band", 64, 64.0, [0.0], 512, 3, threads=3)
        assert helper_threads() == before
        assert len(calls) > len(main_calls)  # the helpers reduced too
        # after the interrupt each of the two helpers finishes at most its current claim
        run = mo._run_length(64, 512, 3, 1)  # samples per claim
        assert len(calls) - cut[0] <= 2 * run and len(calls) < 512

    def test_scan_holds_no_block(self):
        # a 4096-sample n = 64 scan holds a slab of about 1 MB per worker, not the
        # 68 MB of one packed block of real parts
        n = 64
        mo.det_log_samples("band", n, 64.0, [0.0, 0.3], 64, 7, threads=2)  # caches outside the trace
        tracemalloc.start()
        try:
            mo.det_log_samples("band", n, 64.0, [0.0, 0.3], 4096, 7, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestSmallNBlocks:
    # up to n = _SMALL_N_BATCH each worker samples and reduces runs of whole blocks
    @pytest.mark.parametrize("n", [1, 3, 4, mo._SMALL_N_BATCH])
    @pytest.mark.parametrize("samples, chunk", [
        (100, None),       # one block: fewer blocks than workers
        (83, 40),          # blocks of 40, 40 and 3 samples
        (81, 40),          # blocks of 40, 40 and 1: a lone sample through the batch path
        (643, 40),         # up to n = 4 runs of two blocks at 1 thread, of one at 8; last block 3
    ])
    def test_bits_independent_of_threads(self, n, samples, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(mo, "_CHUNK", chunk)
        before = helper_threads()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more workers than cores, switching often
        try:
            runs = [mo.det_log_samples("band", n, 2.0, [0.0, 0.3], samples, 11, threads=t)
                    for t in (1, 2, 3, 8)]
        finally:
            sys.setswitchinterval(interval)
        assert helper_threads() == before
        for dets in runs[1:]:
            assert dets.signs.tobytes() == runs[0].signs.tobytes()
            assert dets.logmags.tobytes() == runs[0].logmags.tobytes()

    def test_run_releases_its_stack(self):
        # a one-block n = 8 run holds its (4096, 8, 8) stack only until the Householder
        # has copied it: 8.0 MiB traced here, 11.8 MiB while the stack lived through it
        prof = covariance_profile(Lattice1D(mo._SMALL_N_BATCH), 2.0)
        lambdas = np.array([0.4, -0.1])
        reduce = mo._stack_reducer(prof, 5, mo._CHUNK)  # the normals buffer outside the trace
        run = range(mo._CHUNK)
        reduce(run)  # caches outside the trace
        tracemalloc.start()
        try:
            d, e = reduce(run)
            charpoly.char_det_many(d, e ** 2, lambdas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2**20

    def test_run_size(self):
        # two blocks up to n = 4 while there are at least four such runs per thread, else one
        enough = 8 * 3 * mo._CHUNK
        assert mo._block_run(1, enough, 3) == mo._block_run(4, enough, 3) == 2 * mo._CHUNK
        assert mo._block_run(5, enough, 3) == mo._block_run(8, 10 * enough, 3) == mo._CHUNK
        assert mo._block_run(4, enough - 1, 3) == mo._block_run(4, enough, 4) == mo._CHUNK

    @staticmethod
    def runs(monkeypatch, fail):
        """Record each run's start and thread as it begins; `fail(start, started)` may raise."""
        started, lock = [], threading.Lock()

        def fake_reducer(profile, seed, step):
            def reduce(run):
                with lock:
                    started.append((run.start, threading.current_thread()))
                fail(run.start, started)
                time.sleep(0.05)
                return np.zeros((len(run), profile.size)), np.zeros((len(run), profile.size - 1))
            return reduce

        monkeypatch.setattr(mo, "_stack_reducer", fake_reducer)
        return started

    def test_failed_block_is_reraised_and_stops_the_rest(self, monkeypatch):
        def fail(start, started):
            if start == mo._CHUNK:
                raise RuntimeError("block 1 failed")

        started = self.runs(monkeypatch, fail)  # eight one-block runs: fewer than 4 per thread
        before = helper_threads()
        with pytest.raises(RuntimeError, match="block 1 failed"):
            mo.det_log_samples("band", 3, 2.0, [0.0], 8 * mo._CHUNK, 1, threads=2)
        assert helper_threads() == before
        assert mo._CHUNK in [s for s, _ in started] and len(started) < 8
        assert any(t is not threading.main_thread() for _, t in started)

    def test_interrupt_on_calling_thread_stops_the_helpers(self, monkeypatch):
        cut = []

        def fail(start, started):
            if threading.current_thread() is threading.main_thread():
                cut.append(len(started))
                raise KeyboardInterrupt

        started = self.runs(monkeypatch, fail)  # 32 runs of two blocks
        before = helper_threads()
        with pytest.raises(KeyboardInterrupt):
            mo.det_log_samples("band", 3, 2.0, [0.0], 64 * mo._CHUNK, 1, threads=3)
        assert helper_threads() == before
        # after the interrupt each of the two helpers finishes at most its current run
        assert len(started) - cut[0] <= 2

    def test_progress_count_only_grows(self, monkeypatch):
        monkeypatch.setattr(mo, "_CHUNK", 40)
        reports = []

        def report(done, total):
            time.sleep(1e-3)  # a slow callback: calls made at once would land out of order
            reports.append((done, total))

        before = helper_threads()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            mo.det_log_samples("band", 3, 2.0, [0.0], 1003, 5, threads=8, progress=report)
        finally:
            sys.setswitchinterval(interval)
        assert helper_threads() == before
        done = [d for d, _ in reports]
        assert len(reports) == 26 and {t for _, t in reports} == {1003}
        assert all(a < b for a, b in zip(done, done[1:])) and done[-1] == 1003


class TestDetLogSamples:
    # per-row (sign, log) at two lambdas; NaN and +inf logs reject their row
    SIGNS = [[1, -1], [np.nan, 1], [1, 1], [0, 1], [1, np.nan], [-1, 1], [1, 1]]
    LOGS = [[0.5, 1.0], [np.nan, 2.0], [np.inf, 0.0], [-np.inf, 3.0], [1.0, np.nan],
            [2.0, -1.0], [0.0, np.inf]]

    @staticmethod
    def stub(monkeypatch, signs, logs):
        def fake(d, e2, lams):
            assert d.shape[0] == len(signs) and len(lams) == 2
            return np.array(signs, dtype=float), np.array(logs, dtype=float)
        monkeypatch.setattr(mo.charpoly, "char_det_many", fake)

    def test_bad_rows_removed_and_counted(self, monkeypatch):
        self.stub(monkeypatch, self.SIGNS, self.LOGS)
        dets = mo.det_log_samples("band", 3, 2.0, [0.0, 0.5], len(self.SIGNS), 1)
        assert dets.rejected == 4
        assert dets.signs.dtype == np.int8
        assert dets.signs.tolist() == [[1, -1], [0, 1], [-1, 1]]
        # a -inf log (an exact zero determinant) keeps its row
        assert dets.logmags.tolist() == [[0.5, 1.0], [-np.inf, 3.0], [2.0, -1.0]]

    def test_all_rows_bad(self, monkeypatch):
        bad = [1, 2, 4, 6]
        self.stub(monkeypatch, [self.SIGNS[i] for i in bad], [self.LOGS[i] for i in bad])
        with pytest.raises(mo.EstimatorError, match="all samples rejected"):
            mo.det_log_samples("band", 3, 2.0, [0.0, 0.5], len(bad), 1)

    # every determinant at the first lambda is exactly zero (sign 0, log -inf)
    ZERO_COLUMN = ([[0, 1], [0, -1], [0, 1], [0, 1]],
                   [[-np.inf, 0.5], [-np.inf, 1.0], [-np.inf, -2.0], [-np.inf, 0.0]])

    def test_all_zero_column_estimates_zero(self, monkeypatch):
        # a floating-point warning would fail the test (pytest's filterwarnings)
        self.stub(monkeypatch, *self.ZERO_COLUMN)
        out = mo.mc_f2("band", 3, 2.0, [0.0, 0.5], 4, 1)
        for key in ((0, 0), (0, 1)):
            est = out[key]
            assert (est.sign, est.value, est.stderr, est.samples) == (0, 0.0, 0.0, 4)
            assert est.log_abs_value == est.log_abs_stderr == -math.inf
        assert out[(1, 1)].sign == 1 and out[(1, 1)].stderr > 0

    def test_all_zero_column_degenerate_ratio(self, monkeypatch):
        self.stub(monkeypatch, *self.ZERO_COLUMN)
        with pytest.raises(mo.EstimatorError, match="degenerate diagonal moments"):
            mo.moment_scan("band", 3, 2.0, 0.0, [(0.3, -0.3)], 4, 1)

    def test_all_zero_products_ratio_zero(self, monkeypatch):
        # each column has nonzero determinants, but never in the same row
        self.stub(monkeypatch, [[0, 1], [1, 0], [0, -1], [-1, 0]],
                  [[-np.inf, 0.5], [1.0, -np.inf], [-np.inf, 2.0], [0.0, -np.inf]])
        r = mo.moment_scan("band", 3, 2.0, 0.0, [(0.3, -0.3)], 4, 1)[0]
        assert (r.ratio, r.stderr) == (0.0, 0.0)


def crafted_dets(n=10_000, seed=3) -> mo.DetLogSamples:
    """Logs near +700, near -700 and near 0, and logs <= 0 whose max is 0
    (so the stderr's log carries no shift); mixed signs, zero determinants
    (sign 0, log -inf) in every column, and in the third column some sign-0
    entries whose log is finite, which only the zero mask sends to -inf."""
    rng = np.random.default_rng(seed)
    logs = np.column_stack([700 + rng.normal(size=n), -700 + rng.normal(size=n),
                            5 * rng.normal(size=n), -np.abs(2 * rng.normal(size=n))])
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=logs.shape)
    zero = rng.random(logs.shape) < 0.05
    signs[zero] = 0
    logs[zero] = -np.inf
    signs[rng.random(n) < 0.05, 2] = 0
    signs[0, 3], logs[0, 3] = 1, 0.0
    return mo.DetLogSamples(np.zeros(4), signs, logs, 0)


def out_of_place_pair(dets, a, b):
    s = dets.signs[:, a].astype(float) * dets.signs[:, b].astype(float)
    with np.errstate(invalid="ignore"):
        logp = dets.logmags[:, a] + dets.logmags[:, b]
    return s, np.where(s == 0, -np.inf, logp)


def hexes(*values):
    return [float(v).hex() for v in values]


class TestInPlaceReductions:
    # the in-place reductions keep every bit of the out-of-place formulas they replace
    PAIRS = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (1, 2), (2, 0), (2, 3)]

    @pytest.mark.parametrize("a,b", PAIRS)
    def test_reduce_signed_log(self, a, b):
        dets = crafted_dets()
        # one max shift for the whole pair, written out of place with float64 signs
        sf, lp = out_of_place_pair(dets, a, b)
        n, M = len(lp), float(np.max(lp))
        u = sf * np.exp(lp - M)
        total = float(np.sum(u))
        sign = int(np.sign(total))
        log_mean = M + math.log(abs(total)) - math.log(n)
        var = float(np.sum((u - total / n) ** 2)) / (n - 1)
        log_se = M + math.log(math.sqrt(var / n))
        value = sign * (math.exp(log_mean) if log_mean <= 709.0 else math.inf)
        stderr = math.exp(log_se) if log_se < 709.0 else math.inf
        m, w = mo._weights(dets, a, b)
        assert m == M and np.array_equal(w, u)  # equal up to the sign of zeros
        est = mo._mean_stderr(m, w, 5)
        assert est.sign == sign and est.samples == n and est.rejected == 5
        assert hexes(est.value, est.stderr, est.log_abs_value, est.log_abs_stderr) == hexes(
            value, stderr, log_mean, log_se)
        assert math.isfinite(est.log_abs_value)

    @pytest.mark.parametrize("a,b", [p for p in PAIRS if p[0] != p[1]])
    def test_jackknife_ratio(self, a, b):
        dets = crafted_dets()
        (s_ab, l_ab), (_, l_aa), (_, l_bb) = (out_of_place_pair(dets, i, j)
                                              for i, j in ((a, b), (a, a), (b, b)))
        m_ab, m_aa, m_bb = (float(np.max(x)) for x in (l_ab, l_aa, l_bb))
        u_ab = s_ab * np.exp(l_ab - m_ab)
        u_aa = np.exp(l_aa - m_aa)
        u_bb = np.exp(l_bb - m_bb)
        pref = math.exp(m_ab - 0.5 * (m_aa + m_bb))
        ratio = pref * u_ab.mean() / math.sqrt(u_aa.mean() * u_bb.mean())
        edges = mo._block_edges(len(u_ab), mo._JACKKNIFE_BLOCKS)
        rest = len(u_ab) - np.diff(edges)
        loo = [(u.sum() - np.add.reduceat(u, edges[:-1])) / rest for u in (u_ab, u_aa, u_bb)]
        theta = pref * loo[0] / np.sqrt(loo[1] * loo[2])
        B = len(theta)
        se = math.sqrt((B - 1) / B * float(np.sum((theta - theta.mean()) ** 2)))
        assert hexes(*mo._jackknife_ratio(dets, a, b)) == hexes(ratio, se)
        assert se > 0


def test_million_sample_oracle_memory():
    # int8 signs and float64 logs (9 bytes per sample and lambda) plus one
    # pair's float64 vector at a time: 26.7 MiB here, 69.6 MiB with a float64
    # sign table and out-of-place reductions
    args = ("band", 3, 2.0, [0.4, -0.1])
    mo.mc_f2(*args, 1000, 12)  # caches and lazy imports outside the trace
    tracemalloc.start()
    try:
        mo.mc_f2(*args, 1_000_000, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_spectrum_worker_holds_one_buffer():
    # one worker at n = 600: its (n, n) complex buffer (16 n^2 bytes) and a
    # piece of normals; 20.9 n^2 bytes here, 28.1 n^2 when each sample drew its
    # n^2 imaginary normals beside its packed real parts
    n = 600
    prof = covariance_profile(Lattice1D(n), 60.0)
    edges = np.linspace(-3.0, 3.0, 50)
    mo.spectrum_counts(prof, edges, 2, 9, threads=1)  # entries and workspace outside the trace
    tracemalloc.start()
    try:
        mo.spectrum_counts(prof, edges, 4, 1, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * n * n


@pytest.mark.parametrize("n, run", [(64, 16), (257, 1), (1000, 1)])
def test_spectrum_run_is_one_slab(n, run, monkeypatch):
    # a spectrum's run holds at most 2^16 matrix entries, so from n = 257 a worker
    # stops within one sample on an error or Ctrl-C
    steps = []
    monkeypatch.setattr(mo, "_sample_runs", lambda samples, step, *rest: steps.append(step))
    mo.spectrum_counts(covariance_profile(Lattice1D(n), n / 10), np.zeros(3), 1000, 0, threads=2)
    assert steps == [run]


def test_jackknife_below_fifty_samples_is_delete_one():
    # with fewer kept samples than jackknife blocks every block is one sample
    pair = (0.5, -0.5)
    r = mo.moment_scan("band", 4, 2.0, 0.0, [pair], 10, 3, threads=1)[0]
    dets = mo.det_log_samples("band", 4, 2.0, [r.params.lambda1, r.params.lambda2], 10, 3,
                              threads=1)
    det = dets.signs * np.exp(dets.logmags)
    ab, aa, bb = det[:, 0] * det[:, 1], det[:, 0] ** 2, det[:, 1] ** 2
    keep = ~np.eye(10, dtype=bool)
    theta = np.array([ab[k].mean() / math.sqrt(aa[k].mean() * bb[k].mean()) for k in keep])
    se = math.sqrt(9 / 10 * float(np.sum((theta - theta.mean()) ** 2)))
    assert r.ratio == pytest.approx(ab.mean() / math.sqrt(aa.mean() * bb.mean()), rel=1e-12)
    assert r.stderr == pytest.approx(se, rel=1e-12)


class TestRatioVsSine:
    def test_coincident_xi_is_exactly_one(self):
        r = mo.moment_scan("band", 5, 2.0, 0.0, [(0.3, 0.3)], 1000, 30)[0]
        assert r.ratio == 1.0 and r.stderr == 0.0 and r.sine_ref == 1.0
        assert r.deviation == 0.0

    def test_exchange_symmetry_bitwise(self):
        ra = mo.moment_scan("band", 3, 2.0, 0.0, [(0.25, -0.25)], 20_000, 5)[0]
        rb = mo.moment_scan("band", 3, 2.0, 0.0, [(-0.25, 0.25)], 20_000, 5)[0]
        assert ra.ratio == rb.ratio
        assert ra.stderr == rb.stderr
        assert ra.sine_ref == rb.sine_ref

    def test_estimator_is_real_valued(self):
        r = mo.moment_scan("band", 8, 3.0, 0.5, [(0.4, -0.2)], 10_000, 31)[0]
        assert isinstance(r.ratio, float) and math.isfinite(r.ratio)

    def test_single_site_ratio_matches_closed_form(self):
        # at one site everything is exact: F2/D2 = (l1 l2 + 1)/sqrt((1+l1^2)(1+l2^2))
        r = mo.moment_scan("band", 1, 1.0, 0.0, [(0.4, -0.3)], 400_000, 33)[0]
        p = r.params
        expect = ((p.lambda1 * p.lambda2 + 1)
                  / math.sqrt((1 + p.lambda1**2) * (1 + p.lambda2**2)))
        assert abs(r.ratio - expect) <= 5 * r.stderr
        assert r.sine_ref == sine_kernel(p.xi1 - p.xi2)

    def test_moment_scan_matches_single_pairs(self):
        pairs = [(0.0, 0.0), (0.3, -0.3), (0.1, -0.4), (0.3, -0.3)]
        for ensemble, n, W in (("band", 4, 2.0), ("gue", 9, None)):
            res = mo.moment_scan(ensemble, n, W, 0.0, pairs, 5_000, 40)
            assert res[0].ratio == 1.0 and res[0].deviation == 0.0
            assert res[1].samples == 5_000
            assert math.isfinite(res[1].stderr) and res[1].stderr > 0
            for pair, r in zip(pairs, res):
                single = mo.moment_scan(ensemble, n, W, 0.0, [pair], 5_000, 40)[0]
                assert r.params == single.params
                assert (r.ratio.hex(), r.stderr.hex(), r.samples, r.rejected) == (
                    single.ratio.hex(), single.stderr.hex(), single.samples, single.rejected)
