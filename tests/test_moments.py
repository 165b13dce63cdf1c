"""Moment estimators: exact pairing oracle, Monte Carlo agreement, ratio machinery."""

import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from bandmoment import moments as mo
from bandmoment.lattice import Lattice1D, covariance_profile
from bandmoment.charpoly import tridiagonalize_batch
from bandmoment.sampler import RngStream, gue_profile, sample_batch
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
        started = []

        def fake_chunk(profile, lambdas, seed, start, count, signs, logs):
            started.append(start)
            if start == mo._CHUNK:
                raise RuntimeError("block 1 failed")
            time.sleep(0.05)

        monkeypatch.setattr(mo, "_eval_chunk", fake_chunk)
        with pytest.raises(RuntimeError, match="block 1 failed"):
            mo.det_log_samples("band", 16, 4.0, [0.0], 8 * mo._CHUNK, 1, threads=2)
        assert mo._CHUNK in started
        assert len(started) < 8

    def test_run_ordered_bounds_items_in_flight(self):
        # a slow consumer holds back submission: at most 2 * threads items run ahead
        threads, lock = 2, threading.Lock()
        started, consumed, ahead = 0, [], 0

        def fn(item):
            nonlocal started, ahead
            with lock:
                started += 1
                ahead = max(ahead, started - len(consumed))
            return item

        def consume(item, result):
            time.sleep(0.001)
            with lock:
                consumed.append(result)

        mo._run_ordered(fn, range(300), threads, consume)
        assert consumed == list(range(300))
        assert ahead <= 2 * threads


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


@pytest.mark.parametrize("kind", ["band", "gue"])
@pytest.mark.parametrize("n", [3, 8])
def test_one_sample_block_reduced_by_zhetrd(kind, n, monkeypatch):
    # a lone small sample skips the batched Householder, whose numpy overhead
    # only pays across a stack, and keeps the spectrum of the batched route
    profile = covariance_profile(Lattice1D(n), 2.0) if kind == "band" else gue_profile(n)
    monkeypatch.setattr(mo.charpoly, "tridiagonalize_batch", None)
    d, e = mo.tridiagonal_block(profile, 5, 7, 1)
    monkeypatch.undo()
    H = sample_batch(profile, RngStream(5, 7), 1)
    eigs = [np.linalg.eigvalsh(np.diag(a[0]) + np.diag(b[0], 1) + np.diag(b[0], -1))
            for a, b in ((d, e), tridiagonalize_batch(H))]
    assert np.abs(eigs[0] - eigs[1]).max() <= 1e-12 * np.linalg.norm(H[0], 2)
