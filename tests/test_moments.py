"""Moment estimators: exact pairing oracle, Monte Carlo agreement, ratio machinery."""

import math
import threading
import time

import numpy as np
import pytest

from bandmoment import moments as mo
from bandmoment.lattice import Lattice1D, covariance_profile
from bandmoment.charpoly import tridiagonalize_batch
from bandmoment.sampler import RngStream, gue_profile, sample_batch
from bandmoment.saddle import scaled_lambdas, sine_kernel


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


class TestRatioVsSine:
    def test_coincident_xi_is_exactly_one(self):
        p = scaled_lambdas(0.0, 0.3, 0.3, 5)
        r = mo.ratio_vs_sine(p, "band", 2.0, 1000, 30)
        assert r.ratio == 1.0 and r.stderr == 0.0 and r.sine_ref == 1.0
        assert r.deviation == 0.0

    def test_exchange_symmetry_bitwise(self):
        pa = scaled_lambdas(0.0, 0.25, -0.25, 3)
        pb = scaled_lambdas(0.0, -0.25, 0.25, 3)
        ra = mo.ratio_vs_sine(pa, "band", 2.0, 20_000, 5)
        rb = mo.ratio_vs_sine(pb, "band", 2.0, 20_000, 5)
        assert ra.ratio == rb.ratio
        assert ra.stderr == rb.stderr
        assert ra.sine_ref == rb.sine_ref

    def test_estimator_is_real_valued(self):
        p = scaled_lambdas(0.5, 0.4, -0.2, 8)
        r = mo.ratio_vs_sine(p, "band", 3.0, 10_000, 31)
        assert isinstance(r.ratio, float) and math.isfinite(r.ratio)

    def test_single_site_ratio_matches_closed_form(self):
        # at one site everything is exact: F2/D2 = (l1 l2 + 1)/sqrt((1+l1^2)(1+l2^2))
        p = scaled_lambdas(0.0, 0.4, -0.3, 1)
        r = mo.ratio_vs_sine(p, "band", 1.0, 400_000, 33)
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
            for (x1, x2), r in zip(pairs, res):
                single = mo.ratio_vs_sine(scaled_lambdas(0.0, x1, x2, n), ensemble, W,
                                          5_000, 40)
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
