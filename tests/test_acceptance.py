"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines as
they complete.  The exact-identity criteria (1, 2, 4, 5, 6) pin closed forms
and oracle agreements; the asymptotic criteria (3, 7) are finite-size trend
checks with explicitly budgeted tolerances; criterion 8 pins bitwise
reproducibility of the CLI across thread counts.
"""

import math
import time

import numpy as np
import pytest

from bandmoment import charpoly as cp
from bandmoment import cli, dualrep, lattice, moments, sampler, unitary, verify
from bandmoment.saddle import scaled_lambdas, semicircle_cdf, sine_kernel

DELTA_GRID = (0.25, 0.5, 1.0, 1.5)


def report(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_oracle_identity():
    """Exact pairing expansion vs Monte Carlo at n = 1, 2, 3 (band profile)."""
    t0 = time.perf_counter()
    cases = [(1, 1.0, 0.3, -0.2), (2, 1.0, 0.5, -0.3), (3, 2.0, 0.4, -0.1)]
    details = []
    ok = True
    for n, W, l1, l2 in cases:
        prof = lattice.covariance_profile(lattice.Lattice1D(n), W)
        exact = moments.wick_exact_f2(n, l1, l2, prof)
        est = moments.mc_f2("band", n, W, [l1, l2], 1_000_000, 20_240_101 + n)[(0, 1)]
        dev = abs(est.value - exact) / est.stderr
        rel = est.stderr / abs(est.value)
        ok = ok and dev <= 4.0 and rel <= 0.02 and est.rejected == 0
        details.append(f"n={n}: {dev:.2f} se, stderr/|value|={rel:.4f}")
    if cases[0][0] == 1:
        # the single-site value is the closed form l1 l2 + 1 = 0.94
        exact1 = moments.wick_exact_f2(
            1, 0.3, -0.2, lattice.covariance_profile(lattice.Lattice1D(1), 1.0))
        ok = ok and abs(exact1 - 0.94) < 1e-14
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(1, ok, f"{'; '.join(details)}; runtime {elapsed:.1f}s (<60s)")


def test_criterion_2_dual_representation_identity():
    """Single-site dual field integral equals the exact moment to 1e-6 relative."""
    grid = dualrep.QuadratureGrid.build(40)
    prof = lattice.covariance_profile(lattice.Lattice1D(1), 1.0)
    worst = 0.0
    count = 0
    for lambda0 in (0.0, 0.5, 1.0):
        for xis in ((0.0, 0.0), (0.5, -0.5), (0.3, -0.2), (0.7, 0.1)):
            val = dualrep.dual_f2_n1(lambda0, xis[0], xis[1], grid)
            p = scaled_lambdas(lambda0, xis[0], xis[1], 1)
            exact = moments.wick_exact_f2(1, p.lambda1, p.lambda2, prof)
            worst = max(worst, abs(val.real - exact) / abs(exact))
            count += 1
    ok = worst <= 1e-6 and count == 12
    report(2, ok, f"12 (lambda0, xi) points, worst rel err {worst:.2e} (<=1e-6)")


def _scan_max_deviation(results):
    devs = np.array([abs(r.ratio - r.sine_ref) for r in results])
    idx = int(devs.argmax())
    return float(devs[idx]), float(results[idx].stderr)


@pytest.mark.slow
def test_criterion_3_sine_kernel_trend():
    """Normalized moment approaches the sine kernel; deviation shrinks with size."""
    pairs = [(d / 2, -d / 2) for d in DELTA_GRID]
    samples = 20_000

    gue = moments.moment_scan("gue", 100, None, 0.0, pairs, samples, 31_337)
    ok_a = True
    worst_a = -math.inf
    for r, d in zip(gue, DELTA_GRID):
        dev = abs(r.ratio - sine_kernel(d))
        tol = 0.05 + 3.0 * r.stderr
        worst_a = max(worst_a, dev - tol)
        ok_a = ok_a and dev <= tol

    band = moments.moment_scan("band", 64, 64.0, 0.0, pairs, samples, 27_182)
    ok_b = True
    for r, d in zip(band, DELTA_GRID):
        dev = abs(r.ratio - sine_kernel(d))
        ok_b = ok_b and dev <= 0.10 + 3.0 * r.stderr

    trend = {}
    for n in (16, 32, 64):
        res = moments.moment_scan("band", n, float(n), 0.0, pairs, samples, 16_180)
        trend[n] = _scan_max_deviation(res)
    ok_c = True
    for small, big in ((16, 32), (32, 64)):
        dev_s, se_s = trend[small]
        dev_b, se_b = trend[big]
        ok_c = ok_c and dev_b <= dev_s + 3.0 * (se_s + se_b)

    detail = (f"(a) GUE n=100 max dev-tol {worst_a:+.3f}; "
              f"(b) band n=W=64 {'ok' if ok_b else 'violated'}; "
              f"(c) trend maxdev {trend[16][0]:.3f} -> {trend[32][0]:.3f} -> "
              f"{trend[64][0]:.3f} within bars")
    report(3, ok_a and ok_b and ok_c, detail)


def report_suite(num: int, checks: list[verify.CheckResult]):
    failed = [c.line() for c in checks if not c.passed]
    report(num, not failed, "; ".join(failed) if failed else f"all {len(checks)} checks pass")


def test_criterion_4_lattice_toolkit():
    """Chain determinant recurrences, closed forms, Green entries, partition asymptotics."""
    report_suite(4, verify.suite_lattice())


def test_criterion_5_unitary_suite():
    """h_s(0) exact; character integral and |V_12|^2s moments vs Haar MC."""
    err0 = max(abs(unitary.v12_moment(s, 0.0) - 1.0 / (s + 1)) for s in range(7))

    V = unitary.haar_u2_batch(sampler.RngStream(55, 0), 1_000_000)
    v12sq = np.abs(V[:, 0, 1]) ** 2
    rng = np.random.default_rng(99)
    worst = 0.0
    ok = err0 <= 1e-12
    for _ in range(10):
        c1, c2, d1, d2 = rng.uniform(-1, 1, 4)
        t = rng.uniform(0.2, 1.5)
        s = int(rng.integers(0, 4))
        tr = np.einsum("ij,bkj,kl,bli->b", np.diag([c1, c2]), V.conj(),
                       np.diag([d1, d2]), V).real
        hc = np.exp(t * tr)
        se = hc.std(ddof=1) / math.sqrt(len(hc))
        dev = abs(hc.mean() - unitary.hciz_2x2(c1, c2, d1, d2, t)) / se
        worst = max(worst, dev)
        ok = ok and dev <= 4

        x = t * (c1 - c2) * (d1 - d2)
        mom = v12sq**s * np.exp(t * (tr - (c1 * d1 + c2 * d2)))
        se = mom.std(ddof=1) / math.sqrt(len(mom))
        dev = abs(mom.mean() - unitary.v12_moment(s, x)) / se
        worst = max(worst, dev)
        ok = ok and dev <= 4
    report(5, ok, f"h_s(0) err {err0:.1e} (<=1e-12); MC worst dev {worst:.2f} se (<=4)")


def test_criterion_6_saddle_suite():
    """Stationary-point identities and the exponent-excess grid inequalities."""
    report_suite(6, verify.suite_saddle())


@pytest.mark.slow
def test_criterion_7_spectrum(tmp_path):
    """Pooled counting measure vs semicircle: Kolmogorov distance at most 0.02."""
    cfg = tmp_path / "spectrum.cfg"
    cfg.write_text(
        "ensemble = band\nn_dim = 1000\nbandwidth = 100\nsamples = 20\nseed = 424242\n",
        encoding="utf-8")
    out = tmp_path / "spectrum.csv"
    code = cli.main(["spectrum", "--config", str(cfg), "--out", str(out), "--quiet"])
    ks = None
    for line in out.read_text().splitlines():
        if line.startswith("# ks_distance="):
            ks = float(line.split("=", 1)[1])
    ok = code == 0 and ks is not None and ks <= 0.02
    report(7, ok, f"KS distance {ks:.4f} (<=0.02), n=1000, W=100, 20 samples")


def test_criterion_8_determinism(tmp_path):
    """Byte-identical CSV for re-runs and for thread counts 1/4/8."""
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "ensemble = band\nn_dim = 16\nbandwidth = 16\nlambda0 = 0\n"
        "xi_grid = 0.125,-0.125; 0.25,-0.25\nsamples = 4096\nseed = 7\n",
        encoding="utf-8")
    blobs = []
    for i, threads in enumerate((1, 4, 8, 1)):
        out = tmp_path / f"scan{i}.csv"
        assert cli.main(["moment-scan", "--config", str(cfg), "--out", str(out),
                         "--threads", str(threads), "--quiet"]) == 0
        blobs.append(out.read_bytes())
    scan_ok = all(b == blobs[0] for b in blobs)

    spectrum_cfg = tmp_path / "spec.cfg"
    spectrum_cfg.write_text(
        "ensemble = band\nn_dim = 101\nbandwidth = 10\nsamples = 6\nseed = 3\nbins = 40\n",
        encoding="utf-8")
    spectrum_blobs = []
    for i, threads in enumerate((1, 4)):
        out = tmp_path / f"spectrum{i}.csv"
        assert cli.main(["spectrum", "--config", str(spectrum_cfg), "--out", str(out),
                         "--threads", str(threads), "--quiet"]) == 0
        spectrum_blobs.append(out.read_bytes())
    spectrum_ok = spectrum_blobs[0] == spectrum_blobs[1]

    report(8, scan_ok and spectrum_ok,
           f"moment-scan identical over threads 1/4/8 and re-run: {scan_ok}; "
           f"spectrum identical over threads 1/4: {spectrum_ok}")
