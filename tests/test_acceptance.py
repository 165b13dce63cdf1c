"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines as
they complete.  The exact-identity criteria (1, 2, 4, 5, 6, 9) run the
`verify` suites, where their closed forms and oracle agreements are written,
at full strength; the asymptotic criteria (3, 7) are finite-size trend checks
with explicitly budgeted tolerances; criterion 8 pins bitwise reproducibility
of the CLI across thread counts.
"""

import math
import time

import numpy as np
import pytest

from bandmoment import cli, exact, moments, verify
from bandmoment.lattice import Lattice1D, covariance_profile
from bandmoment.saddle import sine_kernel

DELTA_GRID = verify.DELTA_GRID


def report(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def report_suite(num: int, checks: list[verify.CheckResult]):
    report(num, all(c.passed for c in checks), "; ".join(c.line() for c in checks))


def test_criterion_1_oracle_identity():
    """Exact pairing expansion vs Monte Carlo at n = 1, 2, 3 (band profile)."""
    t0 = time.perf_counter()
    checks = verify.suite_oracle(samples=1_000_000,
                                 seeds=tuple(20_240_101 + n for n in (1, 2, 3)))
    elapsed = time.perf_counter() - t0
    checks.append(verify.CheckResult("runtime", f"{elapsed:.1f}s", "<60s", elapsed < 60.0))
    report_suite(1, checks)


def test_criterion_2_dual_representation_identity():
    """The dual field integral, evaluated by the transfer recursion, equals the pairing
    oracle to 1e-12 relative at N = 1 to 3 (N = 2, 3: W in {0.7, 1, 2, 13}) and GUE's
    Christoffel-Darboux sum at N = 10 and 20 to 1e-11 (the recursion loses digits
    away from the band centre)."""
    report_suite(2, verify.suite_dual())


def _scan_max_deviation(results):
    devs = np.array([abs(r.ratio - r.sine_ref) for r in results])
    idx = int(devs.argmax())
    return float(devs[idx]), float(results[idx].stderr)


@pytest.mark.slow
def test_criterion_3_sine_kernel_trend():
    """Normalized moment approaches the sine kernel; deviation shrinks with size; each
    GUE n = 100 and band n = W = 64 ratio lies within 3 stderr of its exact value."""
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

    # each ratio within 3 stderr of its exact finite-N value
    band_profile = covariance_profile(Lattice1D(64), 64.0)
    z_gue = [(r.ratio - exact.gue_ratio(100, r.params.lambda1, r.params.lambda2)) / r.stderr
             for r in gue]
    z_band = [(r.ratio - exact.transfer_ratio(band_profile, r.params.lambda1, r.params.lambda2))
              / r.stderr for r in band]
    ok_exact = all(abs(z) <= 3.0 for z in z_gue + z_band)

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
              f"{trend[64][0]:.3f} within bars; "
              f"(d) z against exact finite-N, GUE n=100 "
              f"{', '.join(f'{z:+.2f}' for z in z_gue)}, band n=W=64 "
              f"{', '.join(f'{z:+.2f}' for z in z_band)} (|z| <= 3)")
    report(3, ok_a and ok_b and ok_c and ok_exact, detail)


def test_criterion_4_lattice_toolkit():
    """Chain determinant recurrences, closed forms, Green entries, partition asymptotics."""
    report_suite(4, verify.suite_lattice())


def test_criterion_5_unitary_suite():
    """h_s(0) exact; character integral and |V_12|^2s moments vs Haar MC."""
    report_suite(5, verify.suite_unitary(mc_samples=1_000_000, haar_seed=55, point_seed=99,
                                         points=10))


def test_criterion_6_saddle_suite():
    """Stationary-point identities and the exponent-excess grid inequalities."""
    report_suite(6, verify.suite_saddle())


@pytest.mark.slow
def test_criterion_7_spectrum(tmp_path):
    """Pooled counting measure vs semicircle: Kolmogorov distance at most 0.02,
    and half the spectrum below the band center to 0.01."""
    cfg = tmp_path / "spectrum.cfg"
    cfg.write_text(
        "ensemble = band\nn_dim = 1000\nbandwidth = 100\nsamples = 20\nseed = 424242\n",
        encoding="utf-8")
    out = tmp_path / "spectrum.csv"
    code = cli.main(["spectrum", "--config", str(cfg), "--out", str(out), "--quiet"])
    ks, below_zero = None, 0.0
    for line in out.read_text().splitlines():
        if line.startswith("# ks_distance="):
            ks = float(line.split("=", 1)[1])
        elif not line.startswith(("#", "bin_lo")):
            _, bin_hi, mass, _ = map(float, line.split(","))
            if bin_hi <= 0.0:
                below_zero += mass
    ok = code == 0 and ks is not None and ks <= 0.02 and abs(below_zero - 0.5) <= 0.01
    report(7, ok, f"KS distance {ks:.4f} (<=0.02), mass below 0 {below_zero:.5f} "
           f"(0.5 +- 0.01), n=1000, W=100, 20 samples")


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


def test_criterion_9_exact_gue():
    """GUE's exact F2 matches the pairing oracle at n <= 3 to 1e-13, and at lambda0 = 0
    each parity's N (ratio - sine) agrees between N = 10^3 and 10^4 to 2e-3: the 1/N
    rate that criterion 3 checks only through Monte Carlo, pinned exactly."""
    t0 = time.perf_counter()
    checks = verify.suite_exact()
    elapsed = time.perf_counter() - t0
    checks.append(verify.CheckResult("runtime", f"{elapsed:.2f}s", "<2s", elapsed < 2.0))
    report_suite(9, checks)
