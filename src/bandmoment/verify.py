"""Self-contained invariant suites behind `bandmoment verify` and the acceptance gate.

Each suite re-derives its expected values from an independent route (dense
linear algebra, quadrature, Monte Carlo, closed forms) and reports one
PASS/FAIL line per check with the measured numbers.  This module is the one
place each of these checks is written: `bandmoment verify` runs the suites at
their defaults, and the acceptance criteria run them at full strength through
their keyword arguments (sample counts, seeds, number of random points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import charpoly, lattice, moments, sampler, unitary
from .saddle import (
    saddle_data,
    saddle_exponent,
    saddle_exponent_excess,
    scaled_lambdas,
    semicircle_density,
    sine_kernel,
)

# grid half-widths for the exponent-excess inequalities: the quadratic lower
# bound with the proof constant alpha = (1 - lambda0^2/4)/2 holds on
# (-inf, delta) only for sufficiently small delta; 0.03 is verified for
# lambda0 in {0, 1} (0.1 is already too wide at lambda0 = 1)
IN_LEFT_DELTA = 0.03
EXCESS_DELTA = 0.1
# xi pairs (d/2, -d/2) of the acceptance gate's scans
DELTA_GRID = (0.25, 0.5, 1.0, 1.5)


@dataclass
class CheckResult:
    label: str
    measured: str
    expected: str
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.label}={self.measured} expected {self.expected} {status}"


def _check(label: str, measured, expected, passed: bool) -> CheckResult:
    return CheckResult(label, f"{measured}", f"{expected}", bool(passed))


def _check_tol(label: str, err: float, tol: float) -> CheckResult:
    return CheckResult(label, f"{err:.3e}", f"<={tol:.0e}", err <= tol)


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

def _dense_chain(m: int, x: complex, pinned: bool) -> np.ndarray:
    if m == 1 and not pinned:
        # single free site: the chain operator is the 1x1 zero matrix
        return np.array([[complex(x)]])
    M = (np.diag(np.full(m, 2.0 + x)) + np.diag(np.full(m - 1, -1.0 + 0j), 1)
         + np.diag(np.full(m - 1, -1.0 + 0j), -1))
    M[m - 1, m - 1] = 1.0 + x
    if not pinned:
        M[0, 0] = 1.0 + x
    return M


def suite_lattice() -> list[CheckResult]:
    out = []
    t2 = lattice.charpoly_pinned(2, 0.5).real
    out.append(_check("T_2(0.5)", f"{t2:.10g}", "2.75", abs(t2 - 2.75) < 1e-14))
    t1 = lattice.charpoly_pinned(1, 0.5).real
    out.append(_check("T_1(0.5)", f"{t1:.10g}", "1.5", abs(t1 - 1.5) < 1e-14))
    s2 = lattice.charpoly_neumann(2, 1.0).real
    out.append(_check("S_2(1)", f"{s2:.10g}", "3", abs(s2 - 3.0) < 1e-14))
    zero_err = max(abs(lattice.charpoly_neumann(m, 0.0)) for m in range(1, 13))
    out.append(_check_tol("S_m(0) zero-mode, m<=12", zero_err, 1e-300))

    rng = np.random.default_rng(20240601)
    xs = np.concatenate([rng.uniform(0.05, 3.0, 10),
                         rng.uniform(0.05, 2.0, 10) + 1j * rng.uniform(-2.0, 2.0, 10)])
    err = 0.0
    for m in range(1, 13):
        for x in xs:
            dT = np.linalg.det(_dense_chain(m, x, pinned=True))
            dS = np.linalg.det(_dense_chain(m, x, pinned=False))
            err = max(err, abs(lattice.charpoly_pinned(m, x) - dT) / abs(dT),
                      abs(lattice.charpoly_neumann(m, x) - dS) / abs(dS))
    out.append(_check_tol("chain dets vs dense LU (m<=12, 20 x)", err, 1e-10))

    err = 0.0
    for x in (0.1, 1.0, 2.0 + 3.0j):
        for m in range(1, 51):
            r, c = lattice.charpoly_pinned(m, x), lattice.charpoly_pinned_closed(m, x)
            rs, cs = lattice.charpoly_neumann(m, x), lattice.charpoly_neumann_closed(m, x)
            err = max(err, abs(r - c) / abs(r), abs(rs - cs) / abs(rs))
    out.append(_check_tol("closed form vs recurrence (m<=50)", err, 1e-10))

    g = lattice.green_diag(2, 2.0, 2.0, 1)  # x = 2 gamma / W^2 = 1
    out.append(_check("G_11 (m=2, x=1)", f"{g.real:.10g}", "0.6666666667",
                      abs(g - 2.0 / 3.0) < 1e-12))
    m, gam, W = 10, 1.0 + 0.5j, 3.0
    dense = np.linalg.inv(_dense_chain(m, 2 * gam / W**2, pinned=False))
    gerr = max(abs(lattice.green_diag(m, gam, W, i + 1) - dense[i, i]) / abs(dense[i, i])
               for i in range(m))
    out.append(_check_tol("G_ii vs dense inverse (m=10)", gerr, 1e-8))
    sym = max(abs(lattice.green_diag(m, gam, W, i + 1)
                  - lattice.green_diag(m, gam, W, m - i)) for i in range(m))
    out.append(_check_tol("G_ii reflection symmetry", sym, 1e-12))

    z1 = np.exp(lattice.log_gaussian_partition(1, 2.0, 3.0))
    expect = 3.0 * math.sqrt(math.pi / 2.0)
    out.append(_check("Z (m=1, gamma=2, W=3)", f"{z1.real:.10g}", f"{expect:.10g}",
                      abs(z1 - expect) < 1e-12 * expect))
    W = 30.0
    m = int(10 * W)
    lz = lattice.log_gaussian_partition(m, 1.0, W)
    asym = 0.5 * m * math.log(2 * math.pi) - 0.5 * math.log(
        math.sqrt(2.0) / W * math.sinh(m * math.sqrt(2.0) / W))
    ratio = math.exp((lz - asym).real)
    out.append(_check("|Z| / sinh-asymptotic (m=10W, W=30)", f"{ratio:.6f}", "1 +- 0.02",
                      abs(ratio - 1.0) <= 0.02))
    z3 = np.exp(lattice.log_gaussian_partition(3, 1 + 1j, 2.0))
    oracle = _partition_quadrature(3, 1 + 1j, 2.0)
    out.append(_check_tol("Z vs tensor quadrature (m=3)", abs(z3 - oracle) / abs(oracle), 1e-6))

    prof = lattice.covariance_profile(lattice.Lattice1D(201), 10.0)
    rs_err = float(np.abs(prof.J.sum(axis=1) - 1.0).max())
    out.append(_check_tol("J row sums (N=201, W=10)", rs_err, 1e-12))
    out.append(_check_tol("J symmetry", float(np.abs(prof.J - prof.J.T).max()), 1e-15))
    d, e = lattice.neumann_laplacian(lattice.Lattice1D(201))
    negs = int(charpoly.count_below_many(100.0 * d + 1.0, (100.0 * e) ** 2, 0.0)[0, 0])
    out.append(_check("W^2 K + 1 eigenvalues below 0 (Sturm)", negs, "0", negs == 0))
    k = np.arange(60, 181)
    logj = np.log(prof.J[0, k])
    slope, intercept = np.polyfit(k, logj, 1)
    resid = logj - (slope * k + intercept)
    r2 = 1.0 - resid.var() / logj.var()
    out.append(_check("log J_0k linear fit R^2 (N=201, W=10)", f"{r2:.6f}", ">=0.999",
                      r2 >= 0.999))
    return out


def _partition_quadrature(m: int, gamma: complex, W: float, nodes: int = 64) -> complex:
    """Oracle for the chain Gaussian integral: whiten the real part of the
    quadratic form and integrate the imaginary remainder on a tensor grid."""
    stiff = _dense_chain(m, 0.0, pinned=False).real
    A_re = stiff + (2.0 * gamma.real / W**2) * np.eye(m)
    L = np.linalg.cholesky(A_re)
    Linv = np.linalg.inv(L)
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    grids = np.meshgrid(*([x] * m), indexing="ij")
    U = np.stack([g.ravel() for g in grids], axis=1)
    X = U @ Linv  # rows are L^-T u, whitening the real quadratic form
    wgt = np.ones_like(grids[0])
    for g in np.meshgrid(*([w] * m), indexing="ij"):
        wgt = wgt * g
    phase = np.exp(-1j * (gamma.imag / W**2) * np.sum(X * X, axis=1))
    total = np.sum(wgt.ravel() * phase)
    return total / np.prod(np.diag(L))


# ---------------------------------------------------------------------------
# saddle
# ---------------------------------------------------------------------------

def suite_saddle() -> list[CheckResult]:
    import scipy.integrate  # here, not at the top: the package itself does not load scipy

    out = []
    out.append(_check("rho(0)", f"{semicircle_density(0.0):.10f}", f"{1/math.pi:.10f}",
                      abs(semicircle_density(0.0) - 1 / math.pi) < 1e-14))
    out.append(_check("rho(+-2)", semicircle_density(2.0), "0", semicircle_density(2.0) == 0.0
                      and semicircle_density(-2.0) == 0.0))
    mass, _ = scipy.integrate.quad(semicircle_density, -2, 2, epsabs=1e-12)
    out.append(_check_tol("integral of rho - 1", abs(mass - 1.0), 1e-10))

    sd0 = saddle_data(0.0)
    ok0 = (sd0.a_plus == 1.0 and sd0.a_minus == -1.0 and sd0.c_plus == 1.0
           and sd0.c0 == 0.5)
    out.append(_check("saddle at lambda0=0 (a,c,c0)", f"({sd0.a_plus},{sd0.c_plus},{sd0.c0})",
                      "(1,1,0.5)", ok0))
    sd1 = saddle_data(1.0)
    ok1 = (abs(sd1.a_plus - math.sqrt(3) / 2) < 1e-15 and abs(sd1.c_plus.real - 0.75) < 1e-15)
    out.append(_check("saddle at lambda0=1", f"(a={sd1.a_plus:.6f}, Re c={sd1.c_plus.real})",
                      "(0.866025, 0.75)", ok1))
    rng = np.random.default_rng(3)
    conj_ok = all(saddle_data(l).c_minus == np.conj(saddle_data(l).c_plus)
                  for l in rng.uniform(-1.9, 1.9, 20))
    out.append(_check("c_- = conj(c_+), 20 random lambda0", conj_ok, "True", conj_ok))

    worst_min = 0.0
    worst_fd = 0.0
    worst_c = 0.0
    for l0 in (0.0, 0.5, 1.0, 1.5):
        sd = saddle_data(l0)
        for a in (sd.a_plus, sd.a_minus):
            worst_min = max(worst_min, abs(saddle_exponent_excess(a, l0)))
            h = 1e-5
            fd = (saddle_exponent_excess(a + h, l0) - saddle_exponent_excess(a - h, l0)) / (2 * h)
            worst_fd = max(worst_fd, abs(fd))
        # symmetric second difference: the one-sided quotient carries an O(h)
        # cubic-term error (~3e-4 at h=1e-3) that would exceed the tolerance
        h = 1e-3
        c_est = (saddle_exponent(sd.a_plus + h, l0) - 2 * saddle_exponent(sd.a_plus, l0)
                 + saddle_exponent(sd.a_plus - h, l0)) / (2 * h**2)
        worst_c = max(worst_c, abs(c_est - sd.c_plus))
    out.append(_check_tol("excess at stationary points", worst_min, 1e-12))
    out.append(_check_tol("centered first derivative at a_+-", worst_fd, 1e-7))
    out.append(_check_tol("quadratic coefficient -> c_+ (h=1e-3)", worst_c, 1e-4))

    ok = True
    margin = math.inf
    for l0 in (0.0, 1.0):
        sd = saddle_data(l0)
        alpha = 0.5 * (1.0 - l0 * l0 / 4.0)
        grid = np.linspace(-6.0, IN_LEFT_DELTA, 10_000)
        gap = saddle_exponent_excess(grid, l0) - alpha * (grid - sd.a_minus) ** 2
        margin = min(margin, float(gap.min()))
        ok = ok and (gap >= 0).all()
        grid = np.linspace(-IN_LEFT_DELTA, 6.0, 10_000)
        gap = saddle_exponent_excess(grid, l0) - alpha * (grid - sd.a_plus) ** 2
        margin = min(margin, float(gap.min()))
        ok = ok and (gap >= 0).all()
    out.append(_check(f"quadratic lower bound on (-inf, {IN_LEFT_DELTA})",
                      f"min gap {margin:.3e}", ">=0", ok))

    ok = True
    margin = math.inf
    for l0 in (0.0, 1.0):
        sd = saddle_data(l0)
        alpha = 0.5 * (1.0 - l0 * l0 / 4.0)
        grid = np.linspace(-4.0, 4.0, 10_000)
        mask = (np.abs(grid - sd.a_plus) >= EXCESS_DELTA) & (np.abs(grid - sd.a_minus) >= EXCESS_DELTA)
        gap = saddle_exponent_excess(grid[mask], l0) - alpha * EXCESS_DELTA**2
        margin = min(margin, float(gap.min()))
        ok = ok and (gap >= 0).all()
    out.append(_check(f"excess >= alpha delta^2 outside U_{EXCESS_DELTA}(a_+-)",
                      f"min gap {margin:.3e}", ">=0", ok))

    sinc_ok = (sine_kernel(0.0) == 1.0 and abs(sine_kernel(1.0)) < 1e-15
               and abs(sine_kernel(0.5) - 2 / math.pi) < 1e-14)
    out.append(_check("sinc at {0, 1, 0.5}", f"(1, {sine_kernel(1.0):.1e}, {sine_kernel(0.5):.10f})",
                      f"(1, 0, {2/math.pi:.10f})", sinc_ok))
    return out


# ---------------------------------------------------------------------------
# unitary
# ---------------------------------------------------------------------------

def _stderr(x: np.ndarray) -> float:
    return x.std(ddof=1) / math.sqrt(len(x))


def suite_unitary(mc_samples: int = 200_000, haar_seed: int = 17, point_seed: int = 77,
                  points: int = 3) -> list[CheckResult]:
    import scipy.stats

    out = []
    h_err = max(abs(unitary.v12_moment(s, 0.0) - 1.0 / (s + 1)) for s in range(7))
    out.append(_check_tol("h_s(0) - 1/(s+1), s<=6", h_err, 1e-12))

    U = unitary.haar_u2_batch(sampler.RngStream(11, 0), 10_000)
    uerr = float(np.abs(np.einsum("bij,bkj->bik", U, U.conj())
                        - np.eye(2)).max())
    out.append(_check_tol("max |U U* - 1| over 1e4 samples", uerr, 1e-12))
    m12 = np.abs(U[:, 0, 1]) ** 2
    se = _stderr(m12)
    out.append(_check("E|U_12|^2", f"{m12.mean():.5f} +- {se:.5f}", "0.5 (4 se)",
                      abs(m12.mean() - 0.5) <= 4 * se))

    A = np.array([[0.3 + 0.1j, -0.2j], [0.7, 0.4 - 0.5j]])
    B = unitary.haar_u2_batch(sampler.RngStream(13, 1), 20_000)
    left = np.array([[0.6 + 0.8j, 0], [0, -1j]]) @ np.array([[0, 1], [1, 0]])
    t_plain = np.einsum("ij,bji->b", A, B).real
    t_left = np.einsum("ij,bji->b", A, left[None] @ B).real
    ks = scipy.stats.ks_2samp(t_plain, t_left)
    out.append(_check("left invariance KS p-value", f"{ks.pvalue:.4f}", ">0.05",
                      ks.pvalue > 0.05))

    v0 = unitary.hciz_2x2(0.3, -0.2, 0.5, 0.1, 1e-13)
    out.append(_check("character integral, t->0", f"{v0:.12f}", "1",
                      abs(v0 - 1.0) < 1e-10))
    vs = unitary.hciz_2x2(0.4, 0.4, 0.5, 0.1, 0.7)
    expect = math.exp(0.7 * 0.4 * 0.6)
    out.append(_check("character integral, c1=c2", f"{vs:.12f}", f"{expect:.12f}",
                      abs(vs - expect) < 1e-12))

    # random points (C, D, t, s): the character integral and the s-th |V_12|^2
    # moment of the tilted measure, both against one Haar sample
    V = unitary.haar_u2_batch(sampler.RngStream(haar_seed, 0), mc_samples)
    v12sq = np.abs(V[:, 0, 1]) ** 2
    rng = np.random.default_rng(point_seed)
    hc_devs, mom_devs = [], []
    for _ in range(points):
        c1, c2, d1v, d2v = rng.uniform(-1, 1, 4)
        t = rng.uniform(0.2, 1.5)
        s = int(rng.integers(0, 4))
        tr = np.einsum("ij,bkj,kl,bli->b", np.diag([c1, c2]), V.conj(),
                       np.diag([d1v, d2v]), V).real
        hc = np.exp(t * tr)
        hc_devs.append(abs(hc.mean() - unitary.hciz_2x2(c1, c2, d1v, d2v, t)) / _stderr(hc))
        mom = v12sq**s * np.exp(t * (tr - (c1 * d1v + c2 * d2v)))
        x = t * (c1 - c2) * (d1v - d2v)
        mom_devs.append(abs(mom.mean() - unitary.v12_moment(s, x)) / _stderr(mom))
    out.append(_check(f"character integral vs Haar MC ({points} points)",
                      f"{max(hc_devs):.2f} se", "<=4 se", all(d <= 4 for d in hc_devs)))
    out.append(_check(f"|V_12|^2s moment vs Haar MC ({points} points, s in 0..3)",
                      f"{max(mom_devs):.2f} se", "<=4 se", all(d <= 4 for d in mom_devs)))

    cross = 0.0
    for s in range(11):
        for x in (8.0, -8.0):
            a = unitary.v12_moment(s, x)
            # v12_moment takes the series at |x| = 8; the closed form is the other branch
            b = unitary._v12_closed(s, x)
            cross = max(cross, abs(a - b) / abs(a))
    out.append(_check_tol("series/closed-form crossover at |x|=8", cross, 1e-9))

    grid = np.linspace(0.0, 50.0, 201)
    ok = True
    for s in range(11):
        vals = np.array([unitary.v12_moment(s, x) for x in grid])
        ok = ok and (vals > 0).all() and (np.diff(vals) < 1e-15).all()
    out.append(_check("h_s positive and decreasing on [0,50], s<=10", ok, "True", ok))
    return out


# ---------------------------------------------------------------------------
# oracle (exact expansion vs Monte Carlo)
# ---------------------------------------------------------------------------

def suite_oracle(samples: int = 200_000,
                 seeds: tuple[int, int, int] = (2024, 2024, 2024)) -> list[CheckResult]:
    """Exact pairing expansion vs Monte Carlo; `seeds` key the N = 1, 2, 3 cases."""
    out = []
    from . import exact  # here, not at the top: the package itself does not load it

    p1 = lattice.covariance_profile(lattice.Lattice1D(1), 1.0)
    v = exact.wick_exact_f2(0.3, -0.2, p1)
    out.append(_check("exact F2 (N=1, l=0.3/-0.2)", f"{v:.10f}", "0.94",
                      abs(v - 0.94) < 1e-14))
    rng = np.random.default_rng(8)
    p3 = lattice.covariance_profile(lattice.Lattice1D(3), 2.0)
    sym_err = 0.0
    for _ in range(5):
        l1, l2 = rng.uniform(-1.5, 1.5, 2)
        a = exact.wick_exact_f2(l1, l2, p3)
        b = exact.wick_exact_f2(l2, l1, p3)
        sym_err = max(sym_err, abs(a - b) / max(abs(a), 1e-300))
    out.append(_check_tol("exact F2 symmetry in (l1,l2), rel", sym_err, 1e-12))

    cases = [(1, 1.0, (0.3, -0.2)), (2, 1.0, (0.5, -0.3)), (3, 2.0, (0.4, -0.1))]
    devs, rels, rejected = [], [], 0
    for (n, W, (l1, l2)), seed in zip(cases, seeds):
        prof = lattice.covariance_profile(lattice.Lattice1D(n), W)
        ref = exact.wick_exact_f2(l1, l2, prof)
        est = moments.mc_f2("band", n, W, [l1, l2], samples, seed)[(0, 1)]
        devs.append(abs(est.value - ref) / est.stderr)
        rels.append(est.stderr / abs(est.value))
        rejected += est.rejected
    out.append(_check("MC F2 vs exact (N=1,2,3)", f"{max(devs):.2f} se", "<=4 se",
                      all(d <= 4 for d in devs)))
    out.append(_check("MC F2 stderr/|value|", f"{max(rels):.4f}", "<=0.02",
                      all(r <= 0.02 for r in rels)))
    out.append(_check("MC F2 rejected samples", rejected, "0", rejected == 0))
    return out


# ---------------------------------------------------------------------------
# dual representation
# ---------------------------------------------------------------------------

def suite_dual() -> list[CheckResult]:
    """The dual field representation by the transfer recursion against the pairing expansion
    (N = 1..3) and GUE's CD sum (N = 10, 20)."""
    from . import exact

    def errors(prof, reference):  # relative error of transfer_f2 per point
        for l0 in (0.0, 0.5, 1.0):
            for x1, x2 in ((0.0, 0.0), (0.5, -0.5), (0.3, -0.2), (0.7, 0.1)):
                sp = scaled_lambdas(l0, x1, x2, prof.size)
                t = exact.transfer_f2(prof, sp.lambda1, sp.lambda2)
                ref = reference(sp.lambda1, sp.lambda2, prof)
                yield abs(t.sign * math.exp(t.log_abs) - ref) / abs(ref)

    def cd_sum(x, y, prof):
        sign, log_mag = exact.gue_log_f2(prof.size, x, y)
        return sign * math.exp(log_mag)

    out, widths = [], (0.7, 1.0, 2.0, 13.0)
    for n, ws in ((1, (1.0,)), (2, widths), (3, widths)):
        worst = max(e for W in ws for e in errors(
            lattice.covariance_profile(lattice.Lattice1D(n), W), exact.wick_exact_f2))
        case = f"N={n}, W={'/'.join(f'{W:g}' for W in ws)}"
        out.append(_check_tol(f"dual rule vs exact ({case}, 12 (lambda0, xi) points each)",
                              worst, 1e-12))
    # the recursion loses digits away from the band centre: 7.3e-12 at N = 20, lambda0 = 1
    worst = max(e for n in (10, 20) for e in errors(sampler.gue_profile(n), cd_sum))
    out.append(_check_tol("dual rule vs GUE CD sum (N=10/20, 12 (lambda0, xi) points each; "
                          "1e-11 for the recursion's rounding off the band centre)", worst, 1e-11))
    return out


# ---------------------------------------------------------------------------
# exact references
# ---------------------------------------------------------------------------

def suite_exact() -> list[CheckResult]:
    """GUE's exact F2 (the Christoffel-Darboux sum) against the pairing expansion, and
    the 1/N rate of its sine-kernel deviation, at the acceptance gate's delta grid."""
    from . import exact

    out = []
    worst = 0.0
    for n in (1, 2, 3):
        prof = sampler.gue_profile(n)
        for l0 in (0.0, 1.0):
            for d in DELTA_GRID:
                sp = scaled_lambdas(l0, d / 2, -d / 2, n)
                for x, y in ((sp.lambda1, sp.lambda2), (sp.lambda1, sp.lambda1)):
                    sign, log_mag = exact.gue_log_f2(n, x, y)
                    ref = exact.wick_exact_f2(x, y, prof)
                    worst = max(worst, abs(sign * math.exp(log_mag) - ref) / abs(ref))
    out.append(_check_tol("GUE CD sum vs pairing expansion (N<=3, lambda0 in {0, 1}, "
                          "16 points each), rel", worst, 1e-13))
    # at lambda0 = 0 each parity's N (ratio - sine) tends to its own limit
    for small, big in ((1000, 10_000), (1001, 10_001)):
        worst = 0.0
        for d in DELTA_GRID:
            rates = []
            for n in (small, big):
                sp = scaled_lambdas(0.0, d / 2, -d / 2, n)
                rates.append(n * (exact.gue_ratio(n, sp.lambda1, sp.lambda2) - sine_kernel(d)))
            worst = max(worst, abs(rates[0] - rates[1]))
        out.append(_check_tol(f"GUE N (ratio - sine) at lambda0=0, N={small} vs {big}, "
                              f"{len(DELTA_GRID)} deltas", worst, 2e-3))
    return out


SUITES = {
    "lattice": suite_lattice,
    "saddle": suite_saddle,
    "unitary": suite_unitary,
    "oracle": suite_oracle,
    "dual": suite_dual,
    "exact": suite_exact,
}


def run_suites(names: list[str], echo=print) -> bool:
    """Run the named suites, echo one line per check, return overall pass."""
    all_ok = True
    for name in names:
        echo(f"--- {name} ---")
        for check in SUITES[name]():
            echo(check.line())
            all_ok = all_ok and check.passed
    return all_ok
