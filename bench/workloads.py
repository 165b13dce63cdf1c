"""Three acceptance-gate workloads, each split into a timed call and an untimed check.

`call(seed, samples, workdir)` is the only part that is timed; it calls the
library through its public entry points (`moments.moment_scan`,
`moments.mc_f2`, `cli.main`) by module attribute, so a tracer installed on
those attributes sees them.  `assess(raw, samples)` checks the result
against the acceptance tolerance and digests its numbers for the
determinism check.

The problem shapes and tolerances are those of `tests/test_acceptance.py`;
the sample counts are smaller so that a unit fits the run time, and the
seed is `default_seed + --seed`, so `--seed 0` is the acceptance seed.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from bandmoment import cli, lattice, moments
from bandmoment.saddle import sine_kernel

DELTAS = (0.25, 0.5, 1.0, 1.5)
PAIRS = [(d / 2, -d / 2) for d in DELTAS]
ORACLE_CASES = ((1, 1.0, 0.3, -0.2), (2, 1.0, 0.5, -0.3), (3, 2.0, 0.4, -0.1))
SPECTRUM_CFG = "ensemble = band\nn_dim = 1000\nbandwidth = 100\n"


@dataclass(frozen=True)
class Outcome:
    """What one unit produced, judged outside the timed interval."""

    digest: str       # sha256 of every number the unit returned
    matrices: int     # random matrices sampled and reduced
    error: float      # largest stderr (relative for F2 values); KS distance for the spectrum
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    samples: int         # per library call at full size
    smoke_samples: int   # tiny size for warm-up and the smoke test
    call: Callable[[int, int, Path], object]
    assess: Callable[[object, int], Outcome]


def _digest(values) -> str:
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def _scan(ensemble: str, n: int, W: float | None):
    def call(seed, samples, workdir):
        return moments.moment_scan(ensemble, n, W, 0.0, PAIRS, samples, seed)
    return call


def _assess_scan(slack: float):
    def assess(results, samples):
        values = [x for r in results for x in (r.ratio, r.stderr, r.samples, r.rejected)]
        worst = max(abs(r.ratio - sine_kernel(d)) - (slack + 3.0 * r.stderr)
                    for r, d in zip(results, DELTAS))
        error = max(r.stderr for r in results)
        ok = len(results) == len(DELTAS) and worst <= 0.0
        return Outcome(_digest(values), samples, error, ok,
                       f"worst |ratio-sine| - ({slack}+3se) = {worst:+.4f}; max stderr {error:.4f}")
    return assess


def _oracle_call(seed, samples, workdir):
    return [moments.mc_f2("band", n, W, [l1, l2], samples, seed + n)
            for n, W, l1, l2 in ORACLE_CASES]


def _oracle_assess(results, samples):
    values, parts, ok, error = [], [], True, 0.0
    for (n, W, l1, l2), est in zip(ORACLE_CASES, results):
        for key in sorted(est):
            e = est[key]
            values += [e.value, e.stderr, e.log_abs_value, e.log_abs_stderr, e.rejected]
        f2 = est[(0, 1)]
        exact = moments.wick_exact_f2(n, l1, l2,
                                      lattice.covariance_profile(lattice.Lattice1D(n), W))
        dev = abs(f2.value - exact) / f2.stderr
        rel = f2.stderr / abs(f2.value)
        ok = ok and dev <= 4.0 and rel <= 0.02 and f2.rejected == 0
        error = max(error, rel)
        parts.append(f"n={n}: {dev:.2f} se, stderr/|value|={rel:.4f}")
    return Outcome(_digest(values), samples * len(ORACLE_CASES), error, ok, "; ".join(parts))


def _spectrum_call(seed, samples, workdir):
    cfg = workdir / f"spectrum_{seed}.cfg"
    out = workdir / f"spectrum_{seed}.csv"
    cfg.write_text(SPECTRUM_CFG, encoding="utf-8")
    code = cli.main(["spectrum", "--config", str(cfg), "--out", str(out), "--quiet",
                     "--seed", str(seed), "--samples", str(samples)])
    return code, out


def _spectrum_assess(raw, samples):
    code, out = raw
    text = out.read_text(encoding="utf-8") if code == 0 else ""
    ks = next((float(line.split("=", 1)[1]) for line in text.splitlines()
               if line.startswith("# ks_distance=")), float("inf"))
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Outcome(digest, samples, ks, code == 0 and ks <= 0.02,
                   f"exit {code}, KS distance {ks:.5f} (<=0.02)")


WORKLOADS = {w.name: w for w in (
    Workload("scan_band_n64",
             "band n=W=64 scan, the paper's object: dense sampling plus the per-sample "
             "zhetrd loop, where BLAS-thread overhead dominates",
             27182, 8192, 256, _scan("band", 64, 64.0), _assess_scan(0.10)),
    Workload("oracle_n3",
             "n<=3 oracle at 10^6 samples: per-sample overhead (RNG, batched "
             "Householder, recurrence); zhetrd never runs",
             20240101, 1_000_000, 100_000, _oracle_call, _oracle_assess),
    Workload("spectrum_n1000",
             "band n=1000 W=100 spectrum via the CLI: one large zhetrd per "
             "sample, Sturm counts and CSV output",
             424242, 10, 2, _spectrum_call, _spectrum_assess),
)}
