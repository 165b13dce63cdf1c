"""Coverage ledger: how often the Monte Carlo ratios' error bars cover the exact ratio.

    python3 scripts/coverage.py [--seeds 20] [--mc-src DIR]

For each Monte Carlo configuration of the acceptance gate (`moment_scan` at
lambda0 = 0 over the pairs (d/2, -d/2), d in the gate's delta grid), it draws
SAMPLES samples at each of `--seeds` seeds 1_000_001, 1_000_002, ...,
disjoint from the gate's, and compares every ratio with the exact finite-N
ratio: `exact.gue_ratio` for GUE n = 100 and `exact.transfer_ratio` for band
n = W = 16, 32 and 64.  Per configuration it prints the fraction of ratios within 1 and 2 stderr, with
its binomial error, the mean z = (ratio - exact) / stderr per delta, and the
RMSE against the exact ratio.  The ratios of one seed share their samples, so
the binomial error understates the spread.

The exact ratios come from this checkout's `src/`.  The Monte Carlo runs in a
child process that imports `bandmoment` from `--mc-src` (default: the same
`src/`), so two checkouts' samplers are judged against the same exact values.
At 20 seeds it takes about 8 minutes on a 2-vCPU x86_64 VM, so it stays out of
the test suite.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DELTAS = (0.25, 0.5, 1.0, 1.5)  # verify.DELTA_GRID
CONFIGS = {  # name: ensemble, n, W
    "gue_n100": ("gue", 100, None),
    "band_n16": ("band", 16, 16.0),
    "band_n32": ("band", 32, 32.0),
    "band_n64": ("band", 64, 64.0),
}
FIRST_SEED = 1_000_001
SAMPLES = 20_000


def monte_carlo(seeds: int) -> None:
    """Print one JSON line of ratios and stderrs per configuration and seed."""
    from bandmoment import moments

    pairs = [(d / 2, -d / 2) for d in DELTAS]
    for name, (ensemble, n, W) in CONFIGS.items():
        for seed in range(FIRST_SEED, FIRST_SEED + seeds):
            res = moments.moment_scan(ensemble, n, W, 0.0, pairs, SAMPLES, seed)
            print(json.dumps({"config": name, "seed": seed, "ratio": [r.ratio for r in res],
                              "stderr": [r.stderr for r in res]}), flush=True)


def exact_ratios(name: str) -> list[float]:
    from bandmoment import exact
    from bandmoment.lattice import Lattice1D, covariance_profile
    from bandmoment.saddle import scaled_lambdas

    ensemble, n, W = CONFIGS[name]
    out = []
    for d in DELTAS:
        p = scaled_lambdas(0.0, d / 2, -d / 2, n)
        if ensemble == "gue":
            out.append(exact.gue_ratio(n, p.lambda1, p.lambda2))
        else:
            out.append(exact.transfer_ratio(covariance_profile(Lattice1D(n), W),
                                            p.lambda1, p.lambda2))
    return out


def ledger(name: str, runs: list[dict], exact: list[float]) -> list[str]:
    z = [[(r["ratio"][k] - exact[k]) / r["stderr"][k] for k in range(len(DELTAS))] for r in runs]
    flat = [v for row in z for v in row]
    m = len(flat)
    lines = [f"{name}: {len(runs)} seeds, {m} ratios"]
    for width, nominal in ((1, 0.683), (2, 0.954)):
        p = sum(abs(v) <= width for v in flat) / m
        lines.append(f"  within {width} stderr: {p:.3f} +- {math.sqrt(p * (1 - p) / m):.3f}"
                     f" (nominal {nominal})")
    lines.append("  mean z per delta: " + "  ".join(
        f"{d:g}: {sum(row[k] for row in z) / len(z):+.3f}" for k, d in enumerate(DELTAS)))
    sq = [(r["ratio"][k] - exact[k]) ** 2 for r in runs for k in range(len(DELTAS))]
    lines.append(f"  rmse: {math.sqrt(sum(sq) / len(sq)):.5f}; exact ratios: "
                 + " ".join(f"{e:.6f}" for e in exact))
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--mc-src", default=str(SRC), help="the src/ the Monte Carlo imports")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        sys.path.insert(0, args.mc_src)
        monte_carlo(args.seeds)
        return
    sys.path.insert(0, str(SRC))
    child = subprocess.run([sys.executable, __file__, "--child", *sys.argv[1:]],
                           capture_output=True, text=True, check=True)
    runs = [json.loads(line) for line in child.stdout.splitlines()]
    print(f"# Monte Carlo from {Path(args.mc_src).resolve()}, exact values from {SRC}, "
          f"{SAMPLES} samples per seed")
    for name in CONFIGS:
        print("\n".join(ledger(name, [r for r in runs if r["config"] == name], exact_ratios(name))))


if __name__ == "__main__":
    main()
