"""bandmoment benchmark: one acceptance workload per invocation, closed loop, one process.

    python3 bench/run.py --workload scan_band_n64 --seed 0 --seconds 30 --trace 0

Runs the named workload repeatedly (a closed loop: the next unit starts when
the previous one returns) for at least `--seconds` and at least two units,
after one unchecked warm-up unit at the smoke size.  Every unit is checked
against the acceptance tolerance and its numbers are hashed; differing hashes
within one invocation fail the run.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`:

* `--trace 0`: the end-to-end metrics (medians over units; `setup_s` is the
  median over several fresh-process imports).
* `--trace 1`: per-layer metrics from timing wrappers installed on the
  library's module attributes (see tracer.py).

The library runs as users get it: `threads=1` and BLAS threads at their
default.  A full record (environment, per-unit figures, digests and, when
traced, every span) is written to `bench/out/`.  `--smoke` runs every unit at
the tiny warm-up size.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_UNITS = 2       # the determinism check needs two results to compare
SETUP_REPS = 3


def import_library():
    """Import bandmoment from this checkout's `src/`, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import bandmoment
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import bandmoment from {SRC}: {exc}")
    if Path(bandmoment.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: bandmoment imported from {bandmoment.__file__}, not {SRC}")


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_describe": git_describe(),
    }


def measure_setup(reps: int) -> list[float]:
    """Wall seconds for a fresh interpreter to import bandmoment, `reps` times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bandmoment"], cwd=ROOT, env=env,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


@dataclass
class Unit:
    wall_s: float
    cpu_s: float
    ok: bool
    digest: str | None
    error: float
    matrices: int
    detail: str
    layers: dict | None = None


def run_unit(wl, seed: int, samples: int, tracer=None) -> Unit:
    timed = tracer.unit() if tracer is not None else contextlib.nullcontext()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with timed:
            raw = wl.call(seed, samples, OUT)
    except Exception:  # a failing unit is counted, and the loop goes on
        traceback.print_exc()
        return Unit(time.perf_counter() - t0, time.process_time() - c0, False, None,
                    0.0, 0, "raised")
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    try:
        out = wl.assess(raw, samples)
    except Exception:
        traceback.print_exc()
        return Unit(wall, cpu, False, None, 0.0, 0, "check raised")
    return Unit(wall, cpu, out.ok, out.digest, out.error, out.matrices, out.detail)


def main(argv=None) -> int:
    import_library()
    import workloads
    import layers

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="offset added to the workload's acceptance seed (0 = acceptance seed)")
    p.add_argument("--seconds", type=float, default=30.0, help="minimum measured time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run every unit at the tiny size")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    wl = workloads.WORKLOADS[args.workload]
    seed = wl.default_seed + args.seed
    samples = wl.smoke_samples if args.smoke else wl.samples
    OUT.mkdir(exist_ok=True)
    env = environment()
    print(f"environment: {json.dumps(env)}", file=sys.stderr)
    setup = [] if args.trace else measure_setup(1 if args.smoke else SETUP_REPS)

    wl.call(seed, wl.smoke_samples, OUT)  # warm-up: lazy imports, LAPACK and BLAS start-up

    tracer = per_call = None
    if args.trace:
        per_call = layers.Tracer.calibrate()
        tracer = layers.install()
    units: list[Unit] = []
    start = time.perf_counter()
    try:
        while len(units) < MIN_UNITS or time.perf_counter() - start < args.seconds:
            unit = run_unit(wl, seed, samples, tracer)
            if tracer is not None:
                unit.layers = layers.unit_metrics(tracer, unit, per_call)
            units.append(unit)
            print(f"{wl.name} seed={seed} unit {len(units)}: wall {unit.wall_s:.3f}s "
                  f"cpu {unit.cpu_s:.3f}s ok={unit.ok} {unit.detail}", file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()

    reference = units[0].digest
    failed = sum(1 for u in units if not u.ok or u.digest != reference)
    wall = statistics.median(u.wall_s for u in units)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "samples_per_s": (statistics.median(u.matrices / u.wall_s for u in units), "1/s"),
            "cpu_s": (statistics.median(u.cpu_s for u in units), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layers.summarize(tracer, [u.layers for u in units])

    record = {
        "workload": wl.name, "why": wl.why, "seed": seed, "samples": samples,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "environment": env, "setup_s": setup,
        "digests_agree": all(u.digest == reference for u in units),
        "units": [asdict(u) for u in units],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    if tracer is not None:
        record["computed_not_measured"] = layers.COMPUTED
        record["overhead_per_call_s"] = per_call
        record["per_sample_calls"] = layers.aggregates(tracer)
        record["spans"] = {"fields": ["id", "parent", "name", "start_s", "dur_s", "self_s"],
                           "rows": tracer.spans}
    path = OUT / f"{wl.name}_seed{seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"{wl.name}: {len(units)} units, median wall {wall:.3f}s, record {path}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
