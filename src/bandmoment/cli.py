"""Command-line orchestration: moment scans, verification suites, spectrum checks.

Subcommands
-----------
moment-scan   ratio-vs-sine scan over a xi grid, CSV output
verify        named invariant suite (lattice|saddle|unitary|oracle|dual|all)
spectrum      pooled eigenvalue histogram with semicircle reference and KS distance

Configuration is a flat key=value text file plus flag overrides; CSV output is
comma-separated with a header row, '.' decimals, floats at 17 significant
digits (round-trip exact), and '#' comment lines for run metadata.  Results
are bit-identical for any thread count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import charpoly, moments, sampler, verify
from .lattice import Lattice1D, covariance_profile
from .saddle import semicircle_cdf

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_ESTIMATOR = 3
EXIT_INTERRUPTED = 130

_PROGRESS_INTERVAL = 5.0  # seconds between progress lines on stderr


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    ensemble: str
    n_dim: int
    bandwidth: float | None      # resolved W (None for gue)
    theta: float | None          # set when bandwidth came from the exponent rule
    lambda0: float
    xi_grid: list[tuple[float, float]]
    samples: int
    seed: int
    threads: int
    out: str
    # spectrum-only knobs
    bins: int = 120
    lambda_min: float = -3.0
    lambda_max: float = 3.0
    ks_points: int = 2001


def _parse_kv_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, val = line.split("=", 1)
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _parse_xi_grid(text: str) -> list[tuple[float, float]]:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"xi_grid entry {chunk!r} is not 'xi1,xi2'")
        pairs.append((float(parts[0]), float(parts[1])))
    if not pairs:
        raise ConfigError("xi_grid is empty")
    return pairs


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    raw = _parse_kv_file(args.config) if args.config else {}

    def pick(key, default=None):
        return raw.get(key, default)

    try:
        ensemble = str(pick("ensemble", "band")).lower()
        if ensemble not in ("band", "gue"):
            raise ConfigError(f"ensemble must be 'band' or 'gue', got {ensemble!r}")
        n_dim = int(pick("n_dim", 0))
        if n_dim < 1:
            raise ConfigError("n_dim must be a positive integer")
        theta = None
        bandwidth = None
        if ensemble == "band":
            has_w = "bandwidth" in raw
            has_theta = "theta" in raw
            if has_w == has_theta:
                raise ConfigError("band ensemble needs exactly one of bandwidth / theta")
            if has_w:
                bandwidth = float(raw["bandwidth"])
                if not bandwidth > 0:
                    raise ConfigError("bandwidth must be positive")
            else:
                theta = float(raw["theta"])
                if not 0.0 < theta <= 1.0:
                    raise ConfigError("theta must lie in (0, 1]")
                bandwidth = float(round(n_dim ** ((1.0 + theta) / 2.0)))
        lambda0 = float(pick("lambda0", "0"))
        if not abs(lambda0) < 2.0:
            raise ConfigError("lambda0 must lie strictly inside (-2, 2)")
        xi_grid = _parse_xi_grid(pick("xi_grid", "0,0"))
        samples = int(args.samples if args.samples is not None else pick("samples", 10000))
        if samples < 2:
            raise ConfigError("samples must be >= 2")
        seed = int(args.seed if args.seed is not None else pick("seed", 1))
        if not 0 <= seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")
        env_threads = os.environ.get("BANDMOMENT_THREADS")
        if args.threads is not None:
            threads = int(args.threads)
        elif "threads" in raw:
            threads = int(raw["threads"])
        elif env_threads:
            threads = int(env_threads)
        else:
            threads = 1
        if threads < 1:
            raise ConfigError("threads must be >= 1")
        out = args.out if args.out is not None else pick("out")
        if out is None:
            raise ConfigError("output path required (config key 'out' or flag --out)")
        cfg = ExperimentConfig(
            ensemble=ensemble, n_dim=n_dim, bandwidth=bandwidth, theta=theta,
            lambda0=lambda0, xi_grid=xi_grid, samples=samples, seed=seed,
            threads=threads, out=str(out),
            bins=int(pick("bins", 120)),
            lambda_min=float(pick("lambda_min", -3.0)),
            lambda_max=float(pick("lambda_max", 3.0)),
            ks_points=int(pick("ks_points", 2001)),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.bins < 2 or cfg.ks_points < 10 or not cfg.lambda_min < cfg.lambda_max:
        raise ConfigError("invalid spectrum grid settings")
    return cfg


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


class _CsvWriter:
    """Comma-separated output with '#' metadata lines; '-' writes to stdout."""

    def __init__(self, path: str):
        self.path = path
        self._fh = sys.stdout if path == "-" else open(path, "w", encoding="utf-8", newline="\n")

    def comment(self, text: str):
        self._fh.write(f"# {text}\n")

    def row(self, cells):
        self._fh.write(",".join(_fmt(c) for c in cells) + "\n")

    def close(self):
        if self._fh is not sys.stdout:
            self._fh.close()
        else:
            self._fh.flush()


class _Progress:
    def __init__(self, label: str, total: int, quiet: bool):
        self.label = label
        self.total = total
        self.quiet = quiet
        self.done = 0
        self.last = time.monotonic()
        self._lock = threading.Lock()  # callers may step from any thread

    def step(self, amount: int = 1):
        with self._lock:
            self.done += amount
            now = time.monotonic()
            if not self.quiet and now - self.last >= _PROGRESS_INTERVAL:
                self.last = now
                print(f"{self.label}: {self.done}/{self.total}", file=sys.stderr)


def cmd_moment_scan(cfg: ExperimentConfig, quiet: bool) -> int:
    writer = _CsvWriter(cfg.out)
    bandwidth_out = cfg.bandwidth if cfg.bandwidth is not None else math.inf
    writer.comment("bandmoment moment-scan")
    writer.comment(f"ensemble={cfg.ensemble} lambda0={_fmt(cfg.lambda0)}")
    if cfg.theta is not None:
        writer.comment(f"bandwidth_rule=round(n_dim^((1+theta)/2)) theta={_fmt(cfg.theta)} "
                       f"bandwidth={_fmt(cfg.bandwidth)}")
    writer.row(["xi1", "xi2", "ratio", "stderr", "sine_ref", "deviation",
                "n_dim", "bandwidth", "samples", "seed"])
    progress = _Progress("moment-scan", cfg.samples, quiet)
    try:
        results = moments.moment_scan(
            cfg.ensemble, cfg.n_dim, cfg.bandwidth, cfg.lambda0, cfg.xi_grid,
            cfg.samples, cfg.seed, threads=cfg.threads,
            progress=lambda done, total: progress.step(done - progress.done))
        for r in results:
            writer.row([r.params.xi1, r.params.xi2, r.ratio, r.stderr, r.sine_ref,
                        r.deviation, cfg.n_dim, bandwidth_out, cfg.samples, cfg.seed])
    except KeyboardInterrupt:
        writer.comment("INCOMPLETE")
        print("interrupted; partial CSV flushed", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        writer.close()
    if not quiet:
        print(f"moment-scan: {len(cfg.xi_grid)} rows -> {cfg.out}")
    return EXIT_OK


def _spectrum_counts(cfg: ExperimentConfig, edges: np.ndarray, progress: _Progress) -> np.ndarray:
    """Pooled eigenvalue counts below each edge, summed over all samples.

    Each task reduces a run of consecutive samples and counts them as one
    stack: one sample at n = 4 takes ~170 us, too little to pay for handing it
    to a worker, and a Sturm count per sample is mostly interpreter overhead,
    which two threads only contend for.  A run holds about 2^16 matrix entries
    and at most 2^18 pivots per step of the count (2 MB), and there are at
    least 4 runs per thread, so the threads share the work and an error or
    Ctrl-C stops it early.  Every sample is still keyed by its own index and
    counted on its own row, and the counts are integers, so the result does
    not depend on the run length.
    """
    profile = (covariance_profile(Lattice1D(cfg.n_dim), cfg.bandwidth)
               if cfg.ensemble == "band" else sampler.gue_profile(cfg.n_dim))
    run = max(1, min(2 ** 16 // cfg.n_dim ** 2, 2 ** 18 // len(edges),
                     cfg.samples // (4 * cfg.threads)))

    def count_run(start: int) -> np.ndarray:
        d, e = zip(*(moments.tridiagonal_block(profile, cfg.seed, i, 1)
                     for i in range(start, min(start + run, cfg.samples))))
        return charpoly.count_below_many(np.concatenate(d), np.concatenate(e) ** 2,
                                         edges).sum(axis=0)

    pooled = np.zeros(len(edges), dtype=np.int64)

    def add(start: int, counts: np.ndarray):
        np.add(pooled, counts, out=pooled)
        progress.step(min(run, cfg.samples - start))

    moments._run_ordered(count_run, range(0, cfg.samples, run), cfg.threads, add)
    return pooled


def cmd_spectrum(cfg: ExperimentConfig, quiet: bool) -> int:
    bin_edges = np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.bins + 1)
    ks_grid = np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.ks_points)
    edges = np.concatenate([bin_edges, ks_grid])
    progress = _Progress("spectrum", cfg.samples, quiet)
    try:
        pooled = _spectrum_counts(cfg, edges, progress)
    except KeyboardInterrupt:
        print("interrupted before any output", file=sys.stderr)
        return EXIT_INTERRUPTED
    total = cfg.samples * cfg.n_dim
    cdf_bins = pooled[: len(bin_edges)] / total
    cdf_ks = pooled[len(bin_edges):] / total
    ks_distance = float(np.abs(cdf_ks - semicircle_cdf(ks_grid)).max())
    mass = np.diff(cdf_bins)
    ref_cdf = semicircle_cdf(bin_edges)
    ref_mass = np.diff(ref_cdf)

    writer = _CsvWriter(cfg.out)
    writer.comment("bandmoment spectrum")
    writer.comment(f"ensemble={cfg.ensemble} n_dim={cfg.n_dim} "
                   f"bandwidth={_fmt(cfg.bandwidth if cfg.bandwidth is not None else math.inf)} "
                   f"samples={cfg.samples} seed={cfg.seed}")
    writer.row(["bin_lo", "bin_hi", "mass", "semicircle_mass"])
    for i in range(cfg.bins):
        writer.row([float(bin_edges[i]), float(bin_edges[i + 1]),
                    float(mass[i]), float(ref_mass[i])])
    writer.comment(f"mass_total={_fmt(float(mass.sum()))}")
    writer.comment(f"ks_distance={_fmt(ks_distance)}")
    writer.close()
    if not quiet:
        print(f"spectrum: KS distance {ks_distance:.5f} -> {cfg.out}")
    return EXIT_OK


def cmd_verify(suite: str, quiet: bool) -> int:
    names = list(verify.SUITES) if suite == "all" else [suite]
    echo = (lambda *_: None) if quiet else print
    ok = verify.run_suites(names, echo=echo)
    if not ok and quiet:
        print("verify: FAILED", file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _make_parser() -> argparse.ArgumentParser:
    quiet_parent = argparse.ArgumentParser(add_help=False)
    # SUPPRESS so a subparser never clobbers a --quiet given before the subcommand
    quiet_parent.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                              help="suppress progress and stdout summaries")
    p = argparse.ArgumentParser(
        prog="bandmoment",
        parents=[quiet_parent],
        description="Monte Carlo laboratory for band-matrix characteristic-polynomial moments")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--seed", type=int, default=None, help="64-bit master seed override")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: BANDMOMENT_THREADS or 1)")
        sp.add_argument("--samples", type=int, default=None, help="sample count override")
        sp.add_argument("--out", default=None, help="output CSV path ('-' for stdout)")

    add_common(sub.add_parser("moment-scan", parents=[quiet_parent],
                              help="ratio-vs-sine scan over a xi grid"))
    add_common(sub.add_parser("spectrum", parents=[quiet_parent],
                              help="pooled eigenvalue histogram vs semicircle"))
    v = sub.add_parser("verify", parents=[quiet_parent], help="run a named invariant suite")
    v.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    return p


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    args.quiet = bool(getattr(args, "quiet", False))
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.quiet)
        cfg = build_config(args)
        if args.command == "moment-scan":
            return cmd_moment_scan(cfg, args.quiet)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, args.quiet)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except moments.EstimatorError as exc:
        print(f"estimator failure: {exc}", file=sys.stderr)
        return EXIT_ESTIMATOR


if __name__ == "__main__":
    sys.exit(main())
