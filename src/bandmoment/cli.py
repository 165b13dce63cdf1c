"""Command-line orchestration: moment scans, verification suites, spectrum checks.

Subcommands
-----------
moment-scan   ratio-vs-sine scan over a xi grid, CSV output
verify        named invariant suite (lattice|saddle|unitary|oracle|dual|exact|all)
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
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import moments, sampler, verify
from .lattice import BandwidthError, Lattice1D, covariance_profile
from .saddle import semicircle_cdf

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_ESTIMATOR = 3
EXIT_INTERRUPTED = 130

_PROGRESS_INTERVAL = 5.0  # seconds between progress lines on stderr


class ConfigError(ValueError):
    pass


def _key(parse, check, rule: str, default: str | None = None):
    """Declare the config key of an ExperimentConfig field.

    A value is `parse(text)` and must pass `check`; `rule` says what passes,
    for the error message.  `default` is config text, parsed like a value from
    the file; None leaves the key unset.
    """
    return field(metadata={"parse": parse, "check": check, "rule": rule, "default": default})


def _xi_pairs(text: str) -> list[tuple[float, float]]:
    return [tuple(map(float, chunk.split(","))) for chunk in text.split(";") if chunk.strip()]


@dataclass
class ExperimentConfig:
    """One run's settings; each field is the config key of its name, declared once."""

    ensemble: str = _key(str.lower, lambda v: v in ("band", "gue"), "'band' or 'gue'", "band")
    n_dim: int = _key(int, lambda v: v >= 1, "a positive integer")
    # band takes exactly one of the two; bandwidth is then the resolved W (None for
    # gue), and theta is set when W came from the exponent rule
    bandwidth: float | None = _key(float, lambda v: v > 0 and math.isfinite(v * v),
                                   "positive, with a finite square")
    theta: float | None = _key(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
    lambda0: float = _key(float, lambda v: abs(v) < 2.0, "strictly inside (-2, 2)", "0")
    xi_grid: list[tuple[float, float]] = _key(
        _xi_pairs, lambda v: v and all(len(p) == 2 and all(map(math.isfinite, p)) for p in v),
        "finite 'xi1,xi2' pairs separated by ';'", "0,0")
    samples: int = _key(int, lambda v: v >= 2, "an integer >= 2", "10000")
    seed: int = _key(int, lambda v: 0 <= v < 2 ** 64, "an integer in [0, 2^64)", "1")
    # unset: both commands run on the usable CPUs
    threads: int | None = _key(int, lambda v: v >= 1, "a positive integer")
    out: str = _key(str, bool, "a path ('-' for stdout)")
    # spectrum-only knobs
    bins: int = _key(int, lambda v: v >= 2, "an integer >= 2", "120")
    lambda_min: float = _key(float, math.isfinite, "finite", "-3")
    lambda_max: float = _key(float, math.isfinite, "finite", "3")
    ks_points: int = _key(int, lambda v: v >= 10, "an integer >= 10", "2001")


def _parse_kv_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                if key in lines:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} is already set on line "
                                      f"{lines[key]}")
                lines[key] = lineno
                values[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Parse, default and check every key in one pass over the declarations.

    A key comes from its flag (--samples, --seed, --threads, --out), else the
    config file, else BANDMOMENT_THREADS (threads only), else its default.
    Keys the file names but no field declares are an error.
    """
    raw = _parse_kv_file(args.config) if args.config else {}
    decls = {f.name: f.metadata for f in fields(ExperimentConfig)}
    unknown = sorted(set(raw) - set(decls))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    if os.environ.get("BANDMOMENT_THREADS"):
        raw.setdefault("threads", os.environ["BANDMOMENT_THREADS"])
    raw.update((key, str(getattr(args, key))) for key in ("samples", "seed", "threads", "out")
               if getattr(args, key) is not None)
    vals = {}
    for key, decl in decls.items():
        text = raw.get(key, decl["default"])
        try:
            vals[key] = None if text is None else decl["parse"](text)
            ok = text is None or decl["check"](vals[key])
        except (ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigError(f"{key} must be {decl['rule']}, got {text!r}")
    missing = [key for key in ("n_dim", "out") if vals[key] is None]
    if missing:
        raise ConfigError(f"required key(s) not set: {', '.join(missing)}")
    if vals["n_dim"] ** 2 >= 2 ** 59:  # 16 bytes per entry, at most 2^63 addressable bytes
        raise ConfigError("n_dim is too large: numpy cannot address an n_dim x n_dim "
                          "complex matrix")
    if vals["ensemble"] == "gue":
        vals["bandwidth"] = vals["theta"] = None
    elif (vals["bandwidth"] is None) == (vals["theta"] is None):
        raise ConfigError("band ensemble needs exactly one of bandwidth / theta")
    elif vals["theta"] is not None:
        vals["bandwidth"] = float(round(vals["n_dim"] ** ((1.0 + vals["theta"]) / 2.0)))
    if not 0.0 < vals["lambda_max"] - vals["lambda_min"] < math.inf:
        raise ConfigError("lambda_min must lie below lambda_max, by a finite width")
    return ExperimentConfig(**vals)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


class _CsvWriter:
    """Comma-separated output with '#' metadata lines; '-' writes to stdout.

    As a context manager it closes the output, after a `# INCOMPLETE` trailer
    if the run was interrupted or ran out of memory; `main` reports the error.
    """

    def __init__(self, path: str):
        try:
            self._fh = (sys.stdout if path == "-"
                        else open(path, "w", encoding="utf-8", newline="\n"))
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc

    def comment(self, text: str):
        self._fh.write(f"# {text}\n")

    def row(self, cells):
        self._fh.write(",".join(_fmt(c) for c in cells) + "\n")

    def close(self):
        if self._fh is not sys.stdout:
            self._fh.close()
        else:
            self._fh.flush()

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, (KeyboardInterrupt, MemoryError)):
            self.comment("INCOMPLETE")  # main reports it (exit 130 or 2)
            if kind is KeyboardInterrupt:
                print("interrupted; partial CSV flushed", file=sys.stderr)
        self.close()


class _Progress:
    """A `progress(done, total)` callback: `label: done/total` on stderr, at most
    every _PROGRESS_INTERVAL seconds.  The library makes one call at a time."""

    def __init__(self, label: str, quiet: bool):
        self.label, self.quiet = label, quiet
        self.last = time.monotonic()

    def __call__(self, done: int, total: int):
        now = time.monotonic()
        if not self.quiet and now - self.last >= _PROGRESS_INTERVAL:
            self.last = now
            print(f"{self.label}: {done}/{total}", file=sys.stderr)


def _profile(cfg: ExperimentConfig):
    """The run's variance profile, built before the CSV opens: a bandwidth too
    large for n_dim then fails with no output file."""
    if cfg.ensemble == "band":
        return covariance_profile(Lattice1D(cfg.n_dim), cfg.bandwidth)
    return sampler.gue_profile(cfg.n_dim)


def cmd_moment_scan(cfg: ExperimentConfig, quiet: bool) -> int:
    bandwidth_out = cfg.bandwidth if cfg.bandwidth is not None else math.inf
    _profile(cfg)  # the library builds it again from (ensemble, n_dim, bandwidth)
    with _CsvWriter(cfg.out) as writer:
        writer.comment("bandmoment moment-scan")
        writer.comment(f"ensemble={cfg.ensemble} lambda0={_fmt(cfg.lambda0)}")
        if cfg.theta is not None:
            writer.comment(f"bandwidth_rule=round(n_dim^((1+theta)/2)) "
                           f"theta={_fmt(cfg.theta)} bandwidth={_fmt(cfg.bandwidth)}")
        writer.row(["xi1", "xi2", "ratio", "stderr", "sine_ref", "deviation",
                    "n_dim", "bandwidth", "samples", "seed"])
        results = moments.moment_scan(
            cfg.ensemble, cfg.n_dim, cfg.bandwidth, cfg.lambda0, cfg.xi_grid,
            cfg.samples, cfg.seed, threads=cfg.threads,
            progress=_Progress("moment-scan", quiet))
        for r in results:
            writer.row([r.params.xi1, r.params.xi2, r.ratio, r.stderr, r.sine_ref,
                        r.deviation, cfg.n_dim, bandwidth_out, cfg.samples, cfg.seed])
        writer.comment(f"samples_used={results[0].samples} rejected={results[0].rejected}")
    if not quiet:
        print(f"moment-scan: {len(cfg.xi_grid)} rows -> {cfg.out}", file=sys.stderr)
    return EXIT_OK


def cmd_spectrum(cfg: ExperimentConfig, quiet: bool) -> int:
    bin_edges = np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.bins + 1)
    ks_grid = np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.ks_points)
    edges = np.concatenate([bin_edges, ks_grid])
    profile = _profile(cfg)
    with _CsvWriter(cfg.out) as writer:
        writer.comment("bandmoment spectrum")
        writer.comment(f"ensemble={cfg.ensemble} n_dim={cfg.n_dim} bandwidth="
                       f"{_fmt(cfg.bandwidth if cfg.bandwidth is not None else math.inf)} "
                       f"samples={cfg.samples} seed={cfg.seed}")
        writer.row(["bin_lo", "bin_hi", "mass", "semicircle_mass"])
        counts = moments.spectrum_counts(profile, edges, cfg.samples, cfg.seed, cfg.threads,
                                         _Progress("spectrum", quiet))
        cdf = counts / (cfg.samples * cfg.n_dim)
        ks_distance = float(np.abs(cdf[len(bin_edges):] - semicircle_cdf(ks_grid)).max())
        mass = np.diff(cdf[:len(bin_edges)])
        ref_mass = np.diff(semicircle_cdf(bin_edges))
        for i in range(cfg.bins):
            writer.row([float(bin_edges[i]), float(bin_edges[i + 1]),
                        float(mass[i]), float(ref_mass[i])])
        writer.comment(f"mass_total={_fmt(float(mass.sum()))}")
        writer.comment(f"ks_distance={_fmt(ks_distance)}")
    if not quiet:
        print(f"spectrum: KS distance {ks_distance:.5f} -> {cfg.out}", file=sys.stderr)
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
                              help="suppress the progress and summary lines on stderr, "
                                   "and verify's check lines")
    p = argparse.ArgumentParser(
        prog="bandmoment",
        parents=[quiet_parent],
        description="Monte Carlo laboratory for band-matrix characteristic-polynomial moments")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--seed", type=int, default=None, help="64-bit master seed override")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: BANDMOMENT_THREADS, else the usable "
                             "CPUs)")
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
        command = cmd_moment_scan if args.command == "moment-scan" else cmd_spectrum
        return command(build_config(args), args.quiet)
    except (ConfigError, BandwidthError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except moments.EstimatorError as exc:
        print(f"estimator failure: {exc}", file=sys.stderr)
        return EXIT_ESTIMATOR
    except MemoryError as exc:
        print(f"invalid config: the run does not fit in memory; lower n_dim or samples "
              f"({exc})", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
