"""Which bandmoment attributes are wrapped, and the per-layer metrics a traced unit yields.

Layer names follow the package modules.  `saddle`, `unitary`, `dualrep` and
`verify` are on no hot path and are not timed.  A layer that does not run on
a workload reports 0 (for example `charpoly.tridiagonalize.*` on oracle_n3,
where every n <= 8 block takes the batched Householder path).
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import Tracer

__all__ = ["COMPUTED", "PER_LAYER", "Tracer", "aggregates", "install", "summarize",
           "unit_metrics"]

# (name, unit, better); BENCHMARK.json lists the same metrics in the same order
PER_LAYER = (
    ("lattice.covariance_profile.s", "s", "lower"),
    ("sampler.sample_batch.s", "s", "lower"),
    ("sampler.sample_rbm.s", "s", "lower"),
    ("sampler.normals_used_ratio", "ratio", "higher"),
    ("sampler.block_mb", "MB", "lower"),
    ("charpoly.tridiagonalize.s", "s", "lower"),
    ("charpoly.tridiagonalize.calls", "count", "lower"),
    ("charpoly.tridiagonalize.us_p50", "us", "lower"),
    ("charpoly.tridiagonalize.us_p99", "us", "lower"),
    ("charpoly.tridiagonalize_batch.s", "s", "lower"),
    ("charpoly.char_det_many.s", "s", "lower"),
    ("charpoly.char_det_many.evals", "count", "lower"),
    ("charpoly.count_below_many.s", "s", "lower"),
    ("charpoly.count_below_many.evals", "count", "lower"),
    ("moments.det_log_samples.self_s", "s", "lower"),
    ("moments.reduce.s", "s", "lower"),
    ("moments.rejected_frac", "ratio", "lower"),
    ("moments.ess_ratio", "ratio", "higher"),
    ("moments.stderr2_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("proc.cpu_per_wall", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# values derived from argument/result shapes or from the library's outputs, not timed
COMPUTED = {
    "sampler.normals_used_ratio": "array shapes: n^2 normals used of the 2 n^2 drawn per matrix",
    "sampler.block_mb": "array shapes: bytes of the largest sample stack returned",
    "charpoly.char_det_many.evals": "array shapes: matrices x lambdas per call",
    "charpoly.count_below_many.evals": "array shapes: matrices x lambdas per call",
    "moments.rejected_frac": "outputs: rejected / (kept + rejected) rows",
    "moments.ess_ratio": "outputs: min over lambda of ESS(det^2 weights) / samples",
}


def _normals(tr, args, kwargs, H):
    count, n = (H.shape[0], H.shape[-1]) if H.ndim == 3 else (1, H.shape[-1])
    tr.counts["normals_drawn"] += 2 * count * n * n
    tr.counts["normals_used"] += count * n * n
    tr.counts["block_mb"] = max(tr.counts["block_mb"], H.nbytes / 2**20)


def _evals(key):
    def observe(tr, args, kwargs, result):
        tr.counts[key] += np.atleast_2d(args[0]).shape[0] * np.size(args[2])
    return observe


def _keep_output(tr, args, kwargs, dets):
    tr.outputs["dets"].append(dets)


def install() -> Tracer:
    """Wrap every attribute the library calls its layers through; returns the tracer."""
    from bandmoment import charpoly, cli, moments, sampler

    tr = Tracer()
    # entry points the workloads call; their self time is the reduction / CLI glue
    tr.install(moments, "moment_scan", "moments.moment_scan")
    tr.install(moments, "mc_f2", "moments.mc_f2")
    tr.install(cli, "main", "cli.main")
    tr.install(moments, "det_log_samples", "moments.det_log_samples", observe=_keep_output)
    # bound by name in both modules
    tr.install(moments, "covariance_profile", "lattice.covariance_profile")
    tr.install(cli, "covariance_profile", "lattice.covariance_profile")
    tr.install(sampler, "sample_batch", "sampler.sample_batch", observe=_normals)
    tr.install(sampler, "sample_rbm", "sampler.sample_rbm", aggregate=True, observe=_normals)
    tr.install(charpoly, "tridiagonalize", "charpoly.tridiagonalize", aggregate=True)
    tr.install(charpoly, "tridiagonalize_batch", "charpoly.tridiagonalize_batch")
    tr.install(charpoly, "char_det_many", "charpoly.char_det_many",
               observe=_evals("char_det_evals"))
    tr.install(charpoly, "count_below_many", "charpoly.count_below_many", aggregate=True,
               observe=_evals("count_below_evals"))
    return tr


def _ess_ratio(dets) -> float:
    lw = 2.0 * dets.logmags
    w = np.exp(lw - lw.max(axis=0))
    ess = w.sum(axis=0) ** 2 / (w * w).sum(axis=0)
    return float((ess / lw.shape[0]).min())


def unit_metrics(tr: Tracer, unit, per_call_s: float) -> dict:
    """Per-layer figures of the unit just run; resets the tracer's per-unit state."""
    t, s, c, k = tr.total_s, tr.self_s, tr.calls, tr.counts
    dets = tr.outputs["dets"]
    kept = sum(d.signs.shape[0] for d in dets)
    rejected = sum(d.rejected for d in dets)
    m = {
        "lattice.covariance_profile.s": t["lattice.covariance_profile"],
        "sampler.sample_batch.s": t["sampler.sample_batch"],
        "sampler.sample_rbm.s": t["sampler.sample_rbm"],
        "sampler.normals_used_ratio": (k["normals_used"] / k["normals_drawn"]
                                       if k["normals_drawn"] else 0.0),
        "sampler.block_mb": k["block_mb"],
        "charpoly.tridiagonalize.s": t["charpoly.tridiagonalize"],
        "charpoly.tridiagonalize.calls": c["charpoly.tridiagonalize"],
        "charpoly.tridiagonalize_batch.s": t["charpoly.tridiagonalize_batch"],
        "charpoly.char_det_many.s": t["charpoly.char_det_many"],
        "charpoly.char_det_many.evals": k["char_det_evals"],
        "charpoly.count_below_many.s": t["charpoly.count_below_many"],
        "charpoly.count_below_many.evals": k["count_below_evals"],
        "moments.det_log_samples.self_s": s["moments.det_log_samples"],
        "moments.reduce.s": s["moments.moment_scan"] + s["moments.mc_f2"],
        "moments.rejected_frac": rejected / (kept + rejected) if dets else 0.0,
        "moments.ess_ratio": min(_ess_ratio(d) for d in dets) if dets else 0.0,
        "moments.stderr2_s": unit.wall_s * unit.error ** 2 if dets else 0.0,
        "cli.self_s": s["cli.main"],
        "proc.cpu_per_wall": unit.cpu_s / unit.wall_s,
        "trace.wall_s": unit.wall_s,
        "trace.unattributed_s": unit.wall_s - sum(s.values()),
        "trace.overhead_s": per_call_s * sum(c.values()),
        "self_s": dict(s),
    }
    tr.reset_unit()
    return m


def aggregates(tr: Tracer) -> dict:
    """Per-sample calls pooled over all units: count, total and percentiles."""
    out = {}
    for name, d in tr.durations.items():
        q = statistics.quantiles(d, n=100) if len(d) >= 2 else [d[0]] * 99
        out[name] = {"calls": len(d), "total_s": sum(d), "us_p50": q[49] * 1e6,
                     "us_p99": q[98] * 1e6}
    return out


def summarize(tr: Tracer, per_unit: list[dict]) -> dict:
    """Median over units of every per-layer metric; call percentiles pooled over units."""
    tri = aggregates(tr).get("charpoly.tridiagonalize", {"us_p50": 0.0, "us_p99": 0.0})
    pooled = {"charpoly.tridiagonalize.us_p50": tri["us_p50"],
              "charpoly.tridiagonalize.us_p99": tri["us_p99"]}
    out = {}
    for name, unit, _ in PER_LAYER:
        value = pooled[name] if name in pooled else statistics.median(m[name] for m in per_unit)
        out[name] = (float(value), unit)
    return out
