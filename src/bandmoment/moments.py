"""Monte Carlo estimation of the second mixed moment of characteristic polynomials.

For an ensemble sample H the quantity of interest is

    F2(l1, l2) = E[ det(l1 - H) det(l2 - H) ],

normalized by the geometric mean D2 = sqrt(F2(l1,l1)) sqrt(F2(l2,l2)) and
compared against the sine-kernel curve in the bulk scaling limit.  Per-sample
determinants are kept in signed-log form: an int8 sign and a float64 log
magnitude per sample and lambda, 9 bytes, in lambda-major tables (one row
of samples per lambda, `DetLogSamples`).  A pair (l_a, l_b) is reduced in
its own float64 vector of weights det_a det_b / exp(M), shifted by the pair's
maximum log magnitude M (`_weights`), so sums of weights stay in double range
however large the determinants are.  `mc_f2` estimates single moments as the
mean of one pair's weights; `moment_scan` estimates the normalized moment at
each pair of a grid, with numerator and both denominator factors from one
sample set, and errors by leave-one-block-out jackknife over 50 fixed blocks
(one per sample below 50 samples).  `spectrum_counts` pools eigenvalue counts
over samples for the spectrum.

Up to n = _SMALL_N_BATCH a scan's samples come in fixed 4096-sample blocks,
each keyed by its start index, and a run is one or two blocks sampled and
reduced as one stack (`_stack_reducer`); above it, and in a spectrum at every
n, each sample is keyed by its own index, so no bit depends on which thread
runs a block or a sample, or in what order.  Both commands run one worker
loop (`_sample_runs`): each worker claims the next run of samples in order
from one locked counter (`_Claims`), which also counts finished work for
`progress`, reduces the run to tridiagonal form and hands it on.  Above
n = _SMALL_N_BATCH a run is written into a slab of the worker's own and
reduced there in place by LAPACK (`_slab_reducer`).

The exact Isserlis-pairing oracle (dimension <= 3) the Monte Carlo path is
validated against lives in `exact`; `wick_exact_f2` here calls it.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import charpoly, sampler
from .lattice import CovarianceProfile, Lattice1D, covariance_profile
from .saddle import SpectralParams, scaled_lambdas, sine_kernel

_CHUNK = 4096          # samples per keyed block up to n = _SMALL_N_BATCH; a run is 1 or 2 blocks
_JACKKNIFE_BLOCKS = 50
_SMALL_N_BATCH = 8     # up to and including this n the vectorized Householder path is used


class EstimatorError(RuntimeError):
    """Raised when a Monte Carlo estimate is unusable (variance, rejection, sign)."""


@dataclass
class MomentEstimate:
    """Monte Carlo estimate of a single moment.

    `value`/`stderr` are plain floats, inf (or 0.0) once outside double range;
    `sign`, `log_abs_value` and `log_abs_stderr` carry the same estimate in
    log form and are always valid.
    """

    value: float
    stderr: float
    samples: int
    sign: int
    log_abs_value: float
    log_abs_stderr: float
    rejected: int = 0


@dataclass
class RatioResult:
    """Sine-kernel comparison of the normalized moment at one xi pair."""

    params: SpectralParams
    ratio: float
    stderr: float
    sine_ref: float
    deviation: float
    samples: int
    rejected: int = 0


def wick_exact_f2(n: int, lambda1: float, lambda2: float,
                  profile: CovarianceProfile) -> float:
    """`exact.wick_exact_f2(lambda1, lambda2, profile)`, for n = profile.size <= 3.

    Kept with its size argument for the callers that pass it; `exact` is
    imported on the first call, so the package does not load it.
    """
    from . import exact

    if profile.size != n:
        raise ValueError("profile size does not match n")
    return exact.wick_exact_f2(lambda1, lambda2, profile)


# ---------------------------------------------------------------------------
# shared-sample determinant evaluation
# ---------------------------------------------------------------------------

@dataclass
class DetLogSamples:
    """Per-sample signed-log determinants at each requested lambda.

    signs (int8, in {-1, 0, +1}) and logmags (float64, -inf where the
    determinant is exactly zero) have shape (samples, len(lambdas)) and are
    transposes of lambda-major arrays, so a lambda's column is contiguous.
    Rejected samples (a NaN or +inf log) are removed but counted.
    """

    lambdas: np.ndarray
    signs: np.ndarray
    logmags: np.ndarray
    rejected: int


class _Claims:
    """Consecutive ranges of range(total), `step` long (the last may be shorter),
    handed out in order under one lock; `close` makes every later claim None.

    `finish(k)` counts k finished items and calls `progress(done, total)`
    under the same lock, so the calls never overlap and the count they report
    only grows.
    """

    def __init__(self, total: int, step: int, progress=None):
        self.total, self.step, self._progress = total, step, progress
        self._next = self._done = 0
        self._lock = threading.Lock()

    def claim(self) -> range | None:
        with self._lock:
            first = self._next
            self._next = min(first + self.step, self.total)
            return None if first == self._next else range(first, self._next)

    def finish(self, count: int) -> None:
        with self._lock:
            self._done += count
            if self._progress is not None:
                self._progress(self._done, self.total)

    def close(self) -> None:
        with self._lock:
            self._next = self.total


def _run_workers(work, threads: int, stop) -> None:
    """Run work(0) on the calling thread and work(1), ..., work(threads - 1) on helper threads.

    An exception on any worker, Ctrl-C on the calling thread included, calls
    `stop`, which must make the other workers return at their next claim.
    Every helper is joined before this returns or raises; an exception on the
    calling thread wins, else the first from a helper is re-raised.
    """
    errors = []

    def helper(i):
        try:
            work(i)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)
            stop()

    helpers = []
    try:
        for i in range(1, threads):
            t = threading.Thread(target=helper, args=(i,), daemon=True)
            t.start()
            helpers.append(t)
        work(0)
    except BaseException:
        stop()
        raise
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]


def _sample_runs(samples: int, step: int, threads: int, progress, reducer, consume) -> None:
    """Hand range(samples) out in runs of `step` to up to `threads` workers.

    Each worker makes its own `reduce = reducer()` and, for each run it
    claims, calls `consume(worker, run, *reduce(run))` with the run's
    tridiagonal forms d and e, then counts the run for `progress(done,
    total)`.  An error or Ctrl-C on any worker closes the claims, so the
    others stop after their current run, and is re-raised here.
    """
    claims = _Claims(samples, step, progress)

    def work(i):
        reduce = reducer()
        while (run := claims.claim()) is not None:
            consume(i, run, *reduce(run))
            claims.finish(len(run))

    _run_workers(work, min(threads, -(-samples // step)), claims.close)


def _run_length(entries: int, samples: int, threads: int, points: int) -> int:
    """Samples per run of keyed samples that each hold `entries` values: at most
    2^16 such values and 2^18 (sample, point) values, and at least 4 runs per thread."""
    return max(1, min(2 ** 16 // entries, 2 ** 18 // points, samples // (4 * threads)))


def _block_run(n: int, samples: int, threads: int) -> int:
    """Samples per run up to n = _SMALL_N_BATCH: two keyed blocks while n <= 4 (at most 2^17
    matrix entries) and there are at least 4 such runs per thread, else one."""
    return (2 if n <= 4 and samples >= 8 * threads * _CHUNK else 1) * _CHUNK


def _slab_reducer(profile: CovarianceProfile, seed: int, step: int):
    """One worker's reduction of runs of at most `step` samples, sample b keyed by RngStream(seed, b).

    The worker holds one slab of about 2^16 matrix entries and the normals its
    samples are drawn from (`sampler.write_samples`), reusing one Philox for
    every sample (`sampler.keyed`).  A run goes through the slab a part at a
    time.  Each row of the slab is a Fortran-ordered matrix, so LAPACK
    reduces it where it lies.  The run's tridiagonal forms are kept whole,
    because evaluating them costs a fixed overhead per call (about 1 ms at
    n = 64) that a slab of 16 samples would not amortize.  Returns
    reduce(run) -> (d, e), views of the worker's arrays that the next run
    overwrites.
    """
    n = profile.size
    rows = max(1, min(step, 2 ** 16 // n ** 2))
    key = sampler.keyed(seed)
    slab = np.zeros((rows, n * n), dtype=complex)
    z = np.empty((rows, min(n * n, sampler._DRAW_PIECE)))
    d, e = np.empty((step, n)), np.empty((step, n - 1))

    def reduce(run):
        for first in range(0, len(run), rows):
            part = run[first:first + rows]
            sampler.write_samples(profile, key, part, slab, z)
            for j in range(len(part)):
                d[first + j], e[first + j] = charpoly.tridiagonalize(slab[j].reshape(n, n).T,
                                                                     overwrite_a=True)
        return d[:len(run)], e[:len(run)]

    return reduce


def _stack_reducer(profile: CovarianceProfile, seed: int, step: int):
    """One worker's reduction of runs of `step` samples or fewer, in whole keyed blocks.

    The samples of the block from s on draw n^2 normals each, one after
    another, from RngStream(seed, s), re-keyed on one Philox (`sampler.keyed`)
    into the block's rows of one (step, n^2) buffer.  The run is one stack
    (`sampler.stack_from_normals`), reduced by the vectorized Householder,
    whose numpy overhead only pays across a stack.  Returns reduce(run) -> (d, e).
    """
    key, z = sampler.keyed(seed), np.empty((step, profile.size ** 2))

    def reduce(run):
        for first in range(0, len(run), _CHUNK):
            key(run.start + first).standard_normal(out=z[first:min(first + _CHUNK, len(run))])
        return charpoly.tridiagonalize_batch(sampler.stack_from_normals(profile, z[:len(run)]))

    return reduce


def _usable_cpus() -> int:
    """The CPUs this process may run on, the default worker count of both sample loops."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def det_log_samples(ensemble: str, n: int, W: float | None, lambdas,
                    samples: int, seed: int, threads: int | None = None,
                    progress=None) -> DetLogSamples:
    """Evaluate det(lambda - H) in signed-log form for `samples` fresh samples.

    Each sample is tridiagonalized once and evaluated at every lambda, and
    each run of samples fills its own columns of the lambda-major tables, so
    the result is bit-identical for any thread count.  `threads` workers
    (default: the usable CPUs) run the runs (`_sample_runs`): up to
    n = _SMALL_N_BATCH one or two keyed 4096-sample blocks as one stack each
    (`_block_run`, `_stack_reducer`), above it from a slab of the worker's
    own (`_slab_reducer`); each run marks its usable samples.  An error or
    Ctrl-C on any worker stops the others after their current run and is
    re-raised here.  `progress(done, total)` is invoked after each
    completed run, under the claim lock, from whichever worker finished it,
    with the samples of all runs completed so far, a count that only grows
    (reporting only; does not affect results).
    """
    if samples < 2:
        raise EstimatorError("need at least 2 samples")
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or len(lambdas) == 0:
        raise ValueError("lambdas must be a nonempty 1-d sequence of reals")
    if ensemble == "band":
        if W is None or not W > 0:
            raise ValueError("band ensemble requires a positive bandwidth W")
        profile = covariance_profile(Lattice1D(n), W)
    elif ensemble == "gue":
        profile = sampler.gue_profile(n)
    else:
        raise ValueError(f"unknown ensemble {ensemble!r}")

    if threads is None:
        threads = _usable_cpus()
    # lambda-major: a run writes, and a pair's weights read, contiguous rows
    signs = np.empty((len(lambdas), samples), dtype=np.int8)
    logs = np.empty((len(lambdas), samples))
    ok = np.empty(samples, dtype=bool)  # usable samples, marked by each run
    if n <= _SMALL_N_BATCH:
        step, make = _block_run(n, samples, threads), _stack_reducer
        sampler._stack_map(profile)  # built here, not by every worker missing the cache at once
    else:
        # a run is bounded by its tridiagonal forms, so one char_det_many call
        # (about 1 ms at n = 64) covers several slabs
        step, make = _run_length(n, samples, threads, len(lambdas)), _slab_reducer
        sampler._upper_entries(profile)  # likewise

    def consume(i, run, d, e):
        s, lg = charpoly.char_det_many(d, e ** 2, lambdas)
        # a NaN sign has a NaN log, so the sample it belongs to is rejected
        with np.errstate(invalid="ignore"):
            np.copyto(signs[:, run.start:run.stop], s.T, casting="unsafe")
        logs[:, run.start:run.stop] = lg.T
        # a sample is usable if every log is either finite or an exact-zero marker (-inf);
        # a NaN or +inf log makes its max fail the comparison
        np.less(lg.max(axis=1), np.inf, out=ok[run.start:run.stop])

    _sample_runs(samples, step, threads, progress, lambda: make(profile, seed, step), consume)

    rejected = samples - int(np.count_nonzero(ok))
    if rejected:
        signs, logs = signs[:, ok], logs[:, ok]
    if signs.shape[1] < 2:
        raise EstimatorError("all samples rejected")
    return DetLogSamples(lambdas, signs.T, logs.T, rejected)


def spectrum_counts(profile: CovarianceProfile, edges: np.ndarray, samples: int, seed: int,
                    threads: int | None = None, progress=None) -> np.ndarray:
    """Eigenvalue counts below each of `edges`, summed over `samples` samples of `profile`.

    Sample b is keyed by RngStream(seed, b), at every n.  Up to `threads`
    workers (default: the usable CPUs) claim runs of consecutive samples
    (`_sample_runs`); each writes a run into a slab of its own, reduces it
    there in place (`_slab_reducer`) and counts it as one stack into totals of
    its own: a Sturm count of one sample is mostly interpreter overhead.  A
    run holds about 2^16 matrix entries and at most 2^18 pivots per step of
    the count (2 MB), and there are at least 4 runs per thread; from n = 257
    a run is one sample, whose normals are drawn in pieces.  The counts are
    integers, so their sum depends neither on the run length nor on
    `threads`.  `progress(done, total)` is called after each run, under the
    claim lock.
    """
    if threads is None:
        threads = _usable_cpus()
    # a run is one slab, so a worker stops within one sample from n = 257
    step = _run_length(profile.size ** 2, samples, threads, len(edges))
    pooled = np.zeros((min(threads, -(-samples // step)), len(edges)), dtype=np.int64)
    sampler._upper_entries(profile)  # built here, not by every worker missing the cache at once

    def consume(i, run, d, e):
        pooled[i] += charpoly.count_below_many(d, e ** 2, edges).sum(axis=0)

    _sample_runs(samples, step, threads, progress,
                 lambda: _slab_reducer(profile, seed, step), consume)
    return pooled.sum(axis=0)


def _weights(dets: DetLogSamples, a: int, b: int) -> tuple[float, np.ndarray]:
    """Shift M and weights u with det_a det_b = exp(M) * u, per sample.

    M is the maximum of log|det_a det_b| over the samples and u a fresh float64
    vector, formed in place, so one pair's weights fit in double range however
    large the determinants are.  When every product is zero, M is -inf and u
    is all zero.
    """
    s = dets.signs[:, a] * dets.signs[:, b]
    with np.errstate(invalid="ignore"):
        u = dets.logmags[:, a] + dets.logmags[:, b]
    np.copyto(u, -np.inf, where=s == 0)
    M = float(np.max(u))
    if M == -math.inf:
        u.fill(0.0)
    else:
        np.exp(np.subtract(u, M, out=u), out=u)
        u *= s
    return M, u


def _block_edges(n: int, blocks: int) -> np.ndarray:
    return np.array([(b * n) // blocks for b in range(blocks + 1)], dtype=np.int64)


def _mean_stderr(M: float, u: np.ndarray, rejected: int) -> MomentEstimate:
    """Mean and standard error of exp(M) * u, which stay valid beyond double range.

    The variance pass overwrites `u`.
    """
    n = len(u)
    total = float(np.sum(u))
    sign = (total > 0) - (total < 0)
    log_mean = M + math.log(abs(total)) - math.log(n) if sign else -math.inf
    u -= total / n
    var = float(np.sum(np.square(u, out=u))) / (n - 1)
    se_shifted = math.sqrt(var / n)
    log_se = M + math.log(se_shifted) if se_shifted > 0 else -math.inf
    return MomentEstimate(
        value=sign * (math.inf if log_mean > 709.0 else math.exp(log_mean)),
        stderr=math.exp(log_se) if log_se < 709.0 else math.inf,
        samples=n,
        sign=sign,
        log_abs_value=log_mean,
        log_abs_stderr=log_se,
        rejected=rejected,
    )


def mc_f2(ensemble: str, n: int, W: float | None, lambda_list,
          samples: int, seed: int,
          threads: int | None = None) -> dict[tuple[int, int], MomentEstimate]:
    """Monte Carlo estimates of E[det(l_a - H) det(l_b - H)] for all pairs a <= b.

    Keys are 0-based indices into `lambda_list`.  All pairs share the same
    sample set; each sample is tridiagonalized once and evaluated at every
    lambda.
    """
    dets = det_log_samples(ensemble, n, W, lambda_list, samples, seed, threads)
    out: dict[tuple[int, int], MomentEstimate] = {}
    L = len(dets.lambdas)
    for a in range(L):
        for b in range(a, L):
            # passed straight on, so one pair's weights are freed before the next pair's
            out[(a, b)] = _mean_stderr(*_weights(dets, a, b), dets.rejected)
    return out


def _jackknife_ratio(dets: DetLogSamples, a: int, b: int) -> tuple[float, float]:
    """Shared-sample ratio F2(la,lb) / sqrt(F2(la,la) F2(lb,lb)) with jackknife stderr."""
    (m_ab, u_ab), (m_aa, u_aa), (m_bb, u_bb) = (_weights(dets, i, j)
                                                for i, j in ((a, b), (a, a), (b, b)))
    if math.isinf(m_aa) or math.isinf(m_bb):
        raise EstimatorError("degenerate diagonal moments (all determinants zero)")
    pref = math.exp(m_ab - 0.5 * (m_aa + m_bb))
    ratio = pref * u_ab.mean() / math.sqrt(u_aa.mean() * u_bb.mean())

    n = len(u_ab)
    # fewer samples than blocks would repeat an edge, and reduceat sums no empty block to 0
    edges = _block_edges(n, min(_JACKKNIFE_BLOCKS, n))
    sums_ab = np.add.reduceat(u_ab, edges[:-1])
    sums_aa = np.add.reduceat(u_aa, edges[:-1])
    sums_bb = np.add.reduceat(u_bb, edges[:-1])
    counts = edges[1:] - edges[:-1]
    rest = n - counts
    t_ab, t_aa, t_bb = u_ab.sum(), u_aa.sum(), u_bb.sum()
    with np.errstate(invalid="ignore"):
        theta = (pref * ((t_ab - sums_ab) / rest)
                 / np.sqrt(((t_aa - sums_aa) / rest) * ((t_bb - sums_bb) / rest)))
    if not np.all(np.isfinite(theta)):
        raise EstimatorError("jackknife block became degenerate; increase samples")
    B = len(theta)
    se = math.sqrt((B - 1) / B * float(np.sum((theta - theta.mean()) ** 2)))
    return float(ratio), se


def moment_scan(ensemble: str, n: int, W: float | None, lambda0: float,
                xi_pairs, samples: int, seed: int, threads: int | None = None,
                progress=None) -> list[RatioResult]:
    """Normalized moment F2/D2 with its sine-kernel reference for each xi pair of a grid.

    Each pair is scaled about `lambda0` (`scaled_lambdas`), and all pairs share
    one sample set: the union of their lambdas is evaluated per sample, so the
    dominant tridiagonalization cost is amortized across the whole scan.  The
    numerator and both normalization factors of a ratio come from the same
    samples, so their correlated fluctuations largely cancel; a ratio reads
    only its own two lambda columns.
    """
    plist = [scaled_lambdas(lambda0, x1, x2, n) for (x1, x2) in xi_pairs]
    lam_index: dict[float, int] = {}
    for p in plist:
        for lam in (p.lambda1, p.lambda2):
            lam_index.setdefault(lam, len(lam_index))
    dets = det_log_samples(ensemble, n, W, list(lam_index), samples, seed, threads, progress)
    results = []
    for p in plist:
        ia, ib = lam_index[p.lambda1], lam_index[p.lambda2]
        sine_ref = sine_kernel(p.xi1 - p.xi2)
        if ia == ib:
            # numerator and denominator are the same per-sample values
            ratio, se = 1.0, 0.0
        else:
            ratio, se = _jackknife_ratio(dets, ia, ib)
        results.append(RatioResult(p, ratio, se, sine_ref, ratio - sine_ref,
                                   dets.signs.shape[0], dets.rejected))
    return results
