"""Monte Carlo estimation of the second mixed moment of characteristic polynomials.

For an ensemble sample H the quantity of interest is

    F2(l1, l2) = E[ det(l1 - H) det(l2 - H) ],

normalized by the geometric mean D2 = sqrt(F2(l1,l1)) sqrt(F2(l2,l2)) and
compared against the sine-kernel curve in the bulk scaling limit.  Per-sample
determinants are kept in signed-log form: an int8 sign and a float64 log
magnitude per sample and lambda, 9 bytes.  A pair (l_a, l_b) is reduced in
its own float64 vector of weights det_a det_b / exp(M), shifted by the pair's
maximum log magnitude M (`_weights`), so sums of weights stay in double range
however large the determinants are.  `mc_f2` estimates single moments as the
mean of one pair's weights; `moment_scan` estimates the normalized moment at
each pair of a grid, with numerator and both denominator factors from one
sample set, and errors by leave-one-block-out jackknife over 50 fixed blocks.

An exact Isserlis-pairing expansion (dimension <= 3) provides the independent
oracle the Monte Carlo path is validated against.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import charpoly, sampler
from .lattice import CovarianceProfile, Lattice1D, covariance_profile
from .saddle import SpectralParams, scaled_lambdas, sine_kernel

_CHUNK = 4096          # samples per sampling block of det_log_samples
_JACKKNIFE_BLOCKS = 50
_SMALL_N_BATCH = 8     # up to and including this n the vectorized Householder path is used
_WICK_MAX_N = 3


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


# ---------------------------------------------------------------------------
# exact pairing-expansion oracle (N <= 3)
# ---------------------------------------------------------------------------

def _perm_sign(p: tuple[int, ...]) -> int:
    n = len(p)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _pairing_sum(factors: list[tuple[int, int]], J: np.ndarray) -> float:
    """Sum over perfect matchings of the entry covariances.

    The only nonzero second moment is E[H_ab H_ba] = J_ab, so a pairing
    contributes only when the paired factors have mirrored indices.
    """
    if len(factors) % 2 == 1:
        return 0.0
    if not factors:
        return 1.0
    a, b = factors[0]
    total = 0.0
    for k in range(1, len(factors)):
        c, d = factors[k]
        if c == b and d == a:
            total += J[a, b] * _pairing_sum(factors[1:k] + factors[k + 1:], J)
    return total


def wick_exact_f2(n: int, lambda1: float, lambda2: float,
                  profile: CovarianceProfile) -> float:
    """Exact E[det(l1 - H) det(l2 - H)] by permutation expansion and pairing.

    Both determinants are expanded over permutations, the (lambda - H_ii)
    factors at fixed points are multiplied out, and every Gaussian moment is
    evaluated by Isserlis pairing with E[H_ab H_cd] = J_ab [c=b, d=a].
    Supported for n <= 3 only (combinatorial guard).
    """
    if not 1 <= n <= _WICK_MAX_N:
        raise ValueError(f"exact expansion supported for n in 1..{_WICK_MAX_N}, got {n}")
    if profile.size != n:
        raise ValueError("profile size does not match n")
    J = profile.J
    perms = list(itertools.permutations(range(n)))
    expansions = []
    for p in perms:
        sgn = _perm_sign(p)
        fixed = [i for i in range(n) if p[i] == i]
        moved = [(i, p[i]) for i in range(n) if p[i] != i]
        expansions.append((sgn, fixed, moved))
    total = 0.0
    for sgn1, fix1, mov1 in expansions:
        for sgn2, fix2, mov2 in expansions:
            base_sign = sgn1 * sgn2 * (-1) ** (len(mov1) + len(mov2))
            for k1 in range(len(fix1) + 1):
                for sub1 in itertools.combinations(fix1, k1):
                    for k2 in range(len(fix2) + 1):
                        for sub2 in itertools.combinations(fix2, k2):
                            factors = (mov1 + [(i, i) for i in sub1]
                                       + mov2 + [(j, j) for j in sub2])
                            ev = _pairing_sum(factors, J)
                            if ev == 0.0:
                                continue
                            coeff = (base_sign * (-1) ** (k1 + k2)
                                     * lambda1 ** (len(fix1) - k1)
                                     * lambda2 ** (len(fix2) - k2))
                            total += coeff * ev
    return total


# ---------------------------------------------------------------------------
# shared-sample determinant evaluation
# ---------------------------------------------------------------------------

@dataclass
class DetLogSamples:
    """Per-sample signed-log determinants at each requested lambda.

    signs (int8, in {-1, 0, +1}) and logmags (float64, -inf where the
    determinant is exactly zero) have shape (samples, len(lambdas)); rejected
    rows (a NaN or +inf log) are removed but counted.
    """

    lambdas: np.ndarray
    signs: np.ndarray
    logmags: np.ndarray
    rejected: int


def tridiagonal_block(profile: CovarianceProfile, seed: int, start: int,
                      count: int) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal forms of the `count` samples of `profile` keyed by RngStream(seed, start).

    Returns d (count, n) and e (count, n - 1) >= 0, with n = profile.size.
    A block of more than one sample up to n = _SMALL_N_BATCH is sampled as one
    stack and reduced by the vectorized Householder, whose numpy overhead only
    pays across a stack; otherwise each sample is reduced in place by LAPACK.
    """
    n = profile.size
    stream = sampler.RngStream(seed, start)
    if n <= _SMALL_N_BATCH and count > 1:
        return charpoly.tridiagonalize_batch(sampler.sample_batch(profile, stream, count))
    d = np.empty((count, n))
    e = np.empty((count, n - 1))
    buf = np.empty((n, n), dtype=complex, order="F")
    for b, H in enumerate(sampler.upper_samples(profile, stream, count, buf)):
        d[b], e[b] = charpoly.tridiagonalize(H, overwrite_a=True)
    return d, e


def _run_ordered(fn, items, threads: int, consume) -> None:
    """Call consume(item, fn(item)) for every item, in item order, on the calling thread.

    With threads > 1 the fn calls run on that many worker threads, and at most
    2 * threads items are submitted and not yet consumed, so results do not
    pile up behind a slow `consume`.  An exception or Ctrl-C, from a worker or
    from `consume`, cancels the calls still queued and is re-raised once the
    running ones return.
    """
    if threads <= 1:
        for item in items:
            consume(item, fn(item))
        return
    items = iter(items)
    with ThreadPoolExecutor(max_workers=threads) as ex:
        try:
            window = deque((item, ex.submit(fn, item))
                           for item in itertools.islice(items, 2 * threads))
            while window:
                item, f = window.popleft()
                consume(item, f.result())
                for item in itertools.islice(items, 1):
                    window.append((item, ex.submit(fn, item)))
        except BaseException:
            ex.shutdown(cancel_futures=True)
            raise


def _eval_chunk(profile, lambdas, seed, start, count, signs_out, logs_out):
    """Fill one fixed block of the output arrays; pure function of its arguments."""
    d, e = tridiagonal_block(profile, seed, start, count)
    s, lg = charpoly.char_det_many(d, e ** 2, lambdas)
    # a NaN sign has a NaN log, so the row it lands on is rejected
    with np.errstate(invalid="ignore"):
        np.copyto(signs_out[start:start + count], s, casting="unsafe")
    logs_out[start:start + count] = lg


def det_log_samples(ensemble: str, n: int, W: float | None, lambdas,
                    samples: int, seed: int, threads: int = 1,
                    progress=None) -> DetLogSamples:
    """Evaluate det(lambda - H) in signed-log form for `samples` fresh samples.

    Each sample is tridiagonalized once and evaluated at every lambda.  Work
    is split into fixed 4096-sample blocks keyed by their start index, so the
    result is bit-identical for any thread count.  `progress(done, total)` is
    invoked after each completed block (reporting only; does not affect
    results).
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

    signs = np.empty((samples, len(lambdas)), dtype=np.int8)
    logs = np.empty((samples, len(lambdas)))
    jobs = [(start, min(_CHUNK, samples - start)) for start in range(0, samples, _CHUNK)]

    def chunk(job):
        _eval_chunk(profile, lambdas, seed, job[0], job[1], signs, logs)

    def report(job, _):
        if progress is not None:
            progress(job[0] + job[1], samples)  # blocks are reported in start order

    _run_ordered(chunk, jobs, threads, report)

    # a row is usable if every entry is either finite or an exact-zero marker (-inf);
    # a NaN or +inf log makes the row max fail the comparison
    ok = logs.max(axis=1) < np.inf
    rejected = int(samples - ok.sum())
    if rejected:
        signs = signs[ok]
        logs = logs[ok]
    if signs.shape[0] < 2:
        raise EstimatorError("all samples rejected")
    return DetLogSamples(lambdas, signs, logs, rejected)


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
          samples: int, seed: int, threads: int = 1) -> dict[tuple[int, int], MomentEstimate]:
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
    edges = _block_edges(n, _JACKKNIFE_BLOCKS)
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
                xi_pairs, samples: int, seed: int, threads: int = 1,
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
