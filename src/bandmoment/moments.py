"""Monte Carlo estimation of the second mixed moment of characteristic polynomials.

For an ensemble sample H the quantity of interest is

    F2(l1, l2) = E[ det(l1 - H) det(l2 - H) ],

normalized by the geometric mean D2 = sqrt(F2(l1,l1)) sqrt(F2(l2,l2)) and
compared against the sine-kernel curve in the bulk scaling limit.  Per-sample
determinants are kept in signed-log form.  `mc_f2` estimates single moments
by max-shifted sums over 4096-sample blocks, which stay valid beyond double
range; `moment_scan` and `ratio_vs_sine` estimate the normalized moment with
numerator and both denominator factors from one sample set, with errors by
leave-one-block-out jackknife over 50 fixed blocks.

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

_CHUNK = 4096          # samples per accumulation block (single max-shift each)
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

    signs/logmags have shape (samples, len(lambdas)); rejected rows (non-finite
    recurrence output) are removed but counted.
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
        t = charpoly.tridiagonalize(H, overwrite_a=True)
        d[b] = t.d
        e[b] = t.e
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
    signs_out[start:start + count] = s
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

    signs = np.empty((samples, len(lambdas)))
    logs = np.empty((samples, len(lambdas)))
    jobs = [(start, min(_CHUNK, samples - start)) for start in range(0, samples, _CHUNK)]

    def chunk(job):
        _eval_chunk(profile, lambdas, seed, job[0], job[1], signs, logs)

    def report(job, _):
        if progress is not None:
            progress(job[0] + job[1], samples)  # blocks are reported in start order

    _run_ordered(chunk, jobs, threads, report)

    # a row is usable if every entry is either finite or an exact-zero marker (-inf)
    ok = ~np.any(np.isnan(logs), axis=1) & ~np.any(np.isposinf(logs), axis=1)
    rejected = int(samples - ok.sum())
    if rejected:
        signs = signs[ok]
        logs = logs[ok]
    if signs.shape[0] < 2:
        raise EstimatorError("all samples rejected")
    return DetLogSamples(lambdas, signs, logs, rejected)


def _pair_products(dets: DetLogSamples, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    s = dets.signs[:, a] * dets.signs[:, b]
    with np.errstate(invalid="ignore"):
        logp = dets.logmags[:, a] + dets.logmags[:, b]
    logp = np.where(s == 0, -np.inf, logp)
    return s, logp


def _block_edges(n: int, blocks: int) -> np.ndarray:
    return np.array([(b * n) // blocks for b in range(blocks + 1)], dtype=np.int64)


def _reduce_signed_log(s: np.ndarray, logp: np.ndarray, rejected: int) -> MomentEstimate:
    """Mean and standard error of s*exp(logp) without leaving the log domain.

    Chunked accumulation: one max-shift per 4096-sample block, blocks combined
    by max-shifted signed-log addition in index order.
    """
    n = len(s)
    # global shift for the variance pass
    M = float(np.max(logp))
    if M == -math.inf:
        return MomentEstimate(0.0, 0.0, n, 0, -math.inf, -math.inf, rejected)
    sign, log_abs = 0, -math.inf   # running sum: sign * exp(log_abs)
    for start in range(0, n, _CHUNK):
        sl = slice(start, min(start + _CHUNK, n))
        mc = float(np.max(logp[sl]))
        if mc == -math.inf:
            continue
        part = float(np.sum(s[sl] * np.exp(logp[sl] - mc)))
        if part == 0.0:
            continue
        p_sign, p_log = (1 if part > 0 else -1), mc + math.log(abs(part))
        if sign == 0:
            sign, log_abs = p_sign, p_log
            continue
        m = max(log_abs, p_log)
        total = sign * math.exp(log_abs - m) + p_sign * math.exp(p_log - m)
        if total == 0.0:
            sign, log_abs = 0, -math.inf
        else:
            sign, log_abs = (1 if total > 0 else -1), m + math.log(abs(total))
    log_mean = log_abs - math.log(n)

    u = s * np.exp(logp - M)
    u_mean = sign * math.exp(log_mean - M)   # 0.0 when sign == 0 (log_mean is -inf)
    var = float(np.sum((u - u_mean) ** 2)) / (n - 1)
    se_shifted = math.sqrt(var / n)
    log_se = M + math.log(se_shifted) if se_shifted > 0 else -math.inf

    value = sign * (math.inf if log_mean > 709.0 else math.exp(log_mean))
    stderr = math.exp(log_se) if log_se < 709.0 else math.inf
    return MomentEstimate(
        value=value,
        stderr=stderr,
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
            s, logp = _pair_products(dets, a, b)
            out[(a, b)] = _reduce_signed_log(s, logp, dets.rejected)
    return out


def _jackknife_ratio(dets: DetLogSamples, a: int, b: int) -> tuple[float, float]:
    """Shared-sample ratio F2(la,lb) / sqrt(F2(la,la) F2(lb,lb)) with jackknife stderr."""
    s_ab, l_ab = _pair_products(dets, a, b)
    _, l_aa = _pair_products(dets, a, a)
    _, l_bb = _pair_products(dets, b, b)
    m_ab, m_aa, m_bb = (float(np.max(x)) for x in (l_ab, l_aa, l_bb))
    if math.isinf(m_aa) or math.isinf(m_bb):
        raise EstimatorError("degenerate diagonal moments (all determinants zero)")
    u_ab = s_ab * np.exp(l_ab - m_ab)
    u_aa = np.exp(l_aa - m_aa)
    u_bb = np.exp(l_bb - m_bb)
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


def _ratios(ensemble: str, n: int, W: float | None, plist, samples: int, seed: int,
            threads: int, progress) -> list[RatioResult]:
    """Ratio-vs-sine results for the scaled pairs `plist`, all from one sample set.

    A ratio reads only its own two lambda columns."""
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


def ratio_vs_sine(params: SpectralParams, ensemble: str, W: float | None,
                  samples: int, seed: int, threads: int = 1) -> RatioResult:
    """Normalized moment F2/D2 at the bulk-scaled pair, with sine-kernel reference.

    The numerator and both normalization factors are estimated from the same
    sample set, so their correlated fluctuations largely cancel in the ratio.
    """
    return _ratios(ensemble, params.n_dim, W, [params], samples, seed, threads, None)[0]


def moment_scan(ensemble: str, n: int, W: float | None, lambda0: float,
                xi_pairs, samples: int, seed: int, threads: int = 1,
                progress=None) -> list[RatioResult]:
    """Ratio-vs-sine results for a grid of xi pairs sharing one sample set.

    The union of scaled lambdas over the grid is evaluated per sample, so the
    dominant tridiagonalization cost is amortized across the whole scan.
    """
    plist = [scaled_lambdas(lambda0, x1, x2, n) for (x1, x2) in xi_pairs]
    return _ratios(ensemble, n, W, plist, samples, seed, threads, progress)
