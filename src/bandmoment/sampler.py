"""Reproducible sampling of the band ensemble and of GUE.

Random streams are counter-based (Philox): the stream for a given
(master_seed, sample_index) is a pure function of both, so sampling is
bit-reproducible regardless of thread count or call order.  Matrices are
Hermitian by construction; only the upper triangle is drawn.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .lattice import CovarianceProfile

_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Counter-based substream identified by (master_seed, sample_index).

    The 64-bit master seed becomes the Philox key and the sample index selects
    a disjoint 2^128-draw block of the counter space, so distinct indices give
    independent streams.
    """

    master_seed: int
    sample_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "master_seed", int(self.master_seed) & _MASK64)
        if not 0 <= int(self.sample_index) <= _MASK64:
            raise ValueError("sample_index must fit in 64 bits")

    def at(self, sample_index: int) -> "RngStream":
        return RngStream(self.master_seed, sample_index)

    def generator(self) -> np.random.Generator:
        bg = np.random.Philox(key=self.master_seed, counter=(int(self.sample_index) << 128) & ((1 << 256) - 1))
        return np.random.Generator(bg)


def _hermitian_from_normals(A: np.ndarray, B: np.ndarray,
                            sd_diag: np.ndarray, sd_off: np.ndarray) -> np.ndarray:
    """Assemble Hermitian matrices from two stacks of standard normals.

    A supplies the diagonal and the real parts of the upper triangle, B the
    imaginary parts; sd_diag (N,) and sd_off (N, N) scale entrywise so that
    E|H_ij|^2 matches the requested variance profile.
    """
    n = A.shape[-1]
    up = np.triu(A, 1) * sd_off + 1j * (np.triu(B, 1) * sd_off)
    H = up + np.conj(np.swapaxes(up, -1, -2))
    idx = np.arange(n)
    H[..., idx, idx] = A[..., idx, idx] * sd_diag
    return H


def _band_scales(profile: CovarianceProfile) -> tuple[np.ndarray, np.ndarray]:
    J = profile.J
    return np.sqrt(np.diag(J)), np.sqrt(J / 2.0)


def _gue_scales(n: int) -> tuple[np.ndarray, np.ndarray]:
    return (np.full(n, np.sqrt(1.0 / n)),
            np.full((n, n), np.sqrt(1.0 / (2.0 * n))))


def sample_rbm(profile: CovarianceProfile, stream: RngStream) -> np.ndarray:
    """One Hermitian band-ensemble sample with E|H_ij|^2 = J_ij.

    Diagonal entries are real Gaussians with variance J_ii; for i < j the real
    and imaginary parts of H_ij are independent Gaussians of variance J_ij/2,
    so E H_ij^2 = 0.
    """
    n = profile.size
    g = stream.generator()
    A = g.standard_normal((n, n))
    B = g.standard_normal((n, n))
    sd_diag, sd_off = _band_scales(profile)
    return _hermitian_from_normals(A, B, sd_diag, sd_off)


def sample_gue(n: int, stream: RngStream) -> np.ndarray:
    """One GUE sample normalized so the limiting spectrum fills [-2, 2].

    E|H_ij|^2 = 1/n for every entry (diagonal variance 1/n, off-diagonal
    real/imag variances 1/2n each), matching the band ensemble's row-sum-1
    normalization.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = stream.generator()
    A = g.standard_normal((n, n))
    B = g.standard_normal((n, n))
    sd_diag, sd_off = _gue_scales(n)
    return _hermitian_from_normals(A, B, sd_diag, sd_off)


def gue_profile(n: int) -> CovarianceProfile:
    """Flat variance profile J_ij = 1/n describing the GUE entry covariances.

    Useful as input to covariance-driven code (e.g. the exact pairing
    expansion); rows sum to one like the band profile.
    """
    return CovarianceProfile(np.full((n, n), 1.0 / n), float(n))


def _scales(kind: str, n: int, profile: CovarianceProfile | None) -> tuple[np.ndarray, np.ndarray]:
    if kind == "band":
        return _band_scales(profile)
    if kind == "gue":
        return _gue_scales(n)
    raise ValueError(f"unknown ensemble kind {kind!r}")


def sample_batch(kind: str, n: int, profile: CovarianceProfile | None,
                 stream: RngStream, count: int) -> np.ndarray:
    """Stack of `count` Hermitian samples drawn from a single substream.

    All entries for the block come from `stream` in a fixed order, so the
    block is a pure function of (stream, count); callers that key the stream
    by a fixed block start index get thread-count-independent results.
    """
    sd_diag, sd_off = _scales(kind, n, profile)
    g = stream.generator()
    A = g.standard_normal((count, n, n))
    B = g.standard_normal((count, n, n))
    return _hermitian_from_normals(A, B, sd_diag, sd_off)


def upper_samples(kind: str, n: int, profile: CovarianceProfile | None,
                  stream: RngStream, count: int, out: np.ndarray) -> Iterator[np.ndarray]:
    """The samples of `sample_batch`, written one at a time into `out` and yielded.

    `out` is an (n, n) complex array, Fortran-ordered so that LAPACK can
    reduce it in place.  Each step overwrites its diagonal and upper triangle
    with the same values `sample_batch(kind, n, profile, stream, count)[b]`
    holds there, from the same draws; the strictly lower triangle is left
    zero, so `out` is only valid for routines that read the upper triangle
    (zhetrd with uplo='U').  No (count, n, n) complex stack is built.
    """
    sd_diag, sd_off = _scales(kind, n, profile)
    scale = np.triu(sd_off, 1)
    idx = np.arange(n)
    scale[idx, idx] = sd_diag
    g = stream.generator()
    A = g.standard_normal((count, n, n))
    B = g.standard_normal((count, n, n))
    for a, b in zip(A, B):
        np.multiply(a, scale, out=out.real)
        np.multiply(b, scale, out=out.imag)
        out.imag[idx, idx] = 0.0
        yield out
