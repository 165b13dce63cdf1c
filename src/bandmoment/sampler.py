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


def _upper_scale(kind: str, n: int, profile: CovarianceProfile | None) -> np.ndarray:
    """(n, n) s.d. of each real diagonal entry on the diagonal, and of the real and the
    imaginary part of each entry above it in the strict upper triangle; zero below."""
    if kind == "gue":
        if n < 1:
            raise ValueError("n must be >= 1")
        profile = gue_profile(n)
    elif kind != "band":
        raise ValueError(f"unknown ensemble kind {kind!r}")
    S = np.triu(np.sqrt(profile.J / 2.0), 1)
    np.fill_diagonal(S, np.sqrt(np.diag(profile.J)))
    return S


def sample_rbm(profile: CovarianceProfile, stream: RngStream) -> np.ndarray:
    """One Hermitian band-ensemble sample with E|H_ij|^2 = J_ij.

    Diagonal entries are real Gaussians with variance J_ii; for i < j the real
    and imaginary parts of H_ij are independent Gaussians of variance J_ij/2,
    so E H_ij^2 = 0.
    """
    return sample_batch("band", profile.size, profile, stream, 1)[0]


def sample_gue(n: int, stream: RngStream) -> np.ndarray:
    """One GUE sample normalized so the limiting spectrum fills [-2, 2].

    E|H_ij|^2 = 1/n for every entry (diagonal variance 1/n, off-diagonal
    real/imag variances 1/2n each), matching the band ensemble's row-sum-1
    normalization.
    """
    return sample_batch("gue", n, None, stream, 1)[0]


def gue_profile(n: int) -> CovarianceProfile:
    """Flat variance profile J_ij = 1/n describing the GUE entry covariances.

    Useful as input to covariance-driven code (e.g. the exact pairing
    expansion); rows sum to one like the band profile.
    """
    return CovarianceProfile(np.full((n, n), 1.0 / n), float(n))


def sample_batch(kind: str, n: int, profile: CovarianceProfile | None,
                 stream: RngStream, count: int) -> np.ndarray:
    """Stack of `count` Hermitian samples drawn from a single substream.

    All entries for the block come from `stream` in a fixed order, so the
    block is a pure function of (stream, count); callers that key the stream
    by a fixed block start index get thread-count-independent results.  The
    first normal stack supplies the diagonal and the real parts above it,
    the second the imaginary parts; the entries below the diagonal of both
    stacks are drawn but unused.
    """
    S = _upper_scale(kind, n, profile)
    g = stream.generator()
    A = g.standard_normal((count, n, n))
    B = g.standard_normal((count, n, n))
    H = A * S + 1j * (B * np.triu(S, 1))
    H += np.conj(np.swapaxes(np.triu(H, 1), -1, -2))
    return H


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
    S = _upper_scale(kind, n, profile)
    g = stream.generator()
    A = g.standard_normal((count, n, n))
    B = g.standard_normal((count, n, n))
    for a, b in zip(A, B):
        np.multiply(a, S, out=out.real)
        np.multiply(b, S, out=out.imag)
        np.fill_diagonal(out.imag, 0.0)
        yield out
