"""Reproducible sampling of Hermitian Gaussian matrices from a covariance profile.

An ensemble is given by its variance profile J alone (a `CovarianceProfile`,
n = profile.size): the band ensemble's is `covariance_profile(Lattice1D(n), W)`,
GUE's the flat `gue_profile(n)`.  Diagonal entries are real Gaussians of
variance J_ii; above the diagonal the real and imaginary parts of H_ij are
independent Gaussians of variance J_ij/2, so E|H_ij|^2 = J_ij, E H_ij^2 = 0.

Random streams are counter-based (Philox): the stream for a given
(master_seed, sample_index) is a pure function of both, so sampling is
bit-reproducible regardless of thread count or call order.  Matrices are
Hermitian by construction: only the diagonal and upper triangle are used, and
the lower triangle mirrors it.  `sample_batch` draws two full normal stacks and
drops their lower triangles; `upper_samples` keeps only the entries it uses.
"""

from __future__ import annotations

import functools
import weakref
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .lattice import CovarianceProfile

_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1
_DRAW_PIECE = 1 << 16  # normals per real-part draw in upper_samples: a 512 KiB buffer


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

    def generator(self) -> np.random.Generator:
        bg = np.random.Philox(key=self.master_seed, counter=(int(self.sample_index) << 128) & ((1 << 256) - 1))
        return np.random.Generator(bg)


@functools.lru_cache(maxsize=4)
def _upper_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the drawn entries of an (n, n) sample lie, the strict upper
    triangle column by column and then the diagonal: the flat index of each in
    a C-ordered (n, n) array, and that of its real part in the float64 view of
    a Fortran-ordered complex one.

    Cached, so every caller gets the same arrays and must not write to them.
    They are left writeable because np.take copies a read-only index array on
    every call.
    """
    j, i = np.nonzero(np.tri(n, k=-1, dtype=bool))  # column j, row i < j
    d = np.arange(n) * (n + 1)
    return np.concatenate([i * n + j, d]), 2 * np.concatenate([i + j * n, d])


# keyed weakly by the (identity-hashed) profile: an entry goes with its profile
_entries_cache = weakref.WeakKeyDictionary()


def _upper_entries(profile: CovarianceProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `_upper_index` of the drawn entries and the s.d. of each: that of the
    real diagonal entry on the diagonal, and that of the real and of the
    imaginary part of each entry above it.

    Cached per profile for as long as the profile lives; the s.d. array is
    read-only.
    """
    entries = _entries_cache.get(profile)
    if entries is None:
        n = profile.size
        c_index, f_index = _upper_index(n)
        sd = np.take(profile.J, c_index)
        sd[:-n] /= 2.0
        np.sqrt(sd, out=sd)
        sd.flags.writeable = False
        entries = _entries_cache.setdefault(profile, (c_index, f_index, sd))
    return entries


def sample_rbm(profile: CovarianceProfile, stream: RngStream) -> np.ndarray:
    """One Hermitian sample of `profile`, E|H_ij|^2 = J_ij."""
    return sample_batch(profile, stream, 1)[0]


def gue_profile(n: int) -> CovarianceProfile:
    """GUE's flat variance profile J_ij = 1/n; rows sum to one like the band profile.

    The spectrum of a sample fills [-2, 2] as n grows.
    """
    return CovarianceProfile(np.ones((n, n)) / n)


def sample_batch(profile: CovarianceProfile, stream: RngStream, count: int) -> np.ndarray:
    """Stack of `count` Hermitian samples of `profile` drawn from a single substream.

    All entries for the block come from `stream` in a fixed order, so the
    block is a pure function of (stream, count); callers that key the stream
    by a fixed block start index get thread-count-independent results.  The
    first normal stack supplies the diagonal and the real parts above it,
    the second the imaginary parts; the entries below the diagonal of both
    stacks are drawn but unused.
    """
    n = profile.size
    index, _, sd = _upper_entries(profile)
    S = np.zeros((n, n))
    S.flat[index] = sd
    g = stream.generator()
    A = g.standard_normal((count, n, n))
    B = g.standard_normal((count, n, n))
    H = A * S + 1j * (B * np.triu(S, 1))
    H += np.conj(np.swapaxes(np.triu(H, 1), -1, -2))
    return H


def upper_samples(profile: CovarianceProfile, stream: RngStream, count: int,
                  out: np.ndarray) -> Iterator[np.ndarray]:
    """The samples of `sample_batch`, written one at a time into `out` and yielded.

    `out` is an (n, n) complex array, Fortran-ordered so that LAPACK can
    reduce it in place.  Each step overwrites its diagonal and upper triangle
    with the same values `sample_batch(profile, stream, count)[b]` holds
    there, from the same draws.  The strictly lower triangle and the
    imaginary part of the diagonal are zeroed once, before the first sample,
    and not written again, so `out` is only valid for routines that read the
    upper triangle (zhetrd with uplo='U').

    `sample_batch` draws the block's (count, n, n) real-part normals and then
    its imaginary-part ones from one stream, and the ziggurat consumes a
    variable number of words per normal, so no sample's imaginary normals can
    be reached before every real one is drawn.  The real normals are therefore
    drawn first, in pieces of at most `_DRAW_PIECE` normals, and of each
    sample only the n(n+1)/2 that land on or above the diagonal are kept,
    already scaled: one packed (count, n(n+1)/2) float array, about a quarter
    of the two stacks.  Each sample's imaginary normals are drawn into a
    reused buffer just before the sample is yielded.
    """
    n = profile.size
    src, dst, sd = _upper_entries(profile)
    strict = len(src) - n    # the imaginary parts: entries above the diagonal
    flat = np.reshape(out, -1, order="F", copy=False).view(np.float64)
    g = stream.generator()
    piece = max(1, min(count, _DRAW_PIECE // (n * n)))
    z = np.empty((piece, n * n))
    real = np.empty((count, len(src)))
    # indices are in range by construction; mode="clip" skips numpy's buffered check
    for b in range(0, count, piece):
        zb = z[:min(piece, count - b)]
        g.standard_normal(out=zb)
        rb = real[b:b + len(zb)]
        np.take(zb, src, axis=1, out=rb, mode="clip")
        rb *= sd
    src, sd, dst_imag = src[:strict], sd[:strict], dst[:strict]
    flat_imag = flat[1:]     # the imaginary part sits one place after the real part
    out[...] = 0.0
    for r in real:
        flat[dst] = r
        imag = r[:strict]    # the row is spent once written: it takes the imaginary parts
        g.standard_normal(out=z[0])
        np.take(z[0], src, out=imag, mode="clip")
        imag *= sd
        flat_imag[dst_imag] = imag
        yield out
