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
drops their lower triangles; `UpperBlock` keeps only the entries it uses;
`write_sample` writes one sample's upper half straight into a buffer of the
caller's, drawing its normals a piece at a time.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .lattice import CovarianceProfile

_MASK64 = (1 << 64) - 1
_DRAW_PIECE = 1 << 16  # normals per draw in UpperBlock and write_sample: a 512 KiB buffer


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


# keyed weakly by the (identity-hashed) profile: an entry goes with its profile
_entries_cache = weakref.WeakKeyDictionary()


def _upper_entries(profile: CovarianceProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the drawn entries of an (n, n) sample lie, and the s.d. of each.

    The drawn entries are the strict upper triangle row by row and then the
    diagonal, each part in the order its normals are drawn.  Returns the flat index of each in a C-ordered (n, n) array,
    that of its real part in the float64 view of a Fortran-ordered complex
    one, and its s.d.: that of the real diagonal entry on the diagonal, and
    that of the real and of the imaginary part of each entry above it.

    Cached per profile for as long as the profile lives, so every caller gets
    the same arrays and must not write to them.  The s.d. array is read-only;
    the index arrays are left writeable because np.take copies a read-only
    index array on every call.
    """
    entries = _entries_cache.get(profile)
    if entries is None:
        n = profile.size
        i, j = np.triu_indices(n, 1)  # row i < column j, row by row
        d = np.arange(n) * (n + 1)
        c_index = np.concatenate([i * n + j, d])
        sd = np.take(profile.J, c_index)
        sd[:-n] /= 2.0
        np.sqrt(sd, out=sd)
        sd.flags.writeable = False
        f_index = 2 * np.concatenate([i + j * n, d])
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


def write_sample(profile: CovarianceProfile, stream: RngStream, out: np.ndarray) -> np.ndarray:
    """Write `sample_batch(profile, stream, 1)[0]` into `out`; return `out`.

    `out` is an (n, n) complex array, Fortran-ordered so that LAPACK can
    reduce it in place.  Its diagonal and upper triangle get the sample's
    values there, which is all zhetrd with uplo='U' reads.  Its strictly lower
    triangle and the imaginary part of its diagonal are never written: a
    buffer made by `np.zeros` holds the sample's upper half after every write.
    The normals are drawn in stream order, the n^2 real-part ones and then the
    n^2 imaginary ones, in pieces of at most `_DRAW_PIECE`, so no n^2 stack is
    held.  In `_upper_entries`' order the entries one piece feeds are one
    slice of the strict upper entries and one of the diagonal.
    """
    n = profile.size
    src, dst, sd = _upper_entries(profile)
    strict = len(src) - n
    flat = np.reshape(out, -1, order="F", copy=False).view(np.float64)
    g = stream.generator()
    z = np.empty(min(n * n, _DRAW_PIECE))
    # the real parts and the diagonal, then the imaginary parts, which sit one
    # place after the real parts
    for into, parts in ((flat, ((0, strict), (strict, len(src)))), (flat[1:], ((0, strict),))):
        for first in range(0, n * n, len(z)):
            piece = z[:n * n - first]
            g.standard_normal(out=piece)
            for lo, hi in parts:
                a, b = np.searchsorted(src[lo:hi], (first, first + len(piece))) + lo
                # indices are in range by construction; mode="clip" skips numpy's buffered check
                values = np.take(piece, src[a:b] - first, mode="clip")
                values *= sd[a:b]
                into[dst[a:b]] = values
    return out


class UpperBlock:
    """The samples of `sample_batch(profile, stream, count)`, drawn so that
    several threads can write and reduce them at once.

    `sample_batch` draws the block's (count, n, n) real-part normals and then
    its imaginary-part ones from one stream, and the ziggurat consumes a
    variable number of words per normal, so no sample's imaginary normals can
    be reached before every real one is drawn.  The constructor therefore
    draws the real normals first, in pieces of at most `_DRAW_PIECE` normals,
    and keeps of each sample only the n(n+1)/2 that land on or above the
    diagonal, already scaled: one packed (count, n(n+1)/2) float array, about
    a quarter of the two stacks.

    The imaginary normals are then drawn `run` samples at a time, `run` the
    samples of one real-part piece: `draw` draws the next run's normals from
    the stream, so the caller must draw the runs one at a time and in sample
    order (`moments.tridiagonal_block` draws them under its claim lock), and
    `write` turns one sample's normals into the sample.
    """

    def __init__(self, profile: CovarianceProfile, stream: RngStream, count: int):
        n = self.n = profile.size
        src, self._dst, sd = _upper_entries(profile)
        self._g = stream.generator()
        self.run = max(1, min(count, _DRAW_PIECE // (n * n)))
        z = self.normals()
        self._real = np.empty((count, len(src)))
        # indices are in range by construction; mode="clip" skips numpy's buffered check
        for b in range(0, count, self.run):
            zb = z[:min(self.run, count - b)]
            self._g.standard_normal(out=zb)
            rb = self._real[b:b + len(zb)]
            np.take(zb, src, axis=1, out=rb, mode="clip")
            rb *= sd
        strict = len(src) - n    # the imaginary parts: entries above the diagonal
        self._src_imag, self._sd_imag = src[:strict], sd[:strict]
        self._dst_imag = self._dst[:strict]

    def normals(self) -> np.ndarray:
        """A fresh buffer for one run's normals, (run, n * n)."""
        return np.empty((self.run, self.n * self.n))

    def draw(self, z: np.ndarray) -> None:
        """Draw the imaginary normals of the next len(z) samples into `z`, rows of `normals()`."""
        self._g.standard_normal(out=z)

    def write(self, b: int, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write sample b into `out`, from `z`, the row of its draw's normals; return `out`.

        `out` is an (n, n) complex array, Fortran-ordered so that LAPACK can
        reduce it in place.  Its diagonal and upper triangle get the values
        `sample_batch(profile, stream, count)[b]` holds there, which is all
        zhetrd with uplo='U' reads.  Its strictly lower triangle and the
        imaginary part of its diagonal are never written: a buffer made by
        `np.zeros` holds the sample's upper half after every write.  Sample
        b's packed real row is spent: it now holds the imaginary parts.
        """
        flat = np.reshape(out, -1, order="F", copy=False).view(np.float64)
        r = self._real[b]
        flat[self._dst] = r
        imag = r[:len(self._src_imag)]
        np.take(z, self._src_imag, out=imag, mode="clip")
        imag *= self._sd_imag
        flat[1:][self._dst_imag] = imag  # the imaginary part sits one place after the real part
        return out

