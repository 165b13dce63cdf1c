"""Reproducible sampling of Hermitian Gaussian matrices from a covariance profile.

An ensemble is given by its variance profile J alone (a `CovarianceProfile`,
n = profile.size): the band ensemble's is `covariance_profile(Lattice1D(n), W)`,
GUE's the flat `gue_profile(n)`.  Diagonal entries are real Gaussians of
variance J_ii; above the diagonal the real and imaginary parts of H_ij are
independent Gaussians of variance J_ij/2, so E|H_ij|^2 = J_ij, E H_ij^2 = 0.

Random streams are counter-based (Philox): the stream for a given
(master_seed, sample_index) is a pure function of both, so sampling is
bit-reproducible regardless of thread count or call order.  Matrices are
Hermitian by construction: only the diagonal and upper triangle are drawn,
and the lower triangle mirrors it.  Every sample has one layout: it takes n^2
normals from its stream, the first n(n+1)/2 the real parts of the entries in
`_upper_entries`' order (the strict upper triangle row by row, then the
diagonal) and the rest the imaginary parts of the strict upper ones.
`sample_batch` draws a stack of samples from one stream, one after another;
`write_samples` writes samples keyed one by one (`keyed`) into the rows of a
caller's slab, where LAPACK can reduce them in place.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .lattice import CovarianceProfile

_MASK64 = (1 << 64) - 1
_DRAW_PIECE = 1 << 16  # most normals write_samples draws at once: a 512 KiB buffer


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
_stack_cache = weakref.WeakKeyDictionary()


def _upper_entries(profile: CovarianceProfile) -> tuple[np.ndarray, np.ndarray]:
    """Where the drawn entries of an (n, n) sample lie, and the s.d. of each.

    The drawn entries are the strict upper triangle row by row and then the
    diagonal, in the order their normals are drawn.  Returns the flat index
    of each one's real part in the float64 view of a Fortran-ordered complex
    (n, n) array, and its s.d.: that of the real diagonal entry on the
    diagonal, and that of the real and of the imaginary part of each entry
    above it.

    Cached per profile for as long as the profile lives, so every caller gets
    the same arrays; both are read-only.
    """
    entries = _entries_cache.get(profile)
    if entries is None:
        n = profile.size
        i, j = np.triu_indices(n, 1)  # row i < column j, row by row
        d = np.arange(n) * (n + 1)
        sd = np.take(profile.J, np.concatenate([i * n + j, d]))
        sd[:-n] /= 2.0
        np.sqrt(sd, out=sd)
        f_index = 2 * np.concatenate([i + j * n, d])
        sd.flags.writeable = f_index.flags.writeable = False
        entries = _entries_cache.setdefault(profile, (f_index, sd))
    return entries


def _scatter(profile: CovarianceProfile, z: np.ndarray, first: int, rows: np.ndarray) -> None:
    """Write normals first, ..., first + z.shape[1] - 1 of each sample into the sample.

    Row b of `z` holds sample b's normals and row b of `rows`, an (n * n)
    complex vector, holds the sample as a Fortran-ordered matrix.  Normals
    below n(n+1)/2 are real parts, the rest imaginary parts (module
    docstring); each is scaled by its entry's s.d.
    """
    dst, sd = _upper_entries(profile)
    real, last = len(sd), first + z.shape[1]
    flat = rows.view(np.float64)
    a = min(last, real)
    if first < a:
        flat[:, dst[first:a]] = z[:, :a - first] * sd[first:a]
    a = max(first, real)
    if a < last:  # the imaginary part sits one place after the real part
        flat[:, 1:][:, dst[a - real:last - real]] = z[:, a - first:] * sd[a - real:last - real]


def sample_rbm(profile: CovarianceProfile, stream: RngStream) -> np.ndarray:
    """One Hermitian sample of `profile`, E|H_ij|^2 = J_ij."""
    return sample_batch(profile, stream, 1)[0]


def gue_profile(n: int) -> CovarianceProfile:
    """GUE's flat variance profile J_ij = 1/n; rows sum to one like the band profile.

    The spectrum of a sample fills [-2, 2] as n grows.
    """
    return CovarianceProfile(np.ones((n, n)) / n)


def _stack_map(profile: CovarianceProfile) -> tuple[np.ndarray, np.ndarray]:
    """The normal each float of a whole sample takes, and its factor (`stack_from_normals`).

    An entry on or above the diagonal takes its normals at +sd (`_upper_entries`),
    its mirror below the same ones, with the imaginary part at -sd; the diagonal's
    imaginary parts take normal 0 at 0.  Cached per profile; both are read-only.
    """
    stack = _stack_cache.get(profile)
    if stack is None:
        n = profile.size
        f_index, sd = _upper_entries(profile)
        up, k = f_index[:-n], np.arange(len(sd) - n)
        col, row = np.divmod(up // 2, n)
        low = 2 * (col + row * n)  # the entry (column, row), below the diagonal
        src, scale = np.zeros(2 * n * n, dtype=np.intp), np.zeros(2 * n * n)
        at = np.concatenate([f_index, up + 1, low, low + 1])
        src[at] = np.concatenate([np.arange(len(sd)), len(sd) + k, k, len(sd) + k])
        scale[at] = np.concatenate([sd, sd[:-n], sd[:-n], -sd[:-n]])
        src.flags.writeable = scale.flags.writeable = False
        stack = _stack_cache.setdefault(profile, (src, scale))
    return stack


def sample_batch(profile: CovarianceProfile, stream: RngStream, count: int) -> np.ndarray:
    """Stack of `count` Hermitian samples of `profile` drawn from a single substream.

    Sample b takes normals b n^2, ..., (b + 1) n^2 - 1 of `stream`, so the
    block is a pure function of (stream, count); callers that key the stream
    by a fixed block start index get thread-count-independent results.
    """
    z = stream.generator().standard_normal((count, profile.size ** 2))
    return stack_from_normals(profile, z)


def stack_from_normals(profile: CovarianceProfile, z: np.ndarray) -> np.ndarray:
    """The (count, n, n) stack whose sample b takes the n^2 normals of row b of `z`: each
    a Fortran-ordered matrix, both triangles filled: one gather (`_stack_map`), one multiply."""
    count, n = len(z), profile.size
    if n == 1:  # one real entry: gathering it costs more than drawing it
        return z.reshape(count, 1, 1) * _upper_entries(profile)[1] + 0j
    src, scale = _stack_map(profile)
    flat = np.take(z, src, axis=1)
    flat *= scale
    flat[:, 1::2 * (n + 1)] = 0.0  # +0.0 on the diagonal, whatever the sign of normal 0
    return flat.view(complex).reshape(count, n, n).swapaxes(1, 2)


def keyed(seed: int):
    """A function of i that returns the generator of `RngStream(seed, i)`, from one Philox.

    Each call re-keys the same generator: it sets the Philox counter to
    i << 128 and empties the buffer, a few microseconds where building a
    generator takes about twenty.  The generator it returns therefore draws
    sample i's stream only until the next call.
    """
    generator = RngStream(seed).generator()
    bits = generator.bit_generator
    state = bits.state  # RngStream(seed, 0)'s: zero counter, empty buffer
    counter = state["state"]["counter"]

    def key(index: int) -> np.random.Generator:
        counter[2] = index  # the counter's third 64-bit word: index << 128
        bits.state = state
        return generator

    return key


def write_samples(profile: CovarianceProfile, key, indices, rows: np.ndarray,
                  z: np.ndarray) -> None:
    """Write the sample of each index, drawn from `key(index)`, into the next row of `rows`.

    `rows` is a C-ordered (k, n * n) complex array, k >= len(indices); each
    row holds its sample as a Fortran-ordered (n, n) matrix
    (`rows[j].reshape(n, n).T`) that LAPACK can reduce in place.  Its diagonal
    and upper triangle get the sample's values there, which is all zhetrd with
    uplo='U' reads.  The strictly lower triangle and the imaginary part of the
    diagonal are never written, so a slab made by `np.zeros` holds each
    sample's upper half after every write.  `z` is the caller's buffer for
    the normals.  While n^2 <= z.shape[1] every sample's normals are drawn
    into a row of `z` and the run is written at once; beyond that there must
    be one index, whose normals are drawn z.shape[1] at a time, so no n^2
    normals are held.
    """
    size = profile.size ** 2
    if size <= z.shape[1]:
        for j, b in enumerate(indices):
            key(b).standard_normal(out=z[j, :size])
        _scatter(profile, z[:len(indices), :size], 0, rows[:len(indices)])
        return
    (index,) = indices
    generator = key(index)
    for first in range(0, size, z.shape[1]):
        piece = z[:1, :size - first]
        generator.standard_normal(out=piece[0])
        _scatter(profile, piece, first, rows[:1])
