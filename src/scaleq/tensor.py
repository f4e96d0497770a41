"""Dense NCHW tensors, deterministic random streams, and moment statistics.

Tensors are plain ``numpy.ndarray`` values in batch-channel-row-column
layout, float64 throughout.  All functions here are pure; arrays are
treated as immutable after creation.
`moments` makes no centred copy of its input: its second pass centres and
squares cache-sized pieces in one reused buffer and adds them in numpy's
own pairwise-summation order, so it matches np.mean((x - mean)**2) to the
bit with the same error bound.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

_LEAF = 1 << 14           # elements centred at a time by moments (128 KiB)


def _check_nchw(x: np.ndarray) -> np.ndarray:
    if x.ndim != 4:
        raise ShapeError(f"expected a 4-D NCHW tensor, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class Rng:
    """Counter-based random stream: same (seed, stream) gives bit-identical
    sequences independent of scheduling.  Named substreams are derived by
    hashing, so per-branch / per-trial streams stay reproducible."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = ((self.seed & 0xFFFFFFFFFFFFFFFF) << 64) | (self.stream & 0xFFFFFFFFFFFFFFFF)
        return np.random.Generator(np.random.Philox(key=key))

    def split(self, name) -> "Rng":
        digest = hashlib.sha256(f"{self.stream}/{name}".encode()).digest()
        return Rng(self.seed, int.from_bytes(digest[:8], "little"))


def randn(shape, mean: float = 0.0, std: float = 1.0,
          rng: Rng | None = None) -> np.ndarray:
    """i.i.d. normal tensor with the given mean/std, deterministic under rng."""
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise ShapeError(f"all dimensions must be positive, got {shape}")
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")
    gen = (rng or Rng(0)).generator()
    out = gen.standard_normal(size=shape, dtype=np.float64)
    out *= std                   # in place, not relying on temporary elision
    out += mean
    return out


@dataclass(frozen=True)
class Moments:
    """Population mean/variance (divide by n) over `count` elements."""

    mean: float
    variance: float
    count: int

    def merge(self, other: "Moments") -> "Moments":
        """Combine moments of two disjoint samples (Chan's parallel update)."""
        n = self.count + other.count
        if n == 0:
            return Moments(0.0, 0.0, 0)
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / n
        m2 = (self.variance * self.count + other.variance * other.count
              + delta * delta * self.count * other.count / n)
        return Moments(mean, m2 / n, n)


def _centred_sumsq(flat: np.ndarray, mean: float, buf: np.ndarray):
    """sum((flat - mean)**2) in numpy's pairwise order: split as numpy's
    pairwise sum does above its leaves, and centre, square and reduce each
    piece of at most _LEAF elements in buf."""
    n = flat.size
    if n <= _LEAF:
        d = buf[:n]
        np.subtract(flat, mean, out=d)
        np.square(d, out=d)
        return np.add.reduce(d)
    n2 = n // 2
    n2 -= n2 % 8
    return (_centred_sumsq(flat[:n2], mean, buf)
            + _centred_sumsq(flat[n2:], mean, buf))


def moments(x: np.ndarray) -> Moments:
    """Two-pass population moments of all elements.  The second pass
    streams through one _LEAF-sized buffer and sums in the order
    np.mean((x - mean)**2) would, so the result is the same to the bit.
    Elements are read in memory order; only an input that is not
    contiguous is flattened into a copy first."""
    x = np.asarray(x)
    n = x.size
    if n == 0:
        raise ShapeError(f"moments of an empty tensor of shape {x.shape}")
    mean = float(np.mean(x, dtype=np.float64))
    flat = np.ravel(x, order="K")
    buf = np.empty(min(n, _LEAF), dtype=np.float64)
    return Moments(mean, float(_centred_sumsq(flat, mean, buf) / n), n)
