"""Dense NCHW tensors, deterministic random streams, and moment statistics.

Tensors are plain ``numpy.ndarray`` values in batch-channel-row-column
layout, float64 throughout.  Every function here returns a new value
and leaves its arguments alone, except `fill_normal`, which writes its
draws into the array it is given, and `in_background`, which runs a
function on a helper thread.
`moments` makes no centred copy of its input: its second pass centres and
squares cache-sized pieces in one reused buffer and adds them in numpy's
own pairwise-summation order, so it matches np.mean((x - mean)**2) to the
bit with the same error bound.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

_LEAF = 1 << 14           # elements centred at a time by moments (128 KiB)


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
    return fill_normal(np.empty(shape), mean, std, (rng or Rng(0)).generator())


def fill_normal(out: np.ndarray, mean: float, std: float,
                gen: np.random.Generator) -> np.ndarray:
    """Fill the C-contiguous float64 array `out` in place with the next
    normal draws of `gen` and return it.  The values equal gen.normal(mean,
    std, out.shape) to the bit, since numpy computes that as mean + std * z
    too.  It allocates nothing, so a helper thread can run it
    (`in_background`)."""
    gen.standard_normal(out=out)
    out *= std
    out += mean
    return out


@contextmanager
def in_background(fn, *args):
    """Run fn(*args) on one helper thread while the with-body runs on the
    calling thread.  The helper is joined when the body ends, also when the
    body raises; then an exception of fn is raised again in the caller,
    unless the body raised one of its own.

    numpy's generator fills and in-place ufuncs release the GIL, so a
    helper running `fill_normal` uses the second core.  Its result cannot
    depend on the scheduling as long as fn writes only into arrays that the
    body does not touch, each from its own generator.  fn should allocate
    nothing large, since glibc gives a thread that does its own heap arena,
    and it should call nothing that a tracer wraps, since a tracer keeps
    one span stack for the process."""
    failure = []

    def run():
        try:
            fn(*args)
        except BaseException as exc:        # handed to the caller below
            failure.append(exc)

    helper = threading.Thread(target=run, name="scaleq-draw")
    helper.start()
    try:
        yield
    finally:
        helper.join()
    if failure:
        raise failure[0]


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
