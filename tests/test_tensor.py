import math

import numpy as np
import pytest

from scaleq.errors import ShapeError
from scaleq.tensor import Moments, Rng, fill_normal, moments, randn


def _sliced_randn(shape, mean, std, rng):
    """randn's draw, one batch slice at a time from one generator."""
    gen = rng.generator()
    for _ in range(shape[0]):
        part = gen.standard_normal(size=(1, *shape[1:]), dtype=np.float64)
        part *= std
        part += mean
        yield part


def test_randn_large_shape_mean():
    # feature-sized draw, summed slice by slice so that the 512 MiB tensor
    # is never held: sample mean must sit very close to the target
    shape, mean = (16, 256, 128, 128), 1.0 / math.sqrt(2 * math.pi)
    total = sum(part.sum() for part in
                _sliced_randn(shape, mean, 0.5, Rng(42).split("big")))
    assert abs(total / math.prod(shape) - 0.39894) < 0.001
    # the slices are randn's own stream
    small = (4, 64, 32, 32)
    sliced = np.concatenate(list(_sliced_randn(small, mean, 0.5, Rng(42).split("big"))))
    assert np.array_equal(sliced, randn(small, mean, 0.5, Rng(42).split("big")))


@pytest.mark.parametrize("mean,std", [(0.0, 1.0), (0.0, 0.1), (-2.5, 3.0), (1e6, 1e-3)])
def test_fill_normal_is_gen_normal(mean, std):
    """The in-place fill gives numpy's own normal(mean, std), mean + std * z,
    to the bit, and continues the generator's stream where it stood."""
    gen, ref = Rng(3).generator(), Rng(3).generator()
    out = np.empty((2, 3, 5, 7))
    for _ in range(2):
        assert fill_normal(out, mean, std, gen) is out
        assert np.array_equal(out, ref.normal(mean, std, size=out.shape))


def test_randn_zero_std_is_constant():
    x = randn((2, 3, 4, 4), 1.5, 0.0, Rng(1))
    np.testing.assert_array_equal(x, np.full((2, 3, 4, 4), 1.5))
    assert moments(x).variance == 0.0


def test_randn_deterministic():
    a = randn((2, 3, 5, 5), 0.0, 1.0, Rng(7, 3))
    b = randn((2, 3, 5, 5), 0.0, 1.0, Rng(7, 3))
    np.testing.assert_array_equal(a, b)


def test_randn_streams_differ():
    a = randn((1, 1, 8, 8), 0.0, 1.0, Rng(7).split("a"))
    b = randn((1, 1, 8, 8), 0.0, 1.0, Rng(7).split("b"))
    assert np.max(np.abs(a - b)) > 1e-6


def test_randn_rejects_bad_shape():
    with pytest.raises(ShapeError):
        randn((2, 0, 4, 4), 0.0, 1.0, Rng(0))
    with pytest.raises(ValueError):
        randn((1, 1, 2, 2), 0.0, -1.0, Rng(0))


def test_rng_split_is_deterministic():
    assert Rng(5).split("x") == Rng(5).split("x")
    assert Rng(5).split("x") != Rng(5).split("y")


def test_moments_direct():
    m = moments(np.array([1.0, 3.0]))
    assert m.mean == 2.0
    assert m.variance == 1.0
    assert m.count == 2


def test_moments_leaves_input_unchanged():
    x = randn((2, 3, 4, 5), 1.5, 2.0, Rng(12))
    before = x.copy()
    m = moments(x)
    np.testing.assert_array_equal(x, before)
    assert m.variance > 0.0


def centred_copy_moments(x):
    """The full-size centred-copy formula moments() used before its second
    pass streamed, verbatim."""
    x = np.asarray(x)
    n = x.size
    mean = float(np.mean(x, dtype=np.float64))
    d = (x - mean).astype(np.float64, copy=False)
    np.square(d, out=d)          # one full-size temporary, not two
    return Moments(mean, float(np.mean(d, dtype=np.float64)), n)


def _moments_cases():
    rng = Rng(31)
    leaf = 1 << 14
    for n in (1, leaf - 1, leaf, leaf + 1, 2 * leaf + 8):
        yield pytest.param(randn((1, 1, 1, n), 0.4, 0.6, rng.split(n)), id=f"size{n}")
    for shape in ((3, 5, 7, 11), (1, 3, 1, 1), (5, 7, 13, 3), (2, 9, 129, 65)):
        yield pytest.param(randn(shape, -0.2, 1.3, rng.split(shape)),
                           id="x".join(map(str, shape)))
    yield pytest.param(randn((2, 5, 41, 37), 1e6, 1.0, rng.split("off")), id="offset1e6")
    x = randn((2, 8, 63, 65), 0.4, 0.6, rng.split("slice"))
    yield pytest.param(x[:, 2:5], id="channel-slice")
    yield pytest.param(randn((3, 4, 65, 67), 0.4, 0.6, rng.split("f32")).astype(np.float32),
                       id="float32")


@pytest.mark.parametrize("x", list(_moments_cases()))
def test_moments_matches_centred_copy_formula(x):
    """The streamed second pass sums in numpy's own pairwise order, so it
    equals the full-size centred copy to the bit."""
    assert moments(x) == centred_copy_moments(x)


def test_moments_empty_is_shape_error():
    with pytest.raises(ShapeError, match="empty"):
        moments(np.zeros((2, 0, 3, 3)))


def test_moments_constant():
    m = moments(np.full((3, 3), 4.25))
    assert m.mean == 4.25
    assert m.variance == 0.0


def test_moments_law_of_large_numbers():
    x = randn((4, 16, 64, 64), 0.0, 1.0, Rng(3))
    assert abs(moments(x).variance - 1.0) < 0.01


def test_moments_merge_reconstructs():
    x = randn((1, 2, 6, 6), 0.3, 1.2, Rng(11).split("x"))
    y = randn((1, 2, 9, 9), -0.5, 0.7, Rng(11).split("y"))
    merged = moments(x).merge(moments(y))
    ref = moments(np.concatenate([x.ravel(), y.ravel()]))
    assert abs(merged.mean - ref.mean) < 1e-10 * max(1, abs(ref.mean))
    assert abs(merged.variance - ref.variance) < 1e-10 * ref.variance
    assert merged.count == ref.count


def test_moments_merge_order_independent():
    a = Moments(1.0, 2.0, 10)
    b = Moments(-3.0, 0.5, 4)
    ab = a.merge(b)
    ba = b.merge(a)
    assert abs(ab.mean - ba.mean) < 1e-12
    assert abs(ab.variance - ba.variance) < 1e-12


def test_duplication_keeps_variance():
    x = randn((1, 3, 8, 8), 0.1, 0.9, Rng(2))
    dup = np.concatenate([x, x], axis=1)
    assert abs(moments(dup).variance - moments(x).variance) < 1e-12
