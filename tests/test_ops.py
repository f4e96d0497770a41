import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from scaleq import ops
from scaleq.errors import ContractError, InvalidRatioError, ShapeError
from scaleq.ops import ConvParams, UpsampleMode
from scaleq.tensor import Rng, moments, randn


def row(vals):
    return np.asarray(vals, dtype=np.float64).reshape(1, 1, 1, -1)


def padded(x, pad, pad_value):
    """x inside a border of width pad filled with pad_value (a scalar or one
    value per channel)."""
    n, c, h, w = x.shape
    xp = np.empty((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:] = np.asarray(pad_value, dtype=x.dtype).reshape(-1, 1, 1)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    return xp


def conv2d_reference(x, p: ConvParams):
    """Naive direct-sum convolution over its own padded input: the oracle
    for ops.conv2d."""
    n = x.shape[0]
    cout, cin_g, kh, kw = p.weight.shape
    pad, ho, wo = ops._conv_geometry(x.shape, p.weight.shape, p.stride, p.dilation)
    xp = padded(x, pad, p.pad_value)
    og = cout // p.groups
    y = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for b in range(n):
        for o in range(cout):
            g = o // og
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for cc in range(cin_g):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (p.weight[o, cc, u, v]
                                        * xp[b, g * cin_g + cc,
                                             i * p.stride + u * p.dilation,
                                             j * p.stride + v * p.dilation])
                    y[b, o, i, j] = acc
            if p.bias is not None:
                y[b, o] += p.bias[o]
    return y.astype(x.dtype)


def column_matrix_reference(x, p: ConvParams):
    """The im2col column matrix built from a padded frame: a
    sliding_window_view of the frame, strided by the stride and the
    dilation, copied with the kernel axes ahead of the output pixels."""
    n = x.shape[0]
    k = p.weight.shape[2]
    pad, ho, wo = ops._conv_geometry(x.shape, p.weight.shape, p.stride, p.dilation)
    span = (k - 1) * p.dilation + 1
    win = sliding_window_view(padded(x, pad, p.pad_value), (span, span), axis=(2, 3))
    win = win[:, :, ::p.stride, ::p.stride, ::p.dilation, ::p.dilation]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(n, p.groups, -1, ho * wo)


# ---------------------------------------------------------------------------
# upsampling
# ---------------------------------------------------------------------------

def test_upsample_identity():
    x = randn((1, 2, 4, 4), 0.0, 1.0, Rng(0))
    y = ops.upsample_to(x, (4, 4), UpsampleMode("bilinear", True))
    np.testing.assert_array_equal(x, y)


def test_upsample_rejects_small_ratio():
    x = np.zeros((1, 1, 4, 4))
    for out_hw in ((2, 8), (4, 3)):
        for fn in (ops.upsample_to, ops.upsample_moments):
            with pytest.raises(InvalidRatioError, match="downsampling"):
                fn(x, out_hw)


def test_upsample_moments_rejects_area():
    """A^T A of an area map is not tridiagonal, so the five-product formula
    would return a wrong variance."""
    with pytest.raises(ContractError, match="area"):
        ops.upsample_moments(np.zeros((1, 1, 8, 8)), (4, 4), ops.AREA)


@pytest.mark.parametrize("mode", [UpsampleMode("bilinear", False),
                                  UpsampleMode("bilinear", True), ops.AREA],
                         ids=["False", "True", "area"])
def test_upsample_adjoint_is_the_transpose(mode):
    """<A(X), G> == <X, A^T(G)> to 1e-12 on a non-square size and ratio:
    the upsampling (5, 7) -> (20, 21), and under AREA the pooling
    (20, 21) -> (5, 7)."""
    area = mode == ops.AREA
    in_hw, out_hw = ((20, 21), (5, 7)) if area else ((5, 7), (20, 21))
    rng = Rng(31)
    x = randn((2, 3) + in_hw, 0.0, 1.0, rng.split("x"))
    g = randn((2, 3) + out_hw, 0.0, 1.0, rng.split("g"))
    gx = ops.upsample_adjoint(g, in_hw, mode)
    assert gx.shape == x.shape
    y = ops.avgpool_to(x, out_hw) if area else ops.upsample_to(x, out_hw, mode)
    lhs = float(np.sum(y * g))
    assert abs(lhs - float(np.sum(x * gx))) < 1e-12


def test_upsample_adjoint_identity_and_contracts():
    g = randn((1, 2, 4, 6), 0.0, 1.0, Rng(32))
    assert ops.upsample_adjoint(g, (4, 6)) is g
    with pytest.raises(InvalidRatioError, match="downsampling"):
        ops.upsample_adjoint(g, (5, 6))
    with pytest.raises(ShapeError):
        ops.upsample_adjoint(g[0], (2, 3))


def test_bilinear_hand_values_half_pixel():
    a, b = 2.0, 10.0
    y = ops.upsample_to(row([a, b]), (2, 4), UpsampleMode("bilinear", False))
    np.testing.assert_allclose(
        y[0, 0, 0], [a, 0.75 * a + 0.25 * b, 0.25 * a + 0.75 * b, b], rtol=1e-14)


def test_bilinear_hand_values_align_corners():
    y = ops.upsample_to(row([0.0, 1.0]), (2, 4), UpsampleMode("bilinear", True))
    np.testing.assert_allclose(y[0, 0, 0], [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-15)


def test_upsample_constant_fixpoint():
    x = np.full((2, 3, 5, 7), -1.25)
    for align in (False, True):
        for r in (2, 3, 8):
            y = ops.upsample_to(x, (5 * r, 7 * r), UpsampleMode("bilinear", align))
            np.testing.assert_allclose(y, -1.25, rtol=0, atol=1e-14)
            assert moments(y).variance == pytest.approx(0.0, abs=1e-28)


def test_upsample_moments_matches_materialized():
    """Banded fast path against the actual upsampled tensor.  The 1-pixel
    axes, (1, 2, 1, 7) and (1, 2, 6, 1), have empty off-diagonals."""
    rng = Rng(21)
    for t, (kernel, align) in enumerate(itertools.product(
            ("bilinear", "nearest"), (False, True))):
        mode = UpsampleMode(kernel, align)
        cases = [(randn((2, 3, 5, 9), 0.3, 1.1, rng.split(t)),
                  ((10, 18), (13, 9), (40, 72))),
                 (randn((1, 2, 1, 7), 0.3, 1.1, rng.split(f"{t}/row")), ((4, 21),)),
                 (randn((1, 2, 6, 1), 0.3, 1.1, rng.split(f"{t}/col")), ((6, 5),))]
        for x, sizes in cases:
            for out_hw in sizes:
                fast = ops.upsample_moments(x, out_hw, mode)
                ref = moments(ops.upsample_to(x, out_hw, mode))
                assert fast.mean == pytest.approx(ref.mean, abs=1e-12)
                assert fast.variance == pytest.approx(ref.variance, abs=1e-12)
                assert fast.count == ref.count


def test_upsample_moments_large_offset():
    """Centering before the sums keeps the variance of a 1e4-offset,
    1e-3-spread input; E[y^2] - mean^2 lost most of it."""
    x = randn((2, 3, 16, 16), 1e4, 1e-3)
    for mode in (UpsampleMode("bilinear", False), UpsampleMode("bilinear", True),
                 UpsampleMode("nearest")):
        fast = ops.upsample_moments(x, (64, 64), mode)
        ref = moments(ops.upsample_to(x, (64, 64), mode))
        assert fast.variance == pytest.approx(ref.variance, rel=1e-6)
        assert fast.mean == pytest.approx(ref.mean, rel=1e-12)


def centred_copy_upsample_moments(x, out_hw, mode=UpsampleMode()):
    """The full-size centred-copy formula upsample_moments() used before it
    centred in row blocks, verbatim."""
    h, w, oh, ow = ops._map_hw(x.shape[2:], out_hw, mode.kernel)
    n, c = x.shape[:2]
    sh, dh, eh = ops._axis_bands(h, oh, mode.kernel, mode.align_corners)
    sw, dw, ew = ops._axis_bands(w, ow, mode.kernel, mode.align_corners)
    maps = np.asarray(x, dtype=np.float64).reshape(n * c, h, w)
    count = n * c * oh * ow
    mean = float(sh @ maps.sum(axis=0) @ sw) / count
    z = maps - mean
    dot = ops._map_dot
    sumsq = (dh @ dot(z, z) @ dw
             + 2.0 * (dh @ dot(z[:, :, :-1], z[:, :, 1:]) @ ew)
             + 2.0 * (eh @ dot(z[:, :-1], z[:, 1:]) @ dw)
             + 2.0 * (eh @ (dot(z[:, :-1, :-1], z[:, 1:, 1:])
                            + dot(z[:, :-1, 1:], z[:, 1:, :-1])) @ ew))
    return ops.Moments(mean, float(sumsq) / count, count)


@pytest.mark.parametrize("h,w", [(1, 7), (6, 1), (1, 1), (4, 9), (5, 1),
                                 (6, 2), (9, 5), (11, 13)])
def test_upsample_moments_matches_centred_copy_formula(h, w):
    """Row-block centring keeps each pixel's sum over the maps, so the
    moments equal the full-size centred copy's to the bit: one-pixel axes,
    heights that are and are not a multiple of the block, both kernels,
    both align modes and ratios 1-5."""
    x = randn((2, 5, h, w), 0.4, 0.6, Rng(23).split((h, w)))
    for kernel, align, r in itertools.product(("bilinear", "nearest"),
                                              (False, True), range(1, 6)):
        mode = UpsampleMode(kernel, align)
        assert (ops.upsample_moments(x, (r * h, r * w), mode)
                == centred_copy_upsample_moments(x, (r * h, r * w), mode))
    big = randn((2, 5, h, w), 1e6, 1.0, Rng(23).split("offset"))
    assert (ops.upsample_moments(big, (3 * h, 2 * w))
            == centred_copy_upsample_moments(big, (3 * h, 2 * w)))


def test_upsample_moments_empty_is_shape_error():
    with pytest.raises(ShapeError, match="empty"):
        ops.upsample_moments(np.zeros((0, 2, 3, 3)), (6, 6))


@pytest.mark.parametrize("fn", [moments, lambda x: ops.upsample_moments(x, (256, 256))],
                         ids=["moments", "upsample_moments"])
def test_moments_peak_memory_is_a_fraction_of_the_input(fn):
    """Neither call makes a full-size centred copy of its input."""
    x = randn((2, 32, 128, 128), 0.4, 0.6, Rng(9))
    assert x.nbytes >= 8 << 20
    tracemalloc.start()
    try:
        fn(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 4


def test_axis_matrix_rows():
    """Each output pixel is a convex combination of at most two adjacent
    source pixels (exactly one for nearest), so A^T A is tridiagonal; the
    cached matrix is read-only."""
    for kernel, align in itertools.product(("bilinear", "nearest"), (False, True)):
        for n_in, n_out in ((1, 4), (5, 7), (5, 13), (16, 64)):
            m = ops._axis_matrix(n_in, n_out, kernel, align)
            assert m.shape == (n_out, n_in)
            np.testing.assert_allclose(m.sum(axis=1), 1.0, rtol=0, atol=1e-15)
            assert ((m != 0).sum(axis=1) <= (1 if kernel == "nearest" else 2)).all()
            assert (np.triu(m.T @ m, 2) == 0).all()
            with pytest.raises(ValueError):
                m[0, 0] = 0.5


def test_bilinear_decreases_variance_sweep():
    rng = Rng(33)
    for t in range(50):
        x = randn((1, 2, 9, 11), 0.0, 1.0, rng.split(t))
        v0 = moments(x).variance
        for r in (2, 4, 8):
            for align in (False, True):
                va = ops.upsample_moments(x, (9 * r, 11 * r),
                                          UpsampleMode("bilinear", align)).variance
                assert va < v0


def test_nearest_integer_ratio_conserves_variance():
    rng = Rng(34)
    for t in range(20):
        x = randn((1, 3, 6, 7), 0.2, 0.8, rng.split(t))
        v0 = moments(x).variance
        for r in (2, 4, 8):
            v = moments(ops.upsample_to(x, (6 * r, 7 * r),
                                        UpsampleMode("nearest"))).variance
            assert abs(v - v0) < 1e-12


def test_bilinear_near_conserves_mean():
    x = randn((1, 2, 128, 128), 0.4, 0.9, Rng(35))
    m0 = moments(x)
    for r in (2, 8):
        m = ops.upsample_moments(x, (128 * r, 128 * r), UpsampleMode())
        assert abs(m.mean - m0.mean) <= 0.01 * math.sqrt(m0.variance)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_conv_identity_1x1():
    x = randn((2, 3, 6, 6), 0.0, 1.0, Rng(40))
    w = np.eye(3).reshape(3, 3, 1, 1)
    np.testing.assert_allclose(ops.conv2d(x, ConvParams(w)), x, rtol=1e-14)


def test_conv_mean_kernel_interior():
    x = np.full((1, 1, 7, 7), 3.0)
    w = np.full((1, 1, 3, 3), 1.0 / 9.0)
    y = ops.conv2d(x, ConvParams(w))
    np.testing.assert_allclose(y[0, 0, 1:-1, 1:-1], 3.0, rtol=1e-14)
    # zero padding attenuates the border
    assert y[0, 0, 0, 0] < 3.0


def test_conv_channel_mismatch():
    x = np.zeros((1, 4, 5, 5))
    with pytest.raises(ShapeError):
        ops.conv2d(x, ConvParams(np.zeros((2, 3, 3, 3))))


def test_conv_rejects_even_or_non_square_kernel():
    """Same padding is symmetric only for an odd square kernel."""
    for kernel in ((2, 2), (1, 3), (3, 1), (4, 4)):
        with pytest.raises(ShapeError):
            ops.conv2d(np.zeros((1, 2, 5, 5)),
                       ConvParams(np.zeros((2, 2) + kernel)))


def test_conv_matches_reference_oracle():
    """Vectorized conv against the naive quintuple-loop direct sum."""
    rng = Rng(50)
    # (cin, cout, k, stride, dilation, groups, (h, w), per-channel pad)
    cases = [(4, 6 if groups != 4 else 4, 3, stride, dilation, groups, (8, 9), False)
             for stride in (1, 2) for dilation in (1, 2, 3) for groups in (1, 2, 4)]
    cases += [(4, 6, 1, stride, 1, groups, (8, 9), False)      # 1x1
              for stride in (1, 2) for groups in (1, 2)]
    cases += [(6, 6, 3, 1, 2, 6, (8, 9), False),                # depthwise
              (6, 12, 3, 2, 1, 6, (9, 7), False),               # depthwise, x2
              (4, 6, 5, 1, 1, 1, (8, 9), False),                # 5x5
              (4, 6, 5, 2, 1, 2, (9, 11), False),               # odd, stride 2
              (4, 6, 3, 2, 1, 1, (7, 7), False),
              (4, 6, 3, 1, 1, 2, (8, 9), True),                 # grouped + pad
              (6, 6, 3, 2, 2, 6, (9, 8), True)]
    # channel-reducing, stride 1: the tap loop (the fusion conv's path)
    cases += [(6, 4, 3, 1, 1, 1, (8, 9), False),
              (6, 4, 3, 1, 2, 1, (8, 9), False),                # dilated
              (6, 4, 5, 1, 1, 1, (8, 9), False),                # 5x5
              (6, 4, 1, 1, 1, 1, (8, 9), False),                # 1x1: im2col
              (6, 4, 3, 1, 1, 1, (8, 9), True),                 # per-channel pad
              (6, 4, 3, 1, 3, 1, (8, 6), False),                # Wp == 2 Wo: im2col
              (6, 4, 3, 1, 3, 1, (8, 7), False)]                # Wp < 2 Wo: taps
    assert not ops._use_taps((4, 6, 3, 3), 1, 1, 6 + 6, 6)
    assert ops._use_taps((4, 6, 3, 3), 1, 1, 7 + 6, 7)
    for i, (cin, cout, k, stride, dilation, groups, hw, pad) in enumerate(cases):
        x = randn((2, cin) + hw, 0.0, 1.0, rng.split(f"x{i}"))
        w = randn((cout, cin // groups, k, k), 0.0, 0.5, rng.split(f"w{i}"))
        b = randn((1, cout, 1, 1), 0.0, 0.5, rng.split(f"b{i}"))[0, :, 0, 0]
        pv = randn((1, 1, 1, cin), 0.0, 1.0, rng.split(f"p{i}")).ravel() if pad else 0.0
        for bias in (None, b):
            p = ConvParams(w, bias, stride, dilation, groups, pv)
            np.testing.assert_allclose(ops.conv2d(x, p),
                                       conv2d_reference(x, p), atol=1e-10)


def test_conv_per_channel_pad_value():
    rng = Rng(51)
    x = randn((1, 3, 6, 6), 0.0, 1.0, rng.split("x"))
    w = randn((2, 3, 3, 3), 0.0, 0.5, rng.split("w"))
    pv = np.array([0.5, -1.0, 2.0])
    p = ConvParams(w, pad_value=pv)
    np.testing.assert_allclose(ops.conv2d(x, p),
                               conv2d_reference(x, p), atol=1e-10)
    # same as manually embedding x into a constant border: the interior
    # of a conv over the embedded input reads no padding
    xb = np.empty((1, 3, 8, 8))
    xb[:] = pv.reshape(1, 3, 1, 1)
    xb[:, :, 1:-1, 1:-1] = x
    ref = ops.conv2d(xb, ConvParams(w))[:, :, 1:-1, 1:-1]
    np.testing.assert_allclose(ops.conv2d(x, p), ref, atol=1e-12)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("hw", [(5, 7), (7, 4)])
def test_conv_operand_matches_padded_frame_windows(k, hw):
    """The column matrix that im2col fills from x is == to the one cut from
    a padded frame: strides 1-3, dilations 1 up to past the map, groups 1,
    2 and C, a zero, a scalar and a per-channel pad value.  The weight
    widens the channels, so the operand is a column matrix."""
    rng = Rng(54).split((k, hw))
    c = 4
    x = randn((2, c) + hw, 0.0, 1.0, rng.split("x"))
    pads = (0.0, -1.5, randn((1, 1, 1, c), 0.0, 1.0, rng.split("p")).ravel())
    for stride, dilation, groups, pv in itertools.product(
            (1, 2, 3), range(1, max(hw) + 2), (1, 2, c), pads):
        w = np.zeros((2 * c, c // groups, k, k))
        p = ConvParams(w, None, stride, dilation, groups, pv)
        assert not ops._conv_plan(x, p)[3]
        np.testing.assert_array_equal(ops._conv_operand(x, p),
                                      column_matrix_reference(x, p))


@pytest.mark.parametrize("groups", [1, 3], ids=["dense", "depthwise"])
def test_conv_dead_taps_match_reference(groups):
    """Every off-centre tap of a 3x3 kernel reads only padding at a dilation
    of at least H and W, the column taps alone at one between W and H, and
    none just below both.  Forward, dW and dX match the direct sum at each,
    dW and dX by linearity: <g, conv(x, e_k)> and <g, conv(e_j, w)> for the
    unit weights e_k and unit inputs e_j.  A dead tap's dW is exactly 0."""
    h, w, c = 5, 4, 3
    rng = Rng(55).split(groups)
    x = randn((1, c, h, w), 0.0, 1.0, rng.split("x"))
    wt = randn((c, c // groups, 3, 3), 0.0, 0.5, rng.split("w"))
    g = randn((1, c, h, w), 0.0, 1.0, rng.split("g"))
    for d, n_dead in ((min(h, w) - 1, 0), (w, 6), (max(h, w), 8), (36, 8)):
        p = ConvParams(wt, dilation=d, groups=groups)
        np.testing.assert_allclose(ops.conv2d(x, p), conv2d_reference(x, p),
                                   atol=1e-12)
        dw = ops._conv_weight_grad(ops._conv_operand(x, p), p, g)
        dx = ops._conv_input_grad(x.shape, p, g)
        dw_ref, dx_ref = np.empty_like(wt), np.empty_like(x)
        for i in np.ndindex(wt.shape):
            e = np.zeros_like(wt)
            e[i] = 1.0
            dw_ref[i] = np.sum(g * conv2d_reference(x, ConvParams(e, None, 1, d, groups)))
        for i in np.ndindex(x.shape):
            e = np.zeros_like(x)
            e[i] = 1.0
            dx_ref[i] = np.sum(g * conv2d_reference(e, p))
        np.testing.assert_allclose(dw, dw_ref, atol=1e-12)
        np.testing.assert_allclose(dx, dx_ref, atol=1e-12)
        off = np.abs(np.arange(3) - 1) * d
        dead = (off[:, None] >= h) | (off[None, :] >= w)
        assert dead.sum() == n_dead
        assert (dw[:, :, dead] == 0).all()


def test_atrous_conv_builds_no_padded_frame():
    """A 3x3 conv at rate 36 on (16, 16, 8, 8), an ASPP branch at audit
    batch 16, fills its 1.2 MB column matrix from x and never makes the
    13.1 MB padded (80, 80) frame."""
    rng = Rng(56)
    x = randn((16, 16, 8, 8), 0.0, 1.0, rng.split("x"))
    p = ConvParams(randn((16, 16, 3, 3), 0.0, 0.5, rng.split("w")), dilation=36)
    tracemalloc.start()
    try:
        ops.conv2d(x, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


def test_conv_dilated_receptive_field():
    # dilation-2 3x3 kernel touches a 5x5 footprint with holes
    x = np.zeros((1, 1, 7, 7))
    x[0, 0, 3, 3] = 1.0
    w = np.ones((1, 1, 3, 3))
    y = ops.conv2d(x, ConvParams(w, dilation=2))
    hits = np.argwhere(y[0, 0] != 0)
    assert {tuple(h) for h in hits} == {(r, c) for r in (1, 3, 5) for c in (1, 3, 5)}


# ---------------------------------------------------------------------------
# batchnorm / relu / pooling / add
# ---------------------------------------------------------------------------

def test_batchnorm_normalizes_channels():
    x = randn((4, 3, 8, 8), 5.0, 10.0, Rng(60))
    y = ops.batchnorm(x, np.ones(3), np.zeros(3))
    for m in (moments(y[:, ch]) for ch in range(3)):
        assert abs(m.mean) < 1e-10
        assert abs(m.variance - 1.0) < 1e-6


def test_batchnorm_constant_channel():
    x = np.full((2, 1, 4, 4), 7.0)
    y = ops.batchnorm(x, np.ones(1), np.zeros(1))
    np.testing.assert_allclose(y, 0.0, atol=1e-12)


def test_batchnorm_affine():
    x = randn((4, 2, 16, 16), 0.0, 20.0, Rng(61))
    y = ops.batchnorm(x, np.full(2, 2.0), np.full(2, 3.0))
    for m in (moments(y[:, ch]) for ch in range(2)):
        assert abs(m.mean - 3.0) < 1e-9
        assert abs(m.variance - 4.0) < 1e-4


def test_batchnorm_needs_population():
    with pytest.raises(ShapeError):
        ops.batchnorm(np.zeros((1, 2, 1, 1)), np.ones(2), np.zeros(2))
    with pytest.raises(ShapeError):
        ops.batchnorm(np.zeros((2, 3, 2, 2)), np.ones(2), np.zeros(2))


def test_relu():
    np.testing.assert_array_equal(ops.relu(np.array([-1.0, 2.0])), [0.0, 2.0])
    x = -np.abs(randn((1, 1, 4, 4), 0.0, 1.0, Rng(63))) - 0.1
    y = ops.relu(x)
    assert moments(y).variance == 0.0


def test_unit_block_moment_constants():
    """Wide unit block: post-ReLU moments near the Gaussian closed form."""
    x = randn((8, 128, 32, 32), 0.0, 1.0, Rng(64).split("x"))
    w = randn((128, 128, 1, 1), 0.0, math.sqrt(2.0 / 128), Rng(64).split("w"))
    y = ops.relu(ops.batchnorm(ops.conv2d(x, ConvParams(w)),
                               np.ones(128), np.zeros(128)))
    m = moments(y)
    mean_ref = 1.0 / math.sqrt(2 * math.pi)
    var_ref = (math.pi - 1) / (2 * math.pi)
    assert abs(m.mean - mean_ref) < 0.02 * mean_ref
    assert abs(m.variance - var_ref) < 0.02 * var_ref


def test_avgpool_global_equals_channel_mean():
    x = randn((2, 3, 6, 6), 0.0, 1.0, Rng(65))
    y = ops.avgpool_to(x, (1, 1))
    np.testing.assert_allclose(y[:, :, 0, 0], x.mean(axis=(2, 3)), rtol=1e-12)


def test_avgpool_identity_and_blocks():
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    np.testing.assert_array_equal(ops.avgpool_to(x, (4, 4)), x)
    y = ops.avgpool_to(x, (2, 2))
    np.testing.assert_allclose(
        y[0, 0], [[x[0, 0, :2, :2].mean(), x[0, 0, :2, 2:].mean()],
                  [x[0, 0, 2:, :2].mean(), x[0, 0, 2:, 2:].mean()]])


def test_avgpool_uneven_bins():
    """Every output cell (i, j) is the mean of the input window
    [floor(i*H/h), ceil((i+1)*H/h)) x the same along width; the windows
    overlap where h does not divide H.  Each row of a per-axis pooling
    matrix sums to 1."""
    rng = Rng(66)
    for (h, w), (oh, ow) in (((6, 6), (4, 4)), ((7, 7), (3, 3)), ((5, 5), (2, 2)),
                             ((8, 8), (6, 6)), ((7, 5), (3, 2)), ((7, 5), (1, 1))):
        x = randn((2, 3, h, w), 0.0, 1.0, rng.split(f"{h}x{w}->{oh}x{ow}"))
        y = ops.avgpool_to(x, (oh, ow))
        assert y.shape == (2, 3, oh, ow)
        for i in range(oh):
            r0, r1 = math.floor(i * h / oh), math.ceil((i + 1) * h / oh)
            for j in range(ow):
                c0, c1 = math.floor(j * w / ow), math.ceil((j + 1) * w / ow)
                np.testing.assert_allclose(
                    y[:, :, i, j], x[:, :, r0:r1, c0:c1].mean(axis=(2, 3)),
                    rtol=1e-12, atol=1e-15)
        for n_in, n_out in ((h, oh), (w, ow)):
            m = ops._axis_matrix(n_in, n_out, "area", False)    # cached, read-only
            np.testing.assert_allclose(m.sum(axis=1), 1.0, rtol=0, atol=1e-15)
            with pytest.raises(ValueError):
                m[0, 0] = 0.5


def test_avgpool_rejects_upsizing():
    with pytest.raises(ShapeError):
        ops.avgpool_to(np.zeros((1, 1, 2, 2)), (3, 3))
