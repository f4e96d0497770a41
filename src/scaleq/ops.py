"""Forward numerical operators on NCHW arrays, with the adjoints of the
linear ones beside them.

One separable resampling map, 2-D convolution (dense, atrous, grouped;
odd square kernels at "same" padding), batch normalization over the
batch's own statistics and ReLU.
Everything is float64-friendly pure numpy built on batched matmuls.
Resampling is A_h X A_w^T with cached read-only axis matrices, and its
adjoint is A_h^T G A_w.  The bilinear and nearest kernels upsample; the
area kernel is adaptive average pooling, as torch's interpolate "area"
mode is.  Convolution has two kernels, picked by
`_use_taps` from the shapes alone.  A dense stride-1 conv that does not
widen the channels, such as the fusion conv over the branches, runs one
(Cout, Cin) matmul per kernel tap on a contiguous slice of the flat padded
frame (kn2row-aa, Anderson et al., 2017).  Every other conv multiplies the
weight with an im2col column matrix (Chellapilla et al., 2006), filled
from the unpadded input one kernel tap at a time, with the pad value where
a tap reads the border; no padded frame is made for it, and an atrous tap
that reads only padding is one fill.  `_conv_operand` builds that frame or
column matrix, and the weight gradient takes the forward's operand rather
than building it again.  A conv's input is one array or a list of channel
blocks that share N, H and W, read as their concatenation along C: the
frame or the column matrix is filled from each block at its channel
offset, so a conv fed by a concatenation never makes it (as in
Memory-Efficient DenseNets, Pleiss et al., 2017).  dX is the transposed
convolution (Dumoulin & Visin, 2016).  Same padding of an odd square
kernel is symmetric, so at stride 1 dX is this forward convolution of G
with the group-transposed, spatially flipped kernel; at a larger stride
each kernel tap scatters W^T G onto its strided window of the padded
grid.

Upsampled moments never materialize the output.  Each row of a bilinear
or nearest axis matrix reads at most two adjacent source pixels, so A^T A
is tridiagonal (diagonal for nearest), and the sum of squares of the
centered output is a weighted sum of five neighbour products of the
centered input.  No centred copy of the input is made either: a few rows
of every map are centred at a time in one reused buffer, and each pixel's
sum over the maps runs in the order numpy's einsum gives it over the whole
tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractError, InvalidRatioError, ShapeError
from .tensor import Moments, _check_nchw

BN_EPS = 1e-5
_BLOCK_ROWS = 4           # rows of every map centred at a time by upsample_moments


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpsampleMode:
    kernel: str = "bilinear"          # "bilinear" | "nearest" | "area"
    align_corners: bool = False


AREA = UpsampleMode("area")


@lru_cache(maxsize=64)
def _axis_matrix(n_in: int, n_out: int, kernel: str, align_corners: bool) -> np.ndarray:
    """Dense, read-only (n_out, n_in) matrix of the per-axis map.

    Bilinear output i reads src[i0]*(1-t) + src[i1]*t: align_corners=False
    uses half-pixel centers with edge-clamped reads, align_corners=True maps
    i -> i*(n_in-1)/(n_out-1).  Nearest is a 0/1 matrix.  Area row i
    averages [floor(i*n_in/n_out), ceil((i+1)*n_in/n_out)) and ignores
    align_corners.
    """
    i = np.arange(n_out, dtype=np.float64)
    rows = np.arange(n_out)
    m = np.zeros((n_out, n_in))
    if kernel == "nearest":
        m[rows, np.minimum(np.floor((i + 0.5) * n_in / n_out).astype(np.intp),
                           n_in - 1)] = 1.0
    elif kernel == "bilinear":
        if align_corners:
            src = i * (n_in - 1) / (n_out - 1) if n_out > 1 else np.zeros(n_out)
        else:
            src = (i + 0.5) * n_in / n_out - 0.5
        src = np.clip(src, 0.0, n_in - 1)
        i0 = np.floor(src).astype(np.intp)
        i1 = np.minimum(i0 + 1, n_in - 1)
        t = src - i0
        np.add.at(m, (rows, i0), 1.0 - t)       # i0 == i1 at the clamped edge
        np.add.at(m, (rows, i1), t)
    elif kernel == "area":
        for r in range(n_out):
            lo, hi = (r * n_in) // n_out, -(-((r + 1) * n_in) // n_out)
            m[r, lo:hi] = 1.0 / (hi - lo)
    else:
        raise ValueError(f"unknown upsampling kernel {kernel!r}")
    m.flags.writeable = False
    return m


@lru_cache(maxsize=64)
def _axis_bands(n_in: int, n_out: int, kernel: str, align_corners: bool):
    """Column sums, diagonal and first off-diagonal of A^T A for the axis
    matrix A; every other band of A^T A is zero."""
    a = _axis_matrix(n_in, n_out, kernel, align_corners)
    g = a.T @ a
    bands = (a.sum(axis=0), np.diagonal(g).copy(), np.diagonal(g, 1).copy())
    for b in bands:
        b.flags.writeable = False
    return bands


def _map_hw(in_hw, out_hw, kernel: str):
    """(h, w, oh, ow) of the resampling map from in_hw to out_hw: area may
    only shrink and the upsampling kernels may only grow."""
    h, w = int(in_hw[0]), int(in_hw[1])
    oh, ow = int(out_hw[0]), int(out_hw[1])
    if kernel == "area":
        if oh > h or ow > w:
            raise ShapeError(f"pool output {(oh, ow)} exceeds input {(h, w)}")
    elif oh < h or ow < w:
        raise InvalidRatioError(f"downsampling is not supported: output size "
                                f"{(oh, ow)} below input {(h, w)}")
    return h, w, oh, ow


def _resample(x: np.ndarray, in_hw, out_hw, mode: UpsampleMode,
              adjoint: bool = False) -> np.ndarray:
    """A_h X A_w^T for the map from in_hw to out_hw under mode, or with
    adjoint A_h^T X A_w, which takes X from out_hw back to in_hw.  X itself
    when the sizes are equal."""
    _check_nchw(x)
    h, w, oh, ow = _map_hw(in_hw, out_hw, mode.kernel)
    if (oh, ow) == (h, w):
        return x
    ah = _axis_matrix(h, oh, mode.kernel, mode.align_corners)
    aw = _axis_matrix(w, ow, mode.kernel, mode.align_corners)
    return ah.T @ x @ aw if adjoint else ah @ x @ aw.T


def upsample_to(x: np.ndarray, out_hw, mode: UpsampleMode = UpsampleMode()) -> np.ndarray:
    """Upsample to an explicit output size (avoids rounding ambiguity)."""
    return _resample(x, x.shape[2:], out_hw, mode)


def avgpool_to(x: np.ndarray, out_size) -> np.ndarray:
    """Adaptive average pooling to out_size: the map under AREA."""
    return _resample(x, x.shape[2:], out_size, AREA)


def upsample_adjoint(g: np.ndarray, in_hw, mode: UpsampleMode = UpsampleMode()) -> np.ndarray:
    """A_h^T G A_w: the adjoint of upsample_to from size in_hw to G's size,
    or of avgpool_to under AREA, which maps an output gradient G back to
    the input grid.  G itself when the sizes are equal, as the forward
    returns its input."""
    return _resample(g, in_hw, g.shape[2:], mode, adjoint=True)


def _map_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pixel sum over maps of a * b, for (M, h, w) arrays."""
    return np.einsum("mhw,mhw->hw", a, b)


def upsample_moments(x: np.ndarray, out_hw, mode: UpsampleMode = UpsampleMode()) -> Moments:
    """Moments of upsample_to(x, out_hw, mode) without materializing the
    output y = A_h X A_w^T.

    The mean is s_h^T (sum of the maps) s_w / count, with s the column sums
    of A.  Rows of A sum to 1, so y - mean = A_h Z A_w^T with Z = X - mean,
    and sum((y - mean)^2) = sum(G_h Z G_w * Z) for the tridiagonal Gram
    matrices G = A^T A.  That sum is five neighbour products of Z (the pixel
    with itself, its w- and h-neighbour and its two diagonal neighbours),
    each weighted by the diagonal d or off-diagonal e of the two axes.
    Centering first keeps the variance exact under large offsets.  Z is
    centred _BLOCK_ROWS rows at a time, plus the next row for the
    h-neighbours, so no full-size copy is made.  An area map that shrinks by
    2 or more has no tridiagonal A^T A, so AREA is a ContractError.
    """
    if mode.kernel == "area":
        raise ContractError("upsample_moments needs an upsampling kernel, "
                            "not area")
    _check_nchw(x)
    h, w, oh, ow = _map_hw(x.shape[2:], out_hw, mode.kernel)
    if x.size == 0:
        raise ShapeError(f"moments of an empty tensor of shape {x.shape}")
    n, c = x.shape[:2]
    sh, dh, eh = _axis_bands(h, oh, mode.kernel, mode.align_corners)
    sw, dw, ew = _axis_bands(w, ow, mode.kernel, mode.align_corners)
    maps = np.asarray(x, dtype=np.float64).reshape(n * c, h, w)
    count = n * c * oh * ow
    mean = float(sh @ maps.sum(axis=0) @ sw) / count
    # per-pixel sums over the maps of z*z and of the w-, h- and diagonal
    # neighbour products
    zz, zw = np.empty((h, w)), np.empty((h, w - 1))
    zh, zd = np.empty((h - 1, w)), np.empty((h - 1, w - 1))
    buf = np.empty((n * c, min(h, _BLOCK_ROWS + 1), w))
    for r0 in range(0, h, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, h)
        z = buf[:, :min(r1 + 1, h) - r0]
        np.subtract(maps[:, r0:r0 + z.shape[1]], mean, out=z)
        zb = z[:, :r1 - r0]
        zz[r0:r1] = _map_dot(zb, zb)
        zw[r0:r1] = _map_dot(zb[:, :, :-1], zb[:, :, 1:])
        k = z.shape[1] - 1
        zh[r0:r0 + k] = _map_dot(z[:, :k], z[:, 1:])
        zd[r0:r0 + k] = (_map_dot(z[:, :k, :-1], z[:, 1:, 1:])
                         + _map_dot(z[:, :k, 1:], z[:, 1:, :-1]))
    sumsq = (dh @ zz @ dw
             + 2.0 * (dh @ zw @ ew)
             + 2.0 * (eh @ zh @ dw)
             + 2.0 * (eh @ zd @ ew))
    return Moments(mean, float(sumsq) / count, count)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

@dataclass
class ConvParams:
    """Weights and hyperparameters of one 2-D convolution.

    The kernel is square with an odd side and pads "same" for its dilation,
    so a stride-1 conv keeps the spatial size.  pad_value may be a scalar or
    a per-input-channel vector (used by the calibrated equalizer to pad each
    branch with its own global mean).
    """

    weight: np.ndarray                    # (Cout, Cin/groups, k, k)
    bias: np.ndarray | None = None        # (Cout,)
    stride: int = 1
    dilation: int = 1
    groups: int = 1
    pad_value: float | np.ndarray = 0.0


def same_padding(kernel: int, dilation: int = 1) -> int:
    return ((kernel - 1) * dilation) // 2


def _conv_input(x):
    """(blocks, (N, C, H, W)) of a conv input: one NCHW array, or a list of
    NCHW channel blocks that share N, H and W and stack along C in order,
    as a concatenation would, though none is made."""
    if not isinstance(x, (list, tuple)):
        return [_check_nchw(x)], x.shape
    blocks = list(x)
    if not blocks:
        raise ShapeError("a conv input needs at least one channel block")
    for b in blocks:
        _check_nchw(b)
    n, _, h, w = blocks[0].shape
    if any(b.shape[0] != n or b.shape[2:] != (h, w) for b in blocks):
        raise ShapeError(f"channel blocks {[b.shape for b in blocks]} do not "
                         f"share N, H and W")
    return blocks, (n, sum(b.shape[1] for b in blocks), h, w)


def _block_spans(blocks) -> list:
    """((start, stop), block) for each channel block of a conv input, the
    span of channels it fills."""
    spans, c0 = [], 0
    for b in blocks:
        spans.append(((c0, c0 + b.shape[1]), b))
        c0 += b.shape[1]
    return spans


def _flat_frame(x, pad: int, pad_value, kw: int, dilation: int) -> np.ndarray:
    """The padded input as one (N, C, Hp*Wp + (kw-1)*dilation) buffer, rows
    flattened, borders and tail filled with pad_value (a scalar or one value
    per channel).  A list input fills it one channel block at a time.  At
    stride 1, kernel tap (u, v) of a conv reads the contiguous slice at
    offset (u*Wp + v)*dilation, of length Ho*Wp; the tail lets the last
    tap's slice run Wp - Wo columns past the frame."""
    blocks, (n, c, h, w) = _conv_input(x)
    hp, wp = h + 2 * pad, w + 2 * pad
    dtype = np.result_type(*blocks)
    frame = np.empty((n, c, hp * wp + (kw - 1) * dilation), dtype=dtype)
    pv = np.asarray(pad_value, dtype=dtype)
    frame[:] = pv.reshape(1, c, 1) if pv.ndim == 1 else pv
    grid = frame[:, :, :hp * wp].reshape(n, c, hp, wp)[:, :, pad:pad + h, pad:pad + w]
    for (c0, c1), b in _block_spans(blocks):
        grid[:, c0:c1] = b
    return frame


def _use_taps(w_shape, stride: int, groups: int, wp: int, wo: int) -> bool:
    """Whether a conv runs one matmul per kernel tap on the flat frame
    instead of one matmul on an im2col column matrix.  The taps skip the
    (Cin*kh*kw, Ho*Wo) column matrix but compute Wp/Wo times the output
    and contract over Cin alone, so they pay off for dense stride-1 convs
    that do not widen the channels and whose wide rows stay under twice
    the output row; a large dilation on a small map breaks the last."""
    cout, cin_g, kh, kw = w_shape
    return (stride == 1 and groups == 1 and kh * kw > 1 and cout <= cin_g
            and wp < 2 * wo)


def _tap_slices(frame: np.ndarray, kh: int, kw: int, ho: int, wp: int,
                dilation: int):
    """(u, v, slice) for every kernel tap: the (N, C, Ho*Wp) window of the
    flat frame that tap reads for every output pixel of a wide row."""
    span = ho * wp
    for u in range(kh):
        for v in range(kw):
            off = (u * wp + v) * dilation
            yield u, v, frame[:, :, off:off + span]


def _conv_geometry(x_shape, w_shape, stride, dilation):
    """(pad, Ho, Wo) of a conv at same padding; rejects a kernel that is not
    square with an odd side, for which same padding would be one-sided."""
    h, w = x_shape[2:]
    kh, kw = w_shape[2:]
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"kernel {kh}x{kw} is not square with an odd side")
    pad = same_padding(kh, dilation)
    return pad, (h - 1) // stride + 1, (w - 1) // stride + 1


def _tap_span(n_in: int, n_out: int, offset: int, stride: int):
    """(lo, hi, first) along one axis for a kernel tap at offset from the
    unpadded input: outputs lo..hi-1 read inside the map, output lo reads
    input index first, and every other output reads the padding."""
    lo = min(max(0, -(offset // stride)), n_out)
    hi = min(max(lo, (n_in - 1 - offset) // stride + 1), n_out)
    return lo, hi, lo * stride + offset


def _im2col(x, pad: int, pad_value, groups: int, kh: int, kw: int,
            ho: int, wo: int, stride: int, dilation: int) -> np.ndarray:
    """(N, G, Cin/G*kh*kw, Ho*Wo) column matrix of x padded by pad with
    pad_value (a scalar or one value per channel): column (i, j) holds the
    receptive field of output pixel (i, j), ordered as the weight's
    (Cin/G, kh, kw) axes.  It is filled from x one kernel tap at a time, and
    from a list input one channel block at a time, so no padded frame is
    made: a tap's rows copy the strided window of x it reads and hold
    pad_value wherever it reads the border, and a tap that reads only the
    border is one fill.  A 1x1 kernel at stride 1 over one array is a
    reshape."""
    blocks, (n, c, h, w) = _conv_input(x)
    if kh == kw == 1 and stride == 1:
        x = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        return x.reshape(n, groups, c // groups, ho * wo)
    dtype = np.result_type(*blocks)
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=dtype)
    pv = np.asarray(pad_value, dtype=dtype)
    pv = pv.reshape(1, c, 1, 1) if pv.ndim == 1 else pv
    spans_h = [_tap_span(h, ho, u * dilation - pad, stride) for u in range(kh)]
    spans_w = [_tap_span(w, wo, v * dilation - pad, stride) for v in range(kw)]
    spans_c = _block_spans(blocks)
    for u, (i0, i1, r) in enumerate(spans_h):
        for v, (j0, j1, q) in enumerate(spans_w):
            tap = cols[:, :, u, v]
            if (i0, i1, j0, j1) != (0, ho, 0, wo):
                tap[...] = pv
            if i0 < i1 and j0 < j1:
                for (c0, c1), b in spans_c:
                    tap[:, c0:c1, i0:i1, j0:j1] = b[:, :, r:r + (i1 - i0) * stride:stride,
                                                    q:q + (j1 - j0) * stride:stride]
    return cols.reshape(n, groups, -1, ho * wo)


def _conv_taps(frame: np.ndarray, weight: np.ndarray, ho: int, wo: int,
               wp: int, dilation: int) -> np.ndarray:
    """Stride-1, ungrouped conv as one (Cout, Cin) matmul per kernel tap
    against its slice of the flat frame (kn2row-aa: Anderson et al., 2017),
    accumulated over wide (Ho, Wp) rows whose last Wp - Wo columns are
    cropped.  No column matrix is made."""
    n = frame.shape[0]
    cout, _, kh, kw = weight.shape
    wt = np.ascontiguousarray(weight.transpose(2, 3, 0, 1))
    acc = np.empty((n, cout, ho * wp), dtype=np.result_type(weight, frame))
    tmp = np.empty_like(acc)
    for u, v, window in _tap_slices(frame, kh, kw, ho, wp, dilation):
        if u == v == 0:
            np.matmul(wt[u, v], window, out=acc)
        else:
            np.matmul(wt[u, v], window, out=tmp)
            acc += tmp
    return np.ascontiguousarray(acc.reshape(n, cout, ho, wp)[..., :wo])


def _conv_taps_weight_grad(frame: np.ndarray, g: np.ndarray, kh: int, kw: int,
                           wp: int, dilation: int) -> np.ndarray:
    """Weight gradient of _conv_taps for the output gradient g: per tap,
    g zero-extended to wide rows times that tap's frame slice, summed over
    the batch.  The zero columns cancel the reads past each row's end."""
    n, cout, ho, wo = g.shape
    gw = np.zeros((n, cout, ho, wp), dtype=g.dtype)
    gw[..., :wo] = g
    gw = gw.reshape(n, cout, ho * wp)
    dw = np.empty((cout, frame.shape[1], kh, kw), dtype=np.result_type(g, frame))
    for u, v, window in _tap_slices(frame, kh, kw, ho, wp, dilation):
        dw[:, :, u, v] = (gw @ window.swapaxes(1, 2)).sum(axis=0)
    return dw


def _conv_plan(x, p: ConvParams):
    """(pad, Ho, Wo, taps) of conv2d(x, p), with taps whether _use_taps
    holds; rejects an input, weight and group count that do not fit."""
    x_shape = _conv_input(x)[1]
    c, w = x_shape[1], x_shape[3]
    cout, cin_g = p.weight.shape[:2]
    if c != cin_g * p.groups:
        raise ShapeError(
            f"input channels {c} incompatible with weight {p.weight.shape} "
            f"and groups {p.groups}")
    if cout % p.groups != 0:
        raise ShapeError("out channels must be divisible by groups")
    pad, ho, wo = _conv_geometry(x_shape, p.weight.shape, p.stride, p.dilation)
    return pad, ho, wo, _use_taps(p.weight.shape, p.stride, p.groups,
                                  w + 2 * pad, wo)


def _conv_operand(x, p: ConvParams) -> np.ndarray:
    """The lowered input that conv2d(x, p) multiplies with the weight, and
    that its weight gradient reads: the flat padded frame where _use_taps
    holds, the im2col column matrix otherwise.  Either is filled from a
    list input's blocks in place of their concatenation."""
    pad, ho, wo, taps = _conv_plan(x, p)
    kh, kw = p.weight.shape[2:]
    if taps:
        return _flat_frame(x, pad, p.pad_value, kw, p.dilation)
    return _im2col(x, pad, p.pad_value, p.groups, kh, kw, ho, wo, p.stride,
                   p.dilation)


def conv2d(x, p: ConvParams, operand: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlation with dilation and groups of x, one NCHW array or a
    list of channel blocks read as their concatenation along C.  Where
    _use_taps holds it is one matmul per kernel tap on the flat frame;
    otherwise one batched matmul of the (1, G, Cout/G, K) weight view with
    the im2col column matrix.  operand is _conv_operand(x, p) when the
    caller has built it already; otherwise it is built here."""
    pad, ho, wo, taps = _conv_plan(x, p)
    if operand is None:
        operand = _conv_operand(x, p)
    n, cout = operand.shape[0], p.weight.shape[0]
    if taps:            # at stride 1 a frame row is Wo + 2*pad wide
        y = _conv_taps(operand, p.weight, ho, wo, wo + 2 * pad, p.dilation)
    else:
        y = p.weight.reshape(1, p.groups, cout // p.groups, -1) @ operand
    y = y.reshape(n, cout, ho, wo).astype(operand.dtype, copy=False)
    if p.bias is not None:
        y += np.asarray(p.bias, dtype=y.dtype).reshape(1, cout, 1, 1)
    return y


def _conv_weight_grad(operand: np.ndarray, p: ConvParams,
                      g: np.ndarray) -> np.ndarray:
    """Weight gradient of conv2d for the output gradient g, from the
    operand the forward multiplied (_conv_operand): per tap on a 3-D flat
    frame, whose rows are Wo + 2*pad wide because the taps run at stride 1,
    or from a 4-D im2col column matrix."""
    n, cout, ho, wo = g.shape
    kh, kw = p.weight.shape[2:]
    if operand.ndim == 3:
        wp = wo + 2 * same_padding(kh, p.dilation)
        return _conv_taps_weight_grad(operand, g, kh, kw, wp, p.dilation)
    gr = g.reshape(n, p.groups, cout // p.groups, ho * wo)
    return (gr @ operand.swapaxes(2, 3)).sum(axis=0).reshape(p.weight.shape)


def _conv_input_grad(x_shape, p: ConvParams, g: np.ndarray) -> np.ndarray:
    """dX of conv2d for an input of shape x_shape and the output gradient
    g; pad_value is a constant and drops out.  At stride 1, dX is conv2d of
    g with the kernel transposed within each group and flipped in space, at
    the same padding.  At a larger stride each kernel tap adds W^T g, per
    group, onto its strided window of a zeroed padded grid, which is then
    cropped."""
    n, c, h, w = x_shape
    cout, cin_g, kh, kw = p.weight.shape
    groups, d, s = p.groups, p.dilation, p.stride
    pad, ho, wo = _conv_geometry(x_shape, p.weight.shape, s, d)
    wg = p.weight.reshape(groups, cout // groups, cin_g, kh, kw)
    if s == 1:
        wf = wg.swapaxes(1, 2)[..., ::-1, ::-1].reshape(c, -1, kh, kw)
        return conv2d(g, ConvParams(wf, dilation=d, groups=groups))
    # per tap a (G, Cin/G, Cout/G) block of W^T
    wt = np.ascontiguousarray(wg.transpose(3, 4, 0, 2, 1))
    gr = g.reshape(n, groups, cout // groups, ho * wo)
    hp, wp = h + 2 * pad, w + 2 * pad
    grid = np.zeros((n, groups, cin_g, hp, wp), dtype=np.result_type(wt, g))
    tap = np.empty((n, groups, cin_g, ho * wo), dtype=grid.dtype)
    for u in range(kh):
        for v in range(kw):
            np.matmul(wt[u, v], gr, out=tap)
            grid[..., u * d:u * d + ho * s:s, v * d:v * d + wo * s:s] += \
                tap.reshape(n, groups, cin_g, ho, wo)
    return grid.reshape(n, c, hp, wp)[:, :, pad:pad + h, pad:pad + w]


# ---------------------------------------------------------------------------
# batch normalization / activation
# ---------------------------------------------------------------------------

def batch_stats(x: np.ndarray):
    """(xhat, inv): xhat = (x - mu) * inv in a buffer of its own and
    inv = 1/sqrt(var + BN_EPS), with per-channel mu and population var over
    N, H, W, both as einsums over an (N, C, H*W) view; the variance is taken
    from the centered input."""
    n, c, h, w = x.shape
    m = n * h * w
    if m < 2:
        raise ShapeError("batchnorm needs N*H*W >= 2 per channel")
    mu = np.einsum("nci->c", x.reshape(n, c, h * w)) / m
    d = x - mu.reshape(1, c, 1, 1)
    dv = d.reshape(n, c, h * w)
    inv = 1.0 / np.sqrt(np.einsum("nci,nci->c", dv, dv) / m + BN_EPS)
    d *= inv.reshape(1, c, 1, 1)
    return d, inv


def batchnorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per-channel ((x - mu)/sqrt(var + BN_EPS)) * gamma + beta with the
    batch's own mu and var, in batch_stats' xhat buffer."""
    _check_nchw(x)
    n, c, h, w = x.shape
    if len(gamma) != c or len(beta) != c:
        raise ShapeError(f"batchnorm params sized for {len(gamma)} channels, "
                         f"input has {c}")
    y, _ = batch_stats(x)
    y *= np.asarray(gamma).reshape(1, c, 1, 1)
    y += np.asarray(beta).reshape(1, c, 1, 1)
    return y


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)
