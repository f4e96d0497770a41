"""Minimal reverse-mode differentiation over the ops vocabulary.

Define-by-run: every call records a node with its parents and a backward
closure; `backward` replays them in reverse topological order.  The graph
is rebuilt per forward pass.  A central finite-difference oracle is
provided for verification.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .errors import ContractError, ShapeError
from .tensor import Moments, moments


class Var:
    """A tensor value on the tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad: bool = False, parents=(),
                 backward=None, op: str = "leaf"):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Var(op={self.op!r}, shape={self.data.shape}, grad={self.requires_grad})"


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _node(data, parents, backward, op) -> Var:
    requires = any(p.requires_grad for p in parents)
    return Var(data, requires, parents, backward if requires else None, op)


def _accum(v: Var, g: np.ndarray, shared: bool = False) -> None:
    """Add g to v.grad.  A first gradient is taken over without a copy,
    unless `shared` says g is (a view of) an array someone else holds: the
    incoming gradient itself, or a slice of it or of another buffer."""
    if not v.requires_grad:
        return
    if v.grad is None:
        v.grad = np.array(g, dtype=np.float64) if shared else np.asarray(g, np.float64)
    else:
        v.grad += g


def backward(loss: Var) -> dict[int, np.ndarray]:
    """Backpropagate from a scalar loss; returns a map id(Var) -> gradient
    for every node that requires grad."""
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
    order: list[Var] = []
    seen: set[int] = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data, dtype=np.float64)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    return {id(n): n.grad for n in order if n.requires_grad and n.grad is not None}


def zero_grad(params) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# differentiable ops
# ---------------------------------------------------------------------------

def add(x: Var, y: Var) -> Var:
    x, y = as_var(x), as_var(y)
    out = ops.add(x.data, y.data)

    def bwd(g):
        _accum(x, g, shared=True)
        _accum(y, g, shared=True)
    return _node(out, (x, y), bwd, "add")


def relu(x: Var) -> Var:
    x = as_var(x)
    mask = x.data > 0

    def bwd(g):
        _accum(x, g * mask)
    return _node(ops.relu(x.data), (x,), bwd, "relu")


def concat_channels(xs) -> Var:
    xs = [as_var(x) for x in xs]
    out = np.concatenate([x.data for x in xs], axis=1)
    splits = np.cumsum([x.data.shape[1] for x in xs])[:-1]

    def bwd(g):
        for x, gx in zip(xs, np.split(g, splits, axis=1)):
            _accum(x, gx, shared=True)
    return _node(out, tuple(xs), bwd, "concat")


def scale_equalize(x: Var, mu: float, sigma: float) -> Var:
    """(x - mu) / sigma with mu, sigma treated as constants."""
    from .equalizer import scale_equalize as _raw
    x = as_var(x)
    out = _raw(x.data, mu, sigma)

    def bwd(g):
        _accum(x, g / sigma)
    return _node(out, (x,), bwd, "scale_equalize")


def upsample_to(x: Var, out_hw, mode: ops.UpsampleMode = ops.UpsampleMode()) -> Var:
    x = as_var(x)
    h, w = x.data.shape[2], x.data.shape[3]
    out = ops.upsample_to(x.data, out_hw, mode)
    if out is x.data:
        return x
    ah = ops._axis_matrix(h, int(out_hw[0]), mode.kernel, mode.align_corners)
    aw = ops._axis_matrix(w, int(out_hw[1]), mode.kernel, mode.align_corners)

    def bwd(g):
        _accum(x, ah.T @ g @ aw)
    return _node(out, (x,), bwd, "upsample")


def upsample(x: Var, r, mode: ops.UpsampleMode = ops.UpsampleMode()) -> Var:
    x = as_var(x)
    if r < 1:
        return upsample_to(x, (0, 0), mode)    # raises InvalidRatioError
    if r == 1:
        return x
    h, w = x.data.shape[2], x.data.shape[3]
    return upsample_to(x, (ops._out_size(h, r), ops._out_size(w, r)), mode)


def avgpool_to(x: Var, out_size) -> Var:
    x = as_var(x)
    out = ops.avgpool_to(x.data, out_size)
    if out is x.data:
        return x
    h, w = x.data.shape[2], x.data.shape[3]
    oh, ow = int(out_size[0]), int(out_size[1])
    rlo, rhi = ops._pool_bounds(h, oh)
    clo, chi = ops._pool_bounds(w, ow)

    def bwd(g):
        gx = np.zeros_like(x.data, dtype=np.float64)
        for i in range(oh):
            for j in range(ow):
                area = (rhi[i] - rlo[i]) * (chi[j] - clo[j])
                gx[:, :, rlo[i]:rhi[i], clo[j]:chi[j]] += \
                    g[:, :, i:i + 1, j:j + 1] / area
        _accum(x, gx)
    return _node(out, (x,), bwd, "avgpool")


def conv2d(x: Var, weight: Var, bias: Var | None = None, *, stride: int = 1,
           dilation: int = 1, padding: int | None = None, groups: int = 1,
           pad_value=0.0) -> Var:
    x, weight = as_var(x), as_var(weight)
    p = ops.ConvParams(weight.data, None if bias is None else bias.data,
                       stride, dilation, padding, groups, pad_value)
    out = ops.conv2d(x.data, p)
    n, c, h, w = x.data.shape
    cout, _, kh, kw = weight.data.shape
    pad, ho, wo = ops._conv_geometry(x.data.shape, weight.data.shape,
                                     stride, dilation, padding)
    parents = (x, weight) if bias is None else (x, weight, bias)
    flip_pad = (kh - 1) * dilation - pad
    flipped = stride == 1 and kh == kw and flip_pad >= 0

    def input_grad(g):
        if flipped:
            # dX is the convolution of g with the kernel transposed within
            # each group and flipped in space; pad_value is a constant and
            # drops out
            wf = weight.data.reshape(groups, cout // groups, -1, kh, kw)
            wf = wf.swapaxes(1, 2)[..., ::-1, ::-1].reshape(c, -1, kh, kw)
            return ops.conv2d(g, ops.ConvParams(wf, None, 1, dilation,
                                                flip_pad, groups))
        # strided (a zero-stuffed g would make the columns stride**2 larger),
        # non-square, or padded beyond the kernel's reach: scatter W^T g
        wt = weight.data.reshape(1, groups, cout // groups, -1).swapaxes(2, 3)
        gr = g.reshape(n, groups, cout // groups, ho * wo)
        dcols = (wt @ gr).reshape(n, c * kh * kw, ho * wo)
        gxp = ops._col2im(dcols, (h + 2 * pad, w + 2 * pad), kh, kw, ho, wo,
                          stride, dilation)
        return gxp[:, :, pad:pad + h, pad:pad + w]

    def bwd(g):
        if bias is not None:
            _accum(bias, g.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            _accum(weight, ops._conv_weight_grad(x.data, p, g))
        if x.requires_grad:
            # the col2im result is a crop of the padded grid
            _accum(x, input_grad(g), shared=not flipped)
    return _node(out, parents, bwd, "conv2d")


def batchnorm(x: Var, gamma: Var, beta: Var) -> Var:
    x, gamma, beta = as_var(x), as_var(gamma), as_var(beta)
    n, c, h, w = x.data.shape
    m = n * h * w
    xhat, inv = ops.batch_stats(x.data)
    xhat *= inv.reshape(1, c, 1, 1)
    out = xhat * gamma.data.reshape(1, c, 1, 1)
    out += beta.data.reshape(1, c, 1, 1)

    def bwd(g):
        gv = g.reshape(n, c, h * w)
        sum_g = np.einsum("nci->c", gv)
        sum_gx = np.einsum("nci,nci->c", gv, xhat.reshape(n, c, h * w))
        _accum(beta, sum_g)
        _accum(gamma, sum_gx)
        if x.requires_grad:
            # gamma * inv * (g - sum_g/m - xhat * sum_gx/m)
            gx = xhat * (-sum_gx / m).reshape(1, c, 1, 1)
            gx += g
            gx -= (sum_g / m).reshape(1, c, 1, 1)
            gx *= (gamma.data * inv).reshape(1, c, 1, 1)
            _accum(x, gx)
    return _node(out, (x, gamma, beta), bwd, "batchnorm")


def vmean(x: Var) -> Var:
    x = as_var(x)
    n = x.data.size

    def bwd(g):
        _accum(x, np.full(x.data.shape, float(g) / n))
    return _node(np.asarray(x.data.mean()), (x,), bwd, "mean")


def sum_sq(x: Var) -> Var:
    x = as_var(x)

    def bwd(g):
        _accum(x, 2.0 * float(g) * x.data)
    return _node(np.asarray(np.sum(x.data * x.data)), (x,), bwd, "sum_sq")


def dot_const(x: Var, u: np.ndarray) -> Var:
    """Scalar sum(x * u) with u a constant tensor."""
    x = as_var(x)
    u = np.asarray(u)
    if u.shape != x.data.shape:
        raise ShapeError("dot_const shapes differ")

    def bwd(g):
        _accum(x, float(g) * u)
    return _node(np.asarray(np.sum(x.data * u)), (x,), bwd, "dot_const")


def softmax_cross_entropy(logits: Var, labels: np.ndarray) -> Var:
    """Mean pixel-wise cross-entropy; labels is an int (N, H, W) grid."""
    logits = as_var(logits)
    n, k, h, w = logits.data.shape
    labels = np.asarray(labels)
    if labels.shape != (n, h, w):
        raise ShapeError(f"labels shape {labels.shape} != {(n, h, w)}")
    if labels.min() < 0 or labels.max() >= k:
        raise ContractError(f"labels must lie in [0, {k})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    s = ez.sum(axis=1, keepdims=True)
    onehot = labels[:, None] == np.arange(k).reshape(1, k, 1, 1)
    count = n * h * w
    # mean(log s - z[label]): one log-sum-exp, the label term through the mask
    loss = np.log(s).mean() - np.einsum("nkhw,nkhw->", z, onehot) / count

    def bwd(g):
        gx = ez / s
        gx -= onehot
        gx *= float(g) / count
        _accum(logits, gx)
    return _node(np.asarray(loss), (logits,), bwd, "softmax_ce")


# ---------------------------------------------------------------------------
# verification helpers
# ---------------------------------------------------------------------------

def finite_diff_grad(f, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central differences (f(x+h e_i) - f(x-h e_i)) / 2h per element."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(x.size):
        orig = xf[i]
        xf[i] = orig + step
        fp = float(f(x))
        xf[i] = orig - step
        fm = float(f(x))
        xf[i] = orig
        flat[i] = (fp - fm) / (2.0 * step)
    return grad


def grad_group_moments(grads: np.ndarray, groups) -> list[Moments]:
    """Per-group Moments of a fusion-weight gradient, partitioned along the
    input-channel axis (axis 1).  Groups are (start, stop) ranges that must
    tile the axis exactly once."""
    grads = np.asarray(grads)
    if grads.ndim < 2:
        raise ContractError("expected a weight-shaped gradient (Cout, Cin, ...)")
    cin = grads.shape[1]
    spans = sorted((int(a), int(b)) for a, b in groups)
    cursor = 0
    for a, b in spans:
        if a != cursor or b <= a:
            raise ContractError(f"groups {spans} do not tile [0, {cin}) exactly")
        cursor = b
    if cursor != cin:
        raise ContractError(f"groups {spans} do not cover all {cin} channels")
    return [moments(grads[:, a:b]) for a, b in groups]
