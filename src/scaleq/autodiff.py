"""Minimal reverse-mode differentiation over the ops vocabulary.

Define-by-run: every call records a node with its parents and a backward
closure; `backward` replays them in reverse topological order.  The graph
is rebuilt per forward pass and backpropagated once: as soon as a node's
closure has run, `backward` releases the closure, with every array it saved
(a conv operand, batchnorm's xhat, a ReLU mask), the node's gradient and
its parents, so a spent node pins no activation behind it.  Only leaves
keep their gradients, and a second backward through a spent graph is a
ContractError.  A conv node reads one Var or a list of channel blocks,
which it fills into its operand at their channel offsets, and splits dX
back across them; no concatenation is made.  `unit_block` records a
[Conv - BatchNorm - ReLU] unit as ordinary conv, batchnorm and relu nodes,
and releases the conv and the batchnorm output once relu has read it,
since no closure reads either; the unit's input, every block of a list,
keeps its data.  The cross-entropy node builds its gradient in the buffer
that held exp of its shifted logits.
Forward-only passes run under `no_tape()` and record nothing; there
batchnorm is `ops.batchnorm`, and a unit block's ReLU writes into the
buffer that batchnorm returns, never into an input.  A central
finite-difference oracle is provided for verification.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import ops
from .equalizer import channel_spans, scale_equalize as _scale_equalize
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


_taping = True


@contextmanager
def no_tape():
    """Run forward-only passes without a tape: while active, every op
    returns a parentless leaf that requires no gradient, so no backward
    closure, and no conv operand it holds, outlives the op.  The flag is
    process-wide and restored on exit, also after an exception."""
    global _taping
    saved, _taping = _taping, False
    try:
        yield
    finally:
        _taping = saved


def _node(data, parents, backward, op) -> Var:
    if not _taping:
        return Var(data)
    requires = any(p.requires_grad for p in parents)
    return Var(data, requires, parents, backward if requires else None, op)


def _accum(v: Var, g: np.ndarray, shared: bool = False) -> None:
    """Add g to v.grad.  A first gradient is taken over without a copy,
    unless `shared` says g is (a view of) an array someone else holds: the
    incoming gradient itself, or a slice of it."""
    if not v.requires_grad:
        return
    if v.grad is None:
        v.grad = np.array(g, dtype=np.float64) if shared else np.asarray(g, np.float64)
    else:
        v.grad += g


def _topo(root: Var) -> list[Var]:
    """The nodes reachable from root, parents before children."""
    order: list[Var] = []
    seen: set[int] = set()
    stack = [(root, False)]
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
    return order


def _spent(g):
    """Stands in for the closure of a node whose backward has run."""
    raise ContractError("backward already ran through this node")


def backward(loss: Var) -> dict[int, np.ndarray]:
    """Backpropagate from a scalar loss, once: each node's closure,
    gradient and parents are released as soon as its closure has run, so
    only the leaves keep their gradients.  Returns a map id(Var) ->
    gradient for every leaf that received one.  A second backward through
    any node of a spent graph raises ContractError before any gradient
    moves."""
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
    order = _topo(loss)
    if any(node._backward is _spent for node in order):
        raise ContractError("backward already ran through this graph")
    loss.grad = np.ones_like(loss.data, dtype=np.float64)
    for node in reversed(order):
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node._backward = _spent
        node.grad = None
        node._parents = ()
    return {id(n): n.grad for n in order if not n._parents and n.grad is not None}


def zero_grad(params) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# differentiable ops
# ---------------------------------------------------------------------------

def add(x: Var, y: Var) -> Var:
    x, y = as_var(x), as_var(y)
    if x.data.shape != y.data.shape:
        raise ShapeError(f"add needs identical shapes, got {x.data.shape} "
                         f"vs {y.data.shape}")
    out = x.data + y.data

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
    """The channel concatenation of xs as its own node; a conv reads the
    list xs without it (see conv2d)."""
    xs = [as_var(x) for x in xs]
    out = np.concatenate([x.data for x in xs], axis=1)
    splits = np.cumsum([x.data.shape[1] for x in xs])[:-1]

    def bwd(g):
        for x, gx in zip(xs, np.split(g, splits, axis=1)):
            _accum(x, gx, shared=True)
    return _node(out, tuple(xs), bwd, "concat")


def scale_equalize(x: Var, mu: float, sigma: float) -> Var:
    """(x - mu) / sigma with mu, sigma treated as constants."""
    x = as_var(x)
    out = _scale_equalize(x.data, mu, sigma)

    def bwd(g):
        _accum(x, g / sigma)
    return _node(out, (x,), bwd, "scale_equalize")


def _resampled(x: Var, out: np.ndarray, mode: ops.UpsampleMode, op: str) -> Var:
    """Node of out, x resampled under mode; its backward is
    ops.upsample_adjoint.  x itself when out is x's own data."""
    if out is x.data:
        return x
    in_hw = x.data.shape[2:]

    def bwd(g):
        _accum(x, ops.upsample_adjoint(g, in_hw, mode))
    return _node(out, (x,), bwd, op)


def upsample_to(x: Var, out_hw, mode: ops.UpsampleMode = ops.UpsampleMode()) -> Var:
    x = as_var(x)
    return _resampled(x, ops.upsample_to(x.data, out_hw, mode), mode, "upsample")


def upsample(x: Var, r, mode: ops.UpsampleMode = ops.UpsampleMode()) -> Var:
    x = as_var(x)
    if r < 1:
        return upsample_to(x, (0, 0), mode)    # raises InvalidRatioError
    if r == 1:
        return x
    h, w = x.data.shape[2], x.data.shape[3]
    return upsample_to(x, (int(round(r * h)), int(round(r * w))), mode)


def avgpool_to(x: Var, out_size) -> Var:
    x = as_var(x)
    return _resampled(x, ops.avgpool_to(x.data, out_size), ops.AREA, "avgpool")


def _channel_blocks(x) -> list[Var]:
    """A conv input as its channel blocks: one Var, or a list of Vars read
    as their concatenation along C."""
    return [as_var(b) for b in x] if isinstance(x, (list, tuple)) else [as_var(x)]


def conv2d(x, weight: Var, bias: Var | None = None, *, stride: int = 1,
           dilation: int = 1, groups: int = 1, pad_value=0.0) -> Var:
    """Convolution node over x, one Var or a list of channel blocks that the
    conv reads as their concatenation without making it.  The operand the
    forward multiplies (the flat padded frame, or the im2col columns filled
    from x without a padded frame, see ops._conv_operand) is built once,
    and the weight gradient takes it.  The node keeps it only while the
    weight requires a gradient, and the backward drops it once used.  dX
    is split across the blocks at their channel offsets, a copy each, as
    concat_channels' backward splits its gradient.  The closure records
    x's shape, not x's data."""
    xs, weight = _channel_blocks(x), as_var(weight)
    data = xs[0].data if len(xs) == 1 else [b.data for b in xs]
    p = ops.ConvParams(weight.data, None if bias is None else bias.data,
                       stride, dilation, groups, pad_value)
    parents = (*xs, weight) if bias is None else (*xs, weight, bias)
    x_shape = ops._conv_input(data)[1]
    operand = ops._conv_operand(data, p)
    out = ops.conv2d(data, p, operand)
    if not weight.requires_grad:
        operand = None

    def bwd(g):
        nonlocal operand
        if bias is not None:
            _accum(bias, g.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            _accum(weight, ops._conv_weight_grad(operand, p, g))
            operand = None      # freed before dX allocates its grid
        if any(b.requires_grad for b in xs):
            dx = ops._conv_input_grad(x_shape, p, g)
            if len(xs) == 1:
                _accum(xs[0], dx)
            else:
                for (c0, c1), b in ops._block_spans(xs):
                    _accum(b, dx[:, c0:c1], shared=True)
    return _node(out, parents, bwd, "conv2d")


def batchnorm(x: Var, gamma: Var, beta: Var) -> Var:
    x, gamma, beta = as_var(x), as_var(gamma), as_var(beta)
    if not _taping:             # no backward reads xhat
        return Var(ops.batchnorm(x.data, gamma.data, beta.data))
    n, c, h, w = x.data.shape
    m = n * h * w
    xhat, inv = ops.batch_stats(x.data)
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


def unit_block(conv, x, gamma: Var, beta: Var) -> Var:
    """One [Conv - BatchNorm - ReLU] unit block over x, one Var or a list of
    channel blocks: `conv(x)` builds the unit's conv node(s), `batchnorm`
    and `relu` follow, and the relu node is returned.  No closure reads the
    conv or the batchnorm output, so once relu has read it, every node from
    the batchnorm output back to the unit's input (each conv's input is its
    first parent) drops its data; the walk stops at x's blocks, which stay.
    Under `no_tape` this is just the ReLU output, rectified in the
    batchnorm output's buffer."""
    xs = _channel_blocks(x)
    y = batchnorm(conv(xs if len(xs) > 1 else xs[0]), gamma, beta)
    if not _taping:
        np.maximum(y.data, 0, out=y.data)
        return y
    out = relu(y)
    inputs = {id(b) for b in xs}
    while id(y) not in inputs:
        y.data = None
        y = y._parents[0]
    return out


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
    # class indices in a dtype that holds both every label and k - 1, so the
    # comparison casts neither side
    classes = np.arange(k, dtype=np.result_type(labels.dtype, np.min_scalar_type(k - 1)))
    onehot = labels[:, None] == classes.reshape(1, k, 1, 1)
    count = n * h * w
    # mean(log s - z[label]): the label term through the mask, read before z
    # is exponentiated in place, then one log-sum-exp
    label_term = np.einsum("nkhw,nkhw->", z, onehot)
    ez = np.exp(z, out=z)
    s = ez.sum(axis=1, keepdims=True)
    loss = np.log(s).mean() - label_term / count

    def bwd(g):
        # built in exp(z)'s own buffer, which nothing else reads, and a
        # spent node never runs again
        gx = ez
        gx /= s
        gx -= onehot
        gx *= float(g) / count
        _accum(logits, gx)
    return _node(np.asarray(loss), (logits,), bwd, "softmax_ce")


# ---------------------------------------------------------------------------
# verification helpers
# ---------------------------------------------------------------------------

def finite_diff_grad(f, x: np.ndarray) -> np.ndarray:
    """Central differences (f(x+h e_i) - f(x-h e_i)) / 2h per element, with
    h = 1e-4."""
    step = 1e-4
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


def grad_group_moments(grads: np.ndarray, widths) -> list[Moments]:
    """Per-group Moments of a fusion-weight gradient, partitioned along the
    input-channel axis (axis 1) into groups of the given widths, which must
    sum to the axis."""
    grads = np.asarray(grads)
    if grads.ndim < 2:
        raise ContractError("expected a weight-shaped gradient (Cout, Cin, ...)")
    spans = channel_spans(widths, grads.shape[1])
    return [moments(grads[:, a:b]) for a, b in spans]
