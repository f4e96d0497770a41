import itertools
import math

import numpy as np
import pytest

from scaleq import autodiff as ad
from scaleq import ops
from scaleq.equalizer import GlobalStats, calibrate_weights
from scaleq.errors import ContractError, ShapeError
from scaleq.ops import UpsampleMode
from scaleq.tensor import Rng, randn


def rel_err(a, b):
    scale = max(float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a - b))) / scale


def check_grad(build, x0, tol=1e-5):
    """Compare backward() against central finite differences for the
    scalar-valued function build(Var)."""
    v = ad.Var(x0, requires_grad=True)
    ad.backward(build(v))
    fd = ad.finite_diff_grad(lambda x: float(build(ad.Var(x)).data), x0)
    assert rel_err(v.grad, fd) < tol, rel_err(v.grad, fd)


def safe_randn(shape, rng):
    """Random tensor kept away from the ReLU kink."""
    x = randn(shape, 0.0, 1.0, rng)
    x[np.abs(x) < 1e-3] += 2e-3
    return x


def test_finite_diff_examples():
    fd = ad.finite_diff_grad(lambda x: float(np.sum(x * x)), np.array([1.0, 2.0]))
    np.testing.assert_allclose(fd, [2.0, 4.0], atol=1e-8)
    fd = ad.finite_diff_grad(lambda x: float(np.mean(x)), np.zeros(5))
    np.testing.assert_allclose(fd, 0.2, atol=1e-10)
    fd = ad.finite_diff_grad(lambda x: float(np.var(x)), np.array([1.0, 3.0]))
    np.testing.assert_allclose(fd, [-1.0, 1.0], atol=1e-8)


def test_backward_requires_scalar_loss():
    v = ad.Var(np.zeros((1, 1, 2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        ad.backward(ad.relu(v))


def _spent_graphs():
    """name -> build: build(rng) returns a scalar loss and the leaves it
    reads.  The conv cases keep the tap kernel (4 -> 2, its flat frame)
    and im2col (4 -> 6, its columns) as the forward operand."""
    def leaf(rng, name, shape):
        return ad.Var(safe_randn(shape, rng.split(name)), requires_grad=True)

    def relu_sum_sq(rng):
        v = ad.Var(np.array([1.0, -1.0, 3.0]), requires_grad=True)
        return ad.sum_sq(ad.relu(v)), [v]

    def batchnorm(rng):
        x, g, b = (leaf(rng, k, s) for k, s in
                   (("x", (2, 3, 4, 4)), ("g", (3,)), ("b", (3,))))
        return ad.sum_sq(ad.batchnorm(x, g, b)), [x, g, b]

    def add(rng):
        x, y = leaf(rng, "x", (1, 2, 3, 3)), leaf(rng, "y", (1, 2, 3, 3))
        return ad.sum_sq(ad.add(x, y)), [x, y]

    def concat_channels(rng):
        x, y = leaf(rng, "x", (1, 2, 3, 3)), leaf(rng, "y", (1, 1, 3, 3))
        return ad.sum_sq(ad.concat_channels([x, y])), [x, y]

    def upsample_to(rng):
        x = leaf(rng, "x", (1, 2, 3, 4))
        return ad.sum_sq(ad.upsample_to(x, (6, 8))), [x]

    def softmax_cross_entropy(rng):
        x = leaf(rng, "x", (2, 3, 4, 4))
        labels = rng.split("lbl").generator().integers(0, 3, size=(2, 4, 4))
        return ad.softmax_cross_entropy(x, labels), [x]

    def conv2d(cout):
        def build(rng):
            x, w = leaf(rng, "x", (1, 4, 5, 5)), leaf(rng, "w", (cout, 4, 3, 3))
            return ad.sum_sq(ad.conv2d(x, w)), [x, w]
        return build

    def unit_block(rng):
        x, w = leaf(rng, "x", (2, 4, 5, 5)), leaf(rng, "w", (3, 4, 3, 3))
        g, b = leaf(rng, "g", (3,)), leaf(rng, "b", (3,))
        y = ad.unit_block(lambda v: ad.conv2d(v, w), x, g, b)
        return ad.sum_sq(y), [x, w, g, b]

    return {"relu": relu_sum_sq, "batchnorm": batchnorm, "add": add,
            "concat_channels": concat_channels, "upsample_to": upsample_to,
            "softmax_cross_entropy": softmax_cross_entropy,
            "conv2d-cout2": conv2d(2), "conv2d-cout6": conv2d(6),
            "unit_block": unit_block}


SPENT_GRAPHS = _spent_graphs()


@pytest.mark.parametrize("case", list(SPENT_GRAPHS))
def test_second_backward_raises(case):
    """A graph is backpropagated once: a second backward through it, from
    the same loss or from a new node on top of it, raises before any leaf
    gradient moves."""
    loss, leaves = SPENT_GRAPHS[case](Rng(99))
    ad.backward(loss)
    grads = [v.grad.copy() for v in leaves]
    with pytest.raises(ContractError):
        ad.backward(loss)
    fresh = ad.Var(np.ones(()), requires_grad=True)
    with pytest.raises(ContractError):
        ad.backward(ad.add(ad.sum_sq(fresh), loss))
    assert fresh.grad is None
    for v, g in zip(leaves, grads):
        assert np.array_equal(v.grad, g)


def test_backward_releases_every_node():
    """After backward no non-leaf node holds a gradient, a closure or its
    parents, and the returned map holds exactly the leaves' gradients."""
    rng = Rng(98)
    x = ad.Var(safe_randn((2, 4, 5, 5), rng.split("x")), requires_grad=True)
    w1 = ad.Var(safe_randn((3, 4, 3, 3), rng.split("w1")), requires_grad=True)
    w2 = ad.Var(safe_randn((2, 3, 1, 1), rng.split("w2")), requires_grad=True)
    c = ad.Var(safe_randn((2, 2, 5, 5), rng.split("c")), requires_grad=True)
    g, b = ad.Var(np.ones(3), requires_grad=True), ad.Var(np.zeros(3), requires_grad=True)
    y = ad.unit_block(lambda v: ad.conv2d(v, w1, stride=2), x, g, b)
    z = ad.conv2d(ad.upsample_to(y, (5, 5)), w2)
    loss = ad.softmax_cross_entropy(ad.concat_channels([z, ad.add(z, c)]),
                                    np.zeros((2, 5, 5), dtype=int))
    nodes, stack = {}, [loss]
    while stack:
        v = stack.pop()
        if id(v) not in nodes:
            nodes[id(v)] = v
            stack.extend(v._parents)
    inner = [v for v in nodes.values() if v._parents]
    assert len(inner) == 8
    grads = ad.backward(loss)
    for v in inner:
        assert v.grad is None and v._backward in (None, ad._spent), v.op
        assert v._parents == (), v.op
    assert set(grads) == {id(v) for v in (x, w1, w2, c, g, b)}
    for v in (x, w1, w2, c, g, b):
        assert grads[id(v)] is v.grad


def test_no_tape_records_nothing_and_restores_after_an_exception():
    x = ad.Var(np.array([[-1.0, 2.0]]), requires_grad=True)
    with ad.no_tape():
        y = ad.relu(x)
        with ad.no_tape():
            pass
        z = ad.relu(y)                 # still off after a nested exit
    assert np.array_equal(z.data, [[0.0, 2.0]])
    assert (y.op, y.requires_grad, y._parents, y._backward) == ("leaf", False, (), None)
    assert (z.op, z._parents) == ("leaf", ())
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_tape():
            raise RuntimeError("inside")
    taped = ad.relu(x)
    assert taped.requires_grad and taped._parents == (x,)


def test_grad_add():
    rng = Rng(100)
    y = randn((1, 2, 3, 3), 0.0, 1.0, rng.split("y"))
    check_grad(lambda v: ad.sum_sq(ad.add(v, ad.Var(y))),
               randn((1, 2, 3, 3), 0.0, 1.0, rng.split("x")))


def test_add():
    x = np.array([[[[1.0, 2.0]]]])
    y = np.array([[[[3.0, 4.0]]]])
    np.testing.assert_array_equal(ad.add(x, y).data, [[[[4.0, 6.0]]]])
    np.testing.assert_array_equal(ad.add(x, -x).data, np.zeros_like(x))
    with pytest.raises(ShapeError):
        ad.add(x, np.zeros((1, 1, 1, 3)))


def test_grad_relu():
    check_grad(lambda v: ad.sum_sq(ad.relu(v)),
               safe_randn((2, 2, 4, 4), Rng(101)))


def test_relu_dead_region_zero_grad():
    v = ad.Var(np.full((1, 1, 2, 2), -1.0), requires_grad=True)
    ad.backward(ad.vmean(ad.relu(v)))
    np.testing.assert_array_equal(v.grad, 0.0)


def test_grad_concat():
    rng = Rng(102)
    y = randn((1, 3, 4, 4), 0.0, 1.0, rng.split("y"))
    check_grad(lambda v: ad.sum_sq(ad.concat_channels([v, ad.Var(y)])),
               randn((1, 2, 4, 4), 0.0, 1.0, rng.split("x")))


def test_grad_scale_equalize():
    check_grad(lambda v: ad.sum_sq(ad.scale_equalize(v, 0.7, 1.9)),
               randn((1, 2, 3, 3), 0.0, 1.0, Rng(103)))


@pytest.mark.parametrize("kernel", ["bilinear", "nearest"])
@pytest.mark.parametrize("align", [False, True])
def test_grad_upsample(kernel, align):
    mode = UpsampleMode(kernel, align)
    check_grad(lambda v: ad.sum_sq(ad.upsample_to(v, (7, 10), mode)),
               randn((1, 2, 3, 4), 0.0, 1.0, Rng(104)))


def test_grad_avgpool():
    check_grad(lambda v: ad.sum_sq(ad.avgpool_to(v, (2, 3))),
               randn((2, 2, 5, 7), 0.0, 1.0, Rng(105)))


def check_conv_grads(stride, dilation, groups, k=3, x_grad=True, pad_value=0.0):
    """Gradients of x, weight and bias against finite differences; with
    x_grad=False x is a constant input, like the encoder's first conv.
    pad_value may be a per-input-channel vector, like the calibrated
    fusion conv's branch means."""
    tag = f"{stride}{dilation}{groups}" + (f"k{k}" if k != 3 else "")
    rng = Rng(106).split(tag + ("pv" if np.any(pad_value) else ""))
    x0 = randn((2, 4, 7, 7), 0.0, 1.0, rng.split("x"))
    w0 = randn((4, 4 // groups, k, k), 0.0, 0.5, rng.split("w"))
    b0 = randn((1, 4, 1, 1), 0.0, 0.5, rng.split("b"))[0, :, 0, 0]
    pad_value = np.asarray(pad_value, dtype=np.float64)

    def run(xv, wv, bv):
        return ad.sum_sq(ad.conv2d(xv, wv, bv, stride=stride, dilation=dilation,
                                   groups=groups, pad_value=pad_value))

    xv = ad.Var(x0, requires_grad=x_grad)
    wv = ad.Var(w0, requires_grad=True)
    bv = ad.Var(b0, requires_grad=True)
    ad.backward(run(xv, wv, bv))
    fd_w = ad.finite_diff_grad(
        lambda w: float(run(ad.Var(x0), ad.Var(w), ad.Var(b0)).data), w0)
    fd_b = ad.finite_diff_grad(
        lambda b: float(run(ad.Var(x0), ad.Var(w0), ad.Var(b)).data), b0)
    if x_grad:
        fd_x = ad.finite_diff_grad(
            lambda x: float(run(ad.Var(x), ad.Var(w0), ad.Var(b0)).data), x0)
        assert rel_err(xv.grad, fd_x) < 1e-5
    else:
        assert xv.grad is None
    assert rel_err(wv.grad, fd_w) < 1e-5
    assert rel_err(bv.grad, fd_b) < 1e-5


@pytest.mark.parametrize("stride,dilation,groups", [
    (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 3, 2), (1, 1, 4),
])
def test_grad_conv_all_inputs(stride, dilation, groups):
    check_conv_grads(stride, dilation, groups)


@pytest.mark.parametrize("stride,dilation,groups,k,x_grad", [
    (2, 2, 4, 3, True),         # depthwise (groups == cin), strided, dilated
    (1, 1, 1, 1, True),         # 1x1 at stride 1: im2col is a reshape
    (2, 1, 1, 1, True),         # 1x1 at stride 2
    (2, 1, 2, 1, True),
    (1, 1, 1, 5, True),
    (2, 1, 1, 3, False),        # dW only
    (1, 2, 4, 3, True),         # depthwise, dilated, stride 1 (SepASPP rate unit)
])
def test_grad_conv_kernel_shapes(stride, dilation, groups, k, x_grad):
    check_conv_grads(stride, dilation, groups, k, x_grad)


@pytest.mark.parametrize("stride,dilation,groups", [(1, 1, 1), (1, 2, 2), (2, 1, 2)])
def test_grad_conv_per_channel_pad_value(stride, dilation, groups):
    check_conv_grads(stride, dilation, groups,
                     pad_value=np.array([0.5, -1.0, 2.0, 0.25]))


@pytest.mark.parametrize("stride,dilation,groups", [
    (1, 1, 1), (1, 2, 2), (2, 2, 2), (1, 3, 4),
])
def test_conv_adjoint_identity(stride, dilation, groups):
    """<conv(x) - conv(0), g> == <x, dX>: dX is the exact adjoint of the
    linear part of a 3x3 convolution, with bias and a per-channel
    pad_value.  Each case runs channel-expanding (4 -> 8) and
    channel-reducing (4 -> 2, or 4 -> 4 where groups need it), so both conv
    kernels are covered."""
    for cout in (8, max(2, groups)):
        # the stream names fix each case's inputs
        rng = Rng(115).split(f"{stride}{dilation}{groups}(3, 3)None"
                             + ("" if cout == 8 else f"c{cout}"))
        x0 = randn((2, 4, 9, 8), 0.0, 1.0, rng.split("x"))
        w = ad.Var(randn((cout, 4 // groups, 3, 3), 0.0, 0.5, rng.split("w")))
        b = ad.Var(randn((1, cout, 1, 1), 0.0, 0.5, rng.split("b"))[0, :, 0, 0])
        pad_value = np.array([0.5, -1.0, 2.0, 0.25])

        def conv(xv):
            return ad.conv2d(xv, w, b, stride=stride, dilation=dilation,
                             groups=groups, pad_value=pad_value)

        xv = ad.Var(x0, requires_grad=True)
        y = conv(xv)
        g = randn(y.shape, 0.0, 1.0, rng.split("g"))
        ad.backward(ad.dot_const(y, g))
        lhs = float(np.sum((y.data - conv(ad.Var(np.zeros_like(x0))).data) * g))
        rhs = float(np.sum(x0 * xv.grad))
        assert abs(lhs - rhs) < 1e-12


def test_grad_batchnorm_all_inputs():
    rng = Rng(107)
    x0 = randn((2, 3, 4, 4), 0.5, 1.5, rng.split("x"))
    g0 = randn((1, 3, 1, 1), 1.0, 0.2, rng.split("g"))[0, :, 0, 0]
    b0 = randn((1, 3, 1, 1), 0.0, 0.2, rng.split("b"))[0, :, 0, 0]
    # a fixed random projection: the x-gradient of sum_sq(batchnorm(x)) is
    # only eps-sized, which would leave the check at its rounding noise
    u = randn(x0.shape, 0.0, 1.0, rng.split("u"))

    def run(xv, gv, bv):
        return ad.dot_const(ad.batchnorm(xv, gv, bv), u)

    xv, gv, bv = (ad.Var(x0, requires_grad=True),
                  ad.Var(g0, requires_grad=True),
                  ad.Var(b0, requires_grad=True))
    ad.backward(run(xv, gv, bv))
    fd_x = ad.finite_diff_grad(
        lambda x: float(run(ad.Var(x), ad.Var(g0), ad.Var(b0)).data), x0)
    fd_g = ad.finite_diff_grad(
        lambda g: float(run(ad.Var(x0), ad.Var(g), ad.Var(b0)).data), g0)
    fd_b = ad.finite_diff_grad(
        lambda b: float(run(ad.Var(x0), ad.Var(g0), ad.Var(b)).data), b0)
    assert rel_err(xv.grad, fd_x) < 1e-5
    assert rel_err(gv.grad, fd_g) < 1e-5
    assert rel_err(bv.grad, fd_b) < 1e-5


def test_grad_scalar_reductions():
    rng = Rng(109)
    check_grad(ad.vmean, randn((1, 2, 3, 3), 0.0, 1.0, rng.split("m")))
    check_grad(ad.sum_sq, randn((1, 2, 3, 3), 0.0, 1.0, rng.split("s")))
    u = randn((1, 2, 3, 3), 0.0, 1.0, rng.split("u"))
    check_grad(lambda v: ad.dot_const(v, u),
               randn((1, 2, 3, 3), 0.0, 1.0, rng.split("x")))


def test_grad_softmax_cross_entropy():
    rng = Rng(110)
    labels = rng.split("lbl").generator().integers(0, 3, size=(2, 4, 4))
    check_grad(lambda v: ad.softmax_cross_entropy(v, labels),
               randn((2, 3, 4, 4), 0.0, 1.0, rng.split("x")), tol=1e-5)


def test_softmax_ce_uniform_logits():
    loss = ad.softmax_cross_entropy(ad.Var(np.zeros((1, 4, 2, 2))),
                                    np.zeros((1, 2, 2), dtype=np.int64))
    assert float(loss.data) == pytest.approx(math.log(4.0), abs=1e-12)


@pytest.mark.parametrize("k,high", [(4, 4), (300, 256)])
def test_softmax_ce_label_dtype_gives_same_result(k, high):
    """Loss and logits gradient are equal for uint8, int32 and int64 labels,
    also when k - 1 does not fit the labels' dtype."""
    rng = Rng(112)
    x = randn((2, k, 3, 5), 0.0, 1.0, rng.split("x"))
    labels = rng.split("lbl").generator().integers(0, high, size=(2, 3, 5))
    labels[0, 0, 0] = high - 1

    def run(dtype):
        v = ad.Var(x, requires_grad=True)
        loss = ad.softmax_cross_entropy(v, labels.astype(dtype))
        ad.backward(loss)
        return float(loss.data), v.grad

    loss64, grad64 = run(np.int64)
    for dtype in (np.uint8, np.int32):
        loss, grad = run(dtype)
        assert loss == loss64
        np.testing.assert_array_equal(grad, grad64)


def test_softmax_ce_is_log_sum_exp_minus_the_label_term():
    """The loss is == to the mean log-sum-exp minus the mean label logit,
    and the logits gradient == to (softmax - onehot) / pixel count, each
    computed here on its own.  The logits lie on a 1/8 grid, so every sum
    of label logits is exact in any order, and the pixel count is a power
    of two, so dividing by it and multiplying by its inverse agree.  The
    gradient is built in the node's exp buffer, so a second backward
    through the node must still raise."""
    rng = Rng(118)
    n, k, h, w = 2, 5, 4, 4
    x = np.round(randn((n, k, h, w), 0.0, 2.0, rng.split("x")) * 8.0) / 8.0
    labels = rng.split("lbl").generator().integers(0, k, size=(n, h, w))
    v = ad.Var(x, requires_grad=True)
    loss = ad.softmax_cross_entropy(v, labels)
    ad.backward(loss)
    count = n * h * w
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    label_logits = np.take_along_axis(z, labels[:, None], axis=1)
    assert float(loss.data) == np.log(e.sum(axis=1)).mean() - label_logits.sum() / count
    onehot = np.eye(k)[labels].transpose(0, 3, 1, 2)
    assert np.array_equal(v.grad, (e / e.sum(axis=1, keepdims=True) - onehot) / count)
    with pytest.raises(ContractError):
        ad.backward(loss)


def test_softmax_ce_rejects_out_of_range_labels():
    logits = ad.Var(np.zeros((1, 3, 2, 2)))
    for bad in (3, -1):
        labels = np.zeros((1, 2, 2), dtype=np.int64)
        labels[0, 1, 0] = bad
        with pytest.raises(ContractError):
            ad.softmax_cross_entropy(logits, labels)


def test_grad_composite_network():
    """A head-shaped composition of every op in one graph."""
    rng = Rng(111)
    x0 = safe_randn((2, 3, 8, 8), rng.split("x"))
    w0 = randn((4, 3, 3, 3), 0.0, 0.4, rng.split("w"))
    labels = rng.split("lbl").generator().integers(0, 2, size=(2, 16, 16))

    def run(wv):
        v = ad.conv2d(ad.Var(x0), wv, stride=1)
        v = ad.relu(ad.batchnorm(v, ad.Var(np.ones(4)), ad.Var(np.zeros(4))))
        a = ad.upsample_to(v, (16, 16))
        b = ad.upsample_to(ad.avgpool_to(v, (2, 2)), (16, 16))
        b = ad.scale_equalize(b, 0.2, 1.3)
        z = ad.concat_channels([a, b])
        z = ad.conv2d(z, ad.Var(np.full((2, 8, 1, 1), 0.25)))
        return ad.softmax_cross_entropy(z, labels)

    wv = ad.Var(w0, requires_grad=True)
    ad.backward(run(wv))
    fd = ad.finite_diff_grad(lambda w: float(run(ad.Var(w)).data), w0)
    assert rel_err(wv.grad, fd) < 1e-5


def test_upsample_transpose_identity():
    """<UP(x), y> == <x, UP^T(y)> to 1e-10 for both kernels and modes, also
    at ratios where nearest repeats source pixels unevenly; the same for
    adaptive average pooling, <P(x), y> == <x, P^T(y)>, with overlapping,
    uneven and global windows."""
    rng = Rng(112)
    for in_hw, out_hw in (((6, 6), (4, 4)), ((7, 5), (3, 2)), ((8, 8), (6, 1)),
                          ((5, 7), (1, 1))):
        tag = f"pool{in_hw}{out_hw}"
        x0 = randn((2, 3) + in_hw, 0.0, 1.0, rng.split(f"x{tag}"))
        y = randn((2, 3) + out_hw, 0.0, 1.0, rng.split(f"y{tag}"))
        xv = ad.Var(x0, requires_grad=True)
        pooled = ad.avgpool_to(xv, out_hw)
        ad.backward(ad.dot_const(pooled, y))    # x.grad = P^T(y)
        lhs = float(np.sum(pooled.data * y))
        rhs = float(np.sum(x0 * xv.grad))
        assert abs(lhs - rhs) < 1e-10
    for kernel, align, out_hw in itertools.product(
            ("bilinear", "nearest"), (False, True), ((12, 13), (7, 10), (11, 17))):
        mode = UpsampleMode(kernel, align)
        tag = f"{kernel}{align}{out_hw}"
        x0 = randn((1, 2, 5, 6), 0.0, 1.0, rng.split(f"x{tag}"))
        y = randn((1, 2) + out_hw, 0.0, 1.0, rng.split(f"y{tag}"))
        xv = ad.Var(x0, requires_grad=True)
        up = ad.upsample_to(xv, out_hw, mode)
        ad.backward(ad.dot_const(up, y))        # x.grad = UP^T(y)
        lhs = float(np.sum(up.data * y))
        rhs = float(np.sum(x0 * xv.grad))
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("kernel,align", [("bilinear", False), ("bilinear", True),
                                          ("nearest", False), ("area", False)])
def test_upsample_node_gradient_is_the_ops_adjoint(kernel, align):
    """The upsample node's input gradient is == to ops.upsample_adjoint of
    its output gradient, the routine the head audit projects with; so is
    the avgpool node's, under AREA."""
    mode = UpsampleMode(kernel, align)
    area = mode == ops.AREA
    in_hw, out_hw = ((20, 21), (5, 7)) if area else ((5, 7), (20, 21))
    rng = Rng(113)
    x = ad.Var(randn((2, 3) + in_hw, 0.0, 1.0, rng.split("x")), requires_grad=True)
    g = randn((2, 3) + out_hw, 0.0, 1.0, rng.split("g"))
    y = ad.avgpool_to(x, out_hw) if area else ad.upsample_to(x, out_hw, mode)
    ad.backward(ad.dot_const(y, g))
    assert np.array_equal(x.grad, ops.upsample_adjoint(g, in_hw, mode))


def test_no_tape_forwards_leave_inputs_and_match_the_tape():
    """Under no_tape, batchnorm is ops.batchnorm and unit_block rectifies
    the batchnorm output in place; relu records no node.  Each leaves its
    input array as it was and returns the taped forward's values bit for
    bit."""
    rng = Rng(114)
    x0 = randn((2, 4, 6, 5), 0.3, 1.0, rng.split("x"))
    gamma = ad.Var(randn((4,), 1.0, 0.2, rng.split("gamma")), requires_grad=True)
    beta = ad.Var(randn((4,), 0.0, 0.5, rng.split("beta")), requires_grad=True)
    weight = ad.Var(randn((4, 4, 3, 3), 0.0, 0.3, rng.split("w")), requires_grad=True)
    forwards = {
        "relu": ad.relu,
        "batchnorm": lambda x: ad.batchnorm(x, gamma, beta),
        "unit_block": lambda x: ad.unit_block(lambda v: ad.conv2d(v, weight),
                                              x, gamma, beta),
    }
    for name, forward in forwards.items():
        x = ad.Var(x0.copy(), requires_grad=True)
        taped = forward(x)
        assert taped._parents, name
        with ad.no_tape():
            y = forward(x)
        assert not y._parents, name
        assert np.array_equal(x.data, x0), name
        assert np.array_equal(y.data, taped.data), name


def test_batchnorm_forwards_are_one_formula():
    """The taped batchnorm, the no_tape one and ops.batchnorm compute the
    same ((x - mu) * inv) * gamma + beta, so at gamma != 1 and beta != 0
    their outputs are equal bit for bit."""
    rng = Rng(115)
    x = randn((3, 5, 7, 6), 0.4, 1.3, rng.split("x"))
    gamma = randn((5,), 1.0, 0.4, rng.split("gamma"))
    beta = randn((5,), 0.0, 0.7, rng.split("beta"))
    taped = ad.batchnorm(ad.Var(x, requires_grad=True), ad.Var(gamma), ad.Var(beta))
    assert taped._parents
    with ad.no_tape():
        untaped = ad.batchnorm(ad.Var(x), ad.Var(gamma), ad.Var(beta))
    plain = ops.batchnorm(x, gamma, beta)
    assert np.array_equal(taped.data, plain)
    assert np.array_equal(untaped.data, plain)


@pytest.mark.parametrize("case", ["taps-scalar-pad", "taps-calibrated-pad",
                                  "im2col-ppm"])
def test_conv_over_channel_blocks_matches_the_concatenation(case):
    """A conv over a list of channel blocks fills its operand from each
    block at its channel offset and splits dX across the blocks: forward,
    dW, db and each block's dX are == to those of the conv over
    concat_channels of the blocks.  The tap kernel runs at uperhead's
    fusion shape, with a scalar pad value and with the per-channel one of
    calibrate_weights; im2col runs the PPM's 3x3 conv on a 2x2 C5 map."""
    rng = Rng(119)
    if case == "im2col-ppm":
        widths, hw = (32, 16, 16), (2, 2)
    else:
        widths, hw = (16, 16, 16, 16), (16, 16)
    blocks = [randn((2, c) + hw, 0.5 * i, 1.0 + i, rng.split(f"x{i}"))
              for i, c in enumerate(widths)]
    weight = randn((16, sum(widths), 3, 3), 0.0, 0.1, rng.split("w"))
    bias = randn((16,), 0.0, 1.0, rng.split("b"))
    pad_value = 0.25
    if case == "taps-calibrated-pad":
        stats = GlobalStats(tuple(0.5 * i for i in range(len(widths))),
                            tuple(1.0 + i for i in range(len(widths))), 8)
        weight, _, pad_value = calibrate_weights(weight, stats, widths)
    u = randn((2, 16) + hw, 0.0, 1.0, rng.split("u"))
    plan = ops.ConvPlan(blocks, ops.ConvParams(weight, pad_value=pad_value))
    assert plan.taps == (case != "im2col-ppm")

    def run(fuse):
        xs = [ad.Var(b, requires_grad=True) for b in blocks]
        w, b = ad.Var(weight, requires_grad=True), ad.Var(bias, requires_grad=True)
        y = ad.conv2d(fuse(xs), w, b, pad_value=pad_value)
        ad.backward(ad.dot_const(y, u))
        return [y.data, w.grad, b.grad] + [x.grad for x in xs]

    listed, concat = run(list), run(ad.concat_channels)
    for got, want in zip(listed, concat):
        assert np.array_equal(got, want)


def test_conv_rejects_channel_blocks_of_different_grids():
    w = ad.Var(np.zeros((2, 5, 3, 3)))
    for second in ((2, 3, 4, 5), (1, 3, 4, 4)):
        with pytest.raises(ShapeError):
            ad.conv2d([ad.Var(np.zeros((1, 2, 4, 5))), ad.Var(np.zeros(second))], w)


def test_fusion_weight_gradient_is_subject():
    """For a lone 1x1 fusion layer with scalarization sum(y * u), the weight
    gradient restricted to group i is exactly the u-aggregation of subject i
    (the chain-rule identity behind the per-group audit)."""
    rng = Rng(113)
    x1 = randn((2, 3, 4, 4), 0.0, 2.0, rng.split("x1"))
    x2 = randn((2, 3, 4, 4), 0.0, 1.0, rng.split("x2"))
    w0 = randn((5, 6, 1, 1), 0.0, 1.0, rng.split("w"))
    u = randn((2, 5, 4, 4), 0.0, 1.0, rng.split("u"))
    wv = ad.Var(w0, requires_grad=True)
    y = ad.conv2d(ad.Var(np.concatenate([x1, x2], axis=1)), wv)
    ad.backward(ad.dot_const(y, u))
    x = np.concatenate([x1, x2], axis=1)
    expect = np.tensordot(u, x, axes=([0, 2, 3], [0, 2, 3]))[:, :, None, None]
    np.testing.assert_allclose(wv.grad, expect, atol=1e-12)


def test_grad_group_moments_contract():
    g = np.zeros((4, 6, 1, 1))
    ms = ad.grad_group_moments(g, (3, 3))
    assert len(ms) == 2 and ms[0].count == 12
    with pytest.raises(ContractError):
        ad.grad_group_moments(g, (3, 0, 3))              # a zero width
    with pytest.raises(ContractError):
        ad.grad_group_moments(g, (3, 4))                 # more than the axis
    with pytest.raises(ContractError):
        ad.grad_group_moments(g, (3,))                   # less than the axis
    with pytest.raises(ContractError):
        ad.grad_group_moments(np.zeros(4), (4,))


def assert_no_shared_grads(grads):
    arrays = list(grads.values())
    for i, j in itertools.combinations(range(len(arrays)), 2):
        assert not np.shares_memory(arrays[i], arrays[j])


def test_gradient_accumulates_over_reuse():
    """A Var consumed twice sums both gradients, and no two gradients share
    memory, though add hands one array to both parents and concat hands
    out views: a first gradient is owned by the Var it lands on."""
    x0 = randn((1, 1, 3, 3), 0.0, 1.0, Rng(114))
    v = ad.Var(x0, requires_grad=True)
    grads = ad.backward(ad.sum_sq(ad.add(v, v)))
    np.testing.assert_allclose(v.grad, 8.0 * x0, atol=1e-12)
    assert_no_shared_grads(grads)
    ad.zero_grad([v])
    assert v.grad is None

    # add and concat hand their gradients straight to leaves, which own them
    rng = Rng(115)
    a, b, c = (ad.Var(randn((1, k, 3, 3), 0.0, 1.0, rng.split(name)), requires_grad=True)
               for name, k in (("a", 2), ("b", 2), ("c", 1)))
    u = randn((1, 3, 3, 3), 0.0, 1.0, rng.split("u"))
    grads = ad.backward(ad.dot_const(ad.concat_channels([ad.add(a, b), c]), u))
    assert set(grads) == {id(a), id(b), id(c)}
    assert_no_shared_grads(grads)
    assert all(g.base is None for g in grads.values())
    np.testing.assert_array_equal(a.grad, u[:, :2])
    np.testing.assert_array_equal(b.grad, u[:, :2])
    np.testing.assert_array_equal(c.grad, u[:, 2:])

    # x feeds two convs (the channel-reducing tap kernel) and a concat
    rng = Rng(116)
    x0 = randn((2, 4, 6, 7), 0.0, 1.0, rng.split("x"))
    w1, w2 = (randn((2, 4, 3, 3), 0.0, 0.5, rng.split(f"w{i}")) for i in (1, 2))
    u = randn((2, 6, 6, 7), 0.0, 1.0, rng.split("u"))
    xv = ad.Var(x0, requires_grad=True)
    wv1, wv2 = ad.Var(w1, requires_grad=True), ad.Var(w2, requires_grad=True)
    s = ad.add(ad.conv2d(xv, wv1), ad.conv2d(xv, wv2))
    grads = ad.backward(ad.dot_const(ad.concat_channels([s, xv]), u))
    assert_no_shared_grads(grads)
    ref = ad.Var(x0, requires_grad=True)
    ad.backward(ad.dot_const(ad.conv2d(ref, ad.Var(w1 + w2)), u[:, :2]))
    np.testing.assert_allclose(xv.grad, ref.grad + u[:, 2:], rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(wv1.grad, wv2.grad)
