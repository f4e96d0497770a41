import tracemalloc

import numpy as np
import pytest

from scaleq import autodiff as ad
from scaleq import decoders
from scaleq import experiments as ex
from scaleq.decoders import SegModel, ToyEncoder, build_head, he_normal
from scaleq.equalizer import GlobalStats, accumulate_stats, channel_spans
from scaleq.errors import ConfigError, ContractError, ShapeError
from scaleq.experiments import ExperimentConfig
from scaleq.tensor import Rng, moments, randn


def make_model(head_kind, seed=0, image=None, widths=(8, 16, 16, 32, 32),
               channels=16, n_classes=4, stride=8):
    rng = Rng(seed)
    depth = 5 if head_kind == "uperhead" else int(np.log2(stride))
    enc = ToyEncoder(rng.split("enc"), widths=widths[:depth])
    head = build_head(head_kind, rng.split("head"), enc, channels, n_classes)
    return SegModel(enc, head)


def forward(model, shape, seed=1):
    x = randn(shape, 0.0, 1.0, Rng(seed))
    return model.forward(x), x


# ---------------------------------------------------------------------------
# shapes and structure
# ---------------------------------------------------------------------------

def test_uperhead_output_shape():
    model = make_model("uperhead")
    out, x = forward(model, (2, 3, 64, 64))
    assert out.logits.data.shape == (2, 4, 64, 64)
    assert len(out.subjects_raw) == 4
    assert model.branches(x)[1] == (1, 2, 4, 8)
    # all subjects live on the P2 grid (64/4 = 16)
    for s in out.subjects_raw:
        assert s.data.shape == (2, 16, 16, 16)


def test_psphead_output_shape():
    model = make_model("psphead", stride=8)
    out, x = forward(model, (2, 3, 48, 48))       # C5 is 6x6
    assert out.logits.data.shape == (2, 4, 48, 48)
    assert len(out.subjects_raw) == 5             # C5 + bins (1, 2, 3, 6)
    for s in out.subjects_raw:
        assert s.data.shape[2:] == (6, 6)
    assert model.branches(x)[1] == (1, 6, 3, 2, 1)


def test_aspp_rates_follow_stride():
    m8 = make_model("aspphead", stride=8)
    m16 = make_model("aspphead", stride=16)
    assert m8.head.rates == (1, 12, 24, 36)
    assert m16.head.rates == (1, 6, 12, 18)
    out, _ = forward(m8, (2, 3, 48, 48))
    assert out.logits.data.shape == (2, 4, 48, 48)
    assert len(out.subjects_raw) == 5


def test_sepaspp_matches_aspp_structure():
    model = make_model("sepaspphead", stride=8)
    assert model.head.separable
    out, _ = forward(model, (2, 3, 48, 48))
    assert out.logits.data.shape == (2, 4, 48, 48)


def test_fcnhead_single_branch():
    model = make_model("fcnhead", stride=8)
    out, x = forward(model, (1, 3, 48, 48))
    assert out.logits.data.shape == (1, 4, 48, 48)
    assert len(out.subjects_raw) == 1
    assert model.branches(x)[1] == (1,)


def test_aspp_rejects_bad_stride():
    rng = Rng(0)
    with pytest.raises(ConfigError):
        decoders.ASPPHead(rng, {7: 32}, 16, 4)


def test_psp_rejects_small_c5():
    model = make_model("psphead", stride=16)
    with pytest.raises(ShapeError):
        forward(model, (1, 3, 64, 64))            # C5 is 4x4 < bin 6


def test_encoder_divisibility():
    model = make_model("uperhead")
    with pytest.raises(ShapeError):
        forward(model, (1, 3, 60, 60))


def test_encoder_returns_every_stage():
    rng = Rng(0)
    widths = (8, 16, 16, 32, 32)
    for depth, ratios in ((5, (2, 4, 8, 16, 32)), (3, (2, 4, 8)), (4, (2, 4, 8, 16))):
        enc = ToyEncoder(rng.split("enc"), widths[:depth])
        feats = enc.forward(np.zeros((1, 3, 64, 64)))
        assert tuple(feats) == tuple(enc.stage_channels()) == ratios
        for r, width in enc.stage_channels().items():
            assert feats[r].data.shape == (1, width, 64 // r, 64 // r)


def test_single_stage_head_reads_the_deepest_stage():
    """On a five-stage encoder a single-stage head takes the ratio-32 stage
    as C5; an unknown kind is a ConfigError."""
    rng = Rng(0)
    enc = ToyEncoder(rng.split("enc"))            # multi-stage
    model = SegModel(enc, build_head("psphead", rng.split("head"), enc, 8, 4))
    assert model.head.stride == 32
    x = randn((2, 3, 192, 192), 0.0, 1.0, Rng(1))  # C5 is 6x6
    c5 = enc.forward(x)[32].data
    subjects, _ = model.branches(x)
    assert np.array_equal(subjects[0].data, c5)
    assert model.forward(x).logits.data.shape == (2, 4, 192, 192)
    with pytest.raises(ConfigError):
        build_head("sharpnet", rng.split("head"), enc, 8, 4)


@pytest.mark.parametrize("kind", decoders.HEAD_KINDS)
def test_pooled_branches_once_per_forward(kind, monkeypatch):
    """UPerHead's PPM, the PSP pyramid and the ASPP image pool all run
    through one pooling routine, once per forward; FCNHead pools nothing.
    Every concatenation takes its subjects from one upsampling routine:
    UPerHead's PPM and fusion, and each other head's fusion once."""
    calls = []
    pooled, shared = decoders.pooled_branches, decoders.to_shared_size

    def counted_pool(c5, bins, units):
        calls.append(bins)
        return pooled(c5, bins, units)

    def counted_shared(branches):
        calls.append(len(branches))
        return shared(branches)

    monkeypatch.setattr(decoders, "pooled_branches", counted_pool)
    monkeypatch.setattr(decoders, "to_shared_size", counted_shared)
    model = make_model(kind, stride=8)
    forward(model, (2, 3, 64, 64) if kind == "uperhead" else (2, 3, 48, 48))
    expected = {"uperhead": [(1, 2), 3, 4], "psphead": [(1, 2, 3, 6), 5],
                "aspphead": [(1,), 5], "sepaspphead": [(1,), 5], "fcnhead": [1]}
    assert calls == expected[kind]


# each head's ratios at the default configuration, shared height over
# branch height: C5 is 8x8 at output stride 8 and 6x6 at stride 16
DECLARED_RATIOS = {
    8: {"uperhead": (1, 2, 4, 8), "psphead": (1, 8, 4, 8 / 3, 4 / 3),
        "aspphead": (8, 1, 1, 1, 1), "sepaspphead": (8, 1, 1, 1, 1),
        "fcnhead": (1,)},
    16: {"uperhead": (1, 2, 4, 8), "psphead": (1, 6, 3, 2, 1),
         "aspphead": (6, 1, 1, 1, 1), "sepaspphead": (6, 1, 1, 1, 1),
         "fcnhead": (1,)}}


@pytest.mark.parametrize("stride", [8, 16])
@pytest.mark.parametrize("kind", decoders.HEAD_KINDS)
def test_branches_measure_the_declared_ratios(kind, stride):
    """At the default configuration each head's measured ratios, shared
    height over branch height, are the ratios the heads used to declare
    (C5 is 8x8 at stride 8 and 6x6 at stride 16), and every subject has
    the shared size."""
    cfg = ExperimentConfig(output_stride=stride)
    size = ex.head_input_size(cfg, kind)
    model = ex.build_model(cfg, cfg.seed, kind)
    with ad.no_tape():
        subjects, ratios = model.branches(randn((2, 3, size, size), 0.0, 1.0, Rng(5)))
    assert ratios == DECLARED_RATIOS[stride][kind]
    assert len({s.data.shape[2:] for s in subjects}) == 1


@pytest.mark.parametrize("stride", [8, 16])
@pytest.mark.parametrize("kind", decoders.HEAD_KINDS)
def test_head_branches_keep_their_own_sizes(kind, stride):
    """A head's `branches` returns its branch list at the branches' own
    sizes, which differ in every multi-branch head, and `SegModel.branches`
    is `to_shared_size` of that list: the one site where a fusion's
    branches are upsampled to the shared size."""
    cfg = ExperimentConfig(output_stride=stride)
    size = ex.head_input_size(cfg, kind)
    model = ex.build_model(cfg, cfg.seed, kind)
    x = randn((2, 3, size, size), 0.0, 1.0, Rng(5))
    with ad.no_tape():
        own = model.head.branches(model.encoder.forward(x))
        subjects, ratios = model.branches(x)
        shared, shared_ratios = decoders.to_shared_size(own)
    assert isinstance(own, list) and len(own) == model.head.n_branches
    assert len({b.data.shape[2:] for b in own}) > 1 or model.head.n_branches == 1
    assert ratios == shared_ratios == DECLARED_RATIOS[stride][kind]
    for subject, expected in zip(subjects, shared, strict=True):
        assert np.array_equal(subject.data, expected.data)


@pytest.mark.parametrize("kind", decoders.HEAD_KINDS)
def test_forward_is_finish_of_branches(kind):
    model = make_model(kind, stride=8)
    shape = (2, 3, 64, 64) if kind == "uperhead" else (2, 3, 48, 48)
    x = randn(shape, 0.0, 1.0, Rng(19))
    full = model.forward(x).logits.data
    subjects, _ = model.branches(x)
    tail = ad.upsample_to(model.head._classify(subjects).logits, x.shape[2:]).data
    assert np.array_equal(full, tail)


@pytest.mark.parametrize("kind", decoders.HEAD_KINDS)
def test_taps_without_tape_equal_taped_forward(kind):
    model = make_model(kind, stride=8)
    shape = (2, 3, 64, 64) if kind == "uperhead" else (2, 3, 48, 48)
    x = randn(shape, 0.0, 1.0, Rng(20))
    taped, _ = model.branches(x)
    assert any(s._parents for s in taped)
    taps = model.tap_fn(x)
    assert len(taps) == len(taped)
    for tap, s in zip(taps, taped):
        assert np.array_equal(tap, s.data)


@pytest.mark.parametrize("mode", ["off", "injected"])
@pytest.mark.parametrize("kind", ["uperhead", "psphead"])
def test_taped_forward_keeps_every_subject(kind, mode):
    """The fusion conv, and uperhead's PPM conv, read their branch lists:
    the tape holds no concat node, and a unit block's release walk stops
    at its conv's inputs, so every subject, raw and as fused, keeps the
    data of the forward without a tape."""
    model = make_model(kind, stride=8)
    shape = (2, 3, 64, 64) if kind == "uperhead" else (2, 3, 48, 48)
    if mode == "injected":
        dataset = [randn(shape, 0.0, 1.0, Rng(21).split(i)) for i in range(2)]
        model.head.set_equalize("injected", _stats_for(model, dataset))
    out, x = forward(model, shape)
    taps = model.tap_fn(x)
    for tap, raw, subject in zip(taps, out.subjects_raw, out.subjects):
        assert np.array_equal(raw.data, tap)
        assert subject.data is not None and subject.data.shape == tap.shape
    seen, stack = set(), [out.logits]
    while stack:
        v = stack.pop()
        if id(v) not in seen:
            seen.add(id(v))
            assert v.op != "concat"
            stack.extend(v._parents)


def test_uperhead_needs_all_stages():
    model = make_model("uperhead")
    feats = {8: ad.Var(np.zeros((1, 16, 8, 8)))}
    with pytest.raises(ShapeError):
        model.head.branches(feats)


def test_head_groups_tile_concat_width():
    for kind in decoders.HEAD_KINDS:
        model = make_model(kind)
        spans = channel_spans(model.head.branch_channels,
                              model.head.fusion_block.weight.data.shape[1])
        assert spans[0][0] == 0
        assert all(a == b0 for (_, b0), (a, _) in zip(spans, spans[1:]))
        assert spans[-1][1] == model.head.fusion_block.weight.data.shape[1]
        assert len(spans) == model.head.n_branches


def _reachable_vars(obj, found, visited):
    """Every Var reachable from obj through instance attributes, lists,
    tuples and dicts, found without the registry."""
    if id(obj) in visited:
        return
    visited.add(id(obj))
    if isinstance(obj, ad.Var):
        found[id(obj)] = obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _reachable_vars(item, found, visited)
    elif isinstance(obj, dict):
        for item in obj.values():
            _reachable_vars(item, found, visited)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            _reachable_vars(item, found, visited)


def test_named_params():
    """Unique dotted names, each trainable Var of the model exactly once
    and under one name, at the parameter counts of the default experiment
    configuration."""
    counts = {"uperhead": 50, "psphead": 26, "aspphead": 29, "sepaspphead": 32,
              "fcnhead": 17}
    for kind, count in counts.items():
        model = ex.build_model(ExperimentConfig(), 0, kind)
        named = list(model.named_params())
        names = [name for name, _ in named]
        assert len(names) == len(set(names)), kind
        assert [p for _, p in named] == model.params()
        assert len({id(p) for _, p in named}) == len(named), kind
        found = {}
        _reachable_vars(model, found, set())
        assert ({id(p) for _, p in named}
                == {i for i, v in found.items() if v.requires_grad}), kind
        assert len(named) == count, kind
    model = ex.build_model(ExperimentConfig(), 0, "uperhead")
    names = [name for name, _ in model.named_params()]
    assert names[0] == "encoder.blocks.0.weight"
    assert "head.fpn_units.8.weight" in names
    model = ex.build_model(ExperimentConfig(), 0, "fcnhead")
    fusion = model.head.fusion_block.weight
    names = [n for n, p in model.named_params() if p is fusion]
    assert names == ["head.fusion_block.weight"]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def test_he_normal_std():
    w = he_normal(Rng(12), 256, 128, 3)
    assert abs(w.std() - np.sqrt(2.0 / (128 * 9))) < 0.01 * w.std()


def test_broadcast_branches_are_spatially_constant():
    """Bin-1 PSP and GAP ASPP subjects are constant over space."""
    for kind, idx in (("psphead", 1), ("aspphead", 0)):
        model = make_model(kind, stride=8)
        out, _ = forward(model, (2, 3, 48, 48))
        s = out.subjects_raw[idx].data
        assert float(s.var(axis=(2, 3)).max()) < 1e-18
        # while the r=1 subject is not
        anchor = out.subjects_raw[0 if kind == "psphead" else 1].data
        assert float(anchor.var(axis=(2, 3)).min()) > 1e-6


def test_unit_block_output_moments():
    """A wide ConvUnit on unit Gaussian input reproduces the ReLU-of-
    standardized moments within a few percent."""
    unit = decoders.ConvUnit(Rng(13), 64, 64, 3)
    x = ad.Var(randn((4, 64, 24, 24), 0.0, 1.0, Rng(14)))
    m = moments(unit(x).data)
    assert abs(m.mean - 0.3989) < 0.05 * 0.3989
    assert abs(m.variance - 0.3408) < 0.05 * 0.3408


UNIT_CASES = {                       # (cin, cout, ConvUnit keywords)
    "stride1-im2col": (4, 6, {}),
    "stride1-taps": (6, 4, {}),
    "stride2": (4, 6, {"stride": 2}),
    "dilation2": (6, 4, {"dilation": 2}),
    "pad_value": (6, 4, {}),
    "separable": (4, 6, {"dilation": 2}),
}


@pytest.mark.parametrize("case", list(UNIT_CASES))
def test_unit_block_node_matches_the_three_node_chain(case):
    """A unit block's conv and batchnorm outputs hold no data once it
    returns, and it gives == outputs and == gradients for x and every
    parameter against conv -> batchnorm -> relu built as nodes that keep
    their data."""
    cin, cout, kw = UNIT_CASES[case]
    rng = Rng(22)
    cls = decoders.SepConvUnit if case == "separable" else decoders.ConvUnit
    unit = cls(rng.split("unit"), cin, cout, 3, **kw)
    if case == "pad_value":
        unit.pad_value = randn((cin,), 0.0, 1.0, rng.split("pad"))
    x0 = randn((2, cin, 8, 10), 0.0, 1.0, rng.split("x"))
    with ad.no_tape():
        shape = unit(x0).data.shape
    u = randn(shape, 0.0, 1.0, rng.split("u"))

    def run(released):
        ad.zero_grad(unit.params())
        x = ad.Var(x0, requires_grad=True)
        if released:
            y = unit(x)
            chain, node = [], y._parents[0]
            while node is not x:
                chain.append(node)
                node = node._parents[0]
            convs = 2 if case == "separable" else 1
            assert [v.op for v in chain] == ["batchnorm"] + ["conv2d"] * convs
            assert all(v.data is None for v in chain)
        else:
            y = ad.relu(ad.batchnorm(unit.conv(x), unit.gamma, unit.beta))
        ad.backward(ad.dot_const(y, u))
        return [y.data, x.grad] + [p.grad for p in unit.params()]

    for a, b in zip(run(True), run(False), strict=True):
        assert np.array_equal(a, b)


def test_unit_block_keeps_only_what_backward_reads():
    """A 1x1 unit keeps its output, batchnorm's xhat and the ReLU mask
    (its conv operand is x itself): about 2.1 output sizes, where the
    conv and batchnorm outputs would add 2 more.  A separable unit also
    keeps the depthwise conv's im2col columns (9 input sizes) and the
    depthwise output, which is the pointwise conv's operand: about 12.2
    output sizes, again 2 fewer than with the conv and batchnorm outputs.
    Its depthwise node holds no data either."""
    x = ad.Var(randn((2, 8, 32, 32), 0.0, 1.0, Rng(24)), requires_grad=True)
    for unit, bound in ((decoders.ConvUnit(Rng(23), 8, 8, 1), 3),
                        (decoders.SepConvUnit(Rng(23), 8, 8, 3), 13)):
        unit(x)                            # warm-up: cached maps
        tracemalloc.start()
        try:
            y = unit(x)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < bound * y.data.nbytes, held / y.data.nbytes
    depthwise = y._parents[0]._parents[0]._parents[0]
    assert depthwise.op == "conv2d" and depthwise.data is None


def test_all_zero_input_gives_constant_logits():
    model = make_model("fcnhead", stride=8)
    out = model.forward(np.zeros((1, 3, 48, 48)))
    logits = out.logits.data
    assert float(np.ptp(logits.reshape(4, -1), axis=1).max()) < 1e-12


# ---------------------------------------------------------------------------
# equalize plumbing
# ---------------------------------------------------------------------------

def _stats_for(model, dataset):
    return accumulate_stats(dataset, model.tap_fn, batch_size=4)


def test_injected_vs_calibrated_logits_match():
    rng = Rng(15)
    dataset = [randn((2, 3, 48, 48), 0.0, 1.0, rng.split(i)) for i in range(8)]
    x = randn((2, 3, 48, 48), 0.0, 1.0, rng.split("probe"))
    for kind in ("psphead", "aspphead"):
        inj = make_model(kind, seed=3, stride=8)
        stats = _stats_for(inj, dataset)
        inj.head.set_equalize("injected", stats)
        cal = make_model(kind, seed=3, stride=8)
        cal.head.set_equalize("calibrated", stats)
        diff = np.max(np.abs(inj.forward(x).logits.data -
                             cal.forward(x).logits.data))
        assert diff < 1e-10, (kind, diff)


def test_injected_vs_calibrated_encoder_grads_match():
    """Same stats and batch: every encoder parameter gets the same
    cross-entropy gradient through the injected equalizer as through the
    calibrated fusion conv, whose mean padding reaches dX."""
    rng = Rng(21)
    dataset = [randn((2, 3, 64, 64), 0.0, 1.0, rng.split(i)) for i in range(4)]
    x = randn((2, 3, 64, 64), 0.0, 1.0, rng.split("probe"))
    labels = rng.split("lbl").generator().integers(0, 4, size=(2, 64, 64))
    inj = make_model("uperhead", seed=7)
    stats = _stats_for(inj, dataset)
    inj.head.set_equalize("injected", stats)
    cal = make_model("uperhead", seed=7)
    cal.head.set_equalize("calibrated", stats)
    for model in (inj, cal):
        ad.backward(ad.softmax_cross_entropy(model.forward(x).logits, labels))
    for a, b in zip(inj.encoder.params(), cal.encoder.params()):
        rel = np.max(np.abs(a.grad - b.grad)) / np.max(np.abs(a.grad))
        assert rel < 1e-10, rel


def test_injected_equalize_unit_moments():
    model = make_model("psphead", seed=4, stride=8)
    rng = Rng(16)
    dataset = [randn((2, 3, 48, 48), 0.0, 1.0, rng.split(i)) for i in range(8)]
    stats = _stats_for(model, dataset)
    model.head.set_equalize("injected", stats)
    # evaluate with the same mini-batch grouping as the stats pass: the
    # branch taps go through batch-stats normalization
    ms = None
    for lo in range(0, len(dataset), 4):
        batch = np.concatenate(dataset[lo:lo + 4], axis=0)
        subs = model.forward(batch).subjects
        part = [moments(s.data) for s in subs]
        ms = part if ms is None else [a.merge(b) for a, b in zip(ms, part)]
    for m in ms:
        assert abs(m.mean) < 1e-6
        assert abs(m.variance - 1.0) < 1e-6


def test_fcn_calibrated_matches_injected():
    inj = make_model("fcnhead", seed=5, stride=8)
    rng = Rng(17)
    dataset = [randn((2, 3, 48, 48), 0.0, 1.0, rng.split(i)) for i in range(4)]
    stats = _stats_for(inj, dataset)
    inj.head.set_equalize("injected", stats)
    cal = make_model("fcnhead", seed=5, stride=8)
    cal.head.set_equalize("calibrated", stats)
    x = randn((1, 3, 48, 48), 0.0, 1.0, rng.split("probe"))
    diff = np.max(np.abs(inj.forward(x).logits.data -
                         cal.forward(x).logits.data))
    assert diff < 1e-10


@pytest.mark.parametrize("mode", ["off", "injected"])
@pytest.mark.parametrize("kind", ["uperhead", "psphead", "aspphead",
                                  "sepaspphead"])
def test_tail_fusion_grad_matches_full_backward(kind, mode):
    """Backward from the head tail on constant subjects gives the fusion
    weight the same gradient as a backward through the whole model."""
    model = make_model(kind, seed=6, stride=8)
    shape = (2, 3, 64, 64) if kind == "uperhead" else (2, 3, 48, 48)
    rng = Rng(20)
    x = randn(shape, 0.0, 1.0, rng.split("x"))
    if mode == "injected":
        dataset = [randn(shape, 0.0, 1.0, rng.split(i)) for i in range(4)]
        model.head.set_equalize(mode, _stats_for(model, dataset))
    weight = model.head.fusion_block.weight

    out = model.forward(x)
    upstream = randn(out.logits.data.shape, 0.0, 1.0, rng.split("up"))
    ad.backward(ad.dot_const(out.logits, upstream))
    full = weight.grad

    subjects, _ = model.branches(x)
    weight.grad = None
    logits = model.head._classify([ad.Var(s.data) for s in subjects]).logits
    ad.backward(ad.dot_const(ad.upsample_to(logits, x.shape[2:]), upstream))
    assert np.array_equal(weight.grad, full)


@pytest.mark.parametrize("mode", ["off", "injected"])
@pytest.mark.parametrize("stride", [8, 16])
@pytest.mark.parametrize("kind", decoders.HEAD_KINDS)
def test_classify_under_the_projected_upstream_matches_finish(kind, stride, mode):
    """The head audit's tail: `_classify` on the logits' grid, under the
    upstream projected there by `SegModel.project`, gives the fusion weight
    a gradient == to that of the logits upsampled to the input size, as
    `forward` upsamples them, under the input-size upstream."""
    model = make_model(kind, seed=6, stride=stride)
    size = 64 if kind == "uperhead" else 6 * stride
    shape = (2, 3, size, size)
    rng = Rng(21)
    x = randn(shape, 0.0, 1.0, rng.split("x"))
    if mode == "injected":
        dataset = [randn(shape, 0.0, 1.0, rng.split(i)) for i in range(4)]
        model.head.set_equalize(mode, _stats_for(model, dataset))
    with ad.no_tape():
        subjects, _ = model.branches(x)
    weight = model.head.fusion_block.weight
    upstream = randn((2, 4, size, size), 0.0, 1.0, rng.split("up"))

    def fusion_grad(logits, u):
        weight.grad = None
        ad.backward(ad.dot_const(logits, u))
        return weight.grad

    logits = model.head._classify(subjects).logits
    full = fusion_grad(ad.upsample_to(logits, (size, size)), upstream)
    projected = model.project(subjects, upstream)
    assert projected.shape[2:] == subjects[0].data.shape[2:] != (size, size)
    low = fusion_grad(model.head._classify(subjects).logits, projected)
    assert np.array_equal(low, full)


def test_set_equalize_validation():
    model = make_model("fcnhead", stride=8)
    with pytest.raises(ConfigError):
        model.head.set_equalize("magic", None)
    with pytest.raises(ContractError):
        model.head.set_equalize("injected", None)
    with pytest.raises(ContractError):
        model.head.set_equalize("injected",
                                GlobalStats((0.0, 0.0), (1.0, 1.0), 4))
    # the fold happens once: a calibrated head refuses any further mode
    stats = GlobalStats((0.5,), (2.0,), 4)
    model.head.set_equalize("calibrated", stats)
    folded = model.head.fusion_block.weight.data.copy()
    for mode in ("calibrated", "injected", "off"):
        with pytest.raises(ContractError):
            model.head.set_equalize(mode, stats)
    assert np.array_equal(model.head.fusion_block.weight.data, folded)


def test_training_reaches_logits_everywhere():
    """Every parameter of every head receives a gradient from the loss."""
    for kind in decoders.HEAD_KINDS:
        model = make_model(kind, stride=8)
        shape = (2, 3, 64, 64) if kind == "uperhead" else (2, 3, 48, 48)
        out = model.forward(randn(shape, 0.0, 1.0, Rng(18)))
        labels = np.zeros((2,) + shape[2:], dtype=np.int64)
        ad.backward(ad.softmax_cross_entropy(out.logits, labels))
        for p in model.params():
            assert p.grad is not None and np.all(np.isfinite(p.grad)), kind
