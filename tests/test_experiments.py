import ast
import dataclasses
import importlib
import importlib.util
import json
import math
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scaleq import autodiff as ad
from scaleq import experiments as ex
from scaleq import ops
from scaleq.decoders import HEAD_KINDS, SegModel
from scaleq.equalizer import accumulate_stats, branch_moments, scale_equalize
from scaleq.errors import ConfigError, ContractError
from scaleq.experiments import ExperimentConfig
from scaleq.tensor import Rng, randn


def quick_config(**kw):
    base = dict(seed=7, trials=1, shape=(2, 8, 16, 16),
                sigma_grid=(0.2, 0.5, 0.8), ratios=(2, 4),
                image_size=48, dataset_size=16, audit_seeds=2,
                audit_dataset=8, stats_batch=4, head_channels=8,
                encoder_widths=(4, 8, 8, 8, 8), train_steps=6, batch_size=4)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# synthetic dataset
# ---------------------------------------------------------------------------

def test_dataset_deterministic():
    a = ex.gen_synthetic_dataset(3, 4, 4, 32)
    b = ex.gen_synthetic_dataset(3, 4, 4, 32)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.image, sb.image)
        np.testing.assert_array_equal(sa.mask, sb.mask)
    c = ex.gen_synthetic_dataset(4, 4, 4, 32)
    assert any(np.any(sa.mask != sc.mask) for sa, sc in zip(a, c))


def test_dataset_shapes_and_coverage():
    samples = ex.gen_synthetic_dataset(1, 8, 4, 48)
    assert len(samples) == 8
    hist = np.zeros(4)
    for s in samples:
        assert s.image.shape == (1, 3, 48, 48)
        assert s.mask.shape == (1, 48, 48)
        hist += np.bincount(s.mask.ravel(), minlength=4)
    shares = hist / hist.sum()
    assert np.all(shares > 0.0)
    assert shares[0] > 0.2                      # background dominates


def test_dataset_contracts():
    with pytest.raises(ContractError):
        ex.gen_synthetic_dataset(0, 0)
    with pytest.raises(ContractError):
        ex.gen_synthetic_dataset(0, 4, n_classes=1)
    with pytest.raises(ContractError):
        ex.gen_synthetic_dataset(0, 4, n_classes=9)


def _reference_sample(seed, i, n_classes, size):
    """Sample i by the per-image recipe, on its own: a fresh image array and
    int64 labels."""
    gen = Rng(seed).split("dataset").split(i).generator()
    yy, xx = np.mgrid[:size, :size].astype(np.float64)
    mask = np.zeros((size, size), dtype=np.int64)
    for cls in range(1, n_classes):
        cy, cx = gen.uniform(0.2 * size, 0.8 * size, size=2)
        scale = gen.uniform(0.16 * size, 0.26 * size)
        kind = (cls - 1) % 3
        if kind == 0:
            inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= scale ** 2
        elif kind == 1:
            inside = (np.abs(yy - cy) <= scale) & (np.abs(xx - cx) <= 0.8 * scale)
        else:
            inside = ((yy >= cy - scale) & (np.abs(xx - cx) <= (yy - (cy - scale)) / 2)
                      & (yy <= cy + scale))
        mask[inside] = cls
    texture = gen.normal(0.0, 1.0, size=(1, 1, 8, 8))
    texture = ops.upsample_to(texture, (size, size))[0, 0]
    image = ex._CLASS_COLORS[mask].transpose(2, 0, 1).copy()
    image += 0.25 * texture
    image += gen.normal(0.0, 0.1, size=(3, size, size))
    return image[None], mask[None]


@pytest.mark.parametrize("seed,n,n_classes,size",
                         [(3, 5, 6, 48), (9, 4, 2, 96), (11, 3, 5, 32),
                          # one image: the calling thread's half is empty
                          (5, 1, 4, 64),
                          # two blocks, of 28 and 9 images, with two
                          # shapes of each kind
                          (13, 37, 6, 48)])
def test_dataset_matches_per_image_recipe(seed, n, n_classes, size):
    samples = ex.gen_synthetic_dataset(seed, n, n_classes, size)
    assert len(samples) == n
    for i, s in enumerate(samples):
        image, mask = _reference_sample(seed, i, n_classes, size)
        assert np.array_equal(s.image, image)
        assert np.array_equal(s.mask, mask)


def test_dataset_blocks_cover_the_odd_case():
    """The 37-image case above spans more than one block, the last one odd."""
    block = ex._BLOCK_PIXELS // 48 ** 2
    assert block < 37 and (37 % block) % 2 == 1


@pytest.mark.parametrize("site,side", [("dataset", "helper"), ("dataset", "caller"),
                                       ("audit", "helper"), ("audit", "caller")])
def test_helper_thread_is_joined_and_its_error_surfaces(monkeypatch, site, side):
    """The dataset noise and the audit upstream are drawn on a helper thread.
    Whichever side raises, the caller gets that exception, and only once the
    helper has finished: no thread is left running."""
    error = RuntimeError(f"{side} failed")
    finished = []
    before = threading.active_count()
    on_helper = lambda: threading.current_thread() is not threading.main_thread()
    if site == "dataset":
        add_noise = ex._add_noise

        def patched(images, gens, buf):
            if on_helper():
                if side == "helper":
                    raise error
                time.sleep(0.05)                # still drawing when the caller raises
            elif side == "caller":
                raise error
            add_noise(images, gens, buf)
            finished.append(on_helper())
        monkeypatch.setattr(ex, "_add_noise", patched)
        run = lambda: ex.gen_synthetic_dataset(2, 4, 4, 32)
    else:
        fill_normal = ex.fill_normal

        def patched(out, mean, std, gen):
            if on_helper():
                if side == "helper":
                    raise error
                time.sleep(0.05)                # still drawing when the caller raises
            fill_normal(out, mean, std, gen)
            finished.append(on_helper())
        # the dataset is made before the patch reaches the audit's helper
        samples = ex.gen_synthetic_dataset(7, 8, 4, 64)
        monkeypatch.setattr(ex, "gen_synthetic_dataset", lambda *args: samples)
        monkeypatch.setattr(ex, "fill_normal", patched)
        branches = SegModel.branches

        def failing_branches(self, images):
            if threading.active_count() > before:     # the audit's, beside the helper
                raise error
            return branches(self, images)
        if side == "caller":
            monkeypatch.setattr(SegModel, "branches", failing_branches)
        run = lambda: ex.run_head_audit(quick_config(image_size=64, audit_seeds=1))
    with pytest.raises(RuntimeError) as info:
        run()
    assert info.value is error
    assert threading.active_count() == before
    if side == "caller":
        assert True in finished                 # the helper ran to its end


def test_helper_thread_bytes_hold_under_a_short_switch_interval():
    """With the interpreter switching threads every microsecond, the two
    threads interleave as finely as they can, and the dataset still matches
    the per-image recipe and the audit rows those of a normal run."""
    cfg = quick_config(image_size=64, audit_seeds=1)
    rows = ex.run_head_audit(cfg, "psphead")["rows"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        samples = ex.gen_synthetic_dataset(13, 37, 6, 48)
        fine_rows = ex.run_head_audit(cfg, "psphead")["rows"]
    finally:
        sys.setswitchinterval(interval)
    for i, s in enumerate(samples):
        image, mask = _reference_sample(13, i, 6, 48)
        assert np.array_equal(s.image, image) and np.array_equal(s.mask, mask)
    assert fine_rows == rows


def test_traced_dataset_and_audit_keep_one_span_stack():
    """The benchmark's tracer keeps one span stack for the process, so the
    helper thread must call nothing it wraps.  Under the tracer, a 40-image
    dataset and one audit seed leave the stack empty, close every span and
    nest each span inside its parent."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    with spans.Tracer() as tracer:
        ex.gen_synthetic_dataset(3, 40, 4, 64)
        ex.run_head_audit(quick_config(image_size=64, audit_seeds=1))
    assert not tracer._stack
    rows = tracer.spans
    assert len(rows) > 40
    names = {row[0] for row in rows}
    assert {"experiments.gen_synthetic_dataset", "experiments.run_head_audit",
            "ops.upsample_to"} <= names
    for i, (name, start, end, parent, _) in enumerate(rows):
        assert end is not None and start <= end, (i, name)
        assert parent < i, (i, name)
        if parent >= 0:
            assert rows[parent][1] <= start and end <= rows[parent][2], (i, name)


def test_dataset_is_two_read_only_arrays():
    """Images are views of one float64 array and labels of one uint8 array;
    neither can be written, and image i depends only on (seed, i)."""
    samples = ex.gen_synthetic_dataset(5, 12, 4, 32)
    assert all(s.mask.dtype == np.uint8 for s in samples)
    assert all(s.image.base is samples[0].image.base for s in samples)
    assert all(s.mask.base is samples[0].mask.base for s in samples)
    with pytest.raises(ValueError):
        samples[0].image[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        samples[0].mask[0, 0, 0] = 1
    prefix = ex.gen_synthetic_dataset(5, 4, 4, 32)
    for a, b in zip(samples[:4], prefix, strict=True):
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.mask, b.mask)


def test_dataset_peak_memory():
    """Generation writes straight into the two arrays and counts classes
    per image: 256 default images peak under 27 MiB, about the 25 MiB they
    keep (40.3 MiB with int64 labels and one concatenated mask array)."""
    ex.gen_synthetic_dataset(1, 256, 4, 64)    # warm-up: cached maps
    tracemalloc.start()
    try:
        ex.gen_synthetic_dataset(1, 256, 4, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 27 * 2 ** 20, peak / 2 ** 20


# ---------------------------------------------------------------------------
# fig2
# ---------------------------------------------------------------------------

def test_fig2_rows_and_decrease(tmp_path):
    cfg = quick_config(out_dir=str(tmp_path), align_corners="both")
    rows = ex.run_fig2(cfg)
    # (grid + reference sigma) x ratios x align modes
    assert len(rows) == 4 * 2 * 2
    assert sum(r["is_reference"] for r in rows) == 4
    checks = ex.fig2_checks(rows)
    assert checks["all_decreased"]
    assert all(r["config_hash"] == cfg.hash() for r in rows)
    csv = (tmp_path / "fig2.csv").read_text().strip().splitlines()
    assert csv[0] == "sigma,r,mode,var_before,var_after,is_reference,config_hash"
    assert len(csv) == len(rows) + 1
    summary = json.loads((tmp_path / "fig2_summary.json").read_text())
    assert summary["checks"]["all_decreased"] is True


def test_fig2_holds_one_tensor_at_a_time():
    """Each trial's tensor is freed before the next draw, and the moments
    make no centred copy, so the peak stays well under two tensors."""
    cfg = quick_config(shape=(2, 16, 64, 64), sigma_grid=(0.5,), ratios=(2,),
                       trials=3)
    ex.run_fig2(cfg)                       # lazy imports and cached maps
    tracemalloc.start()
    try:
        ex.run_fig2(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * math.prod(cfg.shape) * 8


def test_fig2_reference_sigma_is_relu_bn_variance():
    cfg = quick_config(align_corners="false")
    rows = ex.run_fig2(cfg)
    ref = [r for r in rows if r["is_reference"]]
    for r in ref:
        assert r["sigma"] == pytest.approx(math.sqrt(ex.RELU_BN_VAR))
        assert r["var_before"] == pytest.approx(ex.RELU_BN_VAR, rel=0.2)


# ---------------------------------------------------------------------------
# prop1
# ---------------------------------------------------------------------------

def test_prop1_rows_and_checks():
    cfg = quick_config(audit_seeds=8)
    rows = ex.run_prop1(cfg)
    assert len(rows) == 8 * 2 * 2
    checks = ex.prop1_checks(rows)
    assert abs(checks["ratio10_baseline"] - 10.0) < 1.5
    assert abs(checks["ratio10_equalized"] - 1.0) < 0.2
    assert abs(checks["ratio1_baseline"] - 1.0) < 0.2


# ---------------------------------------------------------------------------
# head audit
# ---------------------------------------------------------------------------

def test_head_audit_quick(tmp_path):
    cfg = quick_config(out_dir=str(tmp_path))
    res = ex.run_head_audit(cfg, "psphead")
    assert len(res["seeds"]) == 2
    assert len(res["rows"]) == 2 * 5
    for s in res["seeds"]:
        assert s["eq_unit_moments"]
        assert s["smoothed_below"] and s["none_above"]
    assert res["summary"]["r1_max_ok"]
    assert res["summary"]["equalized_unit_moments_ok"]
    assert (tmp_path / "head_audit_psphead.csv").exists()
    assert (tmp_path / "head_audit_psphead_summary.json").exists()


def test_head_audit_fcn_single_branch():
    res = ex.run_head_audit(quick_config(), "fcnhead")
    assert all(s["spread"] == 1.0 for s in res["seeds"])
    assert "eq_spread_ok" not in res["summary"]


def test_head_audit_needs_a_seed():
    with pytest.raises(ConfigError):
        ExperimentConfig(audit_seeds=0)


def test_head_audit_grad_vars_match_full_backward():
    """The audit's tail-only fusion-weight gradients equal those of a
    backward through the whole model, in the baseline and injected arms,
    for a multi-branch head and the single-branch one."""
    cfg = quick_config(audit_seeds=1)
    for head in ("aspphead", "fcnhead"):
        res = ex.run_head_audit(cfg, head)
        size = ex.head_input_size(cfg, head)
        images = [s.image for s in ex.gen_synthetic_dataset(
            cfg.seed, cfg.audit_dataset, cfg.n_classes, size)]
        batch = np.concatenate(images, axis=0)
        stats = ex.model_stats(ex.build_model(cfg, cfg.seed, head), images,
                               cfg.stats_batch)
        for mode, key in (("off", "loss_grad_var"),
                          ("injected", "eq_loss_grad_var")):
            model = ex.build_model(cfg, cfg.seed, head, mode, stats)
            out = model.forward(batch)
            upstream = randn(out.logits.data.shape, 0.0, 1.0,
                             Rng(cfg.seed).split("audit-up"))
            ad.backward(ad.dot_const(out.logits, upstream))
            gm = ad.grad_group_moments(model.head.fusion_block.weight.grad,
                                       model.head.branch_channels)
            assert ([m.variance for m in gm]
                    == [r[key] for r in res["rows"]]), (head, mode)


def test_head_audit_reference_median_spread():
    """The uperhead median spread recorded as the benchmark's reference."""
    cfg = ExperimentConfig(seed=0, audit_seeds=3, audit_dataset=32)
    spread = ex.run_head_audit(cfg, "uperhead")["summary"]["median_spread"]
    assert spread == pytest.approx(1.5867457414027006, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_head_audit_short_last_batch_keeps_unit_moments(head):
    """13 images in batches of 5: the equalized dataset moments are taken
    over the kept stats-pass taps, short last batch included."""
    cfg = ExperimentConfig(seed=0, audit_seeds=1, audit_dataset=13,
                           stats_batch=5)
    res = ex.run_head_audit(cfg, head)
    assert all(s["eq_unit_moments"] for s in res["seeds"])
    assert res["summary"]["equalized_unit_moments_ok"]


@pytest.mark.parametrize("dataset,batch", [(16, 8), (13, 5)])
@pytest.mark.parametrize("head", HEAD_KINDS)
def test_head_audit_equalized_moments_match_a_separate_tap_pass(head, dataset, batch):
    """The audit takes the equalized dataset moments from the statistics
    pass's own taps and frees them at once.  Its eq_mean and eq_var rows
    are == to branch_moments of scale_equalize over a separate tap_fn pass
    of the same model over the same batches, a short last batch included."""
    cfg = ExperimentConfig(seed=0, audit_seeds=2, audit_dataset=dataset,
                           stats_batch=batch)
    rows = ex.run_head_audit(cfg, head)["rows"]
    size = ex.head_input_size(cfg, head)
    images = [s.image for s in ex.gen_synthetic_dataset(cfg.seed, dataset,
                                                        cfg.n_classes, size)]
    assert dataset % batch != 1             # no one-image batch to merge
    batches = [np.concatenate(images[lo:lo + batch], axis=0)
               for lo in range(0, dataset, batch)]
    for trial in range(cfg.audit_seeds):
        seed = cfg.seed + 1000 * trial
        model = ex.build_model(cfg, seed, head)
        stats = accumulate_stats(images, model.tap_fn, batch, cfg.sigma_floor)
        eq = branch_moments([scale_equalize(t, mu, sigma) for t, mu, sigma
                             in zip(model.tap_fn(b), stats.mu, stats.sigma)]
                            for b in batches)
        got = [(r["eq_mean"], r["eq_var"]) for r in rows if r["seed"] == seed]
        assert got == [(m.mean, m.variance) for m in eq], (head, seed)


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_head_audit_one_image_tail(head):
    """17 images in batches of 8: the last image joins the batch before it,
    where alone its bin-1 pooled branch would leave batchnorm one value per
    channel."""
    cfg = quick_config(image_size=64, audit_seeds=1, audit_dataset=17, stats_batch=8)
    res = ex.run_head_audit(cfg, head)
    assert res["summary"]["equalized_unit_moments_ok"]


def test_head_audit_peak_memory(tmp_path):
    """The statistics-pass taps are freed once the equalized moments are
    taken from them, right after the pass, each head tail is dropped once
    its variances are read, both tails run on the logit grid under the
    upstream projected there once per seed, and the fusion conv reads the
    branch list without a concatenation, so two uperhead audit seeds at
    audit_dataset 32 peak under 15 MiB (13.84 MiB measured).  Keeping the
    taps through both tails and concatenating the branches peaked at
    19.83 MiB.  Tails that upsampled the logits to the input size under the
    input-size upstream peaked at 25.27 MiB; with those, keeping the first
    tail to the end of its seed gave 27.3 MiB, keeping the second into the
    next seed 31.3 MiB, and both with their graphs and the int64 labels
    38.7 MiB."""
    cfg = ExperimentConfig(audit_seeds=2, audit_dataset=32, stats_batch=8,
                           out_dir=str(tmp_path))
    ex.run_head_audit(cfg, "uperhead")         # warm-up: cached maps
    tracemalloc.start()
    try:
        ex.run_head_audit(cfg, "uperhead")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15 * 2 ** 20, peak / 2 ** 20


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_toy_train_runs_and_is_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out1.mkdir()
    out2.mkdir()
    cfg1 = quick_config(head="fcnhead", out_dir=str(out1))
    ex.run_toy_train(cfg1)
    ex.run_toy_train(quick_config(head="fcnhead", out_dir=str(out2)))
    assert (out1 / "train.csv").read_bytes() == (out2 / "train.csv").read_bytes()
    rows = (out1 / "train.csv").read_text().strip().splitlines()
    assert rows[0] == "arm,step,loss,pixel_acc,miou,config_hash"
    assert len(rows) == 1 + 2 * 6                  # two arms x six steps


def test_toy_train_builds_one_model_per_arm(monkeypatch):
    """The equalized arm equalizes its statistics-pass model in place."""
    built = []
    real = ex.build_model

    def counting(*args, **kw):
        built.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(ex, "build_model", counting)
    rows = ex.run_toy_train(quick_config(head="fcnhead", train_steps=2))["rows"]
    assert {r["arm"] for r in rows} == {"baseline", "equalized"}
    assert len(built) == 2


def test_toy_train_step_runs_both_conv_kernels(monkeypatch):
    """One UPerHead step runs the tap loop (the channel-reducing fusion and
    FPN convs, forward and dW) and im2col (1x1 laterals, strided encoder
    convs, the PPM's 3x3 conv on the 2x2 C5 map, the fusion conv's
    channel-expanding dX).  The PPM and fusion convs read their branch
    lists.  The weight gradient builds no operand: it takes the one the
    forward built.  ops.conv2d runs once per forward conv and once per
    stride-1 dX conv."""
    from scaleq import ops
    calls = {}
    in_weight_grad = []

    def counting(name, real):
        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            if in_weight_grad:
                calls[name + " in dW"] = calls.get(name + " in dW", 0) + 1
            return real(*args)
        return counted

    for name in ("_conv_taps", "_conv_taps_weight_grad", "_im2col", "_flat_frame",
                 "conv2d"):
        monkeypatch.setattr(ops, name, counting(name, getattr(ops, name)))
    real_weight_grad = ops._conv_weight_grad

    def weight_grad(*args):
        in_weight_grad.append(True)
        try:
            return real_weight_grad(*args)
        finally:
            in_weight_grad.pop()
    monkeypatch.setattr(ops, "_conv_weight_grad", counting("dW", weight_grad))
    conv_nodes = []
    real_conv_node = ad.conv2d

    def conv_node(x, *args, **kw):
        blocks = x if isinstance(x, list) else [x]
        conv_nodes.append((kw.get("stride", 1), len(blocks),
                           any(ad.as_var(b).requires_grad for b in blocks)))
        return real_conv_node(x, *args, **kw)
    monkeypatch.setattr(ad, "conv2d", conv_node)
    ex.run_toy_train(quick_config(head="uperhead", image_size=64, train_steps=1,
                                  equalize="off"))
    assert {"_conv_taps", "_conv_taps_weight_grad", "_im2col"} <= set(calls)
    assert "_im2col in dW" not in calls and "_flat_frame in dW" not in calls
    assert calls["dW"] == len(conv_nodes)
    assert sorted(k for _, k, _ in conv_nodes if k > 1) == [3, 4]
    stride1_dx = sum(s == 1 and x_grad for s, _, x_grad in conv_nodes)
    assert calls["conv2d"] == len(conv_nodes) + stride1_dx


def _pixel_metrics_by_class(logits, labels, n_classes):
    """The per-class-mask formula _pixel_metrics replaced."""
    pred = logits.argmax(axis=1)
    acc = float((pred == labels).mean())
    ious = []
    for c in range(n_classes):
        inter = np.logical_and(pred == c, labels == c).sum()
        union = np.logical_or(pred == c, labels == c).sum()
        if union:
            ious.append(inter / union)
    return acc, float(np.mean(ious)) if ious else 0.0


def test_pixel_metrics_match_the_per_class_formula():
    """Rounded logits tie often, and argmax keeps the lower class; class 3
    is neither predicted nor labelled, so it is left out of the mean."""
    rng = np.random.default_rng(5)
    logits = np.round(rng.standard_normal((2, 4, 9, 7)))
    logits[:, 3] = -10.0
    labels = rng.integers(0, 3, size=(2, 9, 7))
    assert (logits[:, 0] == logits[:, 1]).any()
    got = ex._pixel_metrics(logits, labels, 4)
    assert got == _pixel_metrics_by_class(logits, labels, 4)
    tied = np.zeros_like(logits)
    assert ex._pixel_metrics(tied, labels, 4) == _pixel_metrics_by_class(tied, labels, 4)


def test_toy_train_at_the_head_input_size():
    """At output stride 16 a 48x48 image gives PSPHead a 3x3 C5, below its
    largest bin, so training runs at head_input_size (96x96), as audit and
    calibrate do."""
    cfg = quick_config(head="psphead", output_stride=16, train_steps=2,
                       dataset_size=8)
    assert ex.head_input_size(cfg, cfg.head) == 96
    checks = ex.run_toy_train(cfg)["checks"]
    assert all(c["all_finite"] for c in checks.values())
    assert set(checks) == {"baseline", "equalized"}


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_build_model_picks_the_encoder_depth(head):
    """uperhead gets all five encoder widths, a single-stage head the first
    log2(output_stride); head_input_size checks its size against that
    depth."""
    for stride, depth in ((8, 3), (16, 4)):
        cfg = quick_config(output_stride=stride, encoder_widths=(3, 4, 5, 6, 7))
        enc = ex.build_model(cfg, 0, head).encoder
        want = 5 if head == "uperhead" else depth
        assert enc.widths == (3, 4, 5, 6, 7)[:want]
        assert list(enc.stage_channels()) == [2 ** (i + 1) for i in range(want)]
        assert ex.head_input_size(dataclasses.replace(cfg, image_size=224), head) == 224
        bad = dataclasses.replace(cfg, image_size=2 ** want * 7 + 4)
        with pytest.raises(ConfigError, match="not divisible by"):
            ex.head_input_size(bad, head)


@pytest.mark.parametrize("command", ["run_head_audit", "run_toy_train", "run_calibrate"])
def test_uperhead_c5_below_the_ppm_bin_fails_before_any_data(monkeypatch, command):
    """At image_size 32 the uperhead encoder's C5 is 1x1, below the PPM's
    2x2 bin: head_input_size raises ConfigError before a dataset is made."""
    made = []
    monkeypatch.setattr(ex, "gen_synthetic_dataset", lambda *a: made.append(a))
    cfg = quick_config(head="uperhead", image_size=32)
    with pytest.raises(ConfigError, match="PPM bin"):
        getattr(ex, command)(cfg)
    assert made == []
    assert ex.head_input_size(dataclasses.replace(cfg, image_size=64), "uperhead") == 64


def test_toy_train_reference_final_loss():
    """The equalized-arm loss recorded as the benchmark's reference."""
    cfg = ExperimentConfig(seed=0, dataset_size=32, train_steps=3)
    loss = ex.run_toy_train(cfg)["checks"]["equalized"]["final_loss"]
    assert loss == pytest.approx(1.0592477107078873, rel=1e-8, abs=0.0)


def test_toy_train_loss_moves_down():
    res = ex.run_toy_train(quick_config(head="fcnhead", train_steps=12,
                                        lr=0.1, equalize="off"))
    checks = res["checks"]
    assert set(checks) == {"baseline"}
    assert checks["baseline"]["all_finite"]
    assert checks["baseline"]["final_loss"] < checks["baseline"]["initial_loss"]


@pytest.fixture(scope="module")
def default_uperhead():
    """The benchmark's train arm at the ExperimentConfig defaults: the
    calibrated UPerHead, its dataset and its parameters."""
    cfg = ExperimentConfig()
    samples = ex.gen_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.n_classes,
                                       cfg.image_size)
    model = ex.build_model(cfg, cfg.seed, cfg.head)
    stats = ex.model_stats(model, [s.image for s in samples], cfg.stats_batch,
                           cfg.sigma_floor)
    model.head.set_equalize(cfg.equalize, stats)
    return cfg, model, samples


def _uperhead_loss(default_uperhead, step):
    cfg, model, samples = default_uperhead
    take = samples[step * cfg.batch_size:(step + 1) * cfg.batch_size]
    out = model.forward(np.concatenate([s.image for s in take], axis=0))
    return ad.softmax_cross_entropy(out.logits,
                                    np.concatenate([s.mask for s in take], axis=0))


def test_uperhead_step_tape_nodes(default_uperhead):
    """A step records 112 nodes that require a gradient, 50 of them the
    parameters; each unit block is its conv, batchnorm and relu nodes, and
    the PPM and fusion convs read their branch lists, so no concat node is
    recorded (114 nodes with the two concatenations).  Backward returns the
    50 parameter gradients."""
    loss = _uperhead_loss(default_uperhead, 0)
    seen, stack = {}, [loss]
    while stack:
        v = stack.pop()
        if id(v) not in seen:
            seen[id(v)] = v
            stack.extend(v._parents)
    assert sum(v.requires_grad for v in seen.values()) == 112
    assert not any(v.op == "concat" for v in seen.values())
    params = default_uperhead[1].params()
    assert len(params) == 50
    assert set(ad.backward(loss)) == {id(p) for p in params}


def test_uperhead_step_peak_memory(default_uperhead):
    """Backward frees each node's saved arrays and gradient as it goes, a
    unit block keeps neither its conv nor its batchnorm output, the PPM and
    fusion convs read their branch lists without a concatenation, and the
    cross-entropy builds its gradient in its exp buffer, so a default
    UPerHead step peaks under 15.5 MiB (14.62 MiB measured).  With both
    concatenations and a separate gradient buffer it peaked at 16.20 MiB,
    and at 19.75 MiB when a unit also kept its outputs; 24.7 MiB when the
    tape kept everything to the end."""
    cfg, model, _ = default_uperhead
    params = model.params()

    def step(i):
        ad.zero_grad(params)
        ad.backward(_uperhead_loss(default_uperhead, i))
        for p in params:
            p.data = p.data - cfg.lr * p.grad

    step(1)                                # warm-up: cached maps
    tracemalloc.start()
    try:
        step(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15.5 * 2 ** 20, peak / 2 ** 20


def test_uperhead_step_spent_graph_holds_little(default_uperhead):
    """Backward drops each spent node's parents, so the logits and the loss
    a step keeps pin none of the activations behind them: a default UPerHead
    step holds under 4 MiB once backward returns (6.4 MiB when they did)."""
    params = default_uperhead[1].params()
    ad.zero_grad(params)
    ad.backward(_uperhead_loss(default_uperhead, 3))   # warm-up: cached maps
    ad.zero_grad(params)
    tracemalloc.start()
    try:
        loss = _uperhead_loss(default_uperhead, 4)
        ad.backward(loss)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 4 * 2 ** 20, held / 2 ** 20


# ---------------------------------------------------------------------------
# equivalence / calibrate / check
# ---------------------------------------------------------------------------

def test_run_equivalence():
    res = ex.run_equivalence(quick_config(), trials=10)
    assert res["pass"]
    assert res["max_pre_bn_diff"] <= 1e-10
    assert res["max_post_bn_diff"] <= 1e-10


@pytest.mark.parametrize("head", ["uperhead", "psphead"])
def test_run_calibrate_one_image_tail(head):
    """9 images in batches of 8 run as one batch of 9."""
    cfg = quick_config(head=head, image_size=64, dataset_size=9, stats_batch=8)
    res = ex.run_calibrate(cfg)
    assert res["stats_count"] == 9
    assert res["equivalence_pass"]


def test_run_calibrate_psphead(tmp_path, monkeypatch):
    """With an out_dir, calibrate writes the stats file and folds the
    stats it reads back from it, which equal the ones it reports."""
    read, load_stats = [], ex.load_stats
    monkeypatch.setattr(ex, "load_stats", lambda path: read.append(path) or load_stats(path))
    cfg = quick_config(head="psphead", out_dir=str(tmp_path))
    res = ex.run_calibrate(cfg)
    assert res["equivalence_pass"]
    assert res["all_sigma_positive"]
    assert res["n_branches"] == 5
    assert read == [str(tmp_path / "stats_psphead.csv")] == [res["stats_path"]]
    back = load_stats(res["stats_path"])
    assert (list(back.mu), list(back.sigma), back.count) == (
        res["mu"], res["sigma"], res["stats_count"])


def test_run_check_all_ok(tmp_path):
    cfg = ExperimentConfig(seed=11, out_dir=str(tmp_path))
    res = ex.run_check(cfg)
    assert res["ok"], {k: v for k, v in res["checks"].items() if not v["ok"]}
    assert set(res["checks"]) == {
        "unit_block_moments", "bilinear_decreases_variance",
        "nearest_conserves_variance", "equalizer_equivalence",
        "gradient_disequilibrium", "autodiff_finite_diff"}
    summary = json.loads((tmp_path / "check_summary.json").read_text())
    assert summary["checks"]["ok"] is True


def test_write_outputs_bytes(tmp_path):
    """Floats as repr, ints and strings as str, the header from the first
    row's keys, no rows as an empty CSV, no rows argument as no CSV, and
    the summary as sorted JSON with a trailing newline."""
    cfg = ExperimentConfig(seed=3, out_dir=str(tmp_path))
    rows = [{"x": 0.1, "n": 1, "s": "a"}, {"x": 1e-17, "n": -2, "s": "b_c"},
            {"x": -0.0, "n": 0, "s": "3"}, {"x": math.nan, "n": 10, "s": ""}]
    ex.write_outputs(cfg, "full", {"zeta": 1, "alpha": [0.5, True]}, rows)
    assert (tmp_path / "full.csv").read_bytes() == (
        b"x,n,s\n0.1,1,a\n1e-17,-2,b_c\n-0.0,0,3\nnan,10,\n")
    text = (tmp_path / "full_summary.json").read_text()
    summary = json.loads(text)
    assert text == json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert summary["checks"] == {"zeta": 1, "alpha": [0.5, True]}
    assert summary["config"]["seed"] == 3
    assert summary["config"]["out_dir"] == str(tmp_path)
    assert summary["config_hash"] == cfg.hash()
    assert summary["versions"] == {"numpy": np.__version__}
    ex.write_outputs(cfg, "empty", {}, [])
    assert (tmp_path / "empty.csv").read_bytes() == b""
    ex.write_outputs(cfg, "summary_only", {})
    assert not (tmp_path / "summary_only.csv").exists()
    assert (tmp_path / "summary_only_summary.json").exists()
    ex.write_outputs(dataclasses.replace(cfg, out_dir=None), "nowhere", {}, rows)
    assert not list(tmp_path.glob("nowhere*"))


@pytest.mark.parametrize("change", [
    {"trials": 0}, {"audit_seeds": 0}, {"dataset_size": 0}, {"audit_dataset": 0},
    {"stats_batch": 0}, {"train_steps": 0}, {"batch_size": 0},
    {"head_channels": 0}, {"image_size": -1},
    {"shape": (2, 8, 16)}, {"shape": (2, 8, 16, 0)}, {"shape": ()},
    {"encoder_widths": (4, 8)}, {"encoder_widths": (4, 8, 8, 8, 8, 8)},
    {"encoder_widths": (4, 8, 0, 8, 8)},
    {"sigma_grid": ()}, {"sigma_grid": (0.2, -0.1)}, {"ratios": ()},
    {"align_corners": "maybe"}, {"equalize": "injectd"},
    {"head": "fcnheadd"}, {"head": "PSPHead"}, {"output_stride": 12},
    {"n_classes": 1}, {"n_classes": 9}, {"sigma_floor": -1.0}, {"sigma_floor": 0.0},
    {"dataset_size": 1}, {"audit_dataset": 1}, {"stats_batch": 1}, {"batch_size": 1},
    {"ratios": (0, 2)}, {"ratios": (-2,)}, {"lr": math.nan}, {"lr": -0.05}, {"lr": 0.0},
    {"lr": math.inf}, {"sigma_grid": (math.nan, 0.5)}, {"sigma_grid": (0.2, math.inf)},
    {"ratios": (math.inf,)}, {"ratios": (math.nan,)}, {"trials": 2.5}, {"audit_seeds": 1.5},
    {"shape": (2, 4, 8, math.inf)}, {"sigma_floor": math.inf}, {"seed": 1.5},
    {"n_classes": 2.5}, {"output_stride": 8.0}, {"encoder_widths": (8, 16, 16, 32, 32.5)},
    {"out_dir": ""},
])
def test_config_value_rules(change):
    """Construction and dataclasses.replace apply the same value rules."""
    with pytest.raises(ConfigError):
        ExperimentConfig(**change)
    with pytest.raises(ConfigError):
        dataclasses.replace(ExperimentConfig(), **change)


def test_config_accepts_the_benchmark_references():
    """bench/reference.json passes shape, sigma_grid and ratios as lists."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    for entry in json.loads(path.read_text()).values():
        ExperimentConfig(**entry["config"])
    ExperimentConfig(sigma_grid=(0.0,), ratios=(1,), align_corners="true",
                     equalize="off")


def test_config_takes_numpy_integers():
    """Numpy integers pass the integer rule and are kept as Python ints, so
    the config hashes and runs as with ints: a numpy seed used to overflow
    in the random stream's key."""
    cfg = ExperimentConfig(seed=np.int64(3), audit_seeds=np.int32(1),
                           shape=np.arange(1, 5), ratios=(np.int64(2), 1.5))
    ints = ExperimentConfig(seed=3, audit_seeds=1, shape=(1, 2, 3, 4),
                            ratios=(np.int64(2), 1.5))
    assert type(cfg.seed) is type(cfg.audit_seeds) is int
    assert cfg.shape == (1, 2, 3, 4) and all(type(s) is int for s in cfg.shape)
    assert cfg.hash() == ints.hash()
    assert ex.run_prop1(cfg) == ex.run_prop1(ints)


def test_config_hash_stable_and_sensitive():
    assert quick_config().hash() == quick_config().hash()
    assert quick_config().hash() != quick_config(seed=8).hash()
    assert quick_config(out_dir="/x").hash() == quick_config(out_dir="/y").hash()


def test_bench_trace_targets_resolve():
    """Every function the benchmark's tracer patches by name still exists,
    so a deletion fails here and not in `bench/run.py --trace 1`."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, attr in spans.TARGETS:
        owner = importlib.import_module(f"scaleq.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, attr)
    for attr in spans.AUTODIFF_OPS:
        assert callable(getattr(ad, attr)), attr


def _names_reached(stmt):
    """Identifiers a statement reads: names, attributes, and string
    constants spelled as a dotted name (bench/spans.py names its targets so)."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and all(part.isidentifier() for part in node.value.split("."))):
            names.update(node.value.split("."))
    return names


def test_src_names_are_reached_outside_tests():
    """Each top-level function and class in src/scaleq is named by some
    other top-level statement of src/ or bench/*.py, so nothing there lives
    for the tests alone."""
    root = Path(__file__).resolve().parents[1]
    stmts = [(path, stmt)
             for path in sorted(root.glob("src/scaleq/*.py")) + sorted(root.glob("bench/*.py"))
             for stmt in ast.parse(path.read_text()).body]
    reached = [_names_reached(stmt) for _, stmt in stmts]
    unreached = []
    for i, (path, stmt) in enumerate(stmts):
        if (path.parent.name == "scaleq"
                and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not any(stmt.name in r for j, r in enumerate(reached) if j != i)):
            unreached.append(f"{path.name}:{stmt.name}")
    assert not unreached


def test_bench_workloads_api_resolves():
    """Every program attribute bench/workloads.py reads exists, and every
    field it reads off its config is an ExperimentConfig field, so a rename
    fails here and not only in `bench/run.py`."""
    from scaleq import ops, tensor
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    modules = {"ex": ex, "ad": ad, "ops": ops, "tensor": tensor}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    reads = {"modules": 0, "config": 0}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Attribute):
            continue
        owner = ast.unparse(node.value)
        if owner in modules:
            assert hasattr(modules[owner], node.attr), f"{owner}.{node.attr}"
            reads["modules"] += 1
        elif owner in ("cfg", "self.config"):
            assert node.attr in fields, f"{owner}.{node.attr}"
            reads["config"] += 1
    assert reads["modules"] and reads["config"], reads
