"""Acceptance suite: one test per headline property, each printing a
single pass/fail line at its stated tolerance."""

import math
import time

import numpy as np
import pytest

from scaleq import autodiff as ad
from scaleq import experiments as ex
from scaleq import ops
from scaleq.experiments import RELU_BN_MEAN, RELU_BN_VAR, ExperimentConfig
from scaleq.ops import ConvParams, UpsampleMode
from scaleq.tensor import Rng, moments, randn


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_unit_block_moments():
    """Post-ReLU moments of a wide unit block at feature scale, within 2%
    of 1/sqrt(2 pi) and (pi-1)/(2 pi), in under 60 s."""
    t0 = time.time()
    rng = Rng(42).split("acceptance-1")
    x = randn((16, 256, 128, 128), 0.0, 1.0, rng.split("x"))
    w = randn((256, 256, 1, 1), 0.0, math.sqrt(2.0 / 256), rng.split("w"))
    y = ops.conv2d(x, ConvParams(w))
    del x
    y = ops.batchnorm(y, np.ones(256), np.zeros(256))
    y = ops.relu(y)
    m = moments(y)
    del y
    elapsed = time.time() - t0
    ok = (abs(m.mean - RELU_BN_MEAN) <= 0.02 * RELU_BN_MEAN
          and abs(m.variance - RELU_BN_VAR) <= 0.02 * RELU_BN_VAR
          and elapsed < 60.0)
    report(1, "unit-block moment constants", ok,
           f"mean={m.mean:.5f} vs {RELU_BN_MEAN:.5f}, "
           f"var={m.variance:.5f} vs {RELU_BN_VAR:.5f}, {elapsed:.1f}s")


def test_criterion_2_variance_decrease_1000_tensors():
    """1000 seeded non-constant tensors: bilinear strictly decreases
    variance for r in {2,4,8} and both align modes; nearest conserves it
    to 1e-12."""
    rng = Rng(42).split("acceptance-2")
    violations = 0
    nearest_err = 0.0
    for t in range(1000):
        x = randn((1, 2, 9, 11), 0.0, 1.0, rng.split(t))
        v0 = moments(x).variance
        for r in (2, 4, 8):
            for align in (False, True):
                va = ops.upsample_moments(x, (9 * r, 11 * r),
                                          UpsampleMode("bilinear", align)).variance
                violations += va >= v0
            vn = moments(ops.upsample_to(x, (9 * r, 11 * r),
                                         UpsampleMode("nearest"))).variance
            nearest_err = max(nearest_err, abs(vn - v0))
    ok = violations == 0 and nearest_err <= 1e-12
    report(2, "bilinear decreases variance / nearest conserves", ok,
           f"violations={violations}/6000, nearest_max_err={nearest_err:.2e}")


def test_criterion_3_variance_decay_curves(tmp_path):
    """Variance decay across the sigma grid: var_after < sigma^2 (1 - delta)
    with measured delta > 0 for every cell; CSV with the (pi-1)/(2 pi)
    reference row emitted."""
    cfg = ExperimentConfig(seed=42, shape=(4, 64, 64, 64),
                           out_dir=str(tmp_path))
    rows = ex.run_fig2(cfg)
    deltas = [1.0 - r["var_after"] / r["sigma"] ** 2 for r in rows]
    n_ref = sum(r["is_reference"] for r in rows)
    csv_ok = (tmp_path / "fig2.csv").exists()
    ok = min(deltas) > 0.0 and n_ref == len(cfg.ratios) * 2 and csv_ok
    report(3, "variance decay curves", ok,
           f"cells={len(rows)}, min_delta={min(deltas):.4f}, "
           f"reference_rows={n_ref}, csv={csv_ok}")


def test_criterion_4_gradient_disequilibrium():
    """Constructed two-branch fusion with variance ratio 10: gradient-
    variance ratio 10 +- 5% over 32 seeds; 1 +- 5% with equalizers."""
    cfg = ExperimentConfig(seed=42, audit_seeds=32)
    checks = ex.prop1_checks(ex.run_prop1(cfg))
    ok = checks["pass_disequilibrium"] and checks["pass_equalized"]
    report(4, "gradient-variance disequilibrium", ok,
           f"baseline={checks['ratio10_baseline']:.3f} (want 10+-0.5), "
           f"equalized={checks['ratio10_equalized']:.3f} (want 1+-0.05)")


def test_criterion_5_equalizer_equivalence():
    """Injected equalizer vs calibrated weights agree within 1e-10 pre-BN
    (bias-corrected) and post-BN (bias-skip) over 100 random configs."""
    res = ex.run_equivalence(ExperimentConfig(seed=42), trials=100)
    report(5, "injected/calibrated equivalence", res["pass"],
           f"max_pre_bn={res['max_pre_bn_diff']:.2e}, "
           f"max_post_bn={res['max_post_bn_diff']:.2e} (want <= 1e-10)")


def test_criterion_6_gradient_correctness():
    """Every autodiff op vs central finite differences within 1e-5
    relative; bilinear adjoint transpose identity within 1e-10."""
    rng = Rng(42).split("acceptance-6")
    worst = 0.0

    def fd_check(build, x0):
        nonlocal worst
        v = ad.Var(x0, requires_grad=True)
        ad.backward(build(v))
        fd = ad.finite_diff_grad(lambda x: float(build(ad.Var(x)).data), x0)
        scale = max(float(np.max(np.abs(fd))), 1e-12)
        worst = max(worst, float(np.max(np.abs(v.grad - fd))) / scale)

    x = randn((2, 3, 6, 6), 0.0, 1.0, rng.split("x"))
    x[np.abs(x) < 1e-3] += 2e-3                  # keep off the ReLU kink
    other = randn((2, 3, 6, 6), 0.0, 1.0, rng.split("o"))
    w = randn((4, 3, 3, 3), 0.0, 0.4, rng.split("w"))
    labels = rng.split("lbl").generator().integers(0, 3, size=(2, 6, 6))
    fd_check(lambda v: ad.sum_sq(ad.add(v, ad.Var(other))), x)
    fd_check(lambda v: ad.sum_sq(ad.relu(v)), x)
    fd_check(lambda v: ad.sum_sq(ad.concat_channels([v, ad.Var(other)])), x)
    fd_check(lambda v: ad.sum_sq(ad.scale_equalize(v, 0.3, 1.7)), x)
    for kernel in ("bilinear", "nearest"):
        for align in (False, True):
            fd_check(lambda v, m=UpsampleMode(kernel, align):
                     ad.sum_sq(ad.upsample_to(v, (13, 14), m)), x)
    fd_check(lambda v: ad.sum_sq(ad.avgpool_to(v, (2, 3))), x)
    fd_check(lambda v: ad.sum_sq(ad.conv2d(v, ad.Var(w), stride=2, dilation=2)), x)
    fd_check(lambda v: ad.sum_sq(ad.conv2d(ad.Var(x), v)), w)
    # projected on the fixed tensor `other`: sum_sq would give an eps-sized
    # x-gradient, at the finite differences' rounding noise
    fd_check(lambda v: ad.dot_const(
        ad.batchnorm(v, ad.Var(np.ones(3)), ad.Var(np.zeros(3))), other), x)
    fd_check(ad.vmean, x)
    fd_check(ad.sum_sq, x)
    fd_check(lambda v: ad.dot_const(v, other), x)
    fd_check(lambda v: ad.softmax_cross_entropy(v, labels), x)

    adjoint = 0.0
    for align in (False, True):
        mode = UpsampleMode("bilinear", align)
        src = randn((1, 2, 5, 7), 0.0, 1.0, rng.split(f"a{align}"))
        dual = randn((1, 2, 11, 16), 0.0, 1.0, rng.split(f"b{align}"))
        v = ad.Var(src, requires_grad=True)
        up = ad.upsample_to(v, (11, 16), mode)
        ad.backward(ad.dot_const(up, dual))
        adjoint = max(adjoint, abs(float(np.sum(up.data * dual))
                                   - float(np.sum(src * v.grad))))
    ok = worst <= 1e-5 and adjoint <= 1e-10
    report(6, "autodiff vs finite differences", ok,
           f"max_rel_err={worst:.2e} (want <= 1e-5), "
           f"adjoint_err={adjoint:.2e} (want <= 1e-10)")


def test_criterion_7_head_audit():
    """32-seed audit of the four fusion heads at initialization.

    Asserted per head: every non-broadcast upsampled subject has lower
    variance than the r=1 anchors, equalization brings dataset-level
    subject moments to (0, 1) +- 1e-6, and the equalized gradient-scale
    spread is <= 1.5x. For the multi-stage head the baseline spread bound
    is >= 1.3x per seed with median >= 1.5x: the top-down pathway feeds
    already-smoothed content into every branch, which spatially
    autocorrelates the subjects and caps the measurable spread below the
    white-noise prediction of 2x.
    """
    cfg = ExperimentConfig(seed=42, audit_seeds=32)
    ok = True
    details = []
    for head in ("uperhead", "psphead", "aspphead", "sepaspphead"):
        res = ex.run_head_audit(cfg, head)
        s = res["summary"]
        keys = [k for k in ("r1_max_ok", "equalized_unit_moments_ok",
                            "eq_spread_ok", "baseline_spread_ok",
                            "median_spread_ok") if k in s]
        head_ok = all(s[k] for k in keys)
        ok = ok and head_ok
        details.append(f"{head}: spread={s['median_spread']:.2f}->"
                       f"{s['median_eq_spread']:.2f} "
                       f"{'ok' if head_ok else 'FAIL ' + str(s)}")
    report(7, "head audit over 32 seeds", ok, "; ".join(details))


def test_criterion_8_calibrate_end_to_end(tmp_path):
    """Full statistics pass + calibration on the multi-stage head with a
    256-sample synthetic dataset: under 120 s, all sigma_i > 0, and the
    calibrated forward matches the injected one within 1e-10."""
    t0 = time.time()
    cfg = ExperimentConfig(seed=42, head="uperhead", dataset_size=256,
                           out_dir=str(tmp_path))
    res = ex.run_calibrate(cfg)
    elapsed = time.time() - t0
    ok = (res["all_sigma_positive"] and res["equivalence_pass"]
          and elapsed < 120.0)
    report(8, "calibrate pipeline", ok,
           f"sigma_min={min(res['sigma']):.4f}, "
           f"max_diff={res['injected_vs_calibrated_max_diff']:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_9_toy_training_health(tmp_path):
    """500-step SGD for baseline and equalized arms: finite losses, >= 50%
    loss reduction in both, and byte-identical CSV output on re-run with
    the same seed (verified with a shortened run; the schedule is
    deterministic independent of step count)."""
    out_a = tmp_path / "a"
    out_a.mkdir()
    cfg = ExperimentConfig(seed=42, out_dir=str(out_a))
    res = ex.run_toy_train(cfg)
    checks = res["checks"]
    healthy = all(c["all_finite"] and c["halved"] for c in checks.values())

    out_b, out_c = tmp_path / "b", tmp_path / "c"
    out_b.mkdir()
    out_c.mkdir()
    ex.run_toy_train(ExperimentConfig(seed=42, train_steps=20, out_dir=str(out_b)))
    ex.run_toy_train(ExperimentConfig(seed=42, train_steps=20, out_dir=str(out_c)))
    identical = ((out_b / "train.csv").read_bytes()
                 == (out_c / "train.csv").read_bytes())
    ok = healthy and set(checks) == {"baseline", "equalized"} and identical
    report(9, "toy training health", ok,
           "; ".join(f"{arm}: {c['initial_loss']:.3f}->{c['final_loss']:.3f}"
                     for arm, c in sorted(checks.items()))
           + f"; rerun_identical={identical}")
