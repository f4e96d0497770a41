"""The three benchmark workloads.

Each workload builds its inputs from the workload seed, and exposes:

- ``setup()``: everything before the first timed op (dataset, model, the
  statistics pass, warm-up);
- ``op(i)``: the i-th unit of work, returning a result that ``ok``
  checks and that traced and untraced runs must reproduce exactly;
- ``snapshot()`` / ``restore()``: rewind to the state after set-up;
- ``verify(first)``: checks after the timed loop, which compare the
  benchmark's loop with the `experiments` function it stands for, and one
  reference value with a stored constant.

Imported only after the BLAS thread variables are set.  Program
functions are reached through their modules (``tensor.randn``, not a
``from`` import), so that the tracer's patches see every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from scaleq import autodiff as ad
from scaleq import experiments as ex
from scaleq import ops, tensor
from scaleq.decoders import HEAD_KINDS
from scaleq.tensor import Rng

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def _close(value: float, name: str) -> dict:
    ref = REFERENCE[name]
    ok = math.isfinite(value) and abs(value - ref["value"]) <= ref["rel_tol"] * abs(ref["value"])
    return {"ok": ok, "value": value, "reference": ref["value"], "rel_tol": ref["rel_tol"]}


class Workload:
    """Defaults for a workload whose ops keep no state between them."""

    cycle = 1               # ops per full round of distinct inputs

    def setup(self) -> None:
        pass

    def snapshot(self):
        return None

    def restore(self, state) -> None:
        pass


class TrainUperHead(Workload):
    """One op is one SGD step of the calibrated-equalizer UPerHead arm at the
    experiment defaults (batch 8, 64x64 images, dataset 256, lr 0.05).  The
    step body is `experiments._train_arm`'s loop body, unrolled so that each
    step can be timed; `verify` checks it against `run_toy_train`."""

    warmup = 2
    check_steps = 3

    def __init__(self, seed: int):
        self.config = ex.ExperimentConfig(seed=seed)

    def setup(self) -> None:
        cfg = self.config
        self.samples = ex.gen_synthetic_dataset(cfg.seed, cfg.dataset_size,
                                                cfg.n_classes, cfg.image_size)
        images = [s.image for s in self.samples]
        probe = ex.build_model(cfg, cfg.seed, cfg.head)
        stats = ex.model_stats(probe, images, cfg.stats_batch, cfg.sigma_floor)
        self.model = ex.build_model(cfg, cfg.seed, cfg.head, cfg.equalize, stats)
        self.params = self.model.params()
        self.order = Rng(cfg.seed).split("batches").generator()
        self.idx = np.arange(len(self.samples))
        self.cursor = len(self.samples)          # force an initial shuffle
        self.step = 0
        self.history = [self.op(None) for _ in range(self.warmup)]

    def op(self, i):
        cfg = self.config
        if self.cursor + cfg.batch_size > len(self.samples):
            self.order.shuffle(self.idx)
            self.cursor = 0
        take = self.idx[self.cursor:self.cursor + cfg.batch_size]
        self.cursor += cfg.batch_size
        batch = np.concatenate([self.samples[j].image for j in take], axis=0)
        labels = np.concatenate([self.samples[j].mask for j in take], axis=0)
        ad.zero_grad(self.params)
        out = self.model.forward(batch)
        loss = ad.softmax_cross_entropy(out.logits, labels)
        if not np.isfinite(loss.data):
            raise FloatingPointError(f"loss diverged at step {self.step}")
        ad.backward(loss)
        for p in self.params:
            if p.grad is not None:
                p.data = p.data - cfg.lr * p.grad
        acc, miou = ex._pixel_metrics(out.logits.data, labels, cfg.n_classes)
        self.step += 1
        return (float(loss.data), acc, miou)

    @staticmethod
    def ok(result) -> bool:
        return all(math.isfinite(v) for v in result)

    def snapshot(self):
        return ([p.data.copy() for p in self.params], self.order.bit_generator.state,
                self.idx.copy(), self.cursor, self.step)

    def restore(self, state) -> None:
        datas, rng_state, idx, self.cursor, self.step = state
        for p, d in zip(self.params, datas):
            p.data = d.copy()
        self.order.bit_generator.state = rng_state
        self.idx = idx.copy()

    def verify(self, first) -> dict:
        steps = (self.history + list(first))[:self.check_steps]
        rows = ex.run_toy_train(replace(self.config, train_steps=self.check_steps))["rows"]
        expected = [(r["loss"], r["pixel_acc"], r["miou"])
                  for r in rows if r["arm"] == "equalized"]
        ref = ex.run_toy_train(ex.ExperimentConfig(**REFERENCE["train_final_loss"]["config"]))
        return {
            "loop_matches_run_toy_train": {"ok": expected == steps,
                                           "steps": len(steps)},
            "reference_final_loss": _close(
                ref["checks"]["equalized"]["final_loss"], "train_final_loss"),
        }


class AuditHeads(Workload):
    """One op is one audit seed (`run_head_audit` with one seed), cycling
    through all five heads, at audit_dataset 32 and stats_batch 8.  Each op
    builds its own dataset, models and statistics, so set-up is empty."""

    cycle = len(HEAD_KINDS)

    def __init__(self, seed: int):
        self.config = ex.ExperimentConfig(audit_seeds=1, audit_dataset=32,
                                          stats_batch=8)
        self.base = seed * 100_000

    def op(self, i: int):
        head = HEAD_KINDS[i % len(HEAD_KINDS)]
        return ex.run_head_audit(replace(self.config, seed=self.base + i), head)

    @staticmethod
    def ok(result) -> bool:
        seed = result["seeds"][0]
        finite = [seed["spread"], seed["eq_spread"]]
        for row in result["rows"]:
            finite += [row["loss_grad_var"], row["eq_loss_grad_var"]]
        return bool(seed["eq_unit_moments"]) and all(math.isfinite(v) for v in finite)

    def verify(self, first) -> dict:
        cfg = REFERENCE["audit_median_spread"]["config"]
        out = ex.run_head_audit(ex.ExperimentConfig(**cfg), "uperhead")
        return {"reference_median_spread": _close(out["summary"]["median_spread"],
                                                  "audit_median_spread")}


class Fig2Moments(Workload):
    """One op is one fig2 row (one sigma, ratio and align mode) on a
    (4, 64, 128, 128) float64 tensor.  The row body is `run_fig2`'s inner
    loop with one trial; `verify` checks it against `run_fig2`."""

    shape = (4, 64, 128, 128)

    def __init__(self, seed: int):
        self.config = ex.ExperimentConfig(seed=seed, shape=self.shape, trials=1)
        sigmas = list(self.config.sigma_grid) + [math.sqrt(ex.RELU_BN_VAR)]
        self.grid = [(s, r, a) for s in sigmas for r in self.config.ratios
                     for a in (False, True)]
        self.rng = Rng(seed).split("fig2")

    def setup(self) -> None:
        self.op(len(self.grid) - 1)

    def op(self, i: int):
        sigma, r, align = self.grid[i % len(self.grid)]
        n, c, h, w = self.shape
        x = tensor.randn(self.shape, ex.RELU_BN_MEAN, sigma,
                         self.rng.split(f"{sigma!r}/{r}/{align}/0"))
        before = tensor.moments(x).variance
        after = ops.upsample_moments(x, (r * h, r * w),
                                     ops.UpsampleMode("bilinear", align)).variance
        return (before, after)

    @staticmethod
    def ok(result) -> bool:
        before, after = result
        return math.isfinite(after) and after < before

    def verify(self, first) -> dict:
        sigma, r, align = self.grid[0]
        rows = ex.run_fig2(replace(self.config, sigma_grid=(sigma,), ratios=(r,),
                                   align_corners=str(align).lower()))
        expected = (rows[0]["var_before"], rows[0]["var_after"])
        ref_rows = ex.run_fig2(ex.ExperimentConfig(**REFERENCE["fig2_var_after"]["config"]))
        return {
            "row_matches_run_fig2": {"ok": bool(first) and expected == tuple(first[0])},
            "reference_var_after": _close(ref_rows[0]["var_after"], "fig2_var_after"),
        }


WORKLOADS = {
    "train-uperhead": TrainUperHead,
    "audit-heads": AuditHeads,
    "fig2-moments": Fig2Moments,
}
