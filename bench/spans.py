"""Span tracing of scaleq's public functions, installed from outside.

`Tracer.install()` replaces selected public functions of the scaleq
modules with wrappers that record one span per call: name, start, end,
parent span and optional counters (flops and bytes computed from array
shapes, images, tape nodes).  Each autodiff op's returned `Var` also gets
its backward closure wrapped, so backward time is attributed per op.
`uninstall()` puts every original back.  No scaleq source changes.

Spans stay in memory; `dump()` writes them once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


def _nbytes(*arrays) -> int:
    return int(sum(getattr(a, "nbytes", 0) for a in arrays))


def _meter_conv(args, out):
    x, p = args[0], args[1]
    n, cout, ho, wo = out.shape
    _, cin_g, kh, kw = p.weight.shape
    counters = {"flops": 2 * n * cout * ho * wo * cin_g * kh * kw,
                "bytes": _nbytes(x, p.weight, out)}
    return counters, ("grouped" if p.groups > 1 else None)


def _meter_in_out(args, out):
    x = args[0]                               # an identity op returns x itself
    return {"bytes": _nbytes(x) if out is x else _nbytes(x, out)}, None


def _meter_in(args, out):
    return {"bytes": _nbytes(args[0])}, None


def _meter_out(args, out):
    return {"bytes": _nbytes(out)}, None


def _meter_backward(args, out):
    return {"nodes": len(out)}, None


def _meter_stats(args, out):
    return {"images": len(args[0])}, None


# (module, attribute) -> meter or None: the layers BENCHMARK.json reports.
# The list is explicit so that tiny helpers called hundreds of times per
# step (as_var, same_padding, ...) carry no tracing cost.
TARGETS = {
    ("tensor", "randn"): _meter_out,
    ("tensor", "moments"): _meter_in,
    ("ops", "upsample_to"): _meter_in_out,
    ("ops", "upsample_moments"): _meter_in,
    ("ops", "conv2d"): _meter_conv,
    ("ops", "batchnorm"): None,
    ("ops", "relu"): None,
    ("ops", "avgpool_to"): None,
    ("autodiff", "backward"): _meter_backward,
    ("equalizer", "accumulate_stats"): _meter_stats,
    ("equalizer", "calibrate_weights"): None,
    ("decoders", "build_head"): None,
    ("decoders", "SegModel.forward"): None,
    ("experiments", "gen_synthetic_dataset"): None,
    ("experiments", "build_model"): None,
    ("experiments", "run_head_audit"): None,
}

# every differentiable op, so that all backward closures are child spans of
# autodiff.backward and its self time is the tape sort and replay alone
AUTODIFF_OPS = ("add", "relu", "concat_channels", "scale_equalize",
                "upsample_to", "upsample", "avgpool_to", "conv2d", "batchnorm",
                "vmean", "sum_sq", "dot_const", "softmax_cross_entropy")


class Tracer:
    """Records spans as [name, start, end, parent, tag] rows, and named
    counters per span name."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def span(self, name: str, fn, meter=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if meter is not None:
                counters, tag = meter(args, out)
                self.spans[idx][4] = tag
                for key, val in counters.items():
                    self.counters[name][key] += val
            return out
        traced.__wrapped__ = fn
        return traced

    def autodiff_span(self, name: str, fn):
        """Forward span plus a span around the backward closure of the
        returned Var (skipped when the op passes an input through, or when
        an inner traced op already wrapped it)."""
        fwd = self.span(name, fn)
        bwd_name = name + ".bwd"

        def traced(*args, **kwargs):
            out = fwd(*args, **kwargs)
            bwd = getattr(out, "_backward", None)
            if (bwd is not None and not getattr(bwd, "_bench_traced", False)
                    and all(out is not a for a in args)):
                wrapped = self.span(bwd_name, bwd)
                wrapped._bench_traced = True
                out._backward = wrapped
            return out
        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "scaleq" or name.startswith("scaleq.")}
        wrappers = {}                        # id(original) -> wrapper
        for (mod_name, attr), meter in TARGETS.items():
            owner = modules[f"scaleq.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self.span(f"{mod_name}.{attr}", orig, meter))
                continue
            orig = getattr(owner, attr)
            wrappers[id(orig)] = self.span(f"{mod_name}.{attr}", orig, meter)
        for attr in AUTODIFF_OPS:
            orig = getattr(modules["scaleq.autodiff"], attr)
            wrappers[id(orig)] = self.autodiff_span(f"autodiff.{attr}", orig)
        # rebind every module-level name that refers to a traced function,
        # including names imported with `from .x import f`
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation -------------------------------------------------------
    def totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time its child spans cover), plus self seconds per tag."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, tag in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, tag) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
            if tag is not None:
                agg[f"{tag}_self_s"] += end - start - child[i]
        for name, counters in self.counters.items():
            out[name].update(counters)
        return out

    def dump(self, path, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({**extra, "columns": ["name", "start", "end", "parent", "tag"],
                       "spans": self.spans}, f)
