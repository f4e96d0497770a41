"""One workload in its own process: set up, run the closed loop, check.

Started by run.py, which sets the BLAS thread variables in the
environment before this process imports numpy, and passes the monotonic
clock reading taken just before the spawn, so that set-up time covers
interpreter start and imports.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count read back from the OpenBLAS that numpy loaded."""
    with open("/proc/self/maps") as f:
        libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()
                       and ln.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    with open("/proc/cpuinfo") as f:
        for ln in f:
            if ln.startswith("model name"):
                return ln.split(":", 1)[1].strip()
    return None


def _caches():
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (idx / "level").read_text().strip()
        kind = (idx / "type").read_text().strip()
        out[f"L{level}{kind[0].lower()}"] = (idx / "size").read_text().strip()
    return out


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for ln in packed.read_text().splitlines():
            if ln.endswith(" " + name):
                return ln.split()[0]
    return None


def machine_facts(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "commit": _commit(),
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

# p90 needs ten samples beyond it, so a timed run goes on past --seconds
# until it has this many ops (only audit-heads, at ~0.4 s per op, needs it)
MIN_OPS = 100


def run_ops(workload, indices, deadline=math.inf, min_ops=0):
    """Run ops back to back (one client, closed loop) until the indices run
    out, or the deadline has passed, at least `min_ops` ran and the last
    round of distinct inputs is whole.  Returns per-op seconds, results
    (None when the op raised) and the op indices."""
    times, results, done = [], [], []
    for i in indices:
        if (time.perf_counter() >= deadline and len(done) >= min_ops
                and len(done) % workload.cycle == 0):
            break
        t0 = time.perf_counter()
        try:
            res = workload.op(i)
        except Exception:                   # an op failure is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            res = None
        times.append(time.perf_counter() - t0)
        results.append(res)
        done.append(i)
    return times, results, done


def count_failed(workload, results) -> int:
    return sum(1 for r in results if r is None or not workload.ok(r))


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run
# ---------------------------------------------------------------------------

# step shares set beside the cProfile breakdown in ROADMAP.md
SHARES = {
    "conv_bwd": ("autodiff.conv2d.bwd",),
    "conv_fwd": ("autodiff.conv2d",),
    "upsample_bwd": ("autodiff.upsample_to.bwd",),
    "upsample_fwd": ("autodiff.upsample_to",),
    "batchnorm": ("autodiff.batchnorm", "autodiff.batchnorm.bwd"),
}


def layer_metric(name, loop, setup, n_ops, traced_s, overhead):
    """Value of one per_layer metric from BENCHMARK.json.  Loop metrics are
    per op; `setup.` metrics are per set-up; a layer not called reads 0."""
    if name.startswith("setup."):
        span, key = name[len("setup."):].rsplit(".", 1)
        return setup.get(span, {}).get(key, 0.0)
    if name.startswith("share."):
        spans = SHARES[name[len("share."):]]
        return 100.0 * sum(loop.get(s, {}).get("total_s", 0.0) for s in spans) / traced_s
    if name == "trace.ops_per_s_ratio":
        return overhead
    if name == "trace.ops":
        return n_ops
    if name == "experiments.run_head_audit.forwards_per_seed":
        seeds = loop.get("experiments.run_head_audit", {}).get("calls", 0)
        fwd = loop.get("decoders.SegModel.forward", {}).get("calls", 0)
        return fwd / seeds if seeds else 0.0
    span, key = name.rsplit(".", 1)
    if key == "fwd_self_s":
        key = "self_s"
    elif key == "bwd_s":
        span, key = span + ".bwd", "total_s"
    return loop.get(span, {}).get(key, 0.0) / n_ops


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawn-time", type=float, required=True)
    args = ap.parse_args(argv)
    per_layer = [m["name"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]

    workload = WORKLOADS[args.workload](args.seed)
    setup_tracer = Tracer()
    with setup_tracer if args.trace else contextlib.nullcontext():
        workload.setup()
    setup_s = time.monotonic() - args.spawn_time
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    facts = machine_facts(args.seed)
    out = {"workload": args.workload, "machine": facts, "setup_s": setup_s}
    if not args.trace:
        start = time.perf_counter()
        times, results, done = run_ops(workload, itertools.count(), start + args.seconds,
                                       MIN_OPS)
        elapsed = time.perf_counter() - start
        failed = count_failed(workload, results)
        out["op_times_s"] = times
        out["metrics"] = {"ops_per_s": len(times) / elapsed}
        # printed, but no end_to_end metric: host load moves them by more
        # than any bound allows (see README.md)
        out["ungated"] = {
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "op_s_p90": {"value": statistics.quantiles(times, n=10)[-1], "unit": "s"},
        }
        identical = True
    else:
        # untraced for half the time (whole rounds), rewind, then the same
        # ops traced
        state = workload.snapshot()
        start = time.perf_counter()
        times, results, done = run_ops(workload, itertools.count(), start + args.seconds / 2)
        workload.restore(state)
        tracer = Tracer()
        with tracer:
            ttimes, tresults, _ = run_ops(workload, done)
        identical = tresults == results
        failed = count_failed(workload, results) + count_failed(workload, tresults)
        overhead = sum(times) / sum(ttimes)
        loop = tracer.totals()
        setup = setup_tracer.totals()
        out["metrics"] = {name: layer_metric(name, loop, setup, len(done),
                                             sum(ttimes), overhead)
                          for name in per_layer}
        out["op_s_p50_untraced"] = statistics.median(times)
        out["op_s_p50_traced"] = statistics.median(ttimes)
        tracer.dump(ROOT / "bench" / "results" / f"spans-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "ops": len(done)})
        results = results + tresults
    out["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["attempted"] = len(results)
    out["failed"] = failed
    checks = workload.verify([r for r in results[:len(done)] if r is not None])
    checks["tracing_changes_no_result"] = {"ok": identical}
    out["checks"] = checks
    out["correct"] = failed == 0 and all(c["ok"] for c in checks.values())
    out["ops"] = len(done)
    print(json.dumps(out, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
