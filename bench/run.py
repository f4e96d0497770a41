"""scaleq benchmark.

    python3 bench/run.py --workload train-uperhead --seed 1 --seconds 30 --trace 0

Runs one workload (or, without --workload, each in turn) in its own
process with one closed-loop client, checks every op, and prints each
metric with its unit.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list, taken from a traced run.  Full results, with machine
facts and check details, go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("train-uperhead", "audit-heads", "fig2-moments")

# One BLAS thread: elementwise numpy work is single-threaded anyway, and a
# second OpenBLAS thread on a 2-core machine made the statistics pass slower
# and the step times less steady.  Set before the worker imports numpy.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 3          # set-up time is the median over this many processes
TIME_LIMIT_S = 170.0    # per workload, under the 180 s a run may take


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float,
          setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawn-time", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env={**os.environ, **BLAS_ENV},
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 spec: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    setups = [] if trace else [
        spawn(workload, seed, seconds, 0, deadline, setup_only=True)["setup_s"]
        for _ in range(SETUP_RUNS - 1)]
    res = spawn(workload, seed, seconds, trace, deadline)
    measured = dict(res["metrics"], setup_s=statistics.median(setups + [res["setup_s"]]))
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"worker did not report {missing}")
    res["setup_s_samples"] = setups + [res["setup_s"]]
    res["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                      for m in wanted}
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(res, indent=1) + "\n")
    return res


def report(res: dict) -> None:
    print(f"{res['workload']}: {res['ops']} ops, closed loop, 1 client, "
          f"seed {res['machine']['seed']}, BLAS threads {res['machine']['blas_threads']}")
    for name, m in res["metrics"].items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    for name, m in res.get("ungated", {}).items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']} (no bound)")
    print(f"  {'fail_ratio':<48} {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']}/{res['attempted']} ops failed)")
    for name, c in res["checks"].items():
        print(f"  check {name}: {'ok' if c['ok'] else 'FAILED'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; default: all of them in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run; default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "scaleq" / "__init__.py").is_file() or not spec_path.is_file():
        print("bench: needs src/scaleq and BENCHMARK.json in the checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = [run_workload(w, args.seed, seconds, args.trace, spec)
                   for w in workloads]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for res in results:
        report(res)
    print("machine: " + json.dumps(results[0]["machine"]))
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
