#!/usr/bin/env python3
"""Stack benchmark of the batched band solver, end to end and per layer.

Run from the repository root::

    python benchmarks/stack/run.py [--workload W ...] [--seed S]
        [--seconds T] [--trace [0|1]] [--quick] [--out FILE]

Each workload runs in its own fresh worker process, one at a time, with
BLAS pinned to one thread.  Every end-to-end metric is printed as
``workload metric value unit n=samples``; the last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace`` is a separate run: it reports the per-layer metrics instead,
and writes one Chrome trace per workload to ``benchmarks/stack/out/``.
The exit code is non-zero when any output check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
WORKLOADS = ("paper_gbsv", "small_fused", "full_stack", "serve_mixed")
SETUP_ROUNDS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", "--workloads", dest="workloads", nargs="+",
                   action="extend", choices=WORKLOADS,
                   help="workloads to run (default: all four)")
    p.add_argument("--seed", type=int, default=2023)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measured seconds per workload")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="report per-layer metrics")
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes with the same code paths (tests)")
    p.add_argument("--out", help="write the full result set as JSON")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def spawn(workload: str, args, *, setup_only: bool = False) -> dict:
    """Run one worker process and return its JSON result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--worker",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE,
                          text=True, timeout=60 + 4 * args.seconds)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited with code "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, args) -> dict:
    """Worker run plus, untraced, the extra set-up rounds (median)."""
    rounds = []
    if not args.trace:
        rounds = [spawn(workload, args, setup_only=True)
                  for _ in range(SETUP_ROUNDS - 1)]
    result = spawn(workload, args)
    if not args.trace:
        rounds.append({"setup_s": result["metrics"]["setup_s"]["value"],
                       "raw_setup_s": result["host"]["raw"]["setup_s"]})
        result["metrics"]["setup_s"].update(
            value=statistics.median(r["setup_s"] for r in rounds),
            n=len(rounds))
        result["host"]["raw"]["setup_s"] = statistics.median(
            r["raw_setup_s"] for r in rounds)
        result["setup_rounds"] = rounds
    return result


def worker(args) -> int:
    t0 = time.perf_counter()
    import repro  # noqa: F401  -- timed: import is part of set-up
    import_s = time.perf_counter() - t0
    import workloads

    name = args.workloads[0]
    trace_path = None
    if args.trace and not args.setup_only:
        trace_path = str(HERE / "out" / f"{name}.trace.json")
    result = workloads.run_workload(
        name, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        quick=args.quick, import_s=import_s, setup_only=args.setup_only,
        trace_path=trace_path)
    print(json.dumps(result))
    return 0


def summary_line(results: dict) -> dict:
    """The closing JSON object; metric names carry the workload prefix
    when more than one workload ran."""
    prefix = len(results) > 1
    metrics = {}
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            key = f"{name}.{metric}" if prefix else metric
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    args.workloads = args.workloads or list(WORKLOADS)
    if args.worker:
        return worker(args)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # running worker instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    results = {}
    for name in args.workloads:
        try:
            results[name] = run_workload(name, args)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        res = results[name]
        for metric, m in res["metrics"].items():
            print(f"{name:<12} {metric:<30} {m['value']:<14.6g} "
                  f"{m['unit']:<16} n={m['n']}")
        c = res["checks"]
        print(f"{name:<12} {'check.error_rate':<30} "
              f"{c['error_rate']:<14.6g} {'failed/attempted':<16} "
              f"n={res['attempted']}")
        if "check.residual_max" not in res["metrics"]:
            print(f"{name:<12} {'check.residual_max':<30} "
                  f"{c['residual_max']:<14.6g} scaled_residual")
        if "late_ms_p99" in c:
            print(f"{name:<12} {'check.late_ms_p99':<30} "
                  f"{c['late_ms_p99']:<14.6g} ms")
        host = res["host"]
        print(f"{name:<12} {'host.speed':<30} {host['speed']:<14.6g} "
              f"{'ratio':<16} n={host['calibrations']}")
        for metric, value in host["raw"].items():
            print(f"{name:<12} {'raw.' + metric:<30} {value:<14.6g} "
                  f"{res['metrics'][metric]['unit']}")
        for problem in c["problems"]:
            print(f"{name:<12} CHECK FAILED: {problem}")
        sys.stdout.flush()

    if args.out:
        stamp = dict(next(iter(results.values()))["stamp"],
                     seed=args.seed, seconds=args.seconds,
                     trace=bool(args.trace), quick=args.quick)
        with open(args.out, "w") as f:
            json.dump({"stamp": stamp, "workloads": results}, f, indent=1)
    line = summary_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
