#!/usr/bin/env python3
"""Compare two sets of stack-benchmark runs against BENCHMARK.json.

    python benchmarks/stack/compare.py --base B1.json B2.json ... \\
                                       --head H1.json H2.json ...

Each file is a result set written by ``run.py --out`` (one or more
workloads; results/ holds the committed baseline).  Files are paired in
the order given: base[i] with head[i], so alternate which side runs
first when collecting them.

One row per (workload, metric): the median and quartiles of each side,
the change of the medians, and a verdict for the end-to-end metrics:

* ``worse``      -- the head median is worse than the base median by more
  than the metric's bound;
* ``unresolved`` -- a side's interquartile spread is wider than the bound
  (unless every head run beats every base run);
* ``better``     -- the pair rule holds: at least 10 pairs, the head wins
  at least nine tenths of them (ties count for neither), and the medians
  differ by more than the base runs' interquartile range;
* ``unchanged``  -- otherwise.

Per-layer metrics have no bound and are listed without a verdict.  The
exit code is 1 when any metric is worse or the head failed more checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def load_runs(paths) -> tuple[dict, dict]:
    """``{(workload, metric): [values in file order]}`` and
    ``{workload: [failed count per file]}``."""
    values, failed = {}, {}
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        for name, res in data["workloads"].items():
            failed.setdefault(name, []).append(res["failed"])
            for metric, m in res["metrics"].items():
                values.setdefault((name, metric), []).append(m["value"])
    return values, failed


def verdict(base: list, head: list, bound: float, better: str) -> str:
    """Verdict for one end-to-end metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    spread = max((bq3 - bq1) / abs(bmed), (hq3 - hq1) / abs(hmed))
    every_run_better = all(sign * (h - b) < 0 for h in head for b in base)
    if spread > bound:
        return "better" if every_run_better else "unresolved"
    if sign * (hmed - bmed) / abs(bmed) > bound:
        return "worse"
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(hmed - bmed) > bq3 - bq1):
        return "better"
    return "unchanged"


def compare(base_paths, head_paths, benchmark=BENCHMARK) -> tuple[list, bool]:
    """Rows ``(workload, metric, base q, head q, change, verdict)`` and
    whether the head regressed."""
    with open(benchmark) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    order = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    base, base_failed = load_runs(base_paths)
    head, head_failed = load_runs(head_paths)
    rows, regressed = [], False
    for wl in [w["name"] for w in bench["workloads"]]:
        if sum(head_failed.get(wl, [])) > sum(base_failed.get(wl, [])):
            regressed = True
        for metric in order:
            b, h = base.get((wl, metric)), head.get((wl, metric))
            if not b or not h:
                continue
            bq, hq = quartiles(b), quartiles(h)
            change = (hq[1] - bq[1]) / abs(bq[1]) if bq[1] else float("nan")
            v = "-"
            if metric in e2e:
                v = verdict(b, h, e2e[metric]["bound"], e2e[metric]["better"])
                regressed |= v == "worse"
            rows.append((wl, metric, bq, hq, change, v))
    return rows, regressed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True,
                   help="result sets of the parent (or first run)")
    p.add_argument("--head", nargs="+", required=True,
                   help="result sets of the change (or second run)")
    args = p.parse_args(argv)
    rows, regressed = compare(args.base, args.head)

    def q(x):
        return f"{x[1]:.6g} [{x[0]:.6g}, {x[2]:.6g}]"

    print(f"{'workload':<12} {'metric':<32} {'base median [q1, q3]':<36} "
          f"{'head median [q1, q3]':<36} {'change':>8}  verdict")
    for wl, metric, bq, hq, change, v in rows:
        print(f"{wl:<12} {metric:<32} {q(bq):<36} {q(hq):<36} "
              f"{change:>+8.1%}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
