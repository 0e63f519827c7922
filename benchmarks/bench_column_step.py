"""Per-column cost of the batched column steps, against a base tree.

Every design advances its lanes one column step at a time: the
factorization's SET_FILLIN, IAMAX, SWAP, SCAL and RANK_ONE_UPDATE
(``repro.core.gbtf2``) and the solve's swap/update and backward steps
(``repro.core.solve_blocks``).  On the host each step pays a fixed cost
whatever the lane count, so on small groups that cost is the bill.  This
script reports microseconds per column, for the whole step and for each
block, at three shapes:

* 3 lanes, n=64, kl=ku=3 (a service flush of fresh operators);
* 1,000 lanes, n=32, kl=2, ku=3 (the fused regime);
* 1,000 lanes, n=256, kl=ku=8 (the paper's window configuration).

The factor stacks are column-interleaved (the storage the window and the
host net factor in place); the solve runs ``gbtrs_batched`` with one
right-hand side.

Narrow bodies run each lane on Python floats instead (``gbtf2_lanes``,
``gbtrs_lanes``; ``is_narrow_factor`` and ``is_narrow_solve`` pick the
engine).  The head tree's worker also times both engines, factor and
``'N'`` solve, at 1, 3 and 8 lanes of n=64, kl=ku=3 and at 3 lanes of
n=256, kl=ku=8, and records which one is picked there.  Whole-step times
run the entry points bare; the
per-block split wraps each block in a timer (the wrapper's own cost, a
fraction of a microsecond, lands on both sides alike).

``--base SRC`` times the same blocks from another tree's ``src``
directory (the parent commit's, say) in alternating worker processes and
reports both sides with their ratio; the medians of ``--pairs`` pairs go
to ``benchmarks/results/BENCH_column_step.json``.  ``--quick`` only
asserts that the batched factorization and solve, and in float64 the
scalar engine's, write the bytes of ``gbtf2`` and ``gbtrs_unblocked``,
lane by lane, on small shapes with non-finite and singular lanes and a
zero ``U`` diagonal dividing ``0/0`` and ``x/0``, in four dtypes.

    python benchmarks/bench_column_step.py --quick
    python benchmarks/bench_column_step.py --base ../parent/src --pairs 5
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter_ns

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results" / "BENCH_column_step.json"

SHAPES = {  # name: (batch, n, kl, ku)
    "3 lanes n=64 kl=ku=3": (3, 64, 3, 3),
    "1000 lanes n=32 kl=2 ku=3": (1000, 32, 2, 3),
    "1000 lanes n=256 kl=ku=8": (1000, 256, 8, 8),
}
ENGINE_SHAPES = {  # name: (lanes, n, kl, ku)
    "1 lane n=64 kl=ku=3": (1, 64, 3, 3),
    "3 lanes n=64 kl=ku=3": (3, 64, 3, 3),
    "8 lanes n=64 kl=ku=3": (8, 64, 3, 3),
    "3 lanes n=256 kl=ku=8": (3, 256, 8, 8),
}
FACTOR_BLOCKS = ("set_fillin_batched", "pivot_search_batched",
                 "update_bound_batched", "swap_right_batched",
                 "scale_column_batched", "rank_one_update_batched")
SOLVE_BLOCKS = ("forward_swap_batched", "forward_update_batched",
                "backward_step_batched")


# -- worker: one tree's numbers ----------------------------------------------

def _problem(batch, n, kl, ku, seed=5):
    from repro.band.generate import random_band_batch, random_rhs
    from repro.band.layout import to_interleaved
    a = to_interleaved(random_band_batch(batch, n, kl, ku, seed=seed))
    return a, random_rhs(n, 1, batch=batch, seed=seed + 1)


def _timed(mod, names, sink):
    """Wrap ``mod``'s blocks ``names`` so each call adds its ns to
    ``sink``; returns the originals."""
    saved = {name: getattr(mod, name) for name in names}

    def wrap(name, fn):
        def timed(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                sink[name] = sink.get(name, 0) + perf_counter_ns() - t0
        return timed

    for name, fn in saved.items():
        setattr(mod, name, wrap(name, fn))
    return saved


def _measure(batch, n, kl, ku, reps):
    """Median microseconds per column: the whole factor and solve steps
    and, from a wrapped run, each block."""
    g = importlib.import_module("repro.core.gbtf2")
    sb = importlib.import_module("repro.core.solve_blocks")
    a0, b0 = _problem(batch, n, kl, ku)
    out = {}

    def factor():
        a = a0.copy(order="A")
        t0 = perf_counter_ns()
        piv, _ = g.gbtf2_batched(n, n, kl, ku, a)
        return perf_counter_ns() - t0, a, piv

    _, fac, piv = factor()                      # warm-up, and the factors

    def solve():
        b = b0.copy()
        t0 = perf_counter_ns()
        sb.gbtrs_batched("N", n, kl, ku, fac, piv, b)
        return perf_counter_ns() - t0

    out["factor_step"] = statistics.median(
        factor()[0] for _ in range(reps)) / n / 1e3
    out["solve_step"] = statistics.median(
        solve() for _ in range(reps)) / n / 1e3
    for mod, names, run in ((g, FACTOR_BLOCKS, factor),
                            (sb, SOLVE_BLOCKS, solve)):
        runs = []
        for _ in range(reps):
            sink = {}
            saved = _timed(mod, names, sink)
            try:
                run()
            finally:
                for name, fn in saved.items():
                    setattr(mod, name, fn)
            runs.append(sink)
        for name in names:
            out[name] = statistics.median(
                r.get(name, 0) for r in runs) / n / 1e3
    return out


def _engines(lanes, n, kl, ku, reps):
    """Median microseconds per column of the factorization and the
    ``'N'`` solve on each engine, and the engine picked for each."""
    g = importlib.import_module("repro.core.gbtf2")
    sb = importlib.import_module("repro.core.solve_blocks")
    a0, b0 = _problem(lanes, n, kl, ku)
    fac = a0.copy(order="A")
    piv, _ = g.gbtf2_batched(n, n, kl, ku, fac)
    info = np.zeros(lanes, dtype=np.int64)
    runs = {
        "factor_batched": lambda: g.gbtf2_batched(
            n, n, kl, ku, a0.copy(order="A"), piv.copy(), info),
        "factor_scalar": lambda: g.gbtf2_lanes(
            n, n, kl, ku, a0.copy(order="A"), piv.copy(), info),
        "solve_batched": lambda: sb.gbtrs_batched(
            "N", n, kl, ku, fac, piv, b0.copy()),
        "solve_scalar": lambda: sb.gbtrs_lanes(n, kl, ku, fac, piv,
                                               b0.copy()),
    }
    out = {}
    for name, run in runs.items():
        run()                                   # warm-up
        times = []
        for _ in range(reps):
            t0 = perf_counter_ns()
            run()
            times.append(perf_counter_ns() - t0)
        out[name] = statistics.median(times) / n / 1e3
    narrow = {"factor": g.is_narrow_factor(kl, ku, a0),
              "solve": sb.is_narrow_solve(kl, ku, fac, b0)}
    for step, scalar in narrow.items():
        out[f"{step}_picks"] = "scalar" if scalar else "batched"
    return out


def _worker(reps):
    res = {label: _measure(*shape, reps) for label, shape in SHAPES.items()}
    if hasattr(importlib.import_module("repro.core.gbtf2"), "gbtf2_lanes"):
        res["engines"] = {label: _engines(*shape, reps)
                          for label, shape in ENGINE_SHAPES.items()}
    print(json.dumps(res))


# -- quick mode: bytes of the scalar references ------------------------------

def check_identity():
    """Batched factor and solve, and the scalar engine's in float64,
    against per-lane ``gbtf2`` and ``gbtrs_unblocked``, under
    ``warnings`` errors, byte for byte."""
    from repro.band.generate import random_band_batch, random_rhs
    from repro.band.layout import to_interleaved
    from repro.core.gbtf2 import gbtf2, gbtf2_batched, gbtf2_lanes
    from repro.core.solve_blocks import gbtrs_batched, gbtrs_lanes, \
        gbtrs_unblocked

    def batched(n, kl, ku, stack, b):
        piv, _ = gbtf2_batched(n, n, kl, ku, stack)
        return piv, gbtrs_batched("N", n, kl, ku, stack, piv, b)

    def scalar(n, kl, ku, stack, b):
        piv = np.zeros((len(stack), n), dtype=np.int64)
        gbtf2_lanes(n, n, kl, ku, stack, piv, np.zeros(len(stack), int))
        return piv, gbtrs_lanes(n, kl, ku, stack, piv, b)

    for dtype in (np.float32, np.float64, np.complex64, np.complex128):
        engines = (batched, scalar) if dtype == np.float64 else (batched,)
        for batch, n, kl, ku in ((5, 24, 2, 3), (4, 20, 3, 0),
                                 (4, 20, 0, 2)):
            a = random_band_batch(batch, n, kl, ku, dtype=dtype, seed=9)
            a[1, :, n // 2] = 0                         # singular lane
            a[2, kl + ku, n // 3] = np.inf              # non-finite lane
            a[3, :, n // 2] = 0                         # and 0/0 in U:
            b = random_rhs(n, 2, batch=batch, dtype=dtype, seed=10)
            b[3] = 0                                    # a zero RHS
            ref, bref = a.copy(), b.copy()
            pref = np.zeros((batch, n), dtype=np.int64)
            with np.errstate(all="ignore"):
                for k in range(batch):
                    pref[k], _ = gbtf2(n, n, kl, ku, ref[k])
                    gbtrs_unblocked("N", n, kl, ku, ref[k], pref[k],
                                    bref[k])
            for engine in engines:
                for stack in (a.copy(), to_interleaved(a)):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        piv, x = engine(n, kl, ku, stack, b.copy())
                    for got, want in ((stack, ref), (piv, pref),
                                      (x, bref)):
                        assert (np.ascontiguousarray(got).tobytes()
                                == np.ascontiguousarray(want).tobytes()), (
                            f"{engine.__name__} engine differs from the "
                            f"scalar reference ({np.dtype(dtype).name}, "
                            f"n={n}, kl={kl}, ku={ku})")
    assert np.isnan(bref[3]).any()          # the 0/0 lane divided 0/0


# -- driver ------------------------------------------------------------------

def _run_worker(src, reps):
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--worker",
                          "--reps", str(reps)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def compare(base, pairs, reps):
    """Alternate head and base workers; medians per metric and side."""
    sides = {"head": [], "base": []}
    for k in range(pairs):
        order = (("head", SRC), ("base", base))
        for side, src in order if k % 2 == 0 else order[::-1]:
            sides[side].append(_run_worker(src, reps))
    med = {side: {label: {m: statistics.median(r[label][m] for r in runs)
                          for m in runs[0][label]}
                  for label in SHAPES}
           for side, runs in sides.items()}
    engines = {label: {m: (statistics.median(r["engines"][label][m]
                                             for r in sides["head"])
                           if m.endswith(("_batched", "_scalar"))
                           else sides["head"][0]["engines"][label][m])
                       for m in sides["head"][0]["engines"][label]}
               for label in ENGINE_SHAPES}
    return {"pairs": pairs, "reps": reps, "unit": "us per column",
            "shapes": {label: dict(zip(("batch", "n", "kl", "ku"), s))
                       for label, s in SHAPES.items()},
            "base": med["base"], "head": med["head"],
            "engine_shapes": {label: dict(zip(("lanes", "n", "kl", "ku"), s))
                              for label, s in ENGINE_SHAPES.items()},
            "engines": engines}


def render(res):
    lines = [f"Batched column steps, us per column (median of "
             f"{res['pairs']} alternating pairs; base -> head)"]
    for label in SHAPES:
        base, head = res["base"][label], res["head"][label]
        lines += ["", f"  {label}", f"    {'block':<26}{'base':>9}"
                  f"{'head':>9}{'speedup':>9}"]
        for m in base:
            ratio = base[m] / head[m] if head[m] else float("nan")
            lines.append(f"    {m:<26}{base[m]:9.1f}{head[m]:9.1f}"
                         f"{ratio:8.2f}x")
    lines += ["", "Head engines, us per column (batched -> scalar; the "
              "engine picked)"]
    for label in ENGINE_SHAPES:
        e = res["engines"][label]
        lines.append(f"  {label:<24}" + "".join(
            f"  {step} {e[step + '_batched']:7.1f} -> "
            f"{e[step + '_scalar']:7.1f} ({e[step + '_picks']})"
            for step in ("factor", "solve")))
    return "\n".join(lines)


def test_column_steps_match_scalar_reference(benchmark):
    benchmark.pedantic(check_identity, rounds=1, iterations=1)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--quick", action="store_true",
                   help="only check bytes against the scalar references")
    p.add_argument("--base", type=Path,
                   help="another tree's src directory to time against")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--reps", type=int, default=8)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        _worker(args.reps)
        return
    sys.path.insert(0, str(SRC))
    check_identity()
    print("batched and scalar engines match gbtf2/gbtrs_unblocked byte "
          "for byte")
    if args.quick:
        return
    if args.base is None:
        p.error("timing needs --base SRC (the tree to compare against)")
    res = compare(args.base.resolve(), args.pairs, args.reps)
    print(render(res))
    RESULTS.write_text(json.dumps(res, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
