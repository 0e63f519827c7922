"""Batch-interleaved (SoA) layout: staging savings over the classic path.

Guards the layout contract of docs/LAYOUTS.md (docs/PERFORMANCE.md
"Storage layouts"):

* **>= 1.15x host wall-clock win for an interleaved batch** over the
  same lane-major batch kept on the classic ``[vec]`` route
  (``layout='aos'``), at the paper's large configuration
  (``gbsv_batch``, batch=1000, n=256, kl=ku=8).  The interleaved stack
  is column-major per lane, so the sliding window runs its column steps
  on it in place, while the lane-major one is staged through the
  window; the arithmetic stays bit-identical;
* **<= 1.3x wall-clock for ``layout='soa'`` on lane-major input** —
  converting at the batch boundary costs one gather + one scatter total
  (trace-attributed to the first launch's ``soa_bytes``), after which
  every stage runs conversion-free;
* **>= 1.05x for the default on lane-major input** (``layout=None``)
  over ``layout='aos'``: a window factorization converts at the
  boundary by default, because that measures faster than staying
  lane-major;
* **trace proof of the one-conversion contract** — each converting run
  (``layout='soa'`` and the default) carries exactly one launch record
  with ``soa_bytes > 0``, the native interleaved run carries none, and
  every record is ``[vec+soa]``; the ``layout='aos'`` run has none;
* **bit-identity** — factors, solutions and pivots of every contender
  match the lane-major reference byte-for-byte.

Alongside the text exhibit, ``benchmarks/results/BENCH_layout.json``
archives every number machine-readably for future perf tracking.

Runnable standalone (``python benchmarks/bench_layout.py [--quick]``)
for the CI layout job; ``--quick`` shrinks the workload and checks
bit-identity plus the trace contract only (wall-clock ratios at small
scale are noise).
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from repro.band.generate import random_band_batch, random_rhs
from repro.band.layout import to_interleaved
from repro.core import gbsv_batch
from repro.gpusim import H100_PCIE, Stream
from repro.gpusim.memory import reset_memory_pools

from _util import RESULTS_DIR, emit, run_once

N, KL, KU, NRHS, BATCH = 256, 8, 8, 1, 1000

SPEEDUP_FLOOR = 1.15        # interleaved native vs lane-major [vec]
CONVERT_CEILING = 1.3       # layout='soa' on lane-major input vs [vec]
DEFAULT_FLOOR = 1.05        # layout=None on lane-major input vs [vec]

CONVERTING = ("convert-at-boundary", "default")


def _run(a0, b0, n, kl, ku, batch, *, interleave, layout=None):
    """One full gbsv on fresh copies; returns (wall_s, outputs, records).

    ``layout`` is the driver's knob: ``'aos'`` keeps a lane-major batch
    lane-major, ``None`` (the default) converts it."""
    a, b = a0.copy(), b0.copy()
    if interleave:
        a, b = to_interleaved(a), to_interleaved(b)
    reset_memory_pools()
    stream = Stream(H100_PCIE)
    t0 = perf_counter()
    piv, info = gbsv_batch(n, kl, ku, NRHS, a, None, b, batch=batch,
                           stream=stream, layout=layout)
    stream.synchronize()
    dt = perf_counter() - t0
    assert (np.asarray(info) == 0).all()
    out = (np.ascontiguousarray(a), np.ascontiguousarray(b),
           np.asarray(piv))
    recs = [r for r in stream.records if hasattr(r, "display_name")]
    return dt, out, recs


def measure(*, n=N, kl=KL, ku=KU, batch=BATCH, repeats=3):
    """Wall-clocks, outputs and launch records for every contender.

    Contenders are interleaved within each repeat and taken
    best-of-``repeats`` so allocator warm-up and scheduler noise land on
    every side equally (same protocol as ``bench_pipeline.py``).
    """
    a0 = random_band_batch(batch, n, kl, ku, seed=21)
    b0 = random_rhs(n, NRHS, batch=batch, seed=22)

    configs = {
        "lane-major": dict(interleave=False, layout="aos"),
        "interleaved": dict(interleave=True),
        "convert-at-boundary": dict(interleave=False, layout="soa"),
        "default": dict(interleave=False),
    }
    for kw in configs.values():                          # warmup, all paths
        _run(a0, b0, n, kl, ku, batch, **kw)
    wall, outputs, records = {}, {}, {}
    for _ in range(max(1, repeats)):
        for label, kw in configs.items():
            dt, out, recs = _run(a0, b0, n, kl, ku, batch, **kw)
            wall[label] = min(wall.get(label, dt), dt)
            outputs[label] = out
            records[label] = recs
    return wall, outputs, records


def _check_bit_identity(outputs):
    ref = outputs["lane-major"]
    for label, out in outputs.items():
        for part, name in zip(range(3), ("factors", "solution", "pivots")):
            assert out[part].tobytes() == ref[part].tobytes(), (
                f"layout contender {label!r} changed {name}")


def _check_trace_contract(records):
    for label in ("interleaved",) + CONVERTING:
        assert all("[vec+soa]" in r.display_name for r in records[label]), (
            f"{label!r} did not run SoA-native: "
            f"{[r.display_name for r in records[label]]}")
    assert sum(r.soa_bytes > 0 for r in records["interleaved"]) == 0, (
        "native interleaved input was charged a layout conversion")
    for label in CONVERTING:
        charged = [r.soa_bytes for r in records[label] if r.soa_bytes > 0]
        assert len(charged) == 1, (
            f"{label!r} must convert exactly once per batch, "
            f"saw {len(charged)} charged launches")
    assert not any("soa" in r.display_name or r.soa_bytes
                   for r in records["lane-major"])


def _summary(wall, records, *, n, batch):
    conv_bytes = sum(r.soa_bytes for r in records["convert-at-boundary"])
    return {
        "workload": {"op": "gbsv", "n": n, "kl": KL, "ku": KU,
                     "nrhs": NRHS, "batch": batch, "dtype": "float64",
                     "device": H100_PCIE.name},
        "wallclock_s": dict(wall),
        "speedup_interleaved":
            wall["lane-major"] / wall["interleaved"],
        "convert_ratio":
            wall["convert-at-boundary"] / wall["lane-major"],
        "speedup_default":
            wall["lane-major"] / wall["default"],
        "conversion_bytes": conv_bytes,
        "launches": {k: len(v) for k, v in records.items()},
        "gates": {"speedup_floor": SPEEDUP_FLOOR,
                  "convert_ceiling": CONVERT_CEILING,
                  "default_floor": DEFAULT_FLOOR},
    }


def _render(s):
    w = s["workload"]
    lines = [
        "Storage layouts: batch-interleaved (SoA) vs lane-major "
        f"(gbsv_batch, batch={w['batch']}, n={w['n']}, "
        f"kl=ku={w['kl']}, fp64)",
        "",
        "  contender              wall-clock   launches",
    ]
    for label in ("lane-major", "interleaved", "convert-at-boundary",
                  "default"):
        lines.append(f"  {label:<21} {s['wallclock_s'][label]:8.3f} s "
                     f"{s['launches'][label]:8d}")
    lines += [
        "",
        f"  interleaved speedup over lane-major:  "
        f"{s['speedup_interleaved']:.2f}x   (floor "
        f"{s['gates']['speedup_floor']:.2f}x)",
        f"  layout='soa' conversion ratio:        "
        f"{s['convert_ratio']:.2f}x   (ceiling "
        f"{s['gates']['convert_ceiling']:.1f}x)",
        f"  default (layout=None) speedup:        "
        f"{s['speedup_default']:.2f}x   (floor "
        f"{s['gates']['default_floor']:.2f}x)",
        f"  conversion traffic, one round-trip:   "
        f"{s['conversion_bytes'] / 1e6:.1f} MB",
    ]
    return "\n".join(lines)


def _emit_json(s):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_layout.json"
    path.write_text(json.dumps(s, indent=2, sort_keys=True) + "\n")


def _assert_gates(s, *, wallclock=True):
    if wallclock:
        assert s["speedup_interleaved"] >= SPEEDUP_FLOOR, (
            f"interleaved batch gave {s['speedup_interleaved']:.2f}x over "
            f"lane-major, below the {SPEEDUP_FLOOR}x floor")
        assert s["convert_ratio"] <= CONVERT_CEILING, (
            f"layout='soa' on lane-major input cost "
            f"{s['convert_ratio']:.2f}x, above the {CONVERT_CEILING}x "
            f"ceiling")
        assert s["speedup_default"] >= DEFAULT_FLOOR, (
            f"the default layout on lane-major input gave "
            f"{s['speedup_default']:.2f}x over layout='aos', below the "
            f"{DEFAULT_FLOOR}x floor")


def test_layout_speedup(benchmark):
    wall, outputs, records = run_once(benchmark, measure)
    _check_bit_identity(outputs)
    _check_trace_contract(records)
    s = _summary(wall, records, n=N, batch=BATCH)
    emit("layout", _render(s))
    _emit_json(s)
    _assert_gates(s)


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    if quick:
        wall, outputs, records = measure(n=96, batch=128, repeats=1)
        _check_bit_identity(outputs)
        _check_trace_contract(records)
        s = _summary(wall, records, n=96, batch=128)
        print(_render(s))
        print("bit-identity and trace gates OK "
              "(quick mode: wall-clock not asserted)")
    else:
        wall, outputs, records = measure()
        _check_bit_identity(outputs)
        _check_trace_contract(records)
        s = _summary(wall, records, n=N, batch=BATCH)
        emit("layout", _render(s))
        _emit_json(s)
        _assert_gates(s)
        print(_render(s))
