"""Pipelined executor: overlap/sharding gains and degenerate-path overhead.

Guards the three contracts of ``core/pipeline.py`` (docs/PERFORMANCE.md
"Overlap and multi-device"):

* **>= 1.5x modeled-makespan improvement at 2 devices** for a chunked
  paper-scale ``gbsv_batch`` workload — the shards run concurrently and
  double-buffer their staging, so the makespan (per-stream tail maximum)
  must beat the sequential executor's transfer+compute sum by at least
  the sharding factor discounted by the pipeline fill/drain;
* **< 5% host wall-clock overhead at 1 device / 1 stream** — the
  degenerate pipeline (no overlap, no sharding) runs the exact same
  chunk protocol as the sequential executor and must cost bookkeeping
  only;
* **bit-identity** — every pipelined configuration must reproduce the
  sequential chunked results exactly.

Host wall-clock for the 2-device configuration is measured and reported
too.  The second shard runs in a forked worker process on shared host
buffers while the first runs on the calling thread, so on a multi-core
host the wall-clock ratio shows what the second core buys, net of the
fork and of staging the operands into shared memory.  The speedup is
gated only when the machine has more than one core; the committed JSON
records ``cpu_count`` alongside the ratio so the trajectory stays
interpretable.

Alongside the text exhibit, ``benchmarks/results/BENCH_pipeline.json``
archives every number machine-readably for future perf tracking.

Runnable standalone (``python benchmarks/bench_pipeline.py [--quick]``)
for the CI pipeline job; ``--quick`` shrinks the workload and checks
bit-identity plus the modeled-makespan gate only (wall-clock ratios at
small scale are noise).
"""

import json
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from repro.core import gbsv_batch
from repro.core.pipeline import last_pipeline_result
from repro.band.generate import random_band_batch, random_rhs
from repro.gpusim import H100_PCIE, Stream
from repro.gpusim.memory import reset_memory_pools

from _util import RESULTS_DIR, emit, run_once

N, KL, KU, NRHS, BATCH, CHUNK = 256, 8, 8, 1, 1000, 125

MAKESPAN_FLOOR = 1.5        # modeled speedup at devices=2
OVERHEAD_CEILING = 1.05     # wall-clock, pipelined 1-dev/1-stream vs seq


def _run(a0, b0, n, kl, ku, batch, **kw):
    """One governed call on fresh copies; returns (wall_s, outputs)."""
    a, b = a0.copy(), b0.copy()
    reset_memory_pools()
    t0 = perf_counter()
    piv, info = gbsv_batch(n, kl, ku, NRHS, a, None, b, batch=batch,
                           chunk_hint=CHUNK, **kw)
    dt = perf_counter() - t0
    assert (np.asarray(info) == 0).all()
    return dt, (a, b, np.asarray(piv))


def measure(*, n=N, kl=KL, ku=KU, batch=BATCH, repeats=3):
    """Modeled makespans, wall-clocks and outputs for every configuration.

    The wall-clock contenders are interleaved within each repeat and
    taken best-of-``repeats`` so allocator warm-up and scheduler noise
    land on every side equally (same protocol as
    ``bench_memory_governance.py``).
    """
    a0 = random_band_batch(batch, n, kl, ku, seed=21)
    b0 = random_rhs(n, NRHS, batch=batch, seed=22)

    stream = Stream(H100_PCIE)
    configs = {
        "sequential": dict(stream=stream),
        "pipe-1dev-1stream": dict(devices=1, streams=1),
        "overlap": dict(streams=3),
        "2dev": dict(devices=2),
    }
    _run(a0, b0, n, kl, ku, batch, **configs["2dev"])   # warmup
    wall, outputs, modeled = {}, {}, {}
    for _ in range(max(1, repeats)):
        for label, kw in configs.items():
            stream.reset()
            dt, out = _run(a0, b0, n, kl, ku, batch, **kw)
            wall[label] = min(wall.get(label, dt), dt)
            outputs[label] = out
            if label == "sequential":
                modeled[label] = stream.synchronize()
            else:
                modeled[label] = last_pipeline_result().makespan
    return wall, modeled, outputs


def _check_bit_identity(outputs):
    ref = outputs["sequential"]
    for label, out in outputs.items():
        for part, name in zip(range(3), ("factors", "solution", "pivots")):
            assert out[part].tobytes() == ref[part].tobytes(), (
                f"pipelined config {label!r} changed {name}")


def _summary(wall, modeled, *, n, batch):
    cpu = os.cpu_count() or 1
    return {
        "workload": {"op": "gbsv", "n": n, "kl": KL, "ku": KU,
                     "nrhs": NRHS, "batch": batch, "chunk": CHUNK,
                     "dtype": "float64", "device": H100_PCIE.name},
        "cpu_count": cpu,
        "modeled_ms": {k: v * 1e3 for k, v in modeled.items()},
        "wallclock_s": dict(wall),
        "modeled_speedup": {
            "overlap": modeled["sequential"] / modeled["overlap"],
            "2dev": modeled["sequential"] / modeled["2dev"],
        },
        "wallclock_speedup_2dev": wall["sequential"] / wall["2dev"],
        "overhead_1dev_1stream":
            wall["pipe-1dev-1stream"] / wall["sequential"] - 1.0,
        "gates": {"modeled_2dev_floor": MAKESPAN_FLOOR,
                  "overhead_ceiling": round(OVERHEAD_CEILING - 1.0, 9),
                  "wallclock_gated": cpu > 1},
    }


def _render(s):
    w = s["workload"]
    lines = [
        "Pipelined executor: modeled makespan and host wall-clock "
        f"(gbsv_batch, batch={w['batch']}, n={w['n']}, "
        f"kl=ku={w['kl']}, chunks of {w['chunk']}, fp64)",
        "",
        "  config               modeled     wall-clock",
    ]
    for label in ("sequential", "pipe-1dev-1stream", "overlap", "2dev"):
        lines.append(f"  {label:<18} {s['modeled_ms'][label]:8.3f} ms "
                     f"{s['wallclock_s'][label]:9.3f} s")
    lines += [
        "",
        f"  modeled speedup, overlap (3 streams): "
        f"{s['modeled_speedup']['overlap']:.2f}x",
        f"  modeled speedup, 2 devices:           "
        f"{s['modeled_speedup']['2dev']:.2f}x   (floor "
        f"{s['gates']['modeled_2dev_floor']:.1f}x)",
        f"  pipeline overhead at 1 dev/1 stream:  "
        f"{s['overhead_1dev_1stream'] * 100:+.1f} %   (ceiling "
        f"{s['gates']['overhead_ceiling'] * 100:.0f}%)",
        f"  wall-clock speedup, 2 devices:        "
        f"{s['wallclock_speedup_2dev']:.2f}x   "
        + (f"({s['cpu_count']} cores)" if s["gates"]["wallclock_gated"]
           else f"(single-core host: not gated)"),
    ]
    return "\n".join(lines)


def _emit_json(s):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_pipeline.json"
    path.write_text(json.dumps(s, indent=2, sort_keys=True) + "\n")


def _assert_gates(s, *, wallclock=True):
    assert s["modeled_speedup"]["2dev"] >= MAKESPAN_FLOOR, (
        f"2-device modeled makespan speedup "
        f"{s['modeled_speedup']['2dev']:.2f}x below the "
        f"{MAKESPAN_FLOOR}x floor")
    assert s["modeled_speedup"]["overlap"] > 1.0, (
        "overlapped staging did not beat the sequential makespan")
    if wallclock:
        assert s["overhead_1dev_1stream"] <= OVERHEAD_CEILING - 1.0, (
            f"degenerate pipeline {s['overhead_1dev_1stream'] * 100:.1f}% "
            f"slower than the sequential executor")
        if s["gates"]["wallclock_gated"]:
            assert s["wallclock_speedup_2dev"] > 1.0, (
                f"2 devices in 2 processes, {s['cpu_count']} cores, gave "
                f"{s['wallclock_speedup_2dev']:.2f}x wall-clock")


def test_pipeline_speedup(benchmark):
    wall, modeled, outputs = run_once(benchmark, measure)
    _check_bit_identity(outputs)
    s = _summary(wall, modeled, n=N, batch=BATCH)
    emit("pipeline", _render(s))
    _emit_json(s)
    _assert_gates(s)


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    if quick:
        wall, modeled, outputs = measure(n=96, batch=128, repeats=1)
        _check_bit_identity(outputs)
        s = _summary(wall, modeled, n=96, batch=128)
        print(_render(s))
        _assert_gates(s, wallclock=False)
        print("bit-identity and modeled gates OK "
              "(quick mode: wall-clock not asserted)")
    else:
        wall, modeled, outputs = measure()
        _check_bit_identity(outputs)
        s = _summary(wall, modeled, n=N, batch=BATCH)
        emit("pipeline", _render(s))
        _emit_json(s)
        _assert_gates(s)
