"""Device fault domains: failover-path overhead and outage recovery cost.

Guards the two contracts of the PR 8 failure domain
(docs/ROBUSTNESS.md Section 5):

* **< 5% fault-free overhead** — arming the failover path (two shard
  devices, ``resilient=True``: per-chunk operand snapshots, circuit
  breaker polling, the rounds loop) must cost host bookkeeping only
  when no fault ever fires, measured as wall-clock against the plain
  pipelined run on the same two shards.  Per the ``bench_pipeline``
  idiom, the wall-clock gate only fires on multi-core hosts.  Both
  sides run their second shard in a forked worker process the same
  way, so the ratio prices the failover bookkeeping alone; the committed JSON
  records ``cpu_count`` and ``wallclock_gated`` so the trajectory stays
  interpretable;
* **<= 2.5x recovery makespan** — a seeded mid-run 1-of-2-device
  outage (brown-out: the device bounces, trips the breaker, probes
  back in) must finish all lanes within 2.5x the healthy two-device
  modeled makespan.  Recovery re-runs the orphaned chunks on the
  survivor, so some multiple is physics; the gate bounds the
  coordination tax on top.

Bit-identity is asserted in both modes: the outage run must return
exactly the bytes of the healthy run (the snapshot-restore contract).

Alongside the text exhibit, ``benchmarks/results/BENCH_failover.json``
archives every number machine-readably for future perf tracking.

Runnable standalone (``python benchmarks/bench_failover.py [--quick]``)
for the CI chaos job; ``--quick`` shrinks the workload and checks
bit-identity plus the modeled recovery gate only (wall-clock ratios at
small scale are noise).
"""

import json
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from repro.band.generate import random_band_batch, random_rhs
from repro.core import gbsv_batch
from repro.gpusim import H100_PCIE, FaultPlan, fault_injection, replicate_device

from _util import RESULTS_DIR, emit, run_once

N, KL, KU, BATCH, NRHS = 128, 6, 6, 256, 1
CHUNK = 32

OVERHEAD_CEILING = 1.05     # fault-free failover path vs plain pipeline
RECOVERY_CEILING = 2.5      # outage recovery makespan vs healthy makespan

OUTAGE = dict(seed=7, outage_after=0, outage_failures=4)


def _run(a, b, n, kl, ku, batch, *, resilient, plan=None):
    """One pipelined 2-device run; returns (wall, makespan, bytes...)."""
    devs = replicate_device(H100_PCIE, 2)
    mats, rhs = a.copy(), b.copy()
    ctx = (fault_injection(devs[0], plan) if plan is not None
           else _null_ctx())
    t0 = perf_counter()
    with ctx:
        out = gbsv_batch(n, kl, ku, NRHS, mats, None, rhs, batch=batch,
                         chunk_hint=CHUNK, devices=devs,
                         resilient=resilient)
    wall = perf_counter() - t0
    if resilient:
        piv, info, report = out
        makespan = report.makespan
    else:
        piv, info = out
        from repro.core import last_pipeline_result
        makespan = last_pipeline_result().makespan
        report = None
    assert (np.asarray(info) == 0).all()
    return (wall, makespan, report,
            (mats.tobytes(), rhs.tobytes(), np.asarray(piv).tobytes()))


class _null_ctx:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def measure(*, n=N, batch=BATCH, repeats=2):
    """Plain / armed / outage runs; best-of-``repeats`` wall-clock."""
    a = random_band_batch(batch, n, KL, KU, seed=21)
    b = random_rhs(n, NRHS, batch=batch, seed=22)
    runs = {}
    for label, kw in (("plain", dict(resilient=False)),
                      ("armed", dict(resilient=True)),
                      ("outage", dict(resilient=True,
                                      plan=FaultPlan(**OUTAGE)))):
        best = None
        for _ in range(max(1, repeats)):
            wall, makespan, report, out = _run(a, b, n, KL, KU, batch, **kw)
            if best is None or wall < best[0]:
                best = (wall, makespan, report, out)
        runs[label] = best
    return runs


def _check(runs):
    """Bit-identity + the armed path really failed over under the storm."""
    assert runs["armed"][3] == runs["plain"][3], (
        "fault-free failover path changed results")
    assert runs["outage"][3] == runs["armed"][3], (
        "outage recovery is not bit-identical to the healthy run")
    rep = runs["outage"][2]
    assert rep.failovers > 0, "the seeded outage never caused a failover"
    kinds = {e["event"] for e in rep.device_events}
    assert "trip" in kinds and "probe" in kinds, (
        f"breaker arc missing from device_events: {sorted(kinds)}")


def _render(runs, *, n, batch):
    overhead = runs["armed"][0] / runs["plain"][0]
    recovery = runs["outage"][1] / runs["armed"][1]
    rep = runs["outage"][2]
    text = "\n".join([
        "Device fault domains: failover overhead and outage recovery "
        f"(gbsv_batch, batch={batch}, n={n}, kl=ku={KL}, "
        f"chunk={CHUNK}, 2x h100-pcie)",
        f"  plain 2-dev wall:        {runs['plain'][0]:8.3f} s",
        f"  armed 2-dev wall:        {runs['armed'][0]:8.3f} s"
        f"   (overhead {(overhead - 1) * 100:+.1f}%, ceiling "
        f"{(OVERHEAD_CEILING - 1) * 100:.0f}%)",
        f"  healthy makespan:        {runs['armed'][1] * 1e3:8.3f} ms",
        f"  outage makespan:         {runs['outage'][1] * 1e3:8.3f} ms"
        f"   (recovery {recovery:.2f}x, ceiling {RECOVERY_CEILING}x)",
        f"  outage failovers={rep.failovers} rounds with "
        f"device_events={len(rep.device_events)}",
        "  bit-identity: outage == armed == plain",
    ])
    return overhead, recovery, text


def _emit_json(runs, *, n, batch, overhead, recovery, wallclock_gated):
    payload = {
        "cpu_count": os.cpu_count(),
        "workload": {"n": n, "kl": KL, "ku": KU, "batch": batch,
                     "chunk_hint": CHUNK, "devices": 2},
        "gates": {"overhead_ceiling": round(OVERHEAD_CEILING - 1.0, 9),
                  "recovery_ceiling": RECOVERY_CEILING,
                  "wallclock_gated": wallclock_gated},
        "wallclock_s": {k: runs[k][0] for k in runs},
        "modeled_makespan_s": {k: runs[k][1] for k in runs},
        "overhead_armed_vs_plain": overhead - 1.0,
        "recovery_vs_healthy": recovery,
        "outage_failovers": runs["outage"][2].failovers,
        "outage_device_events": len(runs["outage"][2].device_events),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_failover.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_failover(benchmark):
    runs = run_once(benchmark, measure)
    _check(runs)
    overhead, recovery, text = _render(runs, n=N, batch=BATCH)
    emit("failover_recovery", text)
    gated = (os.cpu_count() or 1) > 1
    _emit_json(runs, n=N, batch=BATCH, overhead=overhead,
               recovery=recovery, wallclock_gated=gated)
    assert recovery <= RECOVERY_CEILING, (
        f"outage recovery {recovery:.2f}x exceeds {RECOVERY_CEILING}x")
    if gated:
        assert overhead <= OVERHEAD_CEILING, (
            f"fault-free failover path {(overhead - 1) * 100:.1f}% slower "
            f"than plain (ceiling {(OVERHEAD_CEILING - 1) * 100:.0f}%)")


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    if quick:
        # Enough chunks per shard (7) that re-sharding the orphans can
        # actually amortize; the modeled ratio is deterministic.
        runs = measure(n=48, batch=224, repeats=1)
        _check(runs)
        overhead, recovery, text = _render(runs, n=48, batch=224)
        print(text)
        if recovery > RECOVERY_CEILING:
            sys.exit(f"recovery {recovery:.2f}x exceeds ceiling")
        print("bit-identity + recovery gate OK "
              "(quick mode: wall-clock not asserted)")
    else:
        runs = measure()
        _check(runs)
        overhead, recovery, text = _render(runs, n=N, batch=BATCH)
        emit("failover_recovery", text)
        gated = (os.cpu_count() or 1) > 1
        _emit_json(runs, n=N, batch=BATCH, overhead=overhead,
                   recovery=recovery, wallclock_gated=gated)
        if recovery > RECOVERY_CEILING:
            sys.exit(f"recovery {recovery:.2f}x exceeds ceiling")
        if gated and overhead > OVERHEAD_CEILING:
            sys.exit(f"overhead {(overhead - 1) * 100:.1f}% exceeds ceiling")
