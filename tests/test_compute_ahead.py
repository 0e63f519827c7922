"""A chunked shard computes its lanes in one host pass; its chunks only
account for them.

Every case runs twice, once as it ships and once under the ``per_chunk``
fixture (each chunk's launches run their own bodies, as on a device with
a fault injector armed), and everything observable must be equal:
output, pivot and ``info`` bytes, the report, the pipeline's account,
every stream's records and timeline, the memory pools and the health
trackers.
"""

import json

import numpy as np
import pytest

from repro import gbsv_batch, gbtrf_batch, gbtrs_batch, last_pipeline_result
from repro.band.generate import random_band_batch, random_rhs
from repro.core.gbtrf_window import SlidingWindowGbtrfKernel
from repro.core.gbtrs_blocked import BlockedBackwardKernel, \
    BlockedForwardKernel
from repro.core.resilience import ResiliencePolicy
from repro.core.stack import OpSpec
from repro.core.verify import VerifyPolicy
from repro.gpusim import (
    H100_PCIE,
    FaultPlan,
    Stream,
    fault_injection,
    memory_pool,
    replicate_device,
)
from repro.gpusim.device import device_health, reset_device_health
from repro.gpusim.memory import reset_memory_pools

KL, KU, BATCH, SINGULAR, POISONED = 2, 3, 12, 4, 9
#: The poisoned lane fails every rung: flag it rather than raise.
CHEAP = VerifyPolicy(mode="cheap", on_fail="flag")
DEVICES = [H100_PCIE] + replicate_device(H100_PCIE, 4)


def _problem(n, kl=KL, ku=KU, batch=BATCH):
    a = random_band_batch(batch, n, kl, ku, seed=n)
    b = random_rhs(n, 1, batch=batch, seed=n + 1)
    if batch == BATCH:
        a[SINGULAR] = 0.0
        a[POISONED, kl + ku, 5] = np.nan
    return a, b


def _run(op, n, kl=KL, ku=KU, batch=BATCH, **knobs):
    """One call on a fresh device state; everything it left observable."""
    reset_memory_pools()
    reset_device_health()
    a, b = _problem(n, kl, ku, batch)
    piv = None
    if op == "gbtrs":
        piv, _ = gbtrf_batch(n, n, kl, ku, a)
        piv = np.stack(piv)
        reset_memory_pools()
        reset_device_health()
    stream = Stream(H100_PCIE)
    reports = knobs.get("resilient") or knobs.get("verify") is not None
    if op == "gbtrf":
        res = gbtrf_batch(n, n, kl, ku, a, stream=stream, **knobs)
        piv, info = np.stack(res[0]), res[1]
    elif op == "gbsv":
        res = gbsv_batch(n, kl, ku, 1, a, None, b, stream=stream, **knobs)
        piv, info = np.stack(res[0]), res[1]
    else:
        res = gbtrs_batch("N", n, kl, ku, 1, a, piv, b, stream=stream,
                          **knobs)
        info = res[0] if reports else res
    report = res[-1] if reports else None
    pipe = last_pipeline_result() if "devices" in knobs \
        or "streams" in knobs else None
    streams = [stream] + ([s for shard in pipe.shards
                           for s in shard._distinct_streams] if pipe else [])
    return {
        "bytes": [x.tobytes() for x in (a, b, piv, np.asarray(info))],
        "report": json.dumps(report.to_dict() if report else None,
                             sort_keys=True),
        "pipeline": json.dumps(pipe.to_dict() if pipe else None,
                               sort_keys=True),
        "streams": [(s.name, s.records, s.timeline) for s in streams],
        "pools": [(p.in_use, p.peak, p.alloc_count, dict(p.in_use_by_label),
                   p.traffic.bytes_read, p.traffic.bytes_written)
                  for p in map(memory_pool, DEVICES)],
        "health": [device_health(d).snapshot() for d in DEVICES],
    }


def _same_both_ways(per_chunk, op, n, **knobs):
    with per_chunk():
        expected = _run(op, n, **knobs)
    got = _run(op, n, **knobs)
    for key in expected:
        assert got[key] == expected[key], key
    return got


MODES = {"sequential": {}, "devices": {"devices": 2},
         "streams": {"streams": 2}}
CASES = [(op, layout, resilient, verify, mode)
         for op in ("gbtrf", "gbtrs", "gbsv")
         for layout in (None, "soa")
         for resilient in (False, True)
         for verify in (None, "cheap")
         for mode in MODES]


@pytest.mark.parametrize(
    "op,layout,resilient,verify,mode", CASES,
    ids=["-".join(str(v) for v in case) for case in CASES])
def test_ahead_pass_matches_per_chunk(op, layout, resilient, verify, mode,
                                      per_chunk):
    knobs = dict(chunk_hint=3, **MODES[mode])
    knobs.update({k: v for k, v in dict(layout=layout,
                                        verify=verify and CHEAP,
                                        resilient=resilient or None).items()
                  if v is not None})
    _same_both_ways(per_chunk, op, 72, **knobs)


@pytest.mark.parametrize("op", ["gbtrf", "gbsv"])
@pytest.mark.parametrize("method", ["fused", "reference"])
def test_other_designs_match_per_chunk(op, method, per_chunk):
    _same_both_ways(per_chunk, op, 24, chunk_hint=5, resilient=True,
                    method=method if op == "gbtrf" or method == "fused"
                    else "standard")


def test_host_rung_rewinds_lanes_computed_ahead(per_chunk):
    """A cap below one lane sends the whole shard to the host net: the
    lanes the shard computed ahead are rewound to their inputs first."""
    got = _same_both_ways(per_chunk, "gbsv", 72, max_resident_bytes=64,
                          resilient=True)
    report = json.loads(got["report"])
    assert report["methods"] == {"gbtrf": "host", "gbtrs": "host"}
    assert report["chunk_events"][-1]["action"] == "host"


def test_hedged_chunks_match_per_chunk(per_chunk):
    got = _same_both_ways(
        per_chunk, "gbsv", 72, devices=2, chunk_hint=2, resilient=True,
        policy=ResiliencePolicy(hedge_ratio=1.0))
    assert json.loads(got["report"])["hedges"] > 0


def test_forked_round_matches_per_chunk(per_chunk, monkeypatch):
    """Four devices, one child per spare core: forked and in-turn shards
    alike."""
    _same_both_ways(per_chunk, "gbsv", 72, devices=4, chunk_hint=2,
                    resilient=True, verify=CHEAP, layout="soa")


def _count_bodies(monkeypatch):
    counts = {}
    for cls in (SlidingWindowGbtrfKernel, BlockedForwardKernel,
                BlockedBackwardKernel):
        body = cls.run_batch_vectorized

        def spy(self, *args, _body=body, _name=cls.name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _body(self, *args, **kwargs)

        monkeypatch.setattr(cls, "run_batch_vectorized", spy)
    return counts


@pytest.mark.parametrize("knobs", [dict(), dict(streams=2),
                                   dict(resilient=True, verify=CHEAP)])
def test_each_body_runs_once_per_chunked_shard(knobs, monkeypatch):
    a, b = _problem(72)
    a[[SINGULAR, POISONED]] = random_band_batch(2, 72, KL, KU, seed=1)
    counts = _count_bodies(monkeypatch)
    stream = Stream(H100_PCIE)
    gbsv_batch(72, KL, KU, 1, a, None, b, chunk_hint=3, stream=stream,
               **knobs)
    assert counts == {"gbtrf_window": 1, "gbtrs_fwd_blocked": 1,
                      "gbtrs_bwd_blocked": 1}
    # Four chunks were still launched and recorded.
    window = [r for r in stream.records
              if getattr(r, "kernel_name", "") == "gbtrf_window"]
    assert len(window) == (0 if "streams" in knobs else 4)
    assert all(r.executed_blocks == 3 and r.vectorized for r in window)


def test_armed_device_keeps_the_per_chunk_path(monkeypatch):
    """An armed fault plan with every rate at zero changes nothing, but
    its device runs every chunk's bodies itself."""
    expected = _run("gbsv", 72, chunk_hint=3, resilient=True)
    counts = _count_bodies(monkeypatch)
    reset_memory_pools()
    a, b = _problem(72)
    with fault_injection(H100_PCIE, FaultPlan(seed=0)):
        gbsv_batch(72, KL, KU, 1, a, None, b, chunk_hint=3, resilient=True)
    assert counts["gbtrf_window"] == 4
    assert [x.tobytes() for x in (a, b)] == expected["bytes"][:2]


@pytest.mark.parametrize("knobs", [dict(), dict(chunk_hint=3),
                                   dict(chunk_hint=3, streams=2),
                                   dict(max_resident_bytes=64)])
def test_governed_resilient_call_snapshots_through_staging(knobs,
                                                           monkeypatch):
    """The pristine snapshot of every governed resilient call is a
    ``Staging`` step, filled before the lanes are touched; no layer takes
    a fresh operand copy at chunk time."""
    calls = []
    monkeypatch.setattr(OpSpec, "snapshot",
                        lambda *a, **k: calls.append(a), raising=False)
    a, b = _problem(72)
    _, _, report = gbsv_batch(72, KL, KU, 1, a, None, b, resilient=True,
                              **knobs)
    assert calls == []
    assert report.ok or report.unrecovered == (POISONED,)


def test_unlaunchable_first_rung_matches_per_chunk(per_chunk, monkeypatch):
    """A design too big for shared memory runs nothing ahead; each chunk's
    launch raises as before and the ladder falls to the next design.  The
    device keeps its own memory size, which fits a lane this wide."""
    monkeypatch.delenv("REPRO_GLOBAL_MEM_BYTES", raising=False)
    got = _same_both_ways(per_chunk, "gbtrf", 300, kl=32, ku=32, batch=4,
                          method="fused", chunk_hint=2, resilient=True)
    assert json.loads(got["report"])["methods"] == {"gbtrf": "window"}


def test_watchdog_failover_rewinds_orphans(per_chunk):
    """Every launch outlasts the watchdog, with no fault injector armed:
    each device trips after its first chunk, and every lane its shard
    computed ahead is rewound before the next round or the host net."""
    got = _same_both_ways(per_chunk, "gbsv", 72, devices=2, chunk_hint=3,
                          resilient=True,
                          policy=ResiliencePolicy(watchdog=1e-9))
    assert json.loads(got["pipeline"])["failovers"] > 0
