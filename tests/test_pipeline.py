"""Pipelined multi-stream, multi-device batch execution.

Pins the contracts of :mod:`repro.core.pipeline`:

* the event-driven stream scheduler (cross-stream waits create idle gaps,
  busy time vs. elapsed, same-device restriction);
* pipelined runs are **bit-identical** to the sequential chunked path on
  every execution route (per-block, batch-interleaved, gather/pack,
  vbatch) for every knob combination;
* overlap and sharding shrink the modeled makespan;
* ``resilient=True`` fault storms produce deterministic results and a
  correctly merged report regardless of stream/device count;
* per-stream leases never leak, even when a chunk dies mid-pipeline;
* no call starts a thread, and a shard that raises stops the round;
* a multi-shard round forks a child per extra shard (one per spare
  core), and everything it produces equals the same round run in turn;
  rounds with a live thread, a shared injector or one assignment run in
  turn, and no child or arena lease outlives a call;
* TrafficCounter totals agree with the bytes carried on the copy-stream
  timelines.
"""

import contextlib
import os
import threading

import numpy as np
import pytest

from repro.band.generate import random_band_batch, random_rhs
from repro.core.arena import HOST_ARENA, HostArena, Leases
from repro.core.batched import gbsv_vbatch
from repro.core.gbsv import GBSV, gbsv_batch
from repro.core.gbtrf import GBTRF, gbtrf_batch
from repro.core.gbtrs import GBTRS, gbtrs_batch
from repro.core.pipeline import last_pipeline_result, pipeline_requested
from repro.core.resilience import ResiliencePolicy
from repro.core.stack import ExecConfig, Operands, Staging, lane_runs
from repro.core.verify import VerifyPolicy
from repro.errors import (
    ArgumentError,
    DataCorruptionError,
    DeviceError,
    DeviceMemoryError,
)
from repro.gpusim import (
    H100_PCIE,
    MI250X_GCD,
    FaultPlan,
    Stream,
    fault_injection,
    memory_pool,
    replicate_device,
)
from repro.gpusim.multidevice import CircuitBreaker, split_batch
from repro.gpusim.device import device_health, reset_device_health
from repro.gpusim.faults import FaultInjector, arm_faults, disarm_faults
from repro.gpusim.memory import reset_memory_pools
from repro.gpusim.transfer import TransferRecord


def _rec(t):
    # Streams duck-type their records (only ``.time`` matters for timing).
    return TransferRecord(kernel_name="k", nbytes=0, time=t)


class TestStreamScheduler:
    def test_no_wait_tail_is_sum(self):
        s = Stream(H100_PCIE)
        s.record(_rec(1.0))
        s.record(_rec(2.0))
        assert s.elapsed == pytest.approx(3.0)
        assert s.busy_time == pytest.approx(3.0)
        assert [e.start for e in s.timeline] == pytest.approx([0.0, 1.0])

    def test_wait_event_inserts_idle_gap(self):
        h2d = Stream(H100_PCIE, name="h2d")
        cmp_s = Stream(H100_PCIE, name="compute")
        h2d.record(_rec(5.0))
        cmp_s.wait_event(h2d.record_event())
        cmp_s.record(_rec(1.0))
        # The compute record cannot start before the upload finished.
        assert cmp_s.timeline[0].start == pytest.approx(5.0)
        assert cmp_s.elapsed == pytest.approx(6.0)
        assert cmp_s.busy_time == pytest.approx(1.0)

    def test_overlap_between_waits(self):
        """Chunk i+1's upload overlaps chunk i's compute."""
        h2d = Stream(H100_PCIE, name="h2d")
        cmp_s = Stream(H100_PCIE, name="compute")
        for _ in range(3):
            h2d.record(_rec(1.0))
            cmp_s.wait_event(h2d.record_event())
            cmp_s.record(_rec(1.0))
        # Serial would be 6.0; the pipeline hides all but the first upload.
        assert cmp_s.elapsed == pytest.approx(4.0)
        assert h2d.elapsed == pytest.approx(3.0)

    def test_cross_device_wait_raises(self):
        a = Stream(H100_PCIE)
        b = Stream(MI250X_GCD)
        a.record(_rec(1.0))
        with pytest.raises(DeviceError):
            b.wait_event(a.record_event())

    def test_reset_clears_pending_wait(self):
        a = Stream(H100_PCIE)
        b = Stream(H100_PCIE)
        a.record(_rec(4.0))
        b.wait_event(a.record_event())
        b.reset()
        b.record(_rec(1.0))
        assert b.timeline[0].start == pytest.approx(0.0)


class TestKnobs:
    def test_pipeline_requested(self):
        assert not pipeline_requested()
        assert not pipeline_requested(streams=1)
        assert not pipeline_requested(streams=None, devices=None)
        assert pipeline_requested(streams=2)
        assert pipeline_requested(streams=3)
        assert pipeline_requested(devices=1)
        assert pipeline_requested(devices=[H100_PCIE, MI250X_GCD])

    def test_healthy_call_is_one_round(self):
        """A healthy call runs the rounds loop once: one round, one
        makespan entry, equal to the slowest shard's."""
        n, kl, ku, batch = 16, 2, 2, 24
        for knobs in (dict(streams=3), dict(devices=2),
                      dict(devices=2, resilient=True)):
            a = random_band_batch(batch, n, kl, ku, seed=0)
            b = random_rhs(n, 1, batch=batch, seed=1)
            gbsv_batch(n, kl, ku, 1, a, None, b, chunk_hint=6, **knobs)
            res = last_pipeline_result()
            assert res.rounds == 1
            assert res.round_makespans == (
                max(s.makespan for s in res.shards),)
            assert res.makespan == res.round_makespans[0]
            assert res.to_dict()["round_makespans"] == [res.makespan]

    def test_busy_time_sums_in_stream_order(self):
        """Aliased streams count once, summed in (h2d, compute, d2h)
        order: the float result cannot depend on object addresses."""
        from repro.core.pipeline import ShardResult
        from repro.gpusim.multidevice import DevicePartition

        class FakeStream:
            def __init__(self, busy):
                self.busy_time = self.elapsed = busy

        # (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3) in binary floating point.
        assert (0.1 + 0.2) + 0.3 != (0.2 + 0.3) + 0.1
        part = DevicePartition(H100_PCIE, 0, 1)
        for _ in range(200):
            triple = (FakeStream(0.1), FakeStream(0.2), FakeStream(0.3))
            shard = ShardResult(partition=part, streams=triple,
                                h2d_bytes=0, d2h_bytes=0)
            assert shard.busy_time == (0.1 + 0.2) + 0.3
            assert shard.makespan == 0.3
        one = FakeStream(0.1)
        shard = ShardResult(partition=part, streams=(one, one, one),
                            h2d_bytes=0, d2h_bytes=0)
        assert shard.busy_time == 0.1

    def test_replicate_device_names(self):
        devs = replicate_device(H100_PCIE, 3)
        assert [d.name for d in devs] == [
            "h100-pcie:0", "h100-pcie:1", "h100-pcie:2"]
        assert all(d.num_sms == H100_PCIE.num_sms for d in devs)

    def test_duplicate_device_names_rejected(self):
        n, kl, ku, batch = 16, 2, 2, 8
        a = random_band_batch(batch, n, kl, ku, seed=0)
        b = random_rhs(n, 1, batch=batch, seed=1)
        with pytest.raises(ArgumentError):
            gbsv_batch(n, kl, ku, 1, a, None, b,
                       devices=[H100_PCIE, H100_PCIE])
        with pytest.raises(ArgumentError):
            gbsv_batch(n, kl, ku, 1, a, None, b, devices=0)
        with pytest.raises(ArgumentError):
            gbsv_batch(n, kl, ku, 1, a, None, b, streams=0)

    def test_last_pipeline_result_populated(self):
        n, kl, ku, batch = 16, 2, 2, 24
        a = random_band_batch(batch, n, kl, ku, seed=0)
        b = random_rhs(n, 1, batch=batch, seed=1)
        gbsv_batch(n, kl, ku, 1, a, None, b, devices=2, chunk_hint=6)
        res = last_pipeline_result()
        assert res is not None
        assert res.op == "gbsv"
        assert res.batch == batch
        assert res.devices == ("h100-pcie:0", "h100-pcie:1")
        assert res.streams == 3 and res.overlap
        assert res.makespan > 0.0
        assert sum(s.partition.count for s in res.shards) == batch
        d = res.to_dict()
        assert d["devices"] == list(res.devices)
        assert d["makespan"] == pytest.approx(res.makespan)

    def test_last_pipeline_result_is_per_thread(self):
        """Two threads pipelining concurrently each see their own call."""
        n, kl, ku, batch = 16, 2, 2, 12
        done = threading.Barrier(2)
        seen, errors = {}, []

        def work(ndev):
            try:
                a = random_band_batch(batch, n, kl, ku, seed=ndev)
                b = random_rhs(n, 1, batch=batch, seed=ndev + 1)
                gbsv_batch(n, kl, ku, 1, a, None, b, devices=ndev,
                           chunk_hint=3)
                done.wait(timeout=30)      # both calls have finished
                seen[ndev] = last_pipeline_result().devices
            except Exception as exc:       # re-raised on the main thread
                errors.append(exc)

        workers = [threading.Thread(target=work, args=(d,)) for d in (2, 3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
        assert not errors
        for ndev in (2, 3):
            assert seen[ndev] == tuple(
                d.name for d in replicate_device(H100_PCIE, ndev))


# Invalid governance knobs, rejected on every route.
BAD_KNOBS = [
    dict(streams=0),
    dict(streams=-3),
    dict(streams=2.5),
    dict(chunk_hint=0),
    dict(max_resident_bytes=-1),
    dict(devices=0),
    dict(devices=[]),
    dict(devices=[1, 2]),
    dict(devices=["a", "b"]),
    dict(devices={"x": 1}),
]
BAD_IDS = ["streams0", "streams-3", "streams2.5", "chunk_hint0",
           "max_resident_bytes-1", "devices0", "devices-empty",
           "devices-ints", "devices-strs", "devices-dict"]


@pytest.mark.parametrize("bad", BAD_KNOBS, ids=BAD_IDS)
@pytest.mark.parametrize("route", [
    dict(),
    dict(chunk_hint=4),
    dict(devices=2, streams=2),
    dict(execute=False),
], ids=["plain", "chunked", "pipelined", "execute-false"])
def test_invalid_knobs_rejected_on_every_route(route, bad):
    """Governance knobs are validated once, before any route is chosen."""
    n, kl, ku, batch = 16, 2, 2, 8
    a = random_band_batch(batch, n, kl, ku, seed=0)
    b = random_rhs(n, 1, batch=batch, seed=1)
    a0, b0 = a.copy(), b.copy()
    knobs = {**route, **bad}
    with pytest.raises(ArgumentError):
        gbsv_batch(n, kl, ku, 1, a, None, b, **knobs)
    with pytest.raises(ArgumentError):
        gbtrf_batch(n, n, kl, ku, a, **knobs)
    with pytest.raises(ArgumentError):
        gbsv_vbatch([n] * batch, [kl] * batch, [ku] * batch, [1] * batch,
                    list(a), list(b), **knobs)
    # Rejected before anything ran.
    assert a.tobytes() == a0.tobytes() and b.tobytes() == b0.tobytes()


@pytest.mark.parametrize("bad", BAD_KNOBS, ids=BAD_IDS)
def test_invalid_knobs_rejected_by_service(bad):
    from repro.serve import SolverService
    with pytest.raises(ArgumentError):
        SolverService(**bad)


# Knob combinations swept by the bit-identity tests.
KNOBS = [
    dict(streams=3),
    dict(streams=2),
    dict(devices=1),
    dict(devices=2, streams=1),
    dict(devices=2),
    dict(devices=3, streams=2),
    dict(devices=[H100_PCIE, MI250X_GCD]),
]
KNOB_IDS = ["streams3", "streams2", "overlap", "2dev-seq", "2dev",
            "3dev-streams2", "hetero"]


@pytest.mark.parametrize("knobs", KNOBS, ids=KNOB_IDS)
class TestBitIdentity:
    """Pipelined == sequential chunked, bit for bit, on every route."""

    n, kl, ku, nrhs, batch = 24, 3, 2, 2, 30

    def _problem(self, seed=0, scattered=False):
        a = random_band_batch(self.batch, self.n, self.kl, self.ku,
                              seed=seed)
        b = random_rhs(self.n, self.nrhs, batch=self.batch, seed=seed + 1)
        if scattered:
            # Separately-allocated per-problem arrays -> gather/pack route.
            a = [np.array(a[k]) for k in range(self.batch)]
            b = [np.array(b[k]) for k in range(self.batch)]
        return a, b

    def _run(self, a, b, **kw):
        piv, info = gbsv_batch(self.n, self.kl, self.ku, self.nrhs,
                               a, None, b, batch=self.batch,
                               chunk_hint=7, **kw)
        return (np.asarray(a).tobytes(), np.asarray(b).tobytes(),
                np.asarray(piv).tobytes(), np.asarray(info).tobytes())

    def _check(self, knobs, *, scattered=False):
        a0, b0 = self._problem(scattered=scattered)
        ref = self._run(a0, b0)
        a1, b1 = self._problem(scattered=scattered)
        out = self._run(a1, b1, **knobs)
        assert out == ref

    def test_per_block_route(self, knobs, per_block):
        with per_block():
            self._check(knobs)

    def test_vectorized_route(self, knobs):
        self._check(knobs)

    def test_gather_pack_route(self, knobs):
        self._check(knobs, scattered=True)

    def test_vbatch_route(self, knobs):
        cfgs = [(16, 2, 2, 1)] * 10 + [(24, 3, 1, 2)] * 12 + [(8, 1, 1, 1)] * 8
        ns = [c[0] for c in cfgs]
        kls = [c[1] for c in cfgs]
        kus = [c[2] for c in cfgs]
        nrhss = [c[3] for c in cfgs]

        def problem():
            rng = np.random.default_rng(7)
            a = [np.asarray(random_band_batch(1, n, kl, ku,
                                              seed=int(rng.integers(1 << 30))))[0]
                 for n, kl, ku in zip(ns, kls, kus)]
            b = [np.asarray(random_rhs(n, nr, batch=1,
                                       seed=int(rng.integers(1 << 30))))[0]
                 for n, nr in zip(ns, nrhss)]
            return a, b

        def run(a, b, **kw):
            piv, info = gbsv_vbatch(ns, kls, kus, nrhss, a, b,
                                    chunk_hint=4, **kw)
            return (tuple(x.tobytes() for x in a),
                    tuple(x.tobytes() for x in b),
                    tuple(np.asarray(p).tobytes() for p in piv),
                    np.asarray(info).tobytes())

        a0, b0 = problem()
        ref = run(a0, b0)
        a1, b1 = problem()
        assert run(a1, b1, **knobs) == ref

    def test_unchunked_reference(self, knobs):
        """Pipelined also matches a plain unchunked, ungoverned run."""
        a0, b0 = self._problem()
        piv0, info0 = gbsv_batch(self.n, self.kl, self.ku, self.nrhs,
                                 a0, None, b0, batch=self.batch)
        a1, b1 = self._problem()
        piv1, info1 = gbsv_batch(self.n, self.kl, self.ku, self.nrhs,
                                 a1, None, b1, batch=self.batch,
                                 chunk_hint=7, **knobs)
        assert a1.tobytes() == a0.tobytes()
        assert b1.tobytes() == b0.tobytes()
        assert np.asarray(piv1).tobytes() == np.asarray(piv0).tobytes()
        assert np.asarray(info1).tobytes() == np.asarray(info0).tobytes()


class TestMakespan:
    n, kl, ku, batch = 64, 4, 3, 64

    def _problem(self, seed=0):
        a = random_band_batch(self.batch, self.n, self.kl, self.ku,
                              seed=seed)
        b = random_rhs(self.n, 1, batch=self.batch, seed=seed + 1)
        return a, b

    def test_overlap_beats_sequential_staging(self):
        """Double-buffered staging hides copies behind compute.

        ``chunk_hint=3`` keeps the chunk layout identical in both runs
        even when ``REPRO_GLOBAL_MEM_BYTES`` squeezes the pool (the
        pipelined plan divides the budget by its buffer count).
        """
        a, b = self._problem()
        seq = Stream(H100_PCIE)
        gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                   stream=seq, chunk_hint=3)
        sequential = seq.elapsed

        a, b = self._problem()
        gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                   chunk_hint=3, streams=3)
        res = last_pipeline_result()
        assert res.makespan < sequential
        # The shards' engines did the same total work.
        assert res.device_busy_time == pytest.approx(sequential, rel=1e-9)

    def test_two_devices_beat_one(self):
        a, b = self._problem()
        gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                   chunk_hint=8, streams=3)
        one = last_pipeline_result().makespan

        a, b = self._problem()
        gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                   chunk_hint=8, devices=2)
        two = last_pipeline_result().makespan
        assert two < one
        assert one / two > 1.5

    def test_no_overlap_matches_sequential_model(self):
        """devices=1 + streams=1 pipelines nothing: same makespan."""
        a, b = self._problem()
        seq = Stream(H100_PCIE)
        gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                   stream=seq, chunk_hint=8)
        sequential = seq.elapsed

        a, b = self._problem()
        gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                   chunk_hint=8, devices=1, streams=1)
        res = last_pipeline_result()
        assert res.streams == 1
        assert res.makespan == pytest.approx(sequential, rel=1e-9)

    def test_summary_record_on_caller_stream(self):
        a, b = self._problem()
        caller = Stream(H100_PCIE)
        gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                   stream=caller, chunk_hint=8, devices=2)
        res = last_pipeline_result()
        assert caller.launch_count() == 1
        rec = caller.records[0]
        assert rec.kernel_name == "gbsv_pipeline"
        assert rec.nbytes == 0
        assert rec.time == pytest.approx(res.makespan)


class TestFaultStorms:
    """Deterministic resilience regardless of stream/device count."""

    n, kl, ku, batch = 24, 3, 2, 32

    def _problem(self, seed=3):
        a = random_band_batch(self.batch, self.n, self.kl, self.ku,
                              seed=seed)
        b = random_rhs(self.n, 1, batch=self.batch, seed=seed + 1)
        return a, b

    def _storm(self, plan, **knobs):
        """Run one resilient call under ``plan`` armed on every replica."""
        devs = knobs.get("devices")
        if isinstance(devs, int):
            devs = replicate_device(H100_PCIE, devs)
            knobs = dict(knobs, devices=devs)
        targets = devs if devs is not None else [H100_PCIE]
        a, b = self._problem()
        with contextlib.ExitStack() as stack:
            injs = [stack.enter_context(fault_injection(d, plan))
                    for d in targets]
            piv, info, rep = gbsv_batch(
                self.n, self.kl, self.ku, 1, a, None, b,
                resilient=True, chunk_hint=8, **knobs)
        return (a.tobytes(), b.tobytes(), np.asarray(piv).tobytes(),
                np.asarray(info).tobytes(), rep, injs)

    def test_alloc_storm_deterministic_across_device_counts(self):
        plan = FaultPlan(seed=11, alloc_failure_rate=0.9,
                         max_alloc_failures=6, alloc_labels="gbsv-chunk")
        ref = self._storm(FaultPlan(seed=11))          # fault-free baseline
        for knobs in (dict(streams=3), dict(devices=2),
                      dict(devices=3, streams=2)):
            first = self._storm(plan, **knobs)
            again = self._storm(plan, **knobs)
            # Identical storm -> identical bytes, and the self-healing
            # path converges to the fault-free answer.
            assert first[:4] == again[:4]
            assert first[:4] == ref[:4]
            assert first[4].oom_failures == sum(
                inj.counts()["alloc-failure"] for inj in first[5])
            assert first[4].oom_failures > 0

    def test_lane_windows_use_global_indices(self):
        """Corruption lanes land identically however the batch is sharded."""
        lanes = (1, 9, 17, 30)
        plan = FaultPlan(seed=5, corrupt_lanes=lanes)
        seq = self._storm(plan)
        shard = self._storm(plan, devices=2)
        assert shard[:4] == seq[:4]
        hit = [ev.lane for inj in shard[5]
               for ev in inj.events("lane-corruption")]
        assert sorted(hit) == sorted(lanes)

    def test_report_merges_across_shards(self):
        plan = FaultPlan(seed=2, alloc_failure_rate=1.0,
                         max_alloc_failures=3, alloc_labels="gbsv-chunk")
        out = self._storm(plan, devices=2)
        rep = out[4]
        assert rep.devices == ("h100-pcie:0", "h100-pcie:1")
        assert rep.makespan > 0.0
        assert sum(rep.chunks) == self.batch
        kinds = {ev["action"] for ev in rep.chunk_events}
        assert "split" in kinds
        assert kinds & {"drain", "halve", "host"}
        assert all("device" in ev for ev in rep.chunk_events)
        assert "devices=" in rep.summary()
        # Round-trips through the wire format.
        from repro.core.resilience import BatchReport
        back = BatchReport.from_dict(rep.to_dict())
        assert back.devices == rep.devices
        assert back.makespan == pytest.approx(rep.makespan)


class TestLeaseAccounting:
    """No pool leak after an OOM (or crash) mid-pipeline."""

    n, kl, ku, batch = 24, 3, 2, 32

    def _pools(self, devs):
        return [memory_pool(d) for d in devs]

    def _problem(self):
        a = random_band_batch(self.batch, self.n, self.kl, self.ku, seed=0)
        b = random_rhs(self.n, 1, batch=self.batch, seed=1)
        return a, b

    def test_resilient_storm_leaves_pools_clean(self):
        devs = replicate_device(H100_PCIE, 2)
        plan = FaultPlan(seed=4, alloc_failure_rate=1.0,
                         max_alloc_failures=8, alloc_labels="gbsv-chunk")
        a, b = self._problem()
        with fault_injection(devs[0], plan), fault_injection(devs[1], plan):
            gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                       resilient=True, chunk_hint=8, devices=devs)
        for pool in self._pools(devs):
            assert pool.in_use == 0
            assert pool.in_use_by_label == {}

    def test_nonresilient_oom_raises_and_frees(self):
        devs = replicate_device(H100_PCIE, 2)
        plan = FaultPlan(seed=4, alloc_failure_rate=1.0,
                         max_alloc_failures=1, alloc_labels="gbsv-chunk")
        a, b = self._problem()
        with fault_injection(devs[0], plan):
            with pytest.raises(DeviceMemoryError):
                gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                           chunk_hint=8, devices=devs)
        for pool in self._pools(devs):
            assert pool.in_use == 0
            assert pool.in_use_by_label == {}

    def test_failed_first_launch_stops_the_round(self):
        """Shards run in turn: a raising shard 0 means shard 1 never
        leases a byte, and shard 0's lease is returned."""
        devs = replicate_device(H100_PCIE, 2)
        plan = FaultPlan(seed=4, launch_failure_rate=1.0,
                         max_launch_failures=1)
        a, b = self._problem()
        with fault_injection(devs[0], plan):
            with pytest.raises(DeviceError):
                gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                           chunk_hint=8, devices=devs)
        for pool in self._pools(devs):
            assert pool.in_use == 0
            assert pool.in_use_by_label == {}
        assert memory_pool(devs[0]).peak > 0
        assert memory_pool(devs[1]).peak == 0

    def test_mid_chunk_crash_frees_current_lease(self):
        devs = replicate_device(H100_PCIE, 2)
        plan = FaultPlan(seed=4, launch_failure_rate=1.0,
                         max_launch_failures=1)
        a, b = self._problem()
        with fault_injection(devs[1], plan):
            with pytest.raises(DeviceError):
                gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                           chunk_hint=8, devices=devs)
        for pool in self._pools(devs):
            assert pool.in_use == 0
            assert pool.in_use_by_label == {}


class TestTrafficAgreement:
    """Copy-stream timelines carry exactly the counted staging bytes."""

    n, kl, ku, batch = 24, 3, 2, 32

    def test_counter_matches_stream_records(self, per_block):
        a = random_band_batch(self.batch, self.n, self.kl, self.ku, seed=0)
        piv = np.zeros((self.batch, self.n), dtype=np.int64)
        info = np.zeros(self.batch, dtype=np.int64)
        devs = replicate_device(H100_PCIE, 2)
        pools = [memory_pool(d) for d in devs]
        before = [p.traffic.total for p in pools]
        with per_block():
            gbtrf_batch(self.n, self.n, self.kl, self.ku, a, piv, info,
                        chunk_hint=8, devices=devs)
        res = last_pipeline_result()
        counted = sum(p.traffic.total - b for p, b in zip(pools, before))
        assert counted == res.h2d_bytes + res.d2h_bytes
        # Every staged chunk is on a copy-stream timeline with its bytes.
        staged = 0
        for shard in res.shards:
            for s in set(shard.streams):
                staged += sum(e.record.nbytes for e in s.timeline
                              if e.record.kernel_name.startswith("chunk_"))
        assert staged == counted
        # All chunks were staged (every shard was chunked smaller than
        # the batch), so both directions moved the full footprint.
        from repro.core.memory_plan import lane_footprint
        lane = lane_footprint(a[0].nbytes, piv[0].nbytes)
        assert res.h2d_bytes == self.batch * lane
        assert res.d2h_bytes == self.batch * lane

    def test_h2d_and_d2h_ride_separate_streams(self):
        a = random_band_batch(self.batch, self.n, self.kl, self.ku, seed=0)
        b = random_rhs(self.n, 1, batch=self.batch, seed=1)
        gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                   chunk_hint=8, streams=3)
        res = last_pipeline_result()
        (shard,) = res.shards
        s_h2d, s_cmp, s_d2h = shard.streams
        assert len({id(s) for s in shard.streams}) == 3
        assert all(e.record.kernel_name == "chunk_h2d"
                   for e in s_h2d.timeline)
        assert all(e.record.kernel_name == "chunk_d2h"
                   for e in s_d2h.timeline)
        assert not any(e.record.kernel_name.startswith("chunk_")
                       for e in s_cmp.timeline)
        assert sum(e.record.nbytes for e in s_h2d.timeline) == shard.h2d_bytes
        assert sum(e.record.nbytes for e in s_d2h.timeline) == shard.d2h_bytes


@pytest.fixture
def no_threads(monkeypatch):
    """Fail any test whose pipelined calls start a host thread."""
    def refuse(thread):
        raise AssertionError(f"pipeline started thread {thread.name!r}")
    monkeypatch.setattr(threading.Thread, "start", refuse)


@pytest.mark.usefixtures("no_threads")
class TestDeviceFaultDomain:
    """Failover, circuit breaking, watchdog, and hedging on the pipeline.

    The PR 8 acceptance contract: a seeded mid-run device outage on one
    of two shard devices completes every lane bit-identically to the
    healthy single-device run, with the trip/probe/recovery arc recorded
    in ``BatchReport.device_events``.  Extra shards run in forked
    processes, so none of it starts a thread.
    """

    n, kl, ku, batch = 24, 3, 2, 24

    def _problem(self, seed=9):
        a = random_band_batch(self.batch, self.n, self.kl, self.ku,
                              seed=seed)
        b = random_rhs(self.n, 1, batch=self.batch, seed=seed + 1)
        return a, b

    def _healthy(self, *, layout=None):
        """Fault-free single-device reference bytes for one route."""
        a, b = self._problem()
        if layout == "soa":
            from repro.band.layout import to_interleaved
            a, b = to_interleaved(a), to_interleaved(b)
        piv, info, _ = gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                                  resilient=True, chunk_hint=4,
                                  layout=layout)
        return (np.asarray(a).tobytes(), np.asarray(b).tobytes(),
                np.asarray(piv).tobytes(), np.asarray(info).tobytes())

    def _outage_run(self, plan, *, layout=None, policy=None, ndev=2):
        """Seeded outage on shard device 0 of ``ndev``; returns bytes+rep."""
        devs = replicate_device(H100_PCIE, ndev)
        a, b = self._problem()
        if layout == "soa":
            from repro.band.layout import to_interleaved
            a, b = to_interleaved(a), to_interleaved(b)
        with fault_injection(devs[0], plan):
            piv, info, rep = gbsv_batch(
                self.n, self.kl, self.ku, 1, a, None, b,
                resilient=True, chunk_hint=4, devices=devs,
                layout=layout, policy=policy)
        return (np.asarray(a).tobytes(), np.asarray(b).tobytes(),
                np.asarray(piv).tobytes(), np.asarray(info).tobytes()), rep

    OUTAGE = dict(seed=7, outage_after=1, outage_failures=4)

    @pytest.mark.parametrize("blocks,layout", [
        (True, None),             # per-block
        (False, None),            # [vec]
        (False, "soa"),           # [vec+soa]
    ], ids=["per-block", "vec", "vec+soa"])
    def test_outage_recovery_bit_identical(self, blocks, layout, per_block):
        with per_block() if blocks else contextlib.nullcontext():
            ref = self._healthy(layout=layout)
            out, rep = self._outage_run(FaultPlan(**self.OUTAGE),
                                        layout=layout)
        assert out == ref
        assert rep.failovers > 0
        kinds = [e["event"] for e in rep.device_events]
        assert "failover" in kinds
        assert "trip" in kinds and "probe" in kinds
        assert "recover" in kinds or "reopen" in kinds

    def test_outage_decisions_deterministic(self):
        _, rep1 = self._outage_run(FaultPlan(**self.OUTAGE))
        _, rep2 = self._outage_run(FaultPlan(**self.OUTAGE))
        strip = lambda evs: [
            {k: v for k, v in e.items()} for e in evs]
        assert strip(rep1.device_events) == strip(rep2.device_events)
        assert rep1.failovers == rep2.failovers

    def test_permanent_outage_survivor_completes(self):
        """outage_failures=None never heals: device dies, lanes survive."""
        ref = self._healthy()
        out, rep = self._outage_run(
            FaultPlan(seed=3, outage_after=0))
        assert out == ref
        kinds = [e["event"] for e in rep.device_events]
        assert "trip" in kinds
        assert rep.failovers > 0

    def test_all_devices_dead_falls_to_host(self):
        """Both shard devices out -> host leftover still completes."""
        import contextlib as _ctx
        devs = replicate_device(H100_PCIE, 2)
        ref = self._healthy()
        a, b = self._problem()
        with _ctx.ExitStack() as stack:
            for d in devs:
                stack.enter_context(
                    fault_injection(d, FaultPlan(seed=1, outage_after=0)))
            piv, info, rep = gbsv_batch(
                self.n, self.kl, self.ku, 1, a, None, b,
                resilient=True, chunk_hint=4, devices=devs)
        out = (a.tobytes(), b.tobytes(), np.asarray(piv).tobytes(),
               np.asarray(info).tobytes())
        assert out == ref
        assert any(e.get("action") == "host" and
                   e.get("reason") == "no-healthy-devices"
                   for e in rep.chunk_events)
        assert any(e.get("event") == "dead" for e in rep.device_events)

    def test_watchdog_hang_fails_over(self):
        from repro.core.resilience import ResiliencePolicy
        ref = self._healthy()
        plan = FaultPlan(seed=5, hang_launches=1, hang_seconds=5.0)
        out, rep = self._outage_run(
            plan, policy=ResiliencePolicy(watchdog=0.5))
        assert out == ref
        assert rep.failovers > 0
        assert any(e.get("kind") == "hang" for e in rep.device_events
                   if e.get("event") == "failover")

    def test_hedging_duplicates_stragglers(self):
        from repro.core.resilience import ResiliencePolicy
        ref = self._healthy()
        # An un-watched hang inflates one chunk far past the median.
        plan = FaultPlan(seed=5, hang_launches=1, hang_seconds=10.0)
        out, rep = self._outage_run(
            plan, policy=ResiliencePolicy(hedge_ratio=1.5))
        assert out == ref
        assert rep.hedges >= 1
        assert any(e.get("event") == "hedge" for e in rep.device_events)

    def test_plain_two_device_call_starts_no_thread(self):
        a, b = self._problem()
        gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                   chunk_hint=4, devices=2)
        assert len(last_pipeline_result().shards) == 2

    def test_pools_clean_after_failover(self):
        devs = replicate_device(H100_PCIE, 2)
        a, b = self._problem()
        with fault_injection(devs[0], FaultPlan(**self.OUTAGE)):
            gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                       resilient=True, chunk_hint=4, devices=devs)
        for d in devs:
            assert memory_pool(d).in_use == 0

    def test_pipeline_result_reports_rounds(self):
        devs = replicate_device(H100_PCIE, 2)
        a, b = self._problem()
        with fault_injection(devs[0], FaultPlan(**self.OUTAGE)):
            gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                       resilient=True, chunk_hint=4, devices=devs)
        pres = last_pipeline_result()
        assert pres.rounds > 1
        assert len(pres.round_makespans) == pres.rounds
        assert pres.makespan == pytest.approx(sum(pres.round_makespans))
        d = pres.to_dict()
        for key in ("rounds", "round_makespans", "device_events",
                    "failovers", "hedges"):
            assert key in d
        assert any(p["role"] == "full" for p in d["partitions"])


# --- forked shards -----------------------------------------------------------

MULTICORE = (os.cpu_count() or 1) > 1


@pytest.fixture
def fork_spy(monkeypatch):
    """Count the forks the pipeline makes (as seen by the parent)."""
    real, forks = os.fork, []

    def spy():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", spy)
    return forks


def _no_children_no_leases():
    """No child outlives a call, and no arena lease stays out."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert HOST_ARENA.leased == 0


def _pool_state(dev):
    pool = memory_pool(dev)
    return (pool.in_use, pool.peak, pool.alloc_count,
            dict(pool.in_use_by_label), pool.traffic.total)


def _lanes_bytes(seq):
    return b"".join(np.asarray(x).tobytes() for x in seq)


@pytest.mark.usefixtures("no_threads")
class TestForkedShards:
    """A round with several assignments forks one child per extra shard
    (one per spare core); everything it produces equals the same call
    with ``os.fork`` taken away, which runs every shard in turn."""

    n, kl, ku, batch = 24, 3, 2, 40

    def _operands(self, pointers, driver="gbsv"):
        a = random_band_batch(self.batch, self.n, self.kl, self.ku, seed=31)
        b = random_rhs(self.n, 1, batch=self.batch, seed=32)
        piv = None
        if driver == "gbtrs":   # factors made before the call, in turn
            piv, _ = gbtrf_batch(self.n, self.n, self.kl, self.ku, a)
        if pointers:    # separately owned lanes: the pack rung
            return [x.copy() for x in a], [x.copy() for x in b], piv
        return a, b, piv

    def _run(self, driver, a, b, piv, **knobs):
        """``driver`` on the operands; returns ``(pivots, info, reports)``
        (``reports`` holds the report when the call returns one)."""
        n, kl, ku = self.n, self.kl, self.ku
        if driver == "gbtrf":
            piv, info, *rep = gbtrf_batch(n, n, kl, ku, a, chunk_hint=4,
                                          **knobs)
        elif driver == "gbtrs":
            info, *rep = gbtrs_batch("N", n, kl, ku, 1, a, piv, b,
                                     chunk_hint=4, **knobs)
        else:
            piv, info, *rep = gbsv_batch(n, kl, ku, 1, a, None, b,
                                         chunk_hint=4, **knobs)
        return piv, info, rep

    def _call(self, monkeypatch, *, forked, pointers=False, plans=(),
              ndev=2, driver="gbsv", **knobs):
        """One call of ``driver`` on fresh operands, pools and health
        trackers; returns what the in-turn run must equal, and the
        pipeline result."""
        reset_memory_pools()
        reset_device_health()
        devs = replicate_device(H100_PCIE, ndev)
        a, b, piv = self._operands(pointers, driver)
        injs = [arm_faults(d, p) for d, p in zip(devs, plans)]
        try:
            with monkeypatch.context() as m:
                if not forked:
                    m.delattr(os, "fork")
                piv, info, rep = self._run(driver, a, b, piv, devices=devs,
                                           **knobs)
        finally:
            disarm_faults()
        _no_children_no_leases()
        res = last_pipeline_result()
        return {
            "outputs": (_lanes_bytes(a), _lanes_bytes(b),
                        np.asarray(piv).tobytes(), np.asarray(info).tobytes()),
            "report": rep[0].to_dict() if rep else None,
            "pipeline": res.to_dict(),
            "timelines": [[[(e.start, e.end, e.record) for e in s.timeline]
                           for s in shard._distinct_streams]
                          for shard in res.shards],
            "pools": [_pool_state(d) for d in devs],
            "health": [device_health(d).snapshot() for d in devs],
            "faults": [inj.log for inj in injs],
        }, res

    CASES = {
        "plain": dict(),
        "soa": dict(layout="soa"),
        "pointers": dict(pointers=True),
        "pointers-soa": dict(pointers=True, layout="soa"),
        "verify-cheap": dict(layout="soa", verify="cheap"),
        "storm": dict(resilient=True, plans=(
            FaultPlan(seed=3, launch_failure_rate=0.3, max_launch_failures=4),
            FaultPlan(seed=4, alloc_failure_rate=0.6, max_alloc_failures=3,
                      alloc_labels="gbsv-chunk"))),
        "pointers-storm": dict(pointers=True, resilient=True, plans=(
            FaultPlan(seed=5, alloc_failure_rate=0.6, max_alloc_failures=3,
                      alloc_labels="gbsv-chunk"),
            FaultPlan(seed=6, launch_failure_rate=0.3,
                      max_launch_failures=4))),
        "outage": dict(resilient=True, verify="cheap", plans=(
            FaultPlan(seed=7, launch_failure_rate=0.2, max_launch_failures=2),
            FaultPlan(seed=8, outage_after=1, outage_failures=4))),
        # Shard 0 never launches (it finishes on the host net), so
        # shard 1's first launch takes the layout conversion.
        "soa-shard0-on-host": dict(resilient=True, layout="soa", plans=(
            FaultPlan(seed=12, launch_failure_rate=1.0),)),
        # Device 0 falls over at its first launch: shard 1 takes the
        # conversion, then device 0's lanes fail over to a later round.
        "soa-outage-first": dict(resilient=True, layout="soa", plans=(
            FaultPlan(seed=13, outage_after=0, outage_failures=2),)),
        "devices-3": dict(ndev=3, resilient=True, layout="soa", plans=(
            FaultPlan(seed=9, launch_failure_rate=0.3, max_launch_failures=3),
            FaultPlan(seed=10, alloc_failure_rate=0.6, max_alloc_failures=2,
                      alloc_labels="gbsv-chunk"),
            FaultPlan(seed=11, outage_after=1, outage_failures=3))),
        # Lane 30 is device 1's: the child scores it, the parent's gate
        # escalates it.
        "verify-sdc-child": dict(layout="soa", verify="cheap", plans=(
            FaultPlan(seed=14),
            FaultPlan(seed=15, sdc_lanes=(30,), sdc_after="gbsv",
                      sdc_operand=1))),
        # Device 1 dies for good at its second launch: its unstarted
        # lanes fail over and are scored where they finally run.
        "verify-outage-soa": dict(resilient=True, verify="cheap",
                                  layout="soa", plans=(
            FaultPlan(seed=16),
            FaultPlan(seed=17, outage_after=1))),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_forked_equals_in_turn(self, case, monkeypatch, fork_spy):
        knobs = self.CASES[case]
        forked, res = self._call(monkeypatch, forked=True, **knobs)
        if MULTICORE:
            assert fork_spy, "a multi-shard round did not fork"
        forks = len(fork_spy)
        in_turn, _ = self._call(monkeypatch, forked=False, **knobs)
        assert len(fork_spy) == forks
        for key in forked:
            assert forked[key] == in_turn[key], key
        if case in ("outage", "devices-3", "verify-outage-soa"):
            kinds = {e["event"] for e in res.device_events}
            assert {"failover", "probe"} <= kinds
        if knobs.get("verify"):
            report = forked["report"]
            assert report["verified_lanes"] == self.batch
            if case == "verify-sdc-child":
                assert report["sdc_detected"] == [30]
                assert report["sdc_recovered"] == [30]
            # Scores taken per shard, in the child or the parent, are
            # the scores of the whole batch on one device.
            one_plans = (knobs["plans"][1:] if case == "verify-sdc-child"
                         else ())
            one, _ = self._call(monkeypatch, forked=False, ndev=1,
                                **dict(knobs, plans=one_plans))
            for key in ("residual_max", "growth_max"):
                assert report[key] == one["report"][key], key
            assert forked["outputs"] == one["outputs"]
        if knobs.get("plans"):
            assert any(forked["faults"])
        if case.endswith("storm"):      # the OOM ladder ran
            actions = {e["action"] for e in forked["report"]["chunk_events"]}
            assert actions & {"drain", "halve", "host"}
        if knobs.get("layout") == "soa":
            # The conversion lands once, on the call's first launch: the
            # first launch of the first shard that launched.
            launches = [[r for r in shard.streams[1].records
                         if hasattr(r, "soa_bytes")]
                        for shard in res.shards]
            first = next(i for i, recs in enumerate(launches) if recs)
            assert first == (1 if case.startswith("soa-") else 0)
            soa = [(i, j) for i, recs in enumerate(launches)
                   for j, rec in enumerate(recs) if rec.soa_bytes]
            assert soa == [(first, 0)]

    @pytest.mark.parametrize("driver", ["gbtrf", "gbtrs"])
    def test_verify_full_forked_equals_in_turn(self, driver, monkeypatch,
                                               fork_spy):
        """``verify='full'`` factor probes, digests and condition
        estimates: the forked run equals the in-turn one, and its scores
        equal a one-device call's."""
        knobs = dict(driver=driver, verify="full", layout="soa")
        forked, _ = self._call(monkeypatch, forked=True, **knobs)
        assert fork_spy or not MULTICORE
        in_turn, _ = self._call(monkeypatch, forked=False, **knobs)
        assert forked == in_turn
        one, _ = self._call(monkeypatch, forked=False, ndev=1, **knobs)
        for key in ("residual_max", "growth_max", "rcond_min",
                    "verified_lanes"):
            assert forked["report"][key] == one["report"][key], key
        assert forked["outputs"] == one["outputs"]

    def test_every_device_dead_at_entry(self, monkeypatch, fork_spy):
        """No round runs: the host net prepares every lane (pristine
        snapshot, working copies) before it touches them, and the call
        finishes and verifies as a healthy one does."""
        def run(forked, dead):
            devs = replicate_device(H100_PCIE, 2)
            breaker = CircuitBreaker(max_probes=1)
            for d in devs[:2 if dead else 0]:
                breaker.record_failure(d.name, fatal=True)
                breaker.poll(d.name)
                breaker.record_failure(d.name)
                assert breaker.state(d.name) == CircuitBreaker.DEAD
            a, b, _ = self._operands(False)
            with monkeypatch.context() as m:
                if not forked:
                    m.delattr(os, "fork")
                piv, info, report = gbsv_batch(
                    self.n, self.kl, self.ku, 1, a, None, b, chunk_hint=4,
                    devices=devs, layout="soa", verify="cheap",
                    resilient=True,
                    policy=ResiliencePolicy(breaker=breaker))
            _no_children_no_leases()
            return (a.tobytes(), b.tobytes(), np.asarray(piv).tobytes(),
                    info.tobytes()), report.to_dict()

        forks = len(fork_spy)
        out, report = run(True, dead=True)
        assert len(fork_spy) == forks
        assert last_pipeline_result().rounds == 0
        assert any(e.get("reason") == "no-healthy-devices"
                   for e in report["chunk_events"])
        assert report["verified_lanes"] == self.batch
        assert run(False, dead=True) == (out, report)
        healthy, ref = run(True, dead=False)
        assert out == healthy
        for key in ("residual_max", "growth_max", "sdc_detected"):
            assert report[key] == ref[key], key

    ERRORS = {
        # Every lane fails an impossible tolerance, lane 30 (the child's)
        # after a silent flip too: the parent's gate raises.
        "verify-raise": (DataCorruptionError, dict(verify=VerifyPolicy(
            residual_tol=1e-300, refine=False, on_fail="raise")), (
            FaultPlan(seed=14),
            FaultPlan(seed=15, sdc_lanes=(30,), sdc_after="gbsv",
                      sdc_operand=1))),
        "parent-raises": (DeviceError, dict(verify="cheap"), (
            FaultPlan(seed=4, launch_failure_rate=1.0),)),
        "child-raises": (DeviceError, dict(verify="cheap"), (
            FaultPlan(seed=4), FaultPlan(seed=4, launch_failure_rate=1.0))),
    }

    @pytest.mark.parametrize("case", list(ERRORS))
    def test_error_leaves_no_child_or_lease(self, case, fork_spy):
        """A forked call that raises after its shards were prepared
        leaves no child process and no arena lease behind."""
        exc, knobs, plans = self.ERRORS[case]
        reset_memory_pools()
        reset_device_health()
        devs = replicate_device(H100_PCIE, 2)
        for d, plan in zip(devs, plans):
            arm_faults(d, plan)
        a, b, _ = self._operands(False)
        try:
            with pytest.raises(exc):
                gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                           chunk_hint=4, devices=devs, layout="soa",
                           **knobs)
        finally:
            disarm_faults()
        assert fork_spy or not MULTICORE
        _no_children_no_leases()

    def test_child_error_matches_in_turn(self, monkeypatch, fork_spy):
        """A raising child shard raises what the in-turn run raises and
        leaves its device in the same state."""
        def run(forked):
            reset_memory_pools()
            reset_device_health()
            devs = replicate_device(H100_PCIE, 2)
            inj = arm_faults(devs[1], FaultPlan(seed=4,
                                                launch_failure_rate=1.0))
            a, b, _ = self._operands(False)
            try:
                with monkeypatch.context() as m:
                    if not forked:
                        m.delattr(os, "fork")
                    with pytest.raises(DeviceError) as err:
                        gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b,
                                   chunk_hint=4, devices=devs)
            finally:
                disarm_faults()
            _no_children_no_leases()
            return (type(err.value), str(err.value), _pool_state(devs[1]),
                    device_health(devs[1]).snapshot(), inj.log)

        forked = run(True)
        assert fork_spy or not MULTICORE
        assert forked == run(False)

    @pytest.mark.parametrize("layout", [None, "soa"])
    def test_parent_error_merges_nothing(self, layout, monkeypatch,
                                         fork_spy):
        """The parent's shard raising kills the child: nothing of the
        child's device comes back, and every lane but the child's (left
        as far as it got) equals the in-turn run."""
        def run(forked):
            reset_memory_pools()
            reset_device_health()
            devs = replicate_device(H100_PCIE, 2)
            a, b, _ = self._operands(False)
            try:
                with monkeypatch.context() as m:
                    if not forked:
                        m.delattr(os, "fork")
                    with fault_injection(devs[0], FaultPlan(
                            seed=4, launch_failure_rate=1.0)):
                        with pytest.raises(DeviceError) as err:
                            gbsv_batch(self.n, self.kl, self.ku, 1, a,
                                       None, b, chunk_hint=4, devices=devs,
                                       layout=layout)
            finally:
                disarm_faults()
            _no_children_no_leases()
            own = slice(0, split_batch(self.batch, devs)[0].stop)
            return (type(err.value), str(err.value),
                    a[own].tobytes(), b[own].tobytes(),
                    [_pool_state(d) for d in devs],
                    [device_health(d).snapshot() for d in devs])

        forked = run(True)
        assert fork_spy or not MULTICORE
        in_turn = run(False)
        assert forked == in_turn
        assert in_turn[4][1][1] == 0      # device 1 never ran: peak 0


class TestForkGuards:
    """Rounds that must run in turn."""

    n, kl, ku, batch = 24, 3, 2, 16

    def _call(self, batch=None, **knobs):
        batch = self.batch if batch is None else batch
        a = random_band_batch(batch, self.n, self.kl, self.ku, seed=1)
        b = random_rhs(self.n, 1, batch=batch, seed=2)
        gbsv_batch(self.n, self.kl, self.ku, 1, a, None, b, chunk_hint=4,
                   **knobs)
        _no_children_no_leases()

    def test_no_fork_while_a_thread_is_alive(self, fork_spy):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            self._call(devices=2)
        finally:
            release.set()
            waiter.join()
        assert fork_spy == []

    def test_no_fork_when_devices_share_an_injector(self, fork_spy):
        devs = replicate_device(H100_PCIE, 2)
        inj = FaultInjector(FaultPlan(seed=1))
        for d in devs:
            arm_faults(d, inj)
        try:
            self._call(devices=devs)
        finally:
            disarm_faults()
        assert fork_spy == []

    def test_no_fork_in_a_single_assignment_round(self, fork_spy):
        self._call(batch=1, devices=2)
        assert len(last_pipeline_result().shards) == 1
        self._call(devices=1)
        assert fork_spy == []


class TestStaging:
    """The per-lane-range record of a call (``core/stack.Staging``)."""

    def test_lane_runs(self):
        mask = np.array([0, 1, 1, 0, 1, 1, 1, 0], dtype=bool)
        assert lane_runs(mask, [(0, 8)]) == [(1, 3), (4, 7)]
        assert lane_runs(mask, [(2, 5), (6, 8)]) == [(2, 3), (4, 5), (6, 7)]
        assert lane_runs(mask, [(0, 1)]) == []

    def test_lanes_are_prepared_once_and_finish_writes_back_the_rest(self):
        staging = Staging(6, Leases(HostArena()))
        calls = []
        staging.add(lambda lo, hi: calls.append(("fill", lo, hi)),
                    lambda lo, hi: calls.append(("back", lo, hi)))
        staging.prepare([(0, 2), (4, 6)])
        staging.prepare([(0, 6)])
        assert calls == [("fill", 0, 2), ("fill", 4, 6), ("fill", 2, 4)]
        calls.clear()
        staging.score(None, [(0, 2), (4, 6)])
        staging.unscore(4, 5)
        staging.finish(None)
        assert calls == [("back", 2, 5)]
        assert staging.scored.all() and staging.shared
        staging.leases.release()

    def test_weight_probes_read_no_lane_values(self):
        """The shard weights probe lane 0's shape and dtype only, so an
        unfilled working copy gives the weights the filled one does."""
        n, kl, ku, batch = 40, 3, 2, 6
        a = random_band_batch(batch, n, kl, ku, seed=3)
        b = random_rhs(n, 1, batch=batch, seed=4)

        def ops(mats, rhs):
            return Operands(n, n, kl, ku, mats,
                            np.zeros((batch, n), dtype=np.int64),
                            np.zeros(batch, dtype=np.int64), nrhs=1,
                            rhs=rhs)

        filled = ops(a, b)
        unfilled = ops(np.full_like(a, np.nan), np.full_like(b, np.nan))
        for spec in (GBSV, GBTRF, GBTRS):
            for method in spec.designs:
                cfg = ExecConfig(method=method)
                for dev in (H100_PCIE, MI250X_GCD):
                    assert (spec.probe_stages(dev, cfg, filled)
                            == spec.probe_stages(dev, cfg, unfilled))
