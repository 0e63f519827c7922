"""Device-memory governance: pools, planning, chunking, OOM degradation.

Pins the memory-governance contract end to end:

* the planner's footprint estimates and admission decisions;
* chunked execution bit-identical to unchunked across every execution
  path (per-block, ``[vec]``, lane-step stacks), with chunk boundaries
  swept around the batch size;
* the OOM degradation ladder (halve -> per-lane -> host) under injected
  allocation storms, with every recovery attributed in the report;
* fault-plan determinism under chunking (global lane addressing);
* the transfer/traffic accounting fixes (uploads and downloads always
  route through a :class:`~repro.gpusim.memory.TrafficCounter`);
* :class:`~repro.core.resilience.BatchReport` structured-logging
  round-trips.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

import numpy as np
import pytest

from repro.band.generate import random_band_batch, random_rhs
from repro.core import (
    estimate_footprint,
    estimate_vbatch_footprint,
    gbsv_batch,
    gbsv_vbatch,
    gbtrf_batch,
    gbtrs_batch,
    plan_batch,
)
from repro.core.resilience import BatchReport
from repro.errors import ArgumentError, DeviceMemoryError
from repro.gpusim import (
    H100_PCIE,
    DeviceBuffer,
    FaultPlan,
    PointerArray,
    Stream,
    fault_injection,
    memory_pool,
    reset_memory_pools,
)
from repro.gpusim.memory import TrafficCounter
from repro.gpusim.transfer import memcpy_d2h, memcpy_h2d


def lane_cost(n, kl, ku, nrhs=0):
    """Exact per-lane bytes the governed drivers charge (float64)."""
    return estimate_footprint("gbtrs" if nrhs else "gbtrf", batch=1, n=n,
                              kl=kl, ku=ku, nrhs=nrhs)


# --- planner ---------------------------------------------------------------

class TestPlanner:
    def test_estimate_footprint_scales_linearly(self):
        one = estimate_footprint("gbtrf", batch=1, n=32, kl=2, ku=3)
        many = estimate_footprint("gbtrf", batch=50, n=32, kl=2, ku=3)
        assert many == 50 * one
        # matrix (2*kl+ku+1 rows) + pivots + info + two pointers
        assert one == 8 * 32 * 8 + 32 * 8 + 8 + 16

    def test_estimate_footprint_counts_rhs(self):
        trf = estimate_footprint("gbtrf", batch=4, n=24, kl=1, ku=1)
        trs = estimate_footprint("gbtrs", batch=4, n=24, kl=1, ku=1, nrhs=3)
        assert trs == trf + 4 * (24 * 3 * 8 + 8)
        assert estimate_footprint("gbsv", batch=4, n=24, kl=1, ku=1,
                                  nrhs=3) == trs

    def test_estimate_footprint_rejects_unknown_op(self):
        with pytest.raises(ArgumentError):
            estimate_footprint("getrf", batch=1, n=4, kl=1, ku=1)

    def test_estimate_vbatch_is_sum_of_lanes(self):
        ns, kls, kus, nrhss = [8, 16, 8], [1, 2, 1], [1, 3, 1], [1, 2, 1]
        total = estimate_vbatch_footprint("gbsv", ns, kls, kus, nrhss=nrhss)
        assert total == sum(
            estimate_footprint("gbsv", batch=1, n=n, kl=kl, ku=ku, nrhs=r)
            for n, kl, ku, r in zip(ns, kls, kus, nrhss))

    def test_plan_admits_when_batch_fits(self):
        plan = plan_batch(10, 1000, device=H100_PCIE)
        assert plan.admitted and plan.chunk == 10 and not plan.chunked
        assert plan.num_chunks == 1
        assert plan.footprint == 10_000

    def test_plan_chunks_against_max_resident(self):
        plan = plan_batch(10, 1000, device=H100_PCIE,
                          max_resident_bytes=3500)
        assert not plan.admitted
        assert plan.chunk == 3 and plan.num_chunks == 4
        assert plan.budget == 3500

    def test_chunk_hint_only_shrinks(self):
        plan = plan_batch(10, 1000, device=H100_PCIE, chunk_hint=4)
        assert plan.admitted and plan.chunk == 4 and plan.chunked
        capped = plan_batch(10, 1000, device=H100_PCIE,
                            max_resident_bytes=2000, chunk_hint=100)
        assert capped.chunk == 2  # the hint cannot grow past the budget

    def test_plan_validates_knobs(self):
        with pytest.raises(ArgumentError):
            plan_batch(4, 100, device=H100_PCIE, max_resident_bytes=0)
        with pytest.raises(ArgumentError):
            plan_batch(4, 100, device=H100_PCIE, chunk_hint=-1)


# --- chunked execution is bit-identical ------------------------------------

def factor_ref(batch, n, kl, ku, seed):
    a = random_band_batch(batch, n, kl, ku, seed=seed)
    ref = a.copy()
    piv, info = gbtrf_batch(n, n, kl, ku, ref, batch=batch)
    return a, ref, piv, info


class TestChunkedBitIdentity:
    N, KL, KU, BATCH = 24, 2, 3, 10

    @pytest.mark.parametrize("hint", [1, 2, 3, 9, 10, 11, 64])
    def test_gbtrf_boundary_sweep(self, hint):
        a, ref, piv0, info0 = factor_ref(self.BATCH, self.N, self.KL,
                                         self.KU, seed=3)
        work = a.copy()
        piv, info = gbtrf_batch(self.N, self.N, self.KL, self.KU, work,
                                batch=self.BATCH, chunk_hint=hint)
        assert work.tobytes() == ref.tobytes()
        assert np.array_equal(info, info0)
        assert all(np.array_equal(p, q) for p, q in zip(piv, piv0))

    @pytest.mark.parametrize("hint", [1, 3, 7, 10])
    def test_gbtrs_boundary_sweep(self, hint):
        _, fact, piv, _ = factor_ref(self.BATCH, self.N, self.KL, self.KU,
                                     seed=4)
        b = random_rhs(self.N, 2, batch=self.BATCH, seed=5)
        b0 = b.copy()
        gbtrs_batch("N", self.N, self.KL, self.KU, 2, fact, piv, b0,
                    batch=self.BATCH)
        b1 = b.copy()
        gbtrs_batch("N", self.N, self.KL, self.KU, 2, fact, piv, b1,
                    batch=self.BATCH, chunk_hint=hint)
        assert b1.tobytes() == b0.tobytes()

    @pytest.mark.parametrize("hint", [1, 4, 9, 10])
    def test_gbsv_boundary_sweep_with_singular_lane(self, hint):
        a = random_band_batch(self.BATCH, self.N, self.KL, self.KU, seed=6)
        a[7, :, :] = 0.0  # singular lane: B must stay untouched
        b = random_rhs(self.N, 1, batch=self.BATCH, seed=7)
        a0, b0 = a.copy(), b.copy()
        piv0, info0 = gbsv_batch(self.N, self.KL, self.KU, 1, a0, None, b0,
                                 batch=self.BATCH)
        a1, b1 = a.copy(), b.copy()
        piv1, info1 = gbsv_batch(self.N, self.KL, self.KU, 1, a1, None, b1,
                                 batch=self.BATCH, chunk_hint=hint)
        assert a1.tobytes() == a0.tobytes()
        assert b1.tobytes() == b0.tobytes()
        assert np.array_equal(info1, info0) and int(info0[7]) > 0
        assert all(np.array_equal(p, q) for p, q in zip(piv1, piv0))

    @pytest.mark.parametrize("vec", [False, True])
    def test_vec_path_chunked(self, vec, per_block):
        """Uniform stack: chunk slices stay uniform, so [vec] survives;
        per-block chunks give the same bits."""
        a, ref, piv0, info0 = factor_ref(8, 32, 1, 2, seed=8)
        stream = Stream(H100_PCIE)
        work = a.copy()
        with nullcontext() if vec else per_block():
            piv, info = gbtrf_batch(32, 32, 1, 2, work, batch=8,
                                    stream=stream, chunk_hint=3)
        assert work.tobytes() == ref.tobytes()
        assert np.array_equal(info, info0)
        kernel_names = [r.display_name for r in stream.records
                        if not r.kernel_name.startswith("chunk_")]
        assert all(("[vec" in nm) == vec for nm in kernel_names)

    def test_vec_pack_path_chunked(self):
        """Lane-step stack: each chunk runs ``[vec]`` in place, like the
        whole batch.  A scattered pointer array is gathered once at
        entry, so its chunks launch ``[vec]`` too; both give the
        unchunked bits with no pack traffic."""
        stack = random_band_batch(6, 28, 2, 2, seed=9)
        ref = stack.copy()
        piv0, info0 = gbtrf_batch(28, 28, 2, 2, ref, batch=6)
        buf = np.zeros((12,) + stack.shape[1:])
        buf[::2] = stack
        scattered = [stack[k].copy() for k in range(6)]
        for operand in (buf[::2], scattered):
            stream = Stream(H100_PCIE)
            piv, info = gbtrf_batch(28, 28, 2, 2, operand, batch=6,
                                    stream=stream, chunk_hint=4)
            assert all(m.tobytes() == r.tobytes()
                       for m, r in zip(operand, ref))
            assert np.array_equal(info, info0)
            assert np.array_equal(np.stack(piv), piv0)
            launched = [r for r in stream.records
                        if not r.kernel_name.startswith("chunk_")]
            assert len(launched) == 2 and all(
                r.display_name.endswith("[vec]") and r.pack_bytes == 0
                for r in launched)

    def test_resilient_chunked_matches_plain(self):
        a, ref, piv0, info0 = factor_ref(9, 20, 2, 1, seed=10)
        work = a.copy()
        piv, info, rep = gbtrf_batch(20, 20, 2, 1, work, batch=9,
                                     chunk_hint=4, resilient=True)
        assert work.tobytes() == ref.tobytes()
        assert rep.ok and rep.chunks == (4, 4, 1)
        assert rep.chunk_events[0]["action"] == "split"
        assert rep.footprint_bytes == 9 * lane_cost(20, 2, 1)

    def test_vbatch_chunked_bit_identical(self):
        ns, kls, kus = [16] * 5 + [24] * 4, [1] * 5 + [2] * 4, [2] * 9
        nrhss = [1] * 9
        mats = [random_band_batch(1, n, kl, ku, seed=20 + i)[0]
                for i, (n, kl, ku) in enumerate(zip(ns, kls, kus))]
        rhs = [random_rhs(n, 1, seed=40 + i) for i, n in enumerate(ns)]
        m0 = [m.copy() for m in mats]
        r0 = [b.copy() for b in rhs]
        piv0, info0 = gbsv_vbatch(ns, kls, kus, nrhss, m0, r0)
        m1 = [m.copy() for m in mats]
        r1 = [b.copy() for b in rhs]
        piv1, info1, rep = gbsv_vbatch(ns, kls, kus, nrhss, m1, r1,
                                       chunk_hint=2, resilient=True)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(m1, m0))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(r1, r0))
        assert np.array_equal(info1, info0)
        assert rep.ok and len(rep.chunks) == 5  # ceil(5/2) + ceil(4/2)


# --- residency, admission, streaming ---------------------------------------

class TestResidency:
    def test_pool_released_and_peak_bounded(self):
        reset_memory_pools()
        a = random_band_batch(12, 16, 1, 1, seed=11)
        cap = 3 * lane_cost(16, 1, 1)
        gbtrf_batch(16, 16, 1, 1, a, batch=12, max_resident_bytes=cap)
        pool = memory_pool(H100_PCIE)
        assert pool.in_use == 0
        assert 0 < pool.peak <= cap

    def test_admission_control_raises_before_touching_operands(self):
        a = random_band_batch(4, 16, 1, 1, seed=12)
        orig = a.copy()
        with pytest.raises(DeviceMemoryError) as exc:
            gbtrf_batch(16, 16, 1, 1, a, batch=4, max_resident_bytes=8)
        assert a.tobytes() == orig.tobytes()
        assert exc.value.capacity == 8 and not exc.value.injected

    def test_resilient_sub_lane_budget_finishes_on_host(self):
        a = random_band_batch(5, 16, 1, 1, seed=13)
        b = random_rhs(16, 1, batch=5, seed=14)
        a0, b0 = a.copy(), b.copy()
        piv0, info0 = gbsv_batch(16, 1, 1, 1, a0, None, b0, batch=5)
        piv, info, rep = gbsv_batch(16, 1, 1, 1, a, None, b, batch=5,
                                    max_resident_bytes=8, resilient=True)
        assert a.tobytes() == a0.tobytes() and b.tobytes() == b0.tobytes()
        assert rep.methods == {"gbtrf": "host", "gbtrs": "host"}
        assert rep.oom_failures == 1
        assert rep.chunk_events[-1]["action"] == "host"
        assert rep.chunks == ()  # nothing executed on the device

    def test_chunked_run_records_staging_transfers(self):
        a = random_band_batch(6, 16, 1, 1, seed=15)
        stream = Stream(H100_PCIE)
        reset_memory_pools()
        gbtrf_batch(16, 16, 1, 1, a, batch=6, stream=stream, chunk_hint=2)
        names = [r.kernel_name for r in stream.records]
        assert names.count("chunk_h2d") == 3
        assert names.count("chunk_d2h") == 3
        staged = 6 * lane_cost(16, 1, 1)
        pool = memory_pool(H100_PCIE)
        assert pool.traffic.bytes_written == staged
        assert pool.traffic.bytes_read == staged

    def test_unchunked_run_records_no_staging(self):
        a = random_band_batch(6, 16, 1, 1, seed=16)
        stream = Stream(H100_PCIE)
        gbtrf_batch(16, 16, 1, 1, a, batch=6, stream=stream)
        assert not any(r.kernel_name.startswith("chunk_")
                       for r in stream.records)

    def test_env_capacity_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_GLOBAL_MEM_BYTES", "4096")
        reset_memory_pools()
        assert memory_pool(H100_PCIE).capacity == 4096
        a = random_band_batch(64, 16, 1, 1, seed=17)
        ref = a.copy()
        piv0, info0 = gbtrf_batch(16, 16, 1, 1, ref, batch=64,
                                  max_resident_bytes=None)
        # 64 lanes need ~100KB; the 4KB pool forces chunking transparently
        assert ref.tobytes() != a.tobytes()
        work = a.copy()
        monkeypatch.delenv("REPRO_GLOBAL_MEM_BYTES")
        reset_memory_pools()
        piv1, info1 = gbtrf_batch(16, 16, 1, 1, work, batch=64)
        assert work.tobytes() == ref.tobytes()
        assert np.array_equal(info1, info0)


# --- OOM storms ------------------------------------------------------------

class TestOOMStorm:
    def test_alloc_failure_at_every_chunk_boundary(self):
        """The acceptance sweep: a storm that rejects every first lease.

        Each chunk boundary sees one injected allocation failure; the
        ladder halves down to per-lane execution and the batch still
        completes bit-identically, every fault accounted.
        """
        batch, n, kl, ku = 12, 18, 2, 2
        a = random_band_batch(batch, n, kl, ku, seed=30)
        b = random_rhs(n, 1, batch=batch, seed=31)
        a0, b0 = a.copy(), b.copy()
        piv0, info0 = gbsv_batch(n, kl, ku, 1, a0, None, b0, batch=batch)

        plan = FaultPlan(seed=5, alloc_failure_rate=1.0,
                         max_alloc_failures=4, alloc_labels="gbsv-chunk")
        with fault_injection(H100_PCIE, plan) as inj:
            piv, info, rep = gbsv_batch(n, kl, ku, 1, a, None, b,
                                        batch=batch, chunk_hint=8,
                                        resilient=True)
        assert a.tobytes() == a0.tobytes() and b.tobytes() == b0.tobytes()
        assert np.array_equal(info, info0)
        assert rep.ok
        assert rep.oom_failures == inj.counts()["alloc-failure"] == 4
        halves = [e for e in rep.chunk_events if e["action"] == "halve"]
        assert [h["from"] for h in halves] == [8, 4, 2, 1][:len(halves)]
        assert all(h["injected"] for h in halves)
        assert sum(rep.chunks) + (
            rep.chunk_events[-1]["stop"] - rep.chunk_events[-1]["start"]
            if rep.chunk_events[-1]["action"] == "host" else 0) == batch
        assert rep.faults_tolerated == 4

    def test_alloc_storm_every_boundary_then_recovers(self):
        """Unlimited-rate storm with a budget: once spent, chunks resume."""
        batch = 9
        a = random_band_batch(batch, 16, 1, 1, seed=32)
        ref = a.copy()
        piv0, info0 = gbtrf_batch(16, 16, 1, 1, ref, batch=batch)
        plan = FaultPlan(seed=6, alloc_failure_rate=1.0,
                         max_alloc_failures=2, alloc_labels="gbtrf-chunk")
        with fault_injection(H100_PCIE, plan) as inj:
            piv, info, rep = gbtrf_batch(16, 16, 1, 1, a, batch=batch,
                                         chunk_hint=4, resilient=True)
        assert a.tobytes() == ref.tobytes()
        assert rep.oom_failures == 2 and rep.ok
        assert sum(rep.chunks) == batch  # everything ran on the device
        assert inj.exhausted

    def test_plain_path_propagates_injected_oom(self):
        a = random_band_batch(6, 16, 1, 1, seed=33)
        plan = FaultPlan(seed=7, alloc_failure_rate=1.0,
                         max_alloc_failures=1, alloc_labels="gbtrf-chunk")
        with fault_injection(H100_PCIE, plan):
            with pytest.raises(DeviceMemoryError) as exc:
                gbtrf_batch(16, 16, 1, 1, a, batch=6, chunk_hint=2)
        assert exc.value.injected

    def test_capacity_squeeze_halves_until_it_fits(self):
        reset_memory_pools()
        batch = 8
        a = random_band_batch(batch, 16, 1, 1, seed=34)
        ref = a.copy()
        gbtrf_batch(16, 16, 1, 1, ref, batch=batch)
        # Squeeze the 80 GB pool to ~1 lane for the first two leases.
        lane = lane_cost(16, 1, 1)
        frac = (1.5 * lane) / memory_pool(H100_PCIE).capacity
        plan = FaultPlan(seed=8, capacity_squeezes=2, squeeze_fraction=frac)
        with fault_injection(H100_PCIE, plan) as inj:
            piv, info, rep = gbtrf_batch(16, 16, 1, 1, a, batch=batch,
                                         chunk_hint=4, resilient=True)
        assert a.tobytes() == ref.tobytes()
        assert inj.counts()["capacity-squeeze"] == 2
        assert rep.oom_failures >= 1 and rep.ok


# --- fault-plan determinism under chunking ---------------------------------

class TestChunkDeterminism:
    @pytest.mark.parametrize("hint", [None, 1, 3, 5, 16])
    def test_same_seed_storms_same_global_lanes(self, hint):
        """corrupt_lanes address the original batch whatever the chunking."""
        batch, n, kl, ku = 10, 20, 2, 2
        a = random_band_batch(batch, n, kl, ku, seed=50)
        ref = a.copy()
        piv0, info0 = gbtrf_batch(n, n, kl, ku, ref, batch=batch)
        plan = FaultPlan(seed=9, corrupt_lanes=(2, 7),
                         corrupt_after="gbtrf")
        work = a.copy()
        with fault_injection(H100_PCIE, plan) as inj:
            piv, info, rep = gbtrf_batch(n, n, kl, ku, work, batch=batch,
                                         chunk_hint=hint, resilient=True)
        assert rep.corrupted == (2, 7)
        assert sorted(ev.lane for ev in inj.events("lane-corruption")) \
            == [2, 7]
        # Healthy lanes bit-identical to the fault-free run; poisoned
        # lanes recovered through quarantine to the same factors.
        assert work.tobytes() == ref.tobytes()
        assert np.array_equal(info, info0)

    def test_reports_identical_across_chunk_sizes(self):
        batch = 8
        a = random_band_batch(batch, 16, 1, 2, seed=51)
        plan = FaultPlan(seed=11, corrupt_lanes=(4,), corrupt_after="gbtrf")
        outcomes = []
        for hint in (None, 2, 3):
            work = a.copy()
            with fault_injection(H100_PCIE, FaultPlan(**{
                    **plan.__dict__, "corrupt_lanes": (4,)})):
                _, info, rep = gbtrf_batch(16, 16, 1, 2, work, batch=batch,
                                           chunk_hint=hint, resilient=True)
            outcomes.append((rep.corrupted, rep.quarantined,
                             work.tobytes(), info.tobytes()))
        assert outcomes[0] == outcomes[1] == outcomes[2]


# --- traffic accounting (satellite bugfix) ---------------------------------

class TestTrafficAccounting:
    def test_device_buffer_upload_download_charge_traffic(self):
        buf = DeviceBuffer((4, 4))
        host = np.ones((4, 4))
        buf.upload(host)
        assert buf.traffic.bytes_written == host.nbytes
        out = buf.download()
        assert buf.traffic.bytes_read == host.nbytes
        assert np.array_equal(out, host)

    def test_device_buffer_uses_supplied_counter(self):
        counter = TrafficCounter()
        buf = DeviceBuffer((8,), traffic=counter)
        buf.upload(np.arange(8.0))
        buf.download()
        assert counter.bytes_written == 64 and counter.bytes_read == 64

    def test_memcpy_charges_pool_once(self):
        reset_memory_pools()
        pool = memory_pool(H100_PCIE)
        buf = DeviceBuffer((16,), device=H100_PCIE)
        host = np.arange(16.0)
        memcpy_h2d(H100_PCIE, buf, host)
        assert pool.traffic.bytes_written == host.nbytes
        assert buf.traffic.bytes_written == host.nbytes
        memcpy_d2h(H100_PCIE, buf)
        assert pool.traffic.bytes_read == host.nbytes
        # A buffer already accounting to the pool's counter is not
        # double-charged by the transfer layer.
        shared = DeviceBuffer((16,), traffic=pool.traffic)
        memcpy_h2d(H100_PCIE, shared, host)
        assert pool.traffic.bytes_written == 2 * host.nbytes
        assert pool.in_use_by_label == {"DeviceBuffer": buf.nbytes}
        buf.free()
        assert pool.in_use == 0 and pool.in_use_by_label == {}

    def test_pointer_array_charges_pool_and_traffic(self):
        reset_memory_pools()
        pool = memory_pool(H100_PCIE)
        arrs = [np.zeros((3, 3)) for _ in range(4)]
        pa = PointerArray(arrs, device=H100_PCIE)
        expect = 4 * (72 + 8)
        assert pool.in_use == expect
        assert pool.traffic.bytes_written == expect
        pa.free()
        assert pool.in_use == 0 and pool.in_use_by_label == {}
        pa.free()  # idempotent
        assert pool.in_use == 0 and pool.in_use_by_label == {}


# --- structured report logging ---------------------------------------------

class TestReportSerialization:
    def test_round_trip_with_chunk_decisions(self):
        a = random_band_batch(7, 16, 1, 1, seed=60)
        b = random_rhs(16, 1, batch=7, seed=61)
        plan = FaultPlan(seed=12, alloc_failure_rate=1.0,
                         max_alloc_failures=1, alloc_labels="gbsv-chunk")
        with fault_injection(H100_PCIE, plan):
            _, _, rep = gbsv_batch(16, 1, 1, 1, a, None, b, batch=7,
                                   chunk_hint=4, resilient=True)
        d = rep.to_dict()
        # JSON-safe end to end.
        restored = BatchReport.from_dict(json.loads(json.dumps(d)))
        assert restored.to_dict() == d
        assert restored.chunks == rep.chunks
        assert restored.oom_failures == rep.oom_failures == 1
        assert restored.chunk_events == rep.chunk_events
        assert [e["action"] for e in d["chunk_events"]][:2] \
            == ["split", "halve"]
        assert d["ok"] is True
        assert np.array_equal(restored.info, rep.info)

    def test_round_trip_plain_report(self):
        rep = BatchReport("gbtrf", 4, methods={"gbtrf": "window"},
                          retries=2, fallbacks=[("gbtrf", "fused",
                                                 "window")],
                          quarantined=(1,), singular=(1,),
                          info=np.array([0, 1, 0, 0]))
        d = rep.to_dict()
        restored = BatchReport.from_dict(d)
        assert restored.to_dict() == d
        assert restored.fallbacks == [("gbtrf", "fused", "window")]

    def test_summary_mentions_chunking_only_when_it_happened(self):
        quiet = BatchReport("gbtrf", 4, chunks=(4,), budget_bytes=10 ** 9)
        assert "chunks" not in quiet.summary()
        noisy = BatchReport("gbtrf", 8, chunks=(4, 4), oom_failures=1,
                            footprint_bytes=800, budget_bytes=400)
        s = noisy.summary()
        assert "chunks=[4, 4]" in s and "oom_failures=1" in s
        assert "footprint=800B/budget=400B" in s
