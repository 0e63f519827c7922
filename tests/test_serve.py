"""Service layer: coalescing, factorization cache, backpressure, report.

The contracts under test (docs/SERVING.md):

* coalescing is *transparent* — a request's result is bit-identical to a
  direct ``gbtrf_batch`` + ``gbtrs_batch`` on the same operands, no
  matter how it was grouped, and a seeded arrival process dispatches
  deterministically;
* a cache hit solves against byte-identical factors, so hit == cold at
  ``atol=0``; explicit invalidation forces a re-factor;
* cached bytes are real device residency: the pool's ``factor-cache``
  ledger tracks them, a ``REPRO_GLOBAL_MEM_BYTES`` squeeze evicts them,
  and ``close()`` releases everything;
* backpressure flushes keep the pending footprint inside the admission
  budget; age flushes preserve submission order;
* ``ServiceReport`` round-trips through ``to_dict()/from_dict()``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ArgumentError,
    BatchingPolicy,
    DeviceMemoryError,
    FactorCache,
    ServiceReport,
    SingularMatrixError,
    SolverService,
    operand_digest,
)
from repro.band.generate import random_band, random_rhs
from repro.core import gbtrf_batch, gbtrs_batch
from repro.gpusim import H100_PCIE, Stream
from repro.gpusim.memory import memory_pool, reset_memory_pools
from repro.core.verify import operand_digest as lane_digest
from repro.serve.cache import CACHE_LABEL, factor_digest

N, KL, KU = 32, 2, 3


def _system(seed, n=N, kl=KL, ku=KU, nrhs=1):
    ab = random_band(n, kl, ku, seed=seed)
    b = random_rhs(n, nrhs, seed=seed + 1000)
    return ab, b


def _direct(ab, b, kl=KL, ku=KU):
    """Cold-path reference: the two-stage drivers on copies."""
    n = ab.shape[1]
    abf, bf = ab.copy(), b.copy()
    if bf.ndim == 1:
        bf = bf[:, None]
    piv, info = gbtrf_batch(n, n, kl, ku, [abf], batch=1)
    assert int(info[0]) == 0
    gbtrs_batch("N", n, kl, ku, bf.shape[1], [abf], piv, [bf], batch=1)
    return bf


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# --- correctness -----------------------------------------------------------


def test_solve_matches_direct_two_stage():
    ab, b = _system(0)
    with SolverService() as svc:
        x = svc.solve(KL, KU, ab, b[:, 0])
    assert x.tobytes() == _direct(ab, b[:, 0])[:, 0].tobytes()


def test_solve_multi_rhs_and_shape():
    ab, b = _system(1, nrhs=3)
    with SolverService() as svc:
        x = svc.solve(KL, KU, ab, b)
    assert x.shape == (N, 3)
    assert x.tobytes() == _direct(ab, b).tobytes()


def test_submitted_operands_are_snapshotted():
    ab, b = _system(2)
    ab_before, b_before = ab.copy(), b.copy()
    with SolverService() as svc:
        h = svc.submit(KL, KU, ab, b)
        ab += 1.0                       # caller mutates after submit
        b += 1.0
        x = h.result()
    assert x.tobytes() == _direct(ab_before, b_before).tobytes()
    np.testing.assert_array_equal(ab, ab_before + 1.0)


def test_coalesced_group_matches_per_request_solutions():
    systems = [_system(seed) for seed in range(8)]
    with SolverService(policy=BatchingPolicy(max_group=8)) as svc:
        handles = [svc.submit(KL, KU, ab, b) for ab, b in systems]
        assert all(h.done for h in handles)      # size flush fired
    for h, (ab, b) in zip(handles, systems):
        assert h.solution.tobytes() == _direct(ab, b).tobytes()


def test_solve_accuracy_against_scipy():
    scipy = pytest.importorskip("scipy.linalg")
    ab, b = _system(3)
    from repro.band.convert import band_to_dense
    dense = band_to_dense(ab, N, KL, KU)
    with SolverService() as svc:
        x = svc.solve(KL, KU, ab, b)
    np.testing.assert_allclose(dense @ x, b, atol=1e-10)


def test_argument_validation():
    ab, b = _system(4)
    with SolverService() as svc:
        with pytest.raises(ArgumentError):
            svc.submit(-1, KU, ab, b)
        with pytest.raises(ArgumentError):
            svc.submit(KL, KU, ab[:KL + KU, :], b)      # band layout only
        with pytest.raises(ArgumentError):
            svc.submit(KL, KU, ab, b[:-1])
        with pytest.raises(ArgumentError):
            svc.submit(KL, KU, ab, b.astype(np.float32))


def test_singular_operator_reports_info_and_leaves_rhs():
    ab, b = _system(5)
    ab[KL + KU, :] = 0.0                # exactly zero diagonal
    ab[:KL + KU, :] = 0.0
    ab[KL + KU + 1:, :] = 0.0
    with SolverService() as svc:
        h = svc.submit(KL, KU, ab, b)
        with pytest.raises(SingularMatrixError):
            h.result()
        assert h.info > 0
        assert h.solution.tobytes() == b.tobytes()      # B untouched
        rep = svc.report()
    assert rep.singular == 1 and rep.solved == 0
    assert rep.cache_entries == 0       # singular factors are not cached


# --- coalescing determinism ------------------------------------------------


def _seeded_traffic(svc, *, requests=24, operators=5, seed=7):
    """A seeded arrival mix of repeated operators and fresh right-hand
    sides; returns the solution bytes in submission order."""
    rng = np.random.default_rng(seed)
    ops = [random_band(N, KL, KU, seed=100 + k) for k in range(operators)]
    handles = []
    for i in range(requests):
        ab = ops[int(rng.integers(operators))]
        b = random_rhs(N, 1, seed=int(rng.integers(1 << 30)))
        handles.append(svc.submit(KL, KU, ab, b))
    svc.flush()
    return [h.solution.tobytes() for h in handles]


def test_coalescing_is_deterministic_under_seeded_arrivals():
    runs = []
    for _ in range(2):
        reset_memory_pools()
        with SolverService(policy=BatchingPolicy(max_group=6)) as svc:
            runs.append((_seeded_traffic(svc), svc.report().to_dict()))
    (sols_a, rep_a), (sols_b, rep_b) = runs
    assert sols_a == sols_b
    assert rep_a == rep_b               # same flushes, groups, cache stats


def test_group_size_never_changes_results():
    systems = [_system(seed) for seed in range(10)]
    baseline = [_direct(ab, b).tobytes() for ab, b in systems]
    for max_group in (1, 3, 10):
        reset_memory_pools()
        with SolverService(
                policy=BatchingPolicy(max_group=max_group)) as svc:
            handles = [svc.submit(KL, KU, ab, b) for ab, b in systems]
            svc.flush()
            got = [h.solution.tobytes() for h in handles]
        assert got == baseline, f"max_group={max_group} changed results"


# --- factorization cache ---------------------------------------------------


def test_cache_hit_is_bit_identical_to_cold_path():
    ab, _ = _system(11)
    with SolverService() as svc:
        xs = [svc.solve(KL, KU, ab, random_rhs(N, 1, seed=s))
              for s in range(4)]
        rep = svc.report()
    assert rep.cache_misses == 1 and rep.cache_hits == 3
    assert rep.factorizations == 1      # gbtrf ran exactly once
    for s, x in enumerate(xs):
        cold = _direct(ab, random_rhs(N, 1, seed=s))
        assert x.tobytes() == cold.tobytes()


def test_duplicate_operators_in_one_flush_factor_once():
    ab, _ = _system(12)
    rhs = [random_rhs(N, 1, seed=s) for s in range(5)]
    with SolverService(policy=BatchingPolicy(max_group=64)) as svc:
        handles = [svc.submit(KL, KU, ab, b) for b in rhs]
        svc.flush()
        rep = svc.report()
    assert rep.factorizations == 1
    assert rep.cache_misses == 5        # all looked up before the factor
    for h, b in zip(handles, rhs):
        assert h.solution.tobytes() == _direct(ab, b).tobytes()


def test_shared_factors_solve_vectorized():
    """Four requests share one operator, so the solve's factor pointer
    array aliases one array: the call gathers it once (the factors are
    only read) and the solves still run batch-interleaved."""
    ab, _ = _system(13)
    rhs = [random_rhs(N, 1, seed=s) for s in range(4)]
    stream = Stream(H100_PCIE)
    with SolverService(stream=stream,
                       policy=BatchingPolicy(max_group=64)) as svc:
        handles = [svc.submit(KL, KU, ab, b) for b in rhs]
        svc.flush()
    solves = [r.display_name for r in stream.records
              if r.kernel_name.startswith("gbtrs")]
    assert solves and all(name.endswith("[vec]") for name in solves)
    for h, b in zip(handles, rhs):
        assert h.solution.tobytes() == _direct(ab, b).tobytes()


def test_digest_separates_bandwidths_dtypes_and_content():
    ab, _ = _system(14)
    base = operand_digest(KL, KU, ab)
    assert operand_digest(KL + 1, KU, ab) != base
    assert operand_digest(KL, KU, ab.astype(np.complex128)) != base
    bumped = ab.copy()
    bumped[KL + KU, 0] += 1e-12
    assert operand_digest(KL, KU, bumped) != base
    assert operand_digest(KL, KU, ab.copy()) == base    # content, not id
    # The cache's payload fingerprint is verify's per-lane digest.
    piv = np.arange(N, dtype=np.int64)
    assert factor_digest(ab, piv) == lane_digest(ab, piv)


def test_explicit_invalidation_forces_refactor():
    ab, b = _system(15)
    with SolverService() as svc:
        svc.solve(KL, KU, ab, b)
        assert svc.invalidate(KL, KU, ab) == 1
        assert svc.invalidate(KL, KU, ab) == 0          # already gone
        svc.solve(KL, KU, ab, b)
        rep = svc.report()
    assert rep.factorizations == 2
    assert rep.cache_invalidations == 1


def test_invalidate_all_clears_cache_and_pool_charge():
    with SolverService() as svc:
        for seed in range(3):
            ab, b = _system(20 + seed)
            svc.solve(KL, KU, ab, b)
        pool = memory_pool(H100_PCIE)
        assert pool.in_use_by_label[CACHE_LABEL] == svc.report().cache_bytes
        assert svc.invalidate() == 3
        assert CACHE_LABEL not in pool.in_use_by_label
        assert svc.report().cache_entries == 0


def test_lru_eviction_under_entry_cap():
    with SolverService(cache_entries=2) as svc:
        systems = [_system(30 + k) for k in range(3)]
        for ab, b in systems:
            svc.solve(KL, KU, ab, b)
        # 0 is LRU and evicted; 1 and 2 resident.
        svc.solve(KL, KU, systems[1][0], systems[1][1])
        svc.solve(KL, KU, systems[0][0], systems[0][1])
        rep = svc.report()
    assert rep.cache_evictions == 2     # first insert of 2, re-insert of 0
    assert rep.cache_hits == 1          # only the re-solve of 1
    assert rep.factorizations == 4


def test_cache_disabled_baseline():
    ab, b = _system(40)
    with SolverService(cache_entries=0) as svc:
        svc.solve(KL, KU, ab, b)
        svc.solve(KL, KU, ab, b)
        rep = svc.report()
    assert rep.cache_hits == 0
    assert rep.factorizations == 2
    assert rep.cache_entries == 0 and rep.cache_rejected == 2


def test_eviction_under_global_memory_squeeze(monkeypatch):
    """A tiny device pool evicts the cache instead of breaking solves."""
    monkeypatch.setenv("REPRO_GLOBAL_MEM_BYTES", str(64 * 1024))
    reset_memory_pools()
    n = 256                             # ~18 KiB per cached factorization
    with SolverService() as svc:
        handles, systems = [], [_system(50 + k, n=n) for k in range(8)]
        for ab, b in systems:
            handles.append(svc.submit(KL, KU, ab, b))
            svc.flush()
        rep = svc.report()
        pool = memory_pool(H100_PCIE)
        assert rep.cache_evictions > 0  # the squeeze displaced entries
        assert rep.cache_entries < 8
        assert pool.in_use_by_label.get(CACHE_LABEL, 0) == rep.cache_bytes
        assert rep.cache_bytes <= 64 * 1024
    for h, (ab, b) in zip(handles, systems):
        assert h.solution.tobytes() == _direct(ab, b).tobytes()
    assert memory_pool(H100_PCIE).in_use == 0           # close() released


def test_close_releases_every_pool_charge():
    svc = SolverService()
    for seed in range(4):
        ab, b = _system(60 + seed)
        svc.solve(KL, KU, ab, b)
    assert memory_pool(H100_PCIE).in_use > 0
    svc.close()
    assert memory_pool(H100_PCIE).in_use == 0
    with pytest.raises(ArgumentError):
        svc.submit(KL, KU, *_system(64))


# --- backpressure and deadlines --------------------------------------------


def test_backpressure_flushes_before_budget_overflow():
    ab, b = _system(70)
    lane = ab.nbytes + N * 8 + b.nbytes + 8 + 24
    with SolverService(cache_entries=0, max_resident_bytes=3 * lane,
                       policy=BatchingPolicy(max_group=1000,
                                             max_delay=1e9)) as svc:
        handles = [svc.submit(KL, KU, *_system(71 + k)) for k in range(7)]
        rep = svc.report()
        assert rep.backpressure_flushes >= 2
        assert rep.flushes.get("footprint", 0) == rep.backpressure_flushes
        assert svc.pending > 0          # tail still coalescing
        svc.flush()
    assert all(h.done for h in handles)


def test_oversized_single_request_rejected_eagerly():
    ab, b = _system(72)
    with SolverService(max_resident_bytes=ab.nbytes // 2,
                       cache_entries=0) as svc:
        with pytest.raises(DeviceMemoryError):
            svc.submit(KL, KU, ab, b)
        assert svc.report().requests == 0


def test_flush_on_age_fires_at_deadline_and_preserves_order():
    clock = FakeClock()
    with SolverService(policy=BatchingPolicy(max_group=1000,
                                             max_delay=0.010),
                       clock=clock) as svc:
        h1 = svc.submit(KL, KU, *_system(80))
        clock.advance(0.004)
        h2 = svc.submit(KL, KU, *_system(81))
        clock.advance(0.004)
        assert svc.poll() == 0          # oldest is 8 ms old: below deadline
        assert not h1.done
        clock.advance(0.004)
        assert svc.poll() == 2          # 12 ms: age flush takes both
        rep = svc.report()
        assert rep.flushes == {"age": 1}
        # Completion follows submission order, and latency is clocked.
        assert h1.completion_index < h2.completion_index
        assert h1.latency == pytest.approx(0.012)
        assert h2.latency == pytest.approx(0.008)


def test_age_flush_via_submit_of_next_request():
    clock = FakeClock()
    with SolverService(policy=BatchingPolicy(max_group=1000,
                                             max_delay=0.005),
                       clock=clock) as svc:
        h1 = svc.submit(KL, KU, *_system(82))
        clock.advance(0.006)
        h2 = svc.submit(KL, KU, *_system(83))   # trips the deadline check
        # The aged request fires the flush; the fresh one rides along
        # (coalescing never holds a dispatch back to wait for age).
        assert h1.done and h2.done
        assert svc.report().flushes == {"age": 1}


def test_background_poller_flushes_by_age():
    import time as _time
    with SolverService(policy=BatchingPolicy(max_group=1000,
                                             max_delay=0.01),
                       auto_poll_interval=0.005) as svc:
        h = svc.submit(KL, KU, *_system(84))
        deadline = _time.monotonic() + 5.0
        while not h.done and _time.monotonic() < deadline:
            _time.sleep(0.005)
        assert h.done
        assert svc.report().flushes.get("age", 0) >= 1


def test_close_flushes_pending():
    svc = SolverService(policy=BatchingPolicy(max_group=1000,
                                              max_delay=1e9))
    h = svc.submit(KL, KU, *_system(85))
    assert not h.done
    svc.close()
    assert h.done
    ab, b = _system(85)
    assert h.solution.tobytes() == _direct(ab, b).tobytes()


# --- resilient dispatch ----------------------------------------------------


def test_resilient_mode_attaches_batch_reports():
    ab, b = _system(90)
    with SolverService(resilient=True) as svc:
        x = svc.solve(KL, KU, ab, b)
        rep = svc.report()
    assert x.tobytes() == _direct(ab, b).tobytes()
    assert len(rep.batch_reports) == 2          # one gbtrf, one gbtrs
    ops = {r["operation"] for r in rep.batch_reports}
    assert ops == {"gbtrf", "gbtrs"}
    assert rep.faults_tolerated == 0
    assert rep.ok


def test_resilient_mode_survives_a_fault_storm():
    from repro.gpusim.faults import FaultPlan, fault_injection
    ab, b = _system(91)
    plan = FaultPlan(seed=5, launch_failure_rate=0.3)
    with fault_injection(H100_PCIE, plan):
        with SolverService(resilient=True) as svc:
            x = svc.solve(KL, KU, ab, b)
            rep = svc.report()
    assert x.tobytes() == _direct(ab, b).tobytes()
    assert rep.ok


# --- the report ------------------------------------------------------------


def test_report_round_trips_via_to_dict_from_dict():
    with SolverService(policy=BatchingPolicy(max_group=3),
                       resilient=True) as svc:
        _seeded_traffic(svc, requests=9, operators=2, seed=3)
        rep = svc.report()
    data = rep.to_dict()
    back = ServiceReport.from_dict(data)
    assert back.to_dict() == data
    assert back.hit_rate == rep.hit_rate
    assert back.mean_group_size == rep.mean_group_size
    import json
    json.dumps(data)                    # JSON-safe by construction


def test_report_snapshot_is_detached():
    with SolverService() as svc:
        before = svc.report()
        svc.solve(KL, KU, *_system(95))
        after = svc.report()
    assert before.requests == 0 and after.requests == 1
    before.requests = 123               # mutating a snapshot is harmless
    assert svc._report.requests == 1


def test_report_counts_flush_reasons_and_groups():
    with SolverService(policy=BatchingPolicy(max_group=2)) as svc:
        for seed in range(5):
            svc.submit(KL, KU, *_system(200 + seed))
        svc.flush()
        rep = svc.report()
    assert rep.flushes["size"] == 2 and rep.flushes["manual"] == 1
    assert rep.dispatched_lanes == 5
    assert sum(int(s) * c for s, c in rep.group_sizes.items()) == 5
    assert rep.mean_group_size > 1.0
    assert rep.summary().startswith("serve requests=5")


# --- deadline-aware load shedding ------------------------------------------


def _never_policy():
    """A batching policy that only flushes when told to."""
    return BatchingPolicy(max_group=1000, max_delay=1e9)


def _half_dead_policy():
    """A resilience policy whose breaker holds one of two shards open."""
    from repro import CircuitBreaker, ResiliencePolicy
    br = CircuitBreaker()
    br.record_failure("h100-pcie:0", kind="device-lost", fatal=True)
    return ResiliencePolicy(breaker=br)


def test_overload_sheds_lowest_priority_newest_first():
    clock = FakeClock()
    with SolverService(policy=_never_policy(), clock=clock, devices=2,
                       resilient=True,
                       resilience_policy=_half_dead_policy()) as svc:
        # 4 low-priority then 4 high-priority requests.
        lows = [svc.submit(KL, KU, *_system(200 + i)) for i in range(4)]
        highs = [svc.submit(KL, KU, *_system(210 + i), priority=1)
                 for i in range(4)]
        svc.flush()
        rep = svc.report()
    # Half the pool is open -> capacity 4 of 8: all priority-0 work shed.
    assert rep.shed == 4
    assert rep.shed_reasons == {"overload": 4}
    assert rep.shed_priorities == {0: 4}
    assert all(h.shed for h in lows)
    assert all(not h.shed and h.done for h in highs)
    assert rep.pending == 0 and rep.ok


def test_overload_sheds_newest_first_within_class():
    clock = FakeClock()
    with SolverService(policy=_never_policy(), clock=clock, devices=2,
                       resilient=True,
                       resilience_policy=_half_dead_policy()) as svc:
        handles = [svc.submit(KL, KU, *_system(220 + i)) for i in range(4)]
        svc.flush()
    # capacity = 2 of 4; within one priority class the newest go first.
    assert [h.shed for h in handles] == [False, False, True, True]


def test_shed_raises_structured_rejection():
    from repro import RequestShedError
    clock = FakeClock()
    with SolverService(policy=_never_policy(), clock=clock, devices=2,
                       resilient=True,
                       resilience_policy=_half_dead_policy()) as svc:
        doomed = [svc.submit(KL, KU, *_system(230 + i)) for i in range(2)]
        svc.submit(KL, KU, *_system(233), priority=5)
        svc.flush()
        with pytest.raises(RequestShedError) as exc:
            doomed[-1].result()
    assert exc.value.seq == doomed[-1].seq
    assert exc.value.priority == 0
    assert exc.value.reason == "overload"
    assert "overload" in str(exc.value)


def test_healthy_pool_never_sheds():
    clock = FakeClock()
    from repro import CircuitBreaker, ResiliencePolicy
    with SolverService(policy=_never_policy(), clock=clock, devices=2,
                       resilient=True,
                       resilience_policy=ResiliencePolicy(
                           breaker=CircuitBreaker())) as svc:
        handles = [svc.submit(KL, KU, *_system(240 + i)) for i in range(6)]
        svc.flush()
        rep = svc.report()
    assert rep.shed == 0
    assert all(h.done and not h.shed for h in handles)


def test_expired_deadline_sheds_instead_of_dispatching_late():
    from repro import RequestShedError
    clock = FakeClock()
    with SolverService(policy=_never_policy(), clock=clock) as svc:
        doomed = svc.submit(KL, KU, *_system(250), deadline=0.010)
        kept = svc.submit(KL, KU, *_system(251), deadline=10.0)
        clock.advance(0.020)                    # doomed is now past due
        svc.flush()
        rep = svc.report()
        assert kept.done and not kept.shed
        assert doomed.shed and doomed.shed_reason == "deadline"
        with pytest.raises(RequestShedError):
            doomed.result()
    assert rep.shed == 1
    assert rep.shed_reasons == {"deadline": 1}
    assert rep.deadlines_missed == 1


def test_late_completion_counts_deadline_missed():
    clock = FakeClock()
    with SolverService(policy=_never_policy(), clock=clock) as svc:
        h = svc.submit(KL, KU, *_system(252), deadline=0.5)
        clock.advance(1.0)          # past due already at flush time
        # Deadline passed while queued -> shed, missed counted once.
        svc.flush()
        rep = svc.report()
    assert h.shed
    assert rep.deadlines_missed == 1


def test_submit_validates_deadline_and_shed_handle_state():
    with SolverService() as svc:
        with pytest.raises(ArgumentError):
            svc.submit(KL, KU, *_system(260), deadline=0.0)
        with pytest.raises(ArgumentError):
            svc.submit(KL, KU, *_system(260), deadline=-1.0)
        h = svc.submit(KL, KU, *_system(261), priority=3, deadline=5.0)
        assert h.priority == 3
        assert h.deadline_at is not None
        assert not h.shed
        x = h.result()
        assert x is not None


# --- stuck poller ----------------------------------------------------------


def test_close_warns_when_poller_cannot_join():
    import threading
    svc = SolverService()
    gate = threading.Event()
    stuck = threading.Thread(target=gate.wait, daemon=True)
    stuck.start()
    svc._poller = stuck
    svc._poller_join_timeout = 0.05
    try:
        with pytest.warns(RuntimeWarning, match="poller failed to join"):
            svc.close()
        rep = svc.report()
        assert rep.poller_stuck
        assert "poller_stuck" in rep.summary()
        assert ServiceReport.from_dict(rep.to_dict()).poller_stuck
    finally:
        gate.set()
        stuck.join(timeout=5.0)


def test_clean_close_reports_poller_ok():
    with SolverService(auto_poll_interval=0.005) as svc:
        svc.solve(KL, KU, *_system(262))
    assert not svc.report().poller_stuck


# --- report round-trip for the fault-domain fields -------------------------


def test_service_report_round_trips_fault_domain_fields():
    rep = ServiceReport()
    rep.shed = 3
    rep.shed_reasons = {"deadline": 1, "overload": 2}
    rep.shed_priorities = {0: 2, 5: 1}
    rep.deadlines_missed = 1
    rep.device_events = [{"event": "trip", "device": "d0", "fatal": True}]
    rep.failovers = 4
    rep.hedges = 2
    rep.poller_stuck = True
    back = ServiceReport.from_dict(rep.to_dict())
    assert back.to_dict() == rep.to_dict()
    assert back.shed_priorities == {0: 2, 5: 1}       # int keys restored
    assert back.device_events == rep.device_events


def test_service_report_ignores_unknown_keys():
    d = ServiceReport().to_dict()
    d["totally_new_counter"] = 42
    back = ServiceReport.from_dict(d)
    assert back.to_dict() == ServiceReport().to_dict()


# --- verified serving ------------------------------------------------------


def test_verified_service_is_transparent_and_counts_lanes():
    ab, b = _system(96)
    with SolverService(verify=True) as svc:
        x = svc.solve(KL, KU, ab, b)
        rep = svc.report()
    assert x.tobytes() == _direct(ab, b).tobytes()
    # Factor stage (1 lane) + solve stage (1 lane) both ran the gate.
    assert rep.verified_lanes == 2
    assert rep.sdc_detected == 0 and rep.recomputes == 0
    assert 0 < rep.residual_max <= 1e-12


def test_verified_cache_hit_checks_digest_and_recovers():
    """In-place corruption of a cached factorization is caught by the
    entry digest at reuse time; the entry is dropped, the operator
    re-factored, and the solution still matches the cold path."""
    ab, b1 = _system(97)
    b2 = random_rhs(N, 1, seed=2097)
    with SolverService(verify=True) as svc:
        x1 = svc.solve(KL, KU, ab, b1)
        (key,) = svc.cache.keys()
        entry = svc.cache._entries[key]
        corrupted = entry.factors
        corrupted.setflags(write=True)
        corrupted.flat[KL + KU] += 1.0
        corrupted.setflags(write=False)
        assert not entry.verify_integrity()
        x2 = svc.solve(KL, KU, ab, b2)
        rep = svc.report()
    assert x1.tobytes() == _direct(ab, b1).tobytes()
    assert x2.tobytes() == _direct(ab, b2).tobytes()
    assert rep.cache_digest_failures == 1
    assert rep.cache_invalidations >= 1
    assert rep.factorizations == 2              # dropped entry refactored


def test_unverified_service_skips_digest_checks():
    ab, b1 = _system(98)
    b2 = random_rhs(N, 1, seed=2098)
    with SolverService() as svc:
        svc.solve(KL, KU, ab, b1)
        (key,) = svc.cache.keys()
        entry = svc.cache._entries[key]
        corrupted = entry.factors
        corrupted.setflags(write=True)
        corrupted.flat[KL + KU] += 1.0
        corrupted.setflags(write=False)
        svc.solve(KL, KU, ab, b2)
        rep = svc.report()
    assert rep.cache_digest_failures == 0
    assert rep.cache_hits == 1                  # served the poisoned entry


def test_verified_service_survives_sdc_storm():
    from repro.gpusim.faults import FaultPlan, fault_injection
    ab, b = _system(99)
    plan = FaultPlan(seed=7, sdc_lanes=(0,), sdc_after="gbtrs",
                     sdc_operand=1)
    with fault_injection(H100_PCIE, plan):
        with SolverService(verify=True) as svc:
            x = svc.solve(KL, KU, ab, b)
            rep = svc.report()
    assert x.tobytes() == _direct(ab, b).tobytes()
    assert rep.sdc_detected == 1 and rep.sdc_recovered == 1
    assert rep.recomputes >= 1


def test_service_report_round_trips_verify_fields():
    rep = ServiceReport()
    rep.verified_lanes = 9
    rep.sdc_detected = 2
    rep.sdc_recovered = 2
    rep.recomputes = 3
    rep.residual_max = 1.5e-13
    rep.cache_digest_failures = 1
    back = ServiceReport.from_dict(rep.to_dict())
    assert back.to_dict() == rep.to_dict()
    assert "verify lanes=9" in back.summary()
    assert "cache_digest_failures=1" in back.summary()
