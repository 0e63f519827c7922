"""Solver-as-a-service ingress: request coalescing over the batched drivers.

The execution stack below this module (verify -> layout ->
govern/chunk/pipeline -> heal -> dispatch, in the order of
:mod:`repro.core.stack`) is batch-in, batch-out; production traffic is
millions of *independent* single-system solve requests.  :class:`SolverService` is
the ingress layer between the two:

* ``submit(kl, ku, ab, b)`` accepts one band system and returns a
  :class:`SolveHandle` immediately (the request payload is snapshotted,
  so the caller's arrays are never mutated);
* pending requests coalesce under a deadline-aware micro-batching policy
  (:class:`BatchingPolicy`): a flush fires when the group reaches
  ``max_group`` lanes, when the oldest pending request ages past
  ``max_delay``, or when the pending device footprint would exceed the
  admission budget of :mod:`repro.core.memory_plan` (backpressure);
* each flush looks every operator up in the :class:`~repro.serve.cache.
  FactorCache`; misses are deduplicated and factored through
  :func:`~repro.core.batched.gbtrf_vbatch` (one call — the vbatch driver
  buckets configurations internally), then every request solves through
  :func:`~repro.core.gbtrs.gbtrs_batch` groups against cached or
  just-computed factors.  A cache hit therefore runs ``gbtrs`` against
  byte-identical factors and is bit-identical to the cold path by the
  same contract that makes every layer below bit-identical to the layer
  beneath it;
* the ``resilient`` / ``streams`` / ``devices`` /
  ``max_resident_bytes`` / ``chunk_hint`` / ``layout`` / ``verify``
  knobs of the batched drivers pass through unchanged.

Everything observable lands in a :class:`~repro.serve.report.
ServiceReport` (flush reasons, group-size histogram, cache hit/miss/
eviction counters, backpressure count, merged resilient reports).
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..core.batched import run_gbtrf_vbatch
from ..core.gbtrs import run_gbtrs
from ..core.memory_plan import lane_footprint
from ..core.stack import ExecConfig, check_execution
from ..core.verify import as_verify_policy
from ..errors import (
    DeviceMemoryError,
    RequestShedError,
    SingularMatrixError,
    check_arg,
)
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..gpusim.memory import memory_pool
from ..types import Trans
from .cache import FactorCache, operand_digest
from .report import ServiceReport

__all__ = ["BatchingPolicy", "SolveHandle", "SolverService"]


@dataclass(frozen=True)
class BatchingPolicy:
    """Deadline-aware micro-batching knobs.

    Attributes
    ----------
    max_group:
        Flush as soon as this many requests are pending.  ``1`` degrades
        the service to one-request-per-dispatch (the benchmark baseline).
    max_delay:
        Seconds the *oldest* pending request may wait before an age flush
        — the per-request latency deadline.  Age is checked on every
        ``submit``/``poll`` (and by the optional background poller), so
        the deadline holds to the polling granularity, not exactly.
    """

    max_group: int = 64
    max_delay: float = 0.002

    def __post_init__(self):
        check_arg(self.max_group >= 1, 1,
                  f"max_group must be >= 1, got {self.max_group}")
        check_arg(self.max_delay >= 0.0, 2,
                  f"max_delay must be >= 0, got {self.max_delay}")


class SolveHandle:
    """Future for one submitted request.

    ``result()`` returns the solution (flushing the service first when
    the request is still pending — a caller can never deadlock on its own
    handle), raises :class:`~repro.errors.SingularMatrixError` when the
    operator turned out singular, and raises
    :class:`~repro.errors.RequestShedError` when load shedding rejected
    the request (structured rejection: the error carries the sequence
    number, priority class and shed reason); ``solution``/``info``/
    ``shed_reason`` give non-raising access after completion.
    """

    __slots__ = ("seq", "submitted_at", "completed_at", "completion_index",
                 "info", "priority", "deadline_at", "shed_reason",
                 "_service", "_x", "_done")

    def __init__(self, service: "SolverService", seq: int,
                 submitted_at: float, priority: int = 0,
                 deadline_at: float | None = None):
        self.seq = seq
        self.submitted_at = submitted_at
        self.completed_at: float | None = None
        self.completion_index: int | None = None
        self.info = 0
        self.priority = int(priority)
        #: Absolute deadline on the service clock (``None`` = no deadline).
        self.deadline_at = deadline_at
        #: Why load shedding rejected the request (``None`` = not shed).
        self.shed_reason: str | None = None
        self._service = service
        self._x = None
        self._done = False

    @property
    def done(self) -> bool:
        return self._done

    @property
    def shed(self) -> bool:
        return self.shed_reason is not None

    @property
    def solution(self):
        """The solution array once done (``None`` while pending; the
        snapshotted right-hand side when the operator is singular —
        LAPACK leaves ``B`` untouched on ``info > 0``)."""
        return self._x

    @property
    def latency(self) -> float | None:
        """Seconds from submit to completion, on the service clock."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def result(self) -> np.ndarray:
        if not self._done:
            self._service._flush_for_result()
        if self.shed_reason is not None:
            raise RequestShedError(self.seq, self.priority,
                                   self.shed_reason)
        if self.info > 0:
            raise SingularMatrixError(self.seq, self.info)
        return self._x

    def _complete(self, x, info: int, completed_at: float,
                  completion_index: int) -> None:
        self._x = x
        self.info = int(info)
        self.completed_at = completed_at
        self.completion_index = completion_index
        self._done = True
        self._service = None    # request is finished; drop the back-ref

    def _shed(self, reason: str, at: float) -> None:
        self.shed_reason = str(reason)
        self.completed_at = at
        self._done = True
        self._service = None


class _Pending:
    """Internal per-request record (snapshot + routing state)."""

    __slots__ = ("seq", "n", "kl", "ku", "nrhs", "ab", "b", "x",
                 "key", "handle", "factors", "pivots", "finfo", "lane_bytes")

    def __init__(self, seq, n, kl, ku, nrhs, ab, x, key, handle):
        self.seq = seq
        self.n = n
        self.kl = kl
        self.ku = ku
        self.nrhs = nrhs
        self.ab = ab                  # service-owned copy (factor layout)
        # The service-owned copy of the right-hand sides in the caller's
        # shape, which the handle returns, and its (n, nrhs) view, which
        # the solve overwrites.  Only ``x`` outlives the flush.
        self.x = x
        self.b = b = x[:, None] if x.ndim == 1 else x
        self.key = key
        self.handle = handle
        self.factors = None
        self.pivots = None
        self.finfo = 0
        # Resident device footprint when dispatched: the matrix, int64
        # pivots and right-hand sides, as the drivers charge them.
        self.lane_bytes = lane_footprint(ab.nbytes, n * 8, b.nbytes)


class SolverService:
    """Micro-batching, factorization-caching front end for band solves.

    Parameters
    ----------
    device, stream:
        Where coalesced groups dispatch (same defaults as the drivers).
    policy:
        The :class:`BatchingPolicy`; ``None`` takes the defaults.
    cache_entries, cache_bytes:
        Bounds for the :class:`~repro.serve.cache.FactorCache`
        (``cache_entries=0`` disables caching).
    resilient, resilience_policy, max_resident_bytes, chunk_hint,
    streams, devices, layout:
        Passed through to every dispatched driver call unchanged — the
        service inherits the whole execution stack below it (``layout``
        is the storage-layout selector of docs/LAYOUTS.md; cache keys
        are layout-independent, so hits stay bit-identical either way).
    verify:
        Silent-data-corruption defense (:mod:`repro.core.verify`):
        ``True``, ``'cheap'``, ``'full'`` or a
        :class:`~repro.core.verify.VerifyPolicy`.  Every dispatched
        factorization and solve runs behind its residual gate, the
        verification fields of every batch report are folded into the
        :class:`~repro.serve.report.ServiceReport`, and cached
        factorizations are digest-checked before reuse — a cache entry
        whose resident payload no longer matches its insertion-time
        fingerprint is dropped and refactored instead of contaminating
        the hit path.
    auto_poll_interval:
        When set, a daemon thread calls :meth:`poll` every that many
        seconds so age flushes fire without caller cooperation.  All
        public methods are thread-safe either way.
    clock:
        Time source for deadlines and latency stamps (injectable for
        deterministic tests and virtual-time benchmarks).
    """

    def __init__(self, *, device: DeviceSpec = H100_PCIE, stream=None,
                 policy: BatchingPolicy | None = None,
                 cache_entries: int | None = None,
                 cache_bytes: int | None = None,
                 resilient: bool = False, resilience_policy=None,
                 max_resident_bytes: int | None = None,
                 chunk_hint: int | None = None,
                 streams: int | None = None, devices=None,
                 layout: str | None = None,
                 verify=None,
                 auto_poll_interval: float | None = None,
                 clock=time.monotonic):
        self.device = device
        self.policy = policy or BatchingPolicy()
        self.cache = FactorCache(max_entries=cache_entries,
                                 max_bytes=cache_bytes, device=device)
        # Every dispatched factorization and solve runs under this one
        # configuration of the execution stack.
        self._cfg = ExecConfig(
            device=device, stream=stream, resilient=resilient,
            policy=resilience_policy,
            max_resident_bytes=max_resident_bytes, chunk_hint=chunk_hint,
            streams=streams, devices=devices,
            layout=layout, verify=as_verify_policy(verify))
        check_execution(self._cfg, 9)
        self._clock = clock
        self._report = ServiceReport()
        self._pending: list[_Pending] = []
        self._seq = 0
        self._completions = 0
        self._lock = threading.RLock()
        self._closed = False
        self._poller = None
        self._poller_join_timeout = 5.0
        self._poll_stop = threading.Event()
        if auto_poll_interval is not None:
            check_arg(auto_poll_interval > 0, 14,
                      f"auto_poll_interval must be positive, "
                      f"got {auto_poll_interval}")
            self._poller = threading.Thread(
                target=self._poll_loop, args=(float(auto_poll_interval),),
                name="SolverService-poller", daemon=True)
            self._poller.start()

    # -- lifecycle --------------------------------------------------------

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Flush pending work, release every cache charge, stop polling.

        A background poller that fails to join within 5 seconds is stuck
        (a wedged flush, a deadlocked driver): the close warns, marks
        ``poller_stuck`` in the :class:`~repro.serve.report.ServiceReport`
        and proceeds — silently abandoning the thread would hide exactly
        the failure a report consumer needs to see.
        """
        self._poll_stop.set()
        if self._poller is not None:
            self._poller.join(timeout=self._poller_join_timeout)
            if self._poller.is_alive():
                with self._lock:
                    self._report.poller_stuck = True
                warnings.warn(
                    f"SolverService poller failed to join within "
                    f"{self._poller_join_timeout:g}s; closing anyway with "
                    f"the thread still running (poller_stuck=True in the "
                    f"service report)", RuntimeWarning, stacklevel=2)
            self._poller = None
        with self._lock:
            if self._pending:
                self._flush_locked("close")
            self.cache.close()
            self._sync_cache_counters()
            self._closed = True

    def _poll_loop(self, interval: float) -> None:
        while not self._poll_stop.wait(interval):
            self.poll()

    # -- ingress ----------------------------------------------------------

    def submit(self, kl: int, ku: int, ab, b, *, priority: int = 0,
               deadline: float | None = None) -> SolveHandle:
        """Accept one band system ``A x = b``; returns a handle.

        ``ab`` is the operator in LAPACK factor layout (``ldab >= 2*kl +
        ku + 1`` rows, diagonal on row ``kl + ku``); ``b`` is ``(n,)`` or
        ``(n, nrhs)``.  Both are snapshotted — later mutation of the
        caller's arrays does not affect the request, and the operator
        digest identifies the snapshot for caching.

        ``priority`` is the request's class (higher = more important);
        ``deadline`` is a relative latency budget in seconds on the
        service clock.  Both feed load shedding: when a flush finds the
        healthy-device pool shrunk (the resilience policy's circuit
        breaker has devices open or dead), the lowest-priority requests
        beyond the shrunk capacity are rejected with a structured
        :class:`~repro.errors.RequestShedError`, and a request whose
        deadline has already expired at flush time is shed rather than
        dispatched late.
        """
        ab = np.asarray(ab)
        check_arg(not self._closed, 0, "service is closed")
        check_arg(kl >= 0, 1, f"kl must be non-negative, got {kl}")
        check_arg(ku >= 0, 2, f"ku must be non-negative, got {ku}")
        check_arg(deadline is None or deadline > 0.0, 6,
                  f"deadline must be positive seconds, got {deadline}")
        check_arg(ab.ndim == 2, 3,
                  f"ab must be 2-D (ldab, n), got shape {ab.shape}")
        n = ab.shape[1]
        check_arg(ab.shape[0] >= 2 * kl + ku + 1, 3,
                  f"ldab={ab.shape[0]} < 2*kl+ku+1={2 * kl + ku + 1} "
                  f"(factor layout required)")
        b = np.asarray(b)
        check_arg(b.ndim in (1, 2) and b.shape[0] == n, 4,
                  f"b must be (n,) or (n, nrhs) with n={n}, "
                  f"got shape {b.shape}")
        check_arg(b.dtype == ab.dtype, 4,
                  f"b has dtype {b.dtype}, expected {ab.dtype}")
        ab = np.ascontiguousarray(ab).copy()
        b = np.ascontiguousarray(b).copy()
        key = operand_digest(kl, ku, ab)
        with self._lock:
            now = self._clock()
            handle = SolveHandle(
                self, self._seq, now, priority=priority,
                deadline_at=None if deadline is None else now + deadline)
            req = _Pending(self._seq, n, int(kl), int(ku),
                           b.shape[1] if b.ndim == 2 else 1, ab, b, key,
                           handle)
            self._seq += 1
            self._admit_locked(req)
            self._pending.append(req)
            self._report.requests += 1
            if len(self._pending) >= self.policy.max_group:
                self._flush_locked("size")
            else:
                self._age_flush_locked()
        return handle

    def solve(self, kl: int, ku: int, ab, b) -> np.ndarray:
        """Batch-of-one convenience: submit, dispatch, return the solution.

        Dispatches immediately — anything already pending coalesces into
        the same flush.  Raises :class:`~repro.errors.
        SingularMatrixError` when the operator is singular.
        """
        return self.submit(kl, ku, ab, b).result()

    def poll(self) -> int:
        """Fire an age flush if the oldest pending request is past the
        deadline; returns the number of requests dispatched."""
        with self._lock:
            return self._age_flush_locked()

    def flush(self) -> int:
        """Dispatch everything pending now; returns requests dispatched."""
        with self._lock:
            return self._flush_locked("manual")

    def invalidate(self, kl: int | None = None, ku: int | None = None,
                   ab=None) -> int:
        """Explicitly invalidate cached factorizations.

        With no arguments the whole cache is dropped; with ``(kl, ku,
        ab)`` only that operator's entry.  Returns entries dropped.
        """
        with self._lock:
            if ab is None:
                dropped = self.cache.invalidate()
            else:
                check_arg(kl is not None and ku is not None, 1,
                          "invalidate(kl, ku, ab) needs all three")
                dropped = self.cache.invalidate(
                    operand_digest(kl, ku, np.ascontiguousarray(ab)))
            self._sync_cache_counters()
            return dropped

    def report(self) -> ServiceReport:
        """Detached snapshot of the service counters."""
        with self._lock:
            self._sync_cache_counters()
            return self._report.copy()

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._pending)

    # -- admission control (backpressure) ---------------------------------

    def _admission_budget(self) -> int:
        # Cached factorizations are reclaimable (the flush evicts them
        # for headroom), so they count toward what a dispatch could get.
        budget = memory_pool(self.device).available + self.cache.nbytes
        if self._cfg.max_resident_bytes is not None:
            budget = min(budget, int(self._cfg.max_resident_bytes))
        return budget

    def _admit_locked(self, req: _Pending) -> None:
        """Keep the pending footprint inside the admission budget.

        When the new request would push the pending set past the budget,
        the set is flushed first (backpressure: the submit call absorbs
        the dispatch latency).  A request that cannot fit even alone is
        rejected eagerly on the plain path — with ``resilient=True`` it
        is admitted and the drivers' OOM degradation ladder handles it.
        """
        budget = self._admission_budget()
        pending_bytes = sum(r.lane_bytes for r in self._pending)
        if self._pending and pending_bytes + req.lane_bytes > budget:
            self._report.backpressure_flushes += 1
            self._flush_locked("footprint")
            budget = self._admission_budget()
        if req.lane_bytes > budget and not self._cfg.resilient:
            pool = memory_pool(self.device)
            raise DeviceMemoryError(req.lane_bytes, pool.in_use, budget,
                                    device=self.device.name)

    # -- dispatch ---------------------------------------------------------

    def _age_flush_locked(self) -> int:
        if not self._pending:
            return 0
        oldest = self._pending[0].handle.submitted_at
        if self._clock() - oldest >= self.policy.max_delay:
            return self._flush_locked("age")
        return 0

    def _flush_for_result(self) -> None:
        with self._lock:
            if self._pending:
                self._flush_locked("manual")

    def _absorb_batch_report(self, rep) -> None:
        if rep is None:
            return
        self._report.batch_reports.append(rep.to_dict())
        self._report.faults_tolerated += rep.faults_tolerated
        self._report.device_events.extend(dict(e) for e in rep.device_events)
        self._report.failovers += rep.failovers
        self._report.hedges += rep.hedges
        self._report.verified_lanes += rep.verified_lanes
        self._report.sdc_detected += len(rep.sdc_detected)
        self._report.sdc_recovered += len(rep.sdc_recovered)
        self._report.recomputes += rep.recomputes
        self._report.residual_max = max(self._report.residual_max,
                                        rep.residual_max)

    # -- load shedding -----------------------------------------------------

    def _healthy_fraction(self) -> float:
        """Fraction of the dispatch device pool the breaker still trusts."""
        breaker = getattr(self._cfg.policy, "breaker", None)
        if breaker is None:
            return 1.0
        from ..core.pipeline import _resolve_devices
        return breaker.healthy_fraction(
            [d.name for d in _resolve_devices(self.device, self._cfg.devices)])

    def _shed_one(self, req: _Pending, reason: str, now: float) -> None:
        self._report.shed += 1
        self._report.shed_reasons[reason] = (
            self._report.shed_reasons.get(reason, 0) + 1)
        prio = req.handle.priority
        self._report.shed_priorities[prio] = (
            self._report.shed_priorities.get(prio, 0) + 1)
        if reason == "deadline":
            self._report.deadlines_missed += 1
        req.handle._shed(reason, now)

    def _shed_locked(self, pending: list) -> list:
        """Deadline- and health-aware load shedding at flush time.

        Two rules, both structured rejections via
        :class:`~repro.errors.RequestShedError`:

        * a request whose deadline has already expired is shed rather
          than dispatched late (``"deadline"``);
        * when the healthy-device pool has shrunk (circuit breaker holds
          devices open or dead), capacity drops proportionally and the
          excess is shed lowest priority first — newest first within a
          class, so the oldest high-priority work survives
          (``"overload"``).
        """
        now = self._clock()
        kept = []
        for req in pending:
            dl = req.handle.deadline_at
            if dl is not None and now > dl:
                self._shed_one(req, "deadline", now)
            else:
                kept.append(req)
        frac = self._healthy_fraction()
        if frac < 1.0 and kept:
            capacity = max(1, int(len(kept) * frac))
            if len(kept) > capacity:
                order = sorted(kept,
                               key=lambda r: (r.handle.priority, -r.seq))
                doomed = {id(r) for r in order[:len(kept) - capacity]}
                survivors = []
                for req in kept:
                    if id(req) in doomed:
                        self._shed_one(req, "overload", now)
                    else:
                        survivors.append(req)
                kept = survivors
        return kept

    def _flush_locked(self, reason: str) -> int:
        pending, self._pending = self._pending, []
        if not pending:
            return 0
        pending = self._shed_locked(pending)
        if not pending:
            return 0
        self._report.flushes[reason] = (
            self._report.flushes.get(reason, 0) + 1)
        # The cache yields to in-flight work: make sure the flush's
        # footprint could be admitted before the drivers plan against
        # the pool (evicted entries stay alive on the host for any
        # pending request already holding their factors).
        self.cache.ensure_headroom(sum(r.lane_bytes for r in pending))

        verified = self._cfg.verify is not None

        # 1. Cache lookup per request; deduplicate the misses by digest.
        #    A verified service re-checks each hit's content fingerprint
        #    before trusting it: a cached factor corrupted in residence
        #    is dropped and refactored, never reused.
        reps: dict[str, _Pending] = {}
        for req in pending:
            entry = self.cache.lookup(req.key)
            if entry is not None and verified \
                    and not entry.verify_integrity():
                self.cache.stats.digest_failures += 1
                self._report.cache_digest_failures += 1
                self.cache.invalidate(req.key)
                entry = None
            if entry is not None:
                self._report.cache_hits += 1
                req.factors, req.pivots = entry.factors, entry.pivots
            else:
                self._report.cache_misses += 1
                reps.setdefault(req.key, req)

        # 2. Factor stage: one vbatch call over the unique misses (the
        #    driver buckets identical configurations internally).
        rep_list = list(reps.values())
        if rep_list:
            dims = ([r.n for r in rep_list], [r.kl for r in rep_list],
                    [r.ku for r in rep_list])
            mats = [r.ab for r in rep_list]
            pivots, finfo, brep = run_gbtrf_vbatch(self._cfg, dims[0],
                                                   *dims, mats)
            self._absorb_batch_report(brep)
            self._report.factorizations += len(rep_list)
            for j, r in enumerate(rep_list):
                r.factors, r.pivots = r.ab, np.asarray(pivots[j])
                r.finfo = int(finfo[j])
        for req in pending:
            if req.factors is None or req.finfo:     # shared miss lanes
                rep = reps[req.key]
                req.factors, req.pivots = rep.factors, rep.pivots
                req.finfo = rep.finfo

        # 3. Solve stage: group solvable requests by configuration and
        #    dispatch each group through gbtrs_batch against the factors.
        groups: dict[tuple, list[_Pending]] = defaultdict(list)
        for req in pending:
            if req.finfo == 0:
                groups[(req.n, req.kl, req.ku, req.nrhs,
                        req.factors.shape)].append(req)
        #    A digest shared by several lanes aliases one factor array;
        #    the factors are read-only, so the solve's one gather copes.
        for (n, kl, ku, nrhs, _shape), reqs in groups.items():
            _, brep = run_gbtrs(self._cfg, Trans.NO_TRANS, n, kl, ku, nrhs,
                                [r.factors for r in reqs],
                                [r.pivots for r in reqs],
                                [r.b for r in reqs], batch=len(reqs))
            self._absorb_batch_report(brep)
            self._report.dispatch_groups += 1
            self._report.group_sizes[len(reqs)] = (
                self._report.group_sizes.get(len(reqs), 0) + 1)

        # Cache the fresh factorizations only now that the solves have
        # run: inserting earlier would re-consume the headroom this flush
        # evicted for itself and starve the gbtrs dispatch.
        for r in rep_list:
            if r.finfo == 0:
                self.cache.insert(r.key, r.n, r.kl, r.ku, r.factors,
                                  r.pivots)

        # 4. Complete every handle, in submission order.
        now = self._clock()
        for req in pending:
            if req.finfo == 0:
                self._report.solved += 1
            else:
                self._report.singular += 1
            dl = req.handle.deadline_at
            if dl is not None and now > dl:
                self._report.deadlines_missed += 1
            req.handle._complete(req.x, req.finfo, now, self._completions)
            self._completions += 1
        self._report.dispatched_lanes += len(pending)
        self._sync_cache_counters()
        return len(pending)

    def _sync_cache_counters(self) -> None:
        stats = self.cache.stats
        self._report.cache_insertions = stats.insertions
        self._report.cache_evictions = stats.evictions
        self._report.cache_invalidations = stats.invalidations
        self._report.cache_rejected = stats.rejected
        self._report.cache_bytes = self.cache.nbytes
        self._report.cache_entries = len(self.cache)

    def __repr__(self) -> str:
        return (f"SolverService(pending={len(self._pending)}, "
                f"cache={len(self.cache)} entries, "
                f"policy={self.policy})")
