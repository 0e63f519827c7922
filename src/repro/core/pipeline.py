"""Pipelined multi-stream, multi-device batch execution.

The paper's batched API takes a stream argument precisely so host staging
and device compute can overlap (paper Section 4); the chunked executor of
:mod:`repro.core.memory_plan` gave us OOM-safe chunking but ran the chunks
strictly sequentially — lease, upload, solve, download, release — on one
device.  This module drives the *same* chunk protocol through a
double-buffered pipeline:

* each device shard runs up to three streams — an **h2d copy stream**, a
  **compute stream** and a **d2h copy stream** — with cross-stream events
  (:meth:`repro.gpusim.stream.Stream.wait_event`) ordering chunk *i*'s
  compute after its upload and its download after its compute.  Because
  the streams carry absolute timelines, chunk *i+1*'s upload overlaps
  chunk *i*'s compute and chunk *i−1*'s download in the modeled makespan
  (the per-stream tail maximum), exactly like a real double-buffered
  ``cudaMemcpyAsync`` pipeline;
* up to ``streams`` chunk leases stay live simultaneously (double/triple
  buffering), every one charged to the device
  :class:`~repro.gpusim.memory.MemoryPool` under a per-shard label, and
  the chunk size is planned against ``budget // buffers`` so admission
  control still holds with multiple buffers resident;
* the batch is sharded across devices with
  :func:`~repro.gpusim.multidevice.split_batch`, weighted by modeled
  per-device throughput (:func:`~repro.gpusim.multidevice.throughput_weights`
  fed from the kernels' own cost declarations and per-device tuning
  tables), and each shard runs on its own host worker thread — NumPy
  releases the GIL for the heavy vectorized operations, so multi-device
  runs see real wall-clock parallelism, not just a better model;
* ``resilient=True`` keeps its full contract: the OOM ladder (drain the
  pipeline's live buffers, halve the chunk, finish on the host net) runs
  per shard, fault-plan lane windows stay keyed to *global* lane indices,
  and the per-chunk :class:`~repro.core.resilience.BatchReport` parts are
  merged into one global report regardless of stream or device count;
* execution is one loop of dispatch *rounds* governed by a per-device
  circuit breaker (:class:`~repro.gpusim.multidevice.CircuitBreaker`);
  a healthy call is a single round.  With more than one device,
  ``resilient=True`` arms the **device fault domain**: a chunk that dies
  with :class:`~repro.errors.DeviceLostError` (whole-device outage) or
  :class:`~repro.errors.KernelHangError` (stream watchdog) is restored
  from its pre-dispatch snapshot and **re-sharded** onto the surviving
  devices in the next round; tripped devices re-enter through single-lane
  probe launches (closed → open → half-open → recovered/dead), straggler
  chunks can be **hedged** onto the fastest other healthy device
  (first-finisher wins, the loser's traffic is attributed), and every
  decision lands in ``BatchReport.device_events``.

Per-lane results are independent of sub-batch composition (the contract
the vectorized and chunked paths already pin), so the pipelined path is
bit-identical to the sequential chunked path — and to an unchunked run —
on every execution route, *including* runs recovered from mid-flight
device loss: snapshot-restore re-dispatch replays the exact same lanes
through the exact same kernels.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from ..errors import (
    DeviceError,
    DeviceLostError,
    DeviceMemoryError,
    KernelHangError,
)
from ..gpusim.faults import active_injector
from ..gpusim.memory import memory_pool
from ..gpusim.multidevice import (
    CircuitBreaker,
    DevicePartition,
    replicate_device,
    split_batch,
    throughput_weights,
)
from ..gpusim.stream import Stream
from ..gpusim.transfer import TransferRecord, stage_chunk
from .memory_plan import _plan_admitted
from .resilience import HOST_FALLBACK, BatchReport, ResiliencePolicy
from .stack import heal

__all__ = ["PipelineResult", "pipeline_requested", "execute_pipelined",
           "last_pipeline_result"]


def pipeline_requested(*, streams=None, devices=None) -> bool:
    """Do these knob values ask for the pipelined executor?

    ``streams=1`` alone keeps the sequential chunked path; any
    multi-stream or explicit ``devices`` request routes through the
    pipeline.
    """
    return devices is not None or (streams is not None and streams > 1)


@dataclass(frozen=True)
class ShardResult:
    """One device shard's slice of a pipelined run.

    ``partition`` spans the shard's lane hull; failover rounds may leave
    holes inside it (lanes another device completed earlier).  ``role``
    is ``"full"`` for a throughput-weighted share, ``"probe"`` for a
    circuit-breaker probe launch, and ``"hedge"`` for a straggler's
    duplicate dispatch.
    """

    partition: DevicePartition
    streams: tuple          # (h2d, compute, d2h) — may alias each other
    h2d_bytes: int
    d2h_bytes: int
    role: str = "full"

    @property
    def _distinct_streams(self):
        # In tuple order, so float sums do not depend on object addresses.
        return dict.fromkeys(self.streams)

    @property
    def makespan(self) -> float:
        """Absolute tail of the shard's slowest stream."""
        return max(s.elapsed for s in self._distinct_streams)

    @property
    def busy_time(self) -> float:
        """Engine-seconds the shard's streams actually executed."""
        return sum(s.busy_time for s in self._distinct_streams)


@dataclass(frozen=True)
class PipelineResult:
    """Timing/traffic account of one pipelined batched call."""

    op: str
    batch: int
    #: Device names, in shard order.
    devices: tuple
    #: Streams per shard (1 = no overlap, 2 = shared copy stream,
    #: 3 = separate h2d and d2h streams).
    streams: int
    shards: tuple
    #: Dispatch rounds the batch took (1 = no failover re-sharding).
    rounds: int = 1
    #: Modeled wall time of each round, one entry per round; rounds are
    #: sequential (a re-shard decision needs the failed round's outcome).
    #: Hedge savings are already subtracted.
    round_makespans: tuple = ()
    #: Failure-domain decisions, in order: circuit-breaker transitions,
    #: chunk failovers, hedges (JSON-safe dicts).
    device_events: tuple = ()
    #: Chunks re-dispatched onto surviving devices.
    failovers: int = 0
    #: Straggler chunks hedged onto a second device.
    hedges: int = 0

    @property
    def overlap(self) -> bool:
        """Do copies overlap compute inside a shard?"""
        return self.streams > 1

    @property
    def makespan(self) -> float:
        """Modeled wall time.

        Within a round, shards run concurrently and the slowest wins;
        rounds run sequentially, so the total is the sum of the per-round
        maxima.
        """
        return sum(self.round_makespans)

    @property
    def device_busy_time(self) -> float:
        """Aggregate engine-seconds across every shard's streams."""
        return sum(s.busy_time for s in self.shards)

    @property
    def h2d_bytes(self) -> int:
        return sum(s.h2d_bytes for s in self.shards)

    @property
    def d2h_bytes(self) -> int:
        return sum(s.d2h_bytes for s in self.shards)

    def to_dict(self) -> dict:
        """JSON-safe summary (for structured logging / benchmarks)."""
        return {
            "op": self.op,
            "batch": int(self.batch),
            "devices": [str(d) for d in self.devices],
            "streams": int(self.streams),
            "overlap": bool(self.overlap),
            "makespan": float(self.makespan),
            "device_busy_time": float(self.device_busy_time),
            "h2d_bytes": int(self.h2d_bytes),
            "d2h_bytes": int(self.d2h_bytes),
            "rounds": int(self.rounds),
            "round_makespans": [float(m) for m in self.round_makespans],
            "device_events": [dict(e) for e in self.device_events],
            "failovers": int(self.failovers),
            "hedges": int(self.hedges),
            "partitions": [
                {"device": s.partition.device.name,
                 "start": int(s.partition.start),
                 "stop": int(s.partition.stop),
                 "role": s.role,
                 "makespan": float(s.makespan)}
                for s in self.shards
            ],
        }


_LAST = threading.local()


def last_pipeline_result() -> PipelineResult | None:
    """The :class:`PipelineResult` of this thread's most recent pipelined
    call (``None`` before the thread's first one).

    Per thread, so concurrent callers each see their own call's account.
    """
    return getattr(_LAST, "result", None)


def _resolve_devices(device, devices) -> list:
    """The ``devices=`` knob (validated by ``check_execution``) as a list
    of uniquely-named specs."""
    if devices is None or devices == 1:
        return [device]
    if isinstance(devices, Integral):
        return replicate_device(device, devices)
    return list(devices)


def _buffers(cfg) -> int:
    """Streams (= live chunk buffers) per shard of a pipelined call.

    ``streams`` unset gets the full h2d/compute/d2h triple.  More than
    three streams buys nothing in this model (there are only three
    engines to keep busy), so the count is capped there.
    """
    return min(cfg.streams or 3, 3)


def _shard_streams(cfg, device, nbuf: int) -> tuple:
    """(h2d, compute, d2h) streams for one shard; aliased when shared.

    The policy's watchdog deadline arms the *compute* stream only —
    staging copies cannot hang in this model, and a shared copy/compute
    stream (1 or 2 buffers) inherits the deadline because it *is* the
    compute stream.
    """
    cmp_s = Stream(device, name=f"pipe-compute@{device.name}",
                   watchdog=getattr(cfg.policy, "watchdog", None))
    if nbuf >= 3:
        return (Stream(device, name=f"pipe-h2d@{device.name}"), cmp_s,
                Stream(device, name=f"pipe-d2h@{device.name}"))
    if nbuf == 2:
        copy = Stream(device, name=f"pipe-copy@{device.name}")
        return (copy, cmp_s, copy)
    return (cmp_s, cmp_s, cmp_s)


def _retarget(cfg, device, stream):
    """``cfg`` with its launches sent to ``device`` and ``stream``."""
    if device is cfg.device and stream is cfg.stream:
        return cfg
    return replace(cfg, device=device, stream=stream)


def _take_lanes(ranges: list, count: int) -> list:
    """Pop ``count`` lanes off the front of a range worklist (mutates)."""
    taken = []
    while count > 0 and ranges:
        start, stop = ranges[0]
        n = min(count, stop - start)
        taken.append((start, start + n))
        if start + n == stop:
            ranges.pop(0)
        else:
            ranges[0] = (start + n, stop)
        count -= n
    return taken


class _ShardOutcome:
    """Everything one shard worker produced — or left behind.

    The coordinator folds every shard's outcome into one of these
    (:meth:`absorb`), which is what the governance layer reports from.
    """

    __slots__ = ("parts", "chunks", "oom", "events", "backoff", "shard",
                 "spans", "orphans", "failure")

    def __init__(self):
        self.parts = []      # (lane_list, BatchReport) pairs
        self.chunks = []     # completed chunk sizes
        self.oom = 0
        self.events = []     # OOM-ladder events
        self.backoff = 0.0
        self.shard = None    # ShardResult
        self.spans = []      # per-chunk dispatch spans (hedging input)
        self.orphans = []    # lane ranges never started (device died)
        self.failure = None  # {"kind", "device", "start", "stop", ...}

    def absorb(self, other: "_ShardOutcome") -> None:
        self.parts += other.parts
        self.chunks += other.chunks
        self.oom += other.oom
        self.events += other.events
        self.backoff += other.backoff


def _host_net(spec, cfg, ops, ranges, out, **why) -> None:
    """Finish lane ``ranges`` on the host reference algorithm.

    The last rung of both the OOM ladder (the device cannot fit a single
    lane) and the device fault domain (no device left).  Both are
    resilient-only, so every range gets a report part; the host keeps
    LAPACK singularity semantics.
    """
    for start, stop in ranges:
        out.events.append({"action": "host", "start": int(start),
                           "stop": int(stop), **why})
        sub = ops.take(range(start, stop))
        spec.host(sub)
        rep = BatchReport(spec.name, stop - start,
                          method_requested=cfg.method,
                          methods={s.name: HOST_FALLBACK
                                   for s in spec.stages or (spec,)},
                          info=np.array(sub.info, copy=True))
        rep.fallbacks.append((spec.name, "chunked", HOST_FALLBACK))
        rep.quarantined = rep.singular = tuple(
            int(j) for j in np.flatnonzero(sub.info > 0))
        out.parts.append((list(range(start, stop)), rep))


def _dispatch_chunk(spec, cfg, ops, triple, start, stop, nbytes, staged):
    """Stage one chunk in, run the layers below on the compute stream
    (``cfg`` already targets the shard), stage it out.

    The fault injector's lane window opens at the chunk's global start, so
    fault placement cannot depend on chunking or sharding.
    """
    s_h2d, s_cmp, s_d2h = triple
    dev = cfg.device
    injector = active_injector(dev)
    if staged:
        stage_chunk(dev, nbytes, direction="h2d", stream=s_h2d)
        if s_cmp is not s_h2d:
            s_cmp.wait_event(s_h2d.record_event())
    with (injector.lane_window(start) if injector is not None
          else nullcontext()):
        rep = heal(spec, cfg, ops.take(range(start, stop)))
    if staged:
        if s_d2h is not s_cmp:
            s_d2h.wait_event(s_cmp.record_event())
        stage_chunk(dev, nbytes, direction="d2h", stream=s_d2h)
    return rep


def _run_shard(spec, cfg, ops, dev, ranges, plan, role="full"):
    """Run one shard's lane ranges of ``ops`` on ``dev``.

    Every chunk runs :func:`repro.core.stack.heal` on its global lane
    range.  A pipelined call (``cfg.streams``/``cfg.devices``) stages
    chunks through the shard's own double-buffered stream triple; the
    sequential governed executor is this runner with one buffer on the
    caller's stream, and its chunk events carry no device and lane-range
    keys.

    A mid-run allocation failure walks the OOM ladder under
    ``cfg.resilient``: halve the chunk with the policy's capped backoff,
    and once even one lane cannot be leased, finish the remaining lanes
    on the host net.  With live double buffers a failure first *drains*
    the pipeline (frees the completed chunks' leases) and retries,
    because the squeeze may come from our own in-flight leases rather
    than a genuinely too-large chunk.  Lane indices are global throughout
    and the fault injector's lane window is opened at the chunk's global
    start, so results and fault placement cannot depend on the sharding.

    With the device fault domain armed (``ops.call.escalate``), a
    :class:`~repro.errors.DeviceLostError` or
    :class:`~repro.errors.KernelHangError` does not propagate: the chunk's
    operands are rewound from the call's pristine snapshot (a hung kernel
    has already mutated them — in-place factorization is not idempotent),
    the failure is described in :attr:`_ShardOutcome.failure`, and every
    lane not yet completed is returned as an orphan range for the
    coordinator to re-shard.  Breaker bookkeeping happens on the
    coordinator thread, not here, which keeps failover decisions
    deterministic.
    """
    out = _ShardOutcome()
    pool = memory_pool(dev)
    pipelined = pipeline_requested(streams=cfg.streams, devices=cfg.devices)
    nbuf = _buffers(cfg) if pipelined else 1
    triple = (_shard_streams(cfg, dev, nbuf) if pipelined
              else (cfg.stream,) * 3)
    s_cmp = triple[1]
    chunk_cfg = _retarget(cfg, dev, s_cmp)
    failover = pipelined and ops.call.escalate
    label = f"{spec.name}-chunk@{dev.name}"
    where = {"device": dev.name} if pipelined else {}
    h2d_bytes = d2h_bytes = 0
    chunk = plan.chunk
    shard_count = sum(stop - start for start, stop in ranges)
    if plan.chunked or not plan.admitted or shard_count < ops.batch:
        out.events.append({"action": "split", "chunk": int(chunk),
                           "footprint": int(plan.footprint),
                           "budget": int(plan.budget),
                           **(dict(where, start=int(ranges[0][0]),
                                   stop=int(ranges[-1][1]))
                              if pipelined else {})})
    live: deque = deque()       # nbytes of completed chunks' live leases
    pending = deque(ranges)
    attempt = 0
    try:
        while pending:
            start, rstop = pending.popleft()
            while start < rstop:
                stop = min(start + chunk, rstop)
                nbytes = (stop - start) * plan.lane_bytes
                try:
                    # Honour the planned budget, not just the pool (a
                    # caller cap below one lane must reach the host rung).
                    if nbytes > plan.budget:
                        raise DeviceMemoryError(nbytes, pool.in_use,
                                                plan.budget,
                                                device=dev.name)
                    while len(live) >= nbuf:
                        pool.free(live.popleft(), label=label)
                    pool.alloc(nbytes, label=label)
                except DeviceMemoryError as exc:
                    if not cfg.resilient:
                        raise
                    out.oom += 1
                    why = {"requested": int(exc.requested),
                           "budget": int(exc.capacity),
                           "injected": bool(exc.injected), **where}
                    if live:
                        # Drain the pipeline and retry at the same size:
                        # the pressure may be our own double buffers, not
                        # the chunk.  ``live`` is empty on the retry, so a
                        # second failure falls through to the ladder.
                        while live:
                            pool.free(live.popleft(), label=label)
                        out.events.append({"action": "drain", **why})
                        continue
                    if chunk > 1:
                        attempt += 1
                        policy = cfg.policy or ResiliencePolicy()
                        out.backoff += policy.backoff(attempt)
                        new_chunk = max(1, chunk // 2)
                        out.events.append({"action": "halve",
                                           "from": int(chunk),
                                           "to": int(new_chunk), **why})
                        chunk = new_chunk
                        continue
                    # Host rung: this range's tail plus every range not
                    # yet started — the device cannot fit a single lane.
                    _host_net(spec, cfg, ops,
                              [(start, rstop)] + list(pending), out, **why)
                    pending.clear()
                    break
                snap = (ops.call.pristine.take(ops.lanes[start:stop])
                        if failover else None)
                staged = (stop - start) < ops.batch
                t0 = s_cmp.elapsed if s_cmp is not None else 0.0
                try:
                    h2d_bytes += nbytes if staged else 0
                    rep = _dispatch_chunk(spec, chunk_cfg, ops, triple,
                                          start, stop, nbytes, staged)
                    d2h_bytes += nbytes if staged else 0
                except (DeviceLostError, KernelHangError) as exc:
                    pool.free(nbytes, label=label)
                    if not failover:
                        raise
                    spec.restore(ops.take(range(start, stop)), snap)
                    kind = ("device-lost"
                            if isinstance(exc, DeviceLostError) else "hang")
                    out.failure = {
                        "kind": kind, "device": dev.name,
                        "start": int(start), "stop": int(stop),
                        "injected": bool(getattr(exc, "injected", False))}
                    out.orphans = [(start, rstop)] + list(pending)
                    pending.clear()
                    break
                except BaseException:
                    pool.free(nbytes, label=label)
                    raise
                live.append(nbytes)
                if rep is not None:
                    out.parts.append((list(range(start, stop)), rep))
                out.chunks.append(stop - start)
                out.spans.append({"start": int(start), "stop": int(stop),
                                  "duration": (s_cmp.elapsed - t0
                                               if s_cmp is not None else 0.0),
                                  "nbytes": int(nbytes),
                                  "staged": bool(staged), "snap": snap})
                start = stop
    finally:
        while live:
            pool.free(live.popleft(), label=label)
    hull_start = min(r[0] for r in ranges)
    hull_stop = max(r[1] for r in ranges)
    out.shard = ShardResult(
        partition=DevicePartition(dev, hull_start, hull_stop),
        streams=triple, h2d_bytes=h2d_bytes, d2h_bytes=d2h_bytes,
        role=role)
    return out


def _run_hedge(spec, cfg, ops, dev, span):
    """Duplicate one completed chunk onto ``dev`` (straggler hedging).

    The primary's outputs are snapshotted first, the chunk's operands are
    rewound to the call's pristine snapshot, and the chunk replays on a
    fresh stream triple.  A successful hedge leaves bit-identical outputs
    (the per-lane determinism contract), so only timing attribution and
    the loser's traffic differ; a failed hedge restores the primary's
    outputs and stands down.  Returns ``(ShardResult | None, seconds,
    ok)``.
    """
    start, stop = span["start"], span["stop"]
    nbytes, staged = span["nbytes"], span["staged"]
    lanes = ops.take(range(start, stop))
    out_snap = spec.snapshot(lanes)
    pool = memory_pool(dev)
    triple = _shard_streams(cfg, dev, _buffers(cfg))
    label = f"{spec.name}-hedge@{dev.name}"
    try:
        pool.alloc(nbytes, label=label)
    except DeviceMemoryError:
        return None, 0.0, False     # no room to hedge: not an error
    spec.restore(lanes, span["snap"])
    ok = True
    h2d = d2h = 0
    try:
        h2d = nbytes if staged else 0
        _dispatch_chunk(spec, _retarget(cfg, dev, triple[1]), ops, triple,
                        start, stop, nbytes, staged)
        d2h = nbytes if staged else 0
    except (DeviceError, DeviceMemoryError):
        spec.restore(lanes, out_snap)   # primary's results stand
        ok = False
    finally:
        pool.free(nbytes, label=label)
    shard = ShardResult(partition=DevicePartition(dev, start, stop),
                        streams=triple, h2d_bytes=h2d, d2h_bytes=d2h,
                        role="hedge")
    return shard, (shard.makespan if ok else 0.0), ok


def _launch(spec, cfg, ops, assignments) -> list:
    """Run one round's ``(device, ranges, plan, role)`` assignments, one
    host worker thread per shard when there are several; a worker's
    exception re-raises on the coordinator."""
    outs = [None] * len(assignments)
    errs = [None] * len(assignments)

    def work(i, dev, ranges, plan, role):
        try:
            outs[i] = _run_shard(spec, cfg, ops, dev, ranges, plan, role)
        except BaseException as exc:  # re-raised on the coordinator
            errs[i] = exc

    if len(assignments) > 1:
        workers = [threading.Thread(target=work, args=(i, *a),
                                    name=f"pipe-{spec.name}-{a[0].name}")
                   for i, a in enumerate(assignments)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    else:
        for i, a in enumerate(assignments):
            work(i, *a)
    for exc in errs:
        if exc is not None:
            raise exc
    return outs


def execute_pipelined(spec, cfg, ops, lane_bytes):
    """Run a governed batched call through the pipelined executor.

    ``lane_bytes`` is the per-lane device footprint.  Returns ``(outcome,
    budget, result)``: the :class:`_ShardOutcome` of every shard folded
    together (report parts, chunk sizes, OOM-ladder events), the
    tightest planned device budget, and the :class:`PipelineResult` (also
    retrievable, on the calling thread, via :func:`last_pipeline_result`).

    Execution is a sequence of dispatch rounds governed by a per-device
    :class:`~repro.gpusim.multidevice.CircuitBreaker`; a healthy call is a
    single round.  Each round shards the pending lanes across the devices
    the breaker lets through, weighted by modeled throughput
    (``spec.probe_stages``).  When ``cfg.resilient`` and more than one
    device is in play, the **device fault domain** arms under
    ``policy.breaker`` (or a fresh one): chunks orphaned by a device
    outage or watchdog hang are rewound to the call's pristine snapshot
    and re-sharded onto the surviving devices in the next round, tripped
    devices re-enter through single-lane probes, and — with
    ``policy.hedge_ratio`` set — straggler chunks are hedged onto the
    fastest other closed device.  All decisions land in
    ``PipelineResult.device_events``; if every device dies, the leftover
    lanes finish on the host net.  Otherwise device errors propagate and
    the private breaker never trips.
    """
    batch = ops.batch
    devs = _resolve_devices(cfg.device, cfg.devices)
    nbuf = _buffers(cfg)
    policy = cfg.policy or ResiliencePolicy()
    failover = cfg.resilient and len(devs) > 1
    hedge_ratio = policy.hedge_ratio if failover else None
    breaker = (policy.breaker if failover else None) or CircuitBreaker()
    if cfg.resilient and ops.call.pristine is None:
        ops.call.pristine = spec.snapshot(ops, inputs=True)
    ops.call.escalate = failover
    weights = [1.0]
    if len(devs) > 1:
        weights = throughput_weights(
            devs, lambda dev: spec.probe_stages(dev, cfg, ops), grid=batch)

    total = _ShardOutcome()
    shard_results, budgets, device_events, round_makespans = [], [], [], []
    failovers = hedges = rounds = 0
    ev_cursor = len(breaker.events)
    pending = [(0, batch)]
    # Generous upper bound: every device can trip, probe and die.
    max_rounds = 4 + 2 * len(devs) * breaker.max_probes
    while pending and rounds < max_rounds and not all(
            breaker.state(d.name) == CircuitBreaker.DEAD for d in devs):
        rounds += 1
        roles = [(d, breaker.poll(d.name)) for d in devs]
        device_events.extend(breaker.events[ev_cursor:])
        ev_cursor = len(breaker.events)
        probes = [d for d, r in roles if r == "probe"]
        fulls = [d for d, r in roles if r == "full"]
        shares = [(d, _take_lanes(pending, 1), "probe") for d in probes]
        if fulls:
            left = sum(stop - start for start, stop in pending)
            shares += [(p.device, _take_lanes(pending, p.count), "full")
                       for p in split_batch(
                           left, fulls,
                           weights=[weights[devs.index(d)] for d in fulls])]
        assignments = [
            (d, ranges, _plan_admitted(
                cfg, d, sum(s2 - s1 for s1, s2 in ranges), lane_bytes,
                buffers=nbuf), role)
            for d, ranges, role in shares if ranges]
        budgets += [plan.budget for _, _, plan, _ in assignments]
        outs = _launch(spec, cfg, ops, assignments)
        savings = [0.0] * len(outs)
        for (dev, _, _, _), out in zip(assignments, outs):
            total.absorb(out)
            shard_results.append(out.shard)
            if out.failure is not None:
                fail = dict(out.failure)
                orphan_lanes = sum(s2 - s1 for s1, s2 in out.orphans)
                device_events.append(
                    {"event": "failover", **fail,
                     "orphan_lanes": int(orphan_lanes)})
                failovers += len(out.orphans)
                breaker.record_failure(
                    dev.name, kind=fail["kind"],
                    fatal=fail["kind"] == "device-lost")
                pending.extend(out.orphans)
            else:
                breaker.record_success(dev.name)
            device_events.extend(breaker.events[ev_cursor:])
            ev_cursor = len(breaker.events)
        if hedge_ratio is not None and len(outs) > 1:
            # Straggler hedging, decided on the coordinator after the
            # round joins: a chunk that took longer than hedge_ratio
            # times the round's median replays on the fastest other
            # closed device; the first finisher wins and the loser's
            # traffic stays attributed.
            all_spans = [(i, sp) for i, out in enumerate(outs)
                         for sp in out.spans]
            durs = sorted(sp["duration"] for _, sp in all_spans
                          if sp["duration"] > 0.0)
            median = durs[len(durs) // 2] if durs else 0.0
            for i, sp in all_spans:
                if median <= 0.0 or sp["duration"] <= hedge_ratio * median:
                    continue
                primary = assignments[i][0]
                cands = [d for d in devs
                         if d.name != primary.name
                         and breaker.state(d.name) == CircuitBreaker.CLOSED]
                if not cands:
                    continue
                target = max(cands, key=lambda d: weights[devs.index(d)])
                hshard, hdur, ok = _run_hedge(spec, cfg, ops, target, sp)
                if hshard is None:
                    continue
                hedges += 1
                shard_results.append(hshard)
                won = ok and hdur < sp["duration"]
                if won:
                    savings[i] += sp["duration"] - hdur
                device_events.append({
                    "event": "hedge",
                    "start": int(sp["start"]),
                    "stop": int(sp["stop"]),
                    "primary": primary.name,
                    "hedge": target.name,
                    "primary_seconds": float(sp["duration"]),
                    "hedge_seconds": float(hdur),
                    "winner": target.name if won else primary.name,
                    "loser_bytes": int(sp["nbytes"] if won
                                       else hshard.h2d_bytes
                                       + hshard.d2h_bytes)})
        round_makespans.append(max(
            (max(out.shard.makespan - sv, 0.0)
             for out, sv in zip(outs, savings)), default=0.0))
    if pending:
        # No device pool left: finish the leftovers on the host net — the
        # same last rung the OOM ladder bottoms out on.
        _host_net(spec, cfg, ops, pending, total,
                  reason="no-healthy-devices")

    result = PipelineResult(
        op=spec.name, batch=batch,
        devices=tuple(d.name for d in devs), streams=nbuf,
        shards=tuple(shard_results), rounds=rounds,
        round_makespans=tuple(round_makespans),
        device_events=tuple(device_events),
        failovers=failovers, hedges=hedges)
    _LAST.result = result
    if cfg.stream is not None:
        # One summary record on the caller's stream: the pipeline occupied
        # the device(s) for the modeled makespan.  Traffic was already
        # charged by the per-chunk staging copies, so this carries time
        # only.
        cfg.stream.record(TransferRecord(
            kernel_name=f"{spec.name}_pipeline", nbytes=0,
            time=result.makespan))
    return total, min(budgets, default=0), result
