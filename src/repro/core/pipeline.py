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
  tables).  A round's first shard runs on the calling thread and each
  other one in a child made with ``os.fork()`` (one per spare core),
  writing its lanes into shared host buffers
  (:mod:`repro.core.arena`) and sending back its outcome and its
  device's memory pool, health tracker and fault injector.  The parent
  installs them in assignment order, so every report, event, ledger
  and modeled time equals running the shards in turn, which is what a
  round does when the platform cannot fork, another Python thread is
  alive or two of its devices share a fault injector (``_launch``);
* each shard also runs the per-lane passes around its kernels, in the
  process that runs it: it prepares its lanes (the call's pristine
  snapshot, layout working copies and shared mirrors; see
  :class:`~repro.core.stack.Staging`) before touching them, and scores
  its finished lanes for the verify layer's gate.  The parent writes
  each shard's finished lanes back into the caller's storage (its own
  while the children run), and whatever no shard finished (host-net or
  hedged lanes) once the last round is over;
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

import gc
import os
import pickle
import signal
import threading
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from ..errors import (
    DeviceError,
    DeviceLostError,
    DeviceMemoryError,
    KernelHangError,
)
from ..gpusim import ahead
from ..gpusim.device import _HEALTH, DeviceSpec
from ..gpusim.faults import _ARMED, active_injector
from ..gpusim.memory import _POOLS, memory_pool
from ..gpusim.multidevice import (
    CircuitBreaker,
    DevicePartition,
    split_batch,
    throughput_weights,
)
from ..gpusim.stream import Stream
from ..gpusim.transfer import TransferRecord, stage_chunk
from .memory_plan import _plan_admitted
from .resilience import HOST_FALLBACK, BatchReport, ResiliencePolicy, \
    run_resilient
from .stack import Snapshot, lane_runs

__all__ = ["PipelineResult", "execute_pipelined", "last_pipeline_result"]


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

        Within a round, the shards' devices run concurrently in the
        model and the slowest wins; rounds run sequentially, so the total
        is the sum of the per-round maxima.
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
    """Everything one shard run produced — or left behind.

    The coordinator folds every shard's outcome into one of these
    (:meth:`absorb`), which is what the governance layer reports from.
    """

    __slots__ = ("parts", "chunks", "oom", "events", "backoff", "shard",
                 "spans", "orphans", "failure", "done")

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
        self.done = []       # lane ranges finished and scored, to write back

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
    LAPACK singularity semantics.  Lanes no shard prepared (every device
    was dead at entry) are prepared first.
    """
    if ops.call.staging is not None:
        ops.call.staging.prepare(ranges)
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


def _computes_ahead(chunk: int, lanes: int, dev) -> bool:
    """Does a shard of ``lanes`` lanes in chunks of ``chunk`` compute its
    lanes in one host pass ahead of its chunks?

    Yes when it runs as more than one chunk and no fault injector is armed
    on ``dev``: an injector strikes per launch, per chunk boundary and per
    lane window, so an armed device runs every chunk's bodies itself.
    """
    return chunk < lanes and active_injector(dev) is None


def _compute_ahead(spec, cfg, ops, ranges) -> None:
    """Run the planned design of ``cfg.device`` over lane ``ranges`` in
    one host pass, its bodies only (:func:`repro.gpusim.ahead.computing`):
    no device state is touched.  Every design gives the same bits, so the
    chunks' first dispatches need only account for them."""
    design = ops.call.plan.design(cfg.device)
    with ahead.computing():
        for start, stop in ranges:
            spec.dispatch(design, cfg, ops.take(range(start, stop)))


def _rewind(spec, ops, ranges) -> None:
    """Put lane ``ranges`` back to their inputs, from the call's pristine
    snapshot."""
    for start, stop in ranges:
        spec.restore(ops.take(range(start, stop)),
                     ops.call.pristine.take(ops.lanes[start:stop]))


def _dispatch_chunk(spec, cfg, ops, triple, start, stop, nbytes, staged,
                    computed=False):
    """Stage one chunk in, run the layers below on the compute stream
    (``cfg`` already targets the shard), stage it out.  The layers below
    are the resilience layer when the call's plan is resilient (returning
    the chunk's report), else one dispatch of the shard device's planned
    design (which returns none).

    The fault injector's lane window opens at the chunk's global start, so
    fault placement cannot depend on chunking or sharding.  ``computed``:
    the shard computed the chunk's lanes ahead, so its first dispatch only
    accounts for them (:mod:`repro.gpusim.ahead`).
    """
    s_h2d, s_cmp, s_d2h = triple
    dev = cfg.device
    injector = active_injector(dev)
    if staged:
        stage_chunk(dev, nbytes, direction="h2d", stream=s_h2d)
        if s_cmp is not s_h2d:
            s_cmp.wait_event(s_h2d.record_event())
    with (injector.lane_window(start) if injector is not None
          else nullcontext()), \
            (ahead.accounting() if computed else nullcontext()):
        sub = ops.take(range(start, stop))
        rep = (run_resilient(spec, cfg, sub) if sub.call.plan.resilient
               else spec.dispatch(sub.call.plan.design(dev), cfg, sub))
    if staged:
        if s_d2h is not s_cmp:
            s_d2h.wait_event(s_cmp.record_event())
        stage_chunk(dev, nbytes, direction="d2h", stream=s_d2h)
    return rep


def _run_shard(spec, cfg, ops, dev, ranges, plan, role="full"):
    """Run one shard's lane ranges of ``ops`` on ``dev``.

    The shard first prepares its lanes (the call's
    :class:`~repro.core.stack.Staging` fills: pristine snapshot, layout
    working copies, shared mirrors) unless an earlier round did.  Every
    chunk then runs the layers below on its global lane range
    (:func:`_dispatch_chunk`), and its lanes are scored once they are
    final (``out.done``, which the calling process writes back:
    :func:`_settle`).  A pipelined call (``ops.call.plan.pipelined``)
    stages chunks through the shard's own stream triple, with
    ``ops.call.plan.buffers`` chunk buffers live; the sequential governed
    executor is this runner with one buffer on the caller's stream, and
    its chunk events carry no device and lane-range keys.

    A mid-run allocation failure walks the OOM ladder under
    ``cfg.resilient``: halve the chunk with the policy's capped backoff,
    and once even one lane cannot be leased, finish the remaining lanes
    on the host net.  With live double buffers a failure first *drains*
    the pipeline (frees the completed chunks' leases) and retries,
    because the squeeze may come from our own in-flight leases rather
    than a genuinely too-large chunk.  Lane indices are global throughout
    and the fault injector's lane window is opened at the chunk's global
    start, so results and fault placement cannot depend on the sharding.

    A shard that runs as more than one chunk on a device with no fault
    injector armed (:func:`_computes_ahead`) computes all of its lanes in
    one host pass once they are prepared (:func:`_compute_ahead`): on the
    host a kernel body costs per launch what it costs per chunk.  The
    chunk loop then runs as before, leases, staging records, the layers
    below and the score included, but each chunk's first dispatch only
    accounts for its lanes (:mod:`repro.gpusim.ahead`); every rewind in
    the layers below ends that, and lanes computed ahead that leave the
    shard unfinished (host-rung and failover orphans) are rewound to
    their inputs first.

    With the device fault domain armed (``ops.call.escalate``), a
    :class:`~repro.errors.DeviceLostError` or
    :class:`~repro.errors.KernelHangError` does not propagate: the chunk's
    operands are rewound from the call's pristine snapshot (a hung kernel
    has already mutated them — in-place factorization is not idempotent),
    the failure is described in :attr:`_ShardOutcome.failure`, and every
    lane not yet completed is returned as an orphan range for the
    coordinator to re-shard.  Breaker bookkeeping happens in the
    coordinator once the round's shards are done, not here, which keeps
    failover decisions deterministic.
    """
    out = _ShardOutcome()
    pool = memory_pool(dev)
    pipelined, nbuf = ops.call.plan.pipelined, ops.call.plan.buffers
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
    staging = ops.call.staging
    if staging is not None:
        staging.prepare(ranges)
    # Inputs staged first: the pristine snapshot must never see a
    # computed lane.
    computed = _computes_ahead(chunk, shard_count, dev)
    if computed:
        _compute_ahead(spec, chunk_cfg, ops, ranges)
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
                    rest = [(start, rstop)] + list(pending)
                    if computed:
                        _rewind(spec, ops, rest)
                    _host_net(spec, cfg, ops, rest, out, **why)
                    pending.clear()
                    break
                snap = (ops.call.pristine.take(ops.lanes[start:stop])
                        if failover else None)
                staged = (stop - start) < ops.batch
                t0 = s_cmp.elapsed if s_cmp is not None else 0.0
                try:
                    h2d_bytes += nbytes if staged else 0
                    rep = _dispatch_chunk(spec, chunk_cfg, ops, triple,
                                          start, stop, nbytes, staged,
                                          computed)
                    d2h_bytes += nbytes if staged else 0
                except (DeviceLostError, KernelHangError) as exc:
                    pool.free(nbytes, label=label)
                    if not failover:
                        raise
                    out.orphans = [(start, rstop)] + list(pending)
                    # The chunk's lanes, and every orphan computed ahead.
                    _rewind(spec, ops,
                            out.orphans if computed else [(start, stop)])
                    kind = ("device-lost"
                            if isinstance(exc, DeviceLostError) else "hang")
                    out.failure = {
                        "kind": kind, "device": dev.name,
                        "start": int(start), "stop": int(stop),
                        "injected": bool(getattr(exc, "injected", False))}
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
                if staging is not None:
                    staging.score(ops, [(start, stop)])
                    if out.done and out.done[-1][1] == start:
                        out.done[-1] = (out.done[-1][0], stop)
                    else:
                        out.done.append((start, stop))
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


def _lease_copy(spec, ops) -> Snapshot:
    """A copy of the operands ``spec`` writes, in the call's arena leases
    (a private copy past the arena's bound)."""
    snap, named = Snapshot(), ops.named()
    for name in spec._names(inputs=False):
        arr = named[name]
        copy = ops.call.leases.empty(arr.shape, arr.dtype)
        snap[name] = np.empty(arr.shape, arr.dtype) if copy is None else copy
        snap[name][...] = arr
    return snap


def _run_hedge(spec, cfg, ops, dev, span):
    """Duplicate one completed chunk onto ``dev`` (straggler hedging).

    The primary's outputs are copied first (into the call's arena
    leases), the chunk's operands are rewound to the call's pristine
    snapshot, and the chunk replays on a fresh stream triple.  A
    successful hedge leaves bit-identical outputs (the per-lane
    determinism contract), so only timing attribution and the loser's
    traffic differ; a failed hedge restores the primary's
    outputs and stands down.  Returns ``(ShardResult | None, seconds,
    ok)``.
    """
    start, stop = span["start"], span["stop"]
    nbytes, staged = span["nbytes"], span["staged"]
    lanes = ops.take(range(start, stop))
    out_snap = _lease_copy(spec, lanes)
    pool = memory_pool(dev)
    triple = _shard_streams(cfg, dev, ops.call.plan.buffers)
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


def _fork_count(assignments) -> int:
    """How many of a round's assignments run in forked children.

    Zero unless the platform can ``fork``, no other Python thread is
    alive (a service poller may hold a lock the child needs) and no two
    of the round's devices share one fault injector (each child sends
    back its own device's).  Then every assignment but the first, up to
    one child per spare core.
    """
    if (len(assignments) < 2 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 0
    injectors = [id(inj) for inj in (active_injector(a[0])
                                     for a in assignments)
                 if inj is not None]
    if len(set(injectors)) < len(injectors):
        return 0
    return min(len(assignments) - 1, (os.cpu_count() or 1) - 1)


class _Shared:
    """A pipelined call's operands in the host arena
    (:mod:`repro.core.arena`), set up by the first round that forks.

    Each writable operand not already in the call's arena buffers (the
    layout layer's working copies are) gets an unfilled mirror there.
    The call's :class:`~repro.core.stack.Staging` fills a lane range of
    the mirrors when the lanes are prepared, in the process that runs
    them, and copies it back into the caller's storage when the lanes are
    written back; lanes an earlier round ran in turn are copied at once.
    """

    def __init__(self, ops):
        self.ops = ops
        self.staged = False
        self._back = None

    def stage(self):
        """The staged operands, or ``None`` when the arena cannot hold
        them (or the call's other per-lane buffers)."""
        if self.staged:
            return self.ops
        ops, leases = self.ops, self.ops.call.leases
        staging = ops.call.staged(ops.batch)
        if not staging.shared:
            return None
        pairs = {}
        for name in ("mats", "rhs", "pivots", "info"):
            arr = getattr(ops, name)
            if (arr is not None and arr.flags.writeable
                    and not leases.holds(arr)):
                mirror = leases.like(arr)
                if mirror is None:
                    return None
                pairs[name] = (arr, mirror)

        def fill(lo, hi):
            for arr, mirror in pairs.values():
                mirror[lo:hi] = arr[lo:hi]

        def back(lo, hi):
            for arr, mirror in pairs.values():
                arr[lo:hi] = mirror[lo:hi]

        for lo, hi in lane_runs(staging.prepared, [(0, ops.batch)]):
            fill(lo, hi)
        staging.add(fill, back)
        self._back = back
        self.ops = ops.relayout(**{name: mirror for name, (_, mirror)
                                   in pairs.items()})
        self.staged = True
        return self.ops

    def write_back(self) -> None:
        """Copy the mirrors of every prepared lane back (a call that
        raises; the other lanes' mirrors were never filled)."""
        if self._back is not None:
            for lo, hi in lane_runs(self.ops.call.staging.prepared,
                                    [(0, self.ops.batch)]):
                self._back(lo, hi)


class _Pickler(pickle.Pickler):
    """Sends the round's device specs by position, so the parent gets
    its own objects back (shards and streams compare devices by
    identity)."""

    def __init__(self, file, devices):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self._ids = {id(d): i for i, d in enumerate(devices)}

    def persistent_id(self, obj):
        return self._ids.get(id(obj)) if isinstance(obj, DeviceSpec) else None


class _Unpickler(pickle.Unpickler):
    def __init__(self, file, devices):
        super().__init__(file)
        self._devices = devices

    def persistent_load(self, pid):
        return self._devices[pid]


#: Per-device state a shard changes, each registry keyed by device name:
#: memory pools, health trackers, armed fault injectors.
_DEVICE_STATE = (_POOLS, _HEALTH, _ARMED)


def _install(dev, state) -> None:
    """Make a child's device state ``dev``'s state in this process; the
    objects callers may hold (a pool, a tracker, an armed injector) stay
    the same objects."""
    for registry, theirs in zip(_DEVICE_STATE, state):
        mine = registry.get(dev.name)
        if theirs is None:
            continue
        if mine is None:
            registry[dev.name] = theirs
        else:
            mine.take_state(theirs)


def _uncharge(shard) -> None:
    """Zero the layout-conversion bytes a child shard's launch took: an
    earlier shard of the round took them first."""
    for stream in shard._distinct_streams:
        for i, rec in enumerate(stream.records):
            if getattr(rec, "soa_bytes", 0):
                stream.records[i] = new = replace(rec, soa_bytes=0)
                stream.timeline = [replace(e, record=new)
                                   if e.record is rec else e
                                   for e in stream.timeline]
                return


def _fork_shard(spec, cfg, ops, assignment, devices) -> "_Child":
    """Run one assignment in a forked child; returns its handle.

    The child runs :func:`_run_shard` unchanged on the shared operands
    (preparing and scoring its lanes into the call's shared buffers),
    then pickles back its :class:`_ShardOutcome` (or the exception it
    raised) and its device's state, and exits without returning here.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(wfd)
        return _Child(pid, rfd)
    code = 1
    try:
        # Garbage the parent also holds must not be finalized here too.
        gc.disable()
        os.close(rfd)
        dev = assignment[0]
        owed = ops.call.conversion.nbytes
        out = err = None
        try:
            out = _run_shard(spec, cfg, ops, *assignment)
            for span in out.spans:      # the parent rebuilds the views
                span["snap"] = span["snap"] is not None
        except BaseException as exc:    # re-raised by the parent
            err = (type(exc), exc.args, vars(exc))
        # Did a launch here take the call's layout-conversion charge?
        took = owed > 0 and ops.call.conversion.nbytes == 0
        payload = (out, err, took,
                   tuple(reg.get(dev.name) for reg in _DEVICE_STATE))
        with os.fdopen(wfd, "wb") as pipe:
            _Pickler(pipe, devices).dump(payload)
        code = 0
    finally:
        os._exit(code)


class _Child:
    """A forked shard: collect its result once, or kill it."""

    def __init__(self, pid: int, rfd: int):
        self.pid, self.pipe = pid, os.fdopen(rfd, "rb")

    def collect(self, ops, dev, devices) -> "_ShardOutcome":
        """Read the child's result, reap it, install its device state;
        re-raise the exception its shard raised.

        The call's layout-conversion charge goes to the first launch of
        the first shard, in assignment order, that launched: a child's
        launch keeps the charge it took only if no earlier shard took it.
        """
        try:
            out, err, took, state = _Unpickler(
                self.pipe, devices).load()
        except (EOFError, pickle.UnpicklingError) as exc:
            raise RuntimeError(f"pipeline shard worker {self.pid} on "
                               f"{dev.name} exited without a result") from exc
        finally:
            self.kill()
        _install(dev, state)
        if took:
            first = ops.call.conversion.take() > 0     # no earlier taker
            if not first and out is not None:
                _uncharge(out.shard)
        if err is not None:
            cls, args, attrs = err
            exc = cls.__new__(cls)
            exc.args = args
            exc.__dict__.update(attrs)
            raise exc
        for span in out.spans:
            span["snap"] = (ops.call.pristine.take(
                ops.lanes[span["start"]:span["stop"]])
                if span["snap"] else None)
        return out

    def kill(self) -> None:
        """Stop the child, whatever it is doing, and reap it (once sent,
        its result needs nothing more of it)."""
        self.pipe.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _settle(ops, out) -> "_ShardOutcome":
    """Write the lanes ``out``'s shard finished back into the caller's
    storage, which only the calling process can do."""
    if ops.call.staging is not None:
        ops.call.staging.write_back(out.done)
    return out


def _launch(spec, cfg, shared, assignments) -> list:
    """Run one round's ``(device, ranges, plan, role)`` assignments.

    The first runs on the calling thread.  When :func:`_fork_count`
    allows, each other one (up to one per spare core) runs in a child
    made with ``os.fork()``, on the operands :class:`_Shared` staged into
    shared host memory; any further ones run in turn in the parent once
    the children are collected.  Each shard prepares, runs and scores its
    own lanes where it runs; the parent writes its own shard's lanes back
    while the children run, then each child's once it is collected.  A
    child sends back its :class:`_ShardOutcome` and its device's memory
    pool, health tracker and fault injector, which the parent installs in
    assignment order, so reports, events, pool ledgers and modeled times
    are exactly what running every shard in turn gives.
    Otherwise the round runs in turn on the calling thread.

    A shard that raises stops the round.  If it is the parent's, the
    children are killed and nothing of their devices' state is merged,
    but the lanes they ran are left as far as they got (partly written,
    where in turn they would still hold their inputs), like the raising
    shard's own lanes; a call that raises leaves its outputs undefined.
    A child's exception is re-raised after its device state is
    installed.  No child outlives the round.
    """
    forks = _fork_count(assignments)
    ops = shared.stage() if forks else None
    if ops is None:
        return [_settle(shared.ops, _run_shard(spec, cfg, shared.ops, *a))
                for a in assignments]
    devices = [a[0] for a in assignments]
    children = []
    try:
        for a in assignments[1:forks + 1]:
            children.append(_fork_shard(spec, cfg, ops, a, devices))
        outs = [_settle(ops, _run_shard(spec, cfg, ops, *assignments[0]))]
        for i in range(1, forks + 1):
            outs.append(_settle(ops, children.pop(0).collect(
                ops, devices[i], devices)))
    finally:
        for child in children:
            child.kill()
    return outs + [_settle(ops, _run_shard(spec, cfg, ops, *a))
                   for a in assignments[forks + 1:]]


def execute_pipelined(spec, cfg, ops, lane_bytes):
    """Run a governed batched call through the pipelined executor.

    ``lane_bytes`` is the per-lane device footprint.  Returns ``(outcome,
    budget, result)``: the :class:`_ShardOutcome` of every shard folded
    together (report parts, chunk sizes, OOM-ladder events), the
    tightest planned device budget, and the :class:`PipelineResult` (also
    retrievable, on the calling thread, via :func:`last_pipeline_result`).

    Execution is a sequence of dispatch rounds governed by a per-device
    :class:`~repro.gpusim.multidevice.CircuitBreaker`; a healthy call is a
    single round.  Each round shards the pending lanes across the plan's
    devices the breaker lets through, weighted by modeled throughput
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
    shared = _Shared(ops)
    try:
        return _execute(spec, cfg, shared, lane_bytes)
    except BaseException:
        shared.write_back()
        raise


def _execute(spec, cfg, shared, lane_bytes):
    """:func:`execute_pipelined` on operands a forked round may stage."""
    ops = shared.ops
    batch = ops.batch
    devs, nbuf = ops.call.plan.devices, ops.call.plan.buffers
    policy = cfg.policy or ResiliencePolicy()
    failover = cfg.resilient and len(devs) > 1
    hedge_ratio = policy.hedge_ratio if failover else None
    breaker = (policy.breaker if failover else None) or CircuitBreaker()
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
        outs = _launch(spec, cfg, shared, assignments)
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
            # round's shards are done: a chunk that took longer than
            # hedge_ratio times the round's median replays on the fastest
            # other closed device; the first finisher wins and the loser's
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
                hshard, hdur, ok = _run_hedge(spec, cfg, shared.ops, target,
                                              sp)
                if hshard is None:
                    continue
                # The hedge rewrote the chunk's lanes: score and write
                # them back again when the call finishes.
                ops.call.staging.unscore(sp["start"], sp["stop"])
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
        _host_net(spec, cfg, shared.ops, pending, total,
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
