"""Device-memory governance: admission control and OOM-safe chunking.

The paper runs batches that fit comfortably in HBM; a production library
cannot assume that.  This module makes every batched driver OOM-safe:

* :func:`plan_batch` estimates the resident device footprint of a call
  from its actual operands, compares it against the device
  :class:`~repro.gpusim.memory.MemoryPool` budget (optionally tightened by
  ``max_resident_bytes``), and decides how many lanes fit at once;
* the governance layer (:func:`run_governed`, reached transparently
  through every batched driver) leases each chunk's footprint from the
  pool, streams it upload -> solve -> download, and releases the lease
  so the next chunk reuses the same residency — an oversized batch
  completes bit-identically to an unchunked run because every lane's
  result is independent of sub-batch composition (the same contract the
  resilient quarantine path relies on);
* a mid-run :class:`~repro.errors.DeviceMemoryError` — injected by the
  fault harness or raised by a genuinely exhausted pool — walks a
  degradation ladder under ``resilient=True``: halve the chunk size with
  the policy's capped backoff, degrade to per-lane execution
  (``chunk=1``), and finally finish the remaining lanes on the host
  reference algorithm.  Every decision lands in
  :attr:`~repro.core.resilience.BatchReport.chunk_events`.

Governance applies only to outermost functional calls: timing-only
(``execute=False``) and graph-capturing calls are exempt (the call's
:class:`~repro.core.stack.CallPlan` says which), and a chunk is never
re-chunked: each chunk runs the layers below governance directly.

Fault-injection semantics: allocation faults strike at chunk boundaries
(the lease points), and the executor opens a
:meth:`~repro.gpusim.faults.FaultInjector.lane_window` per chunk so a
corruption plan targeting global lane *k* hits the same lane no matter
how the batch is chunked — the determinism the fault-plan tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..band.layout import ldab_for_factor
from ..errors import DeviceMemoryError, check_arg
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..gpusim.memory import memory_pool
from .resilience import merge_reports

__all__ = [
    "MemoryPlan",
    "estimate_footprint",
    "estimate_vbatch_footprint",
    "lane_footprint",
    "plan_batch",
    "run_governed",
]

#: Bytes of one device pointer (pointer-array entries for each operand).
POINTER_BYTES = 8
#: Bytes of one ``info`` entry resident on the device.
INFO_BYTES = 8


# --- footprint estimation --------------------------------------------------

def estimate_footprint(op: str, *, batch: int, n: int, kl: int, ku: int,
                       m: int | None = None, nrhs: int = 0,
                       itemsize: int = 8) -> int:
    """Estimated resident device footprint of one batched call, bytes.

    Counts, per lane: the band matrix in factor layout (``ldab = 2*kl +
    ku + 1`` rows), the pivot vector, the ``info`` entry, the right-hand
    sides (``gbtrs``/``gbsv``), and one device pointer per operand array.
    This is the shape-based mirror of what the governance layer charges
    from the actual operands.
    """
    check_arg(op in ("gbtrf", "gbtrs", "gbsv"), 1,
              f"op must be one of ('gbtrf', 'gbtrs', 'gbsv'), got {op!r}")
    m = n if m is None else m
    lane = ldab_for_factor(kl, ku) * n * itemsize
    lane += min(m, n) * 8 + INFO_BYTES      # pivots + info
    pointers = 2 * POINTER_BYTES            # matrix + pivot arrays
    if op in ("gbtrs", "gbsv"):
        lane += n * nrhs * itemsize
        pointers += POINTER_BYTES
    return batch * (lane + pointers)


def estimate_vbatch_footprint(op: str, ns, kls, kus, *, ms=None,
                              nrhss=None, itemsize: int = 8) -> int:
    """Footprint of a variable-size batch: the sum over its lanes."""
    total = 0
    for k, n in enumerate(ns):
        total += estimate_footprint(
            op, batch=1, n=int(n), kl=int(kls[k]), ku=int(kus[k]),
            m=None if ms is None else int(ms[k]),
            nrhs=0 if nrhss is None else int(nrhss[k]),
            itemsize=itemsize)
    return total


def lane_footprint(*operand_nbytes: int) -> int:
    """Exact resident device bytes of one lane whose operand arrays
    (matrix, pivots, right-hand sides) hold ``operand_nbytes`` bytes:
    the arrays, the ``info`` entry and one device pointer per operand."""
    return (sum(operand_nbytes) + INFO_BYTES
            + POINTER_BYTES * len(operand_nbytes))


# --- the plan --------------------------------------------------------------

@dataclass(frozen=True)
class MemoryPlan:
    """Admission decision for one batched call.

    ``chunk`` is the largest lane count whose footprint fits the budget
    (at least 1 — a single unfit lane is caught by admission control, not
    by the planner), further capped by ``chunk_hint``.
    """

    batch: int
    lane_bytes: int
    footprint: int
    budget: int
    chunk: int
    admitted: bool

    @property
    def num_chunks(self) -> int:
        """Chunks needed at the planned size (ceiling division)."""
        if self.batch == 0:
            return 0
        return -(-self.batch // self.chunk)

    @property
    def chunked(self) -> bool:
        """True when the batch will run as more than one chunk."""
        return self.batch > 0 and self.chunk < self.batch


def plan_batch(batch: int, lane_bytes: int, *,
               device: DeviceSpec = H100_PCIE,
               max_resident_bytes: int | None = None,
               chunk_hint: int | None = None,
               buffers: int = 1) -> MemoryPlan:
    """Plan the chunking of ``batch`` lanes of ``lane_bytes`` each.

    The budget is the device pool's remaining capacity, tightened by
    ``max_resident_bytes`` when given.  ``chunk_hint`` can only shrink
    the chunk (it forces chunked execution even when everything fits —
    useful for staging pipelines and for the bit-identity tests); it
    never admits more than the budget allows.  ``buffers`` is the number
    of chunk leases the executor keeps live simultaneously (double/triple
    buffering in the pipelined executor): the chunk is sized against
    ``budget // buffers`` so the whole in-flight set respects admission
    control, while ``admitted`` still compares the full footprint against
    the full budget.
    """
    check_arg(max_resident_bytes is None or max_resident_bytes > 0, 3,
              f"max_resident_bytes must be positive, "
              f"got {max_resident_bytes}")
    check_arg(chunk_hint is None or chunk_hint > 0, 4,
              f"chunk_hint must be positive, got {chunk_hint}")
    check_arg(buffers >= 1, 5, f"buffers must be >= 1, got {buffers}")
    budget = memory_pool(device).available
    if max_resident_bytes is not None:
        budget = min(budget, int(max_resident_bytes))
    footprint = batch * lane_bytes
    fit = ((budget // int(buffers)) // lane_bytes if lane_bytes > 0
           else batch)
    chunk = min(batch, max(1, fit)) if batch else 0
    if chunk_hint is not None and batch:
        chunk = max(1, min(chunk, int(chunk_hint)))
    return MemoryPlan(batch=batch, lane_bytes=lane_bytes,
                      footprint=footprint, budget=budget, chunk=chunk,
                      admitted=footprint <= budget)


# --- chunked execution -----------------------------------------------------

def _plan_admitted(cfg, device: DeviceSpec, batch: int, lane_bytes: int,
                   buffers: int = 1) -> MemoryPlan:
    """Plan ``batch`` lanes on ``device`` under ``cfg``'s caps.

    Admission control for the plain (non-resilient) path: without a
    recovery ladder there is nothing to degrade to, so a call whose
    single lane exceeds the budget fails structurally *before* any work
    touches the operands.
    """
    plan = plan_batch(batch, lane_bytes, device=device,
                      max_resident_bytes=cfg.max_resident_bytes,
                      chunk_hint=cfg.chunk_hint, buffers=buffers)
    if not cfg.resilient and plan.lane_bytes > plan.budget:
        raise DeviceMemoryError(plan.lane_bytes,
                                memory_pool(device).in_use, plan.budget,
                                device=device.name)
    return plan


# --- the governance layer --------------------------------------------------

def run_governed(spec, cfg, ops):
    """Lease, chunk and stream one batch; returns its report when resilient.

    Each chunk runs the layers below (the resilience layer when the plan
    says so, else one dispatch) on its lane range, on the caller's device
    and stream — or, for a pipelined plan, on a shard's device and
    compute stream under the pipelined executor
    (:mod:`repro.core.pipeline`).  Same contract as an ungoverned call:
    ``resilient`` chunk reports merge into one.
    """
    from . import pipeline
    batch = ops.batch
    lane_bytes = spec.lane_bytes(ops)
    presult = None
    if ops.call.plan.pipelined:
        out, budget, presult = pipeline.execute_pipelined(spec, cfg, ops,
                                                          lane_bytes)
    else:
        # The sequential executor: one buffer on the caller's stream.
        plan = _plan_admitted(cfg, cfg.device, batch, lane_bytes)
        out = pipeline._settle(ops, pipeline._run_shard(
            spec, cfg, ops, cfg.device, [(0, batch)], plan))
        budget = plan.budget
    if not ops.call.plan.resilient:
        return None
    report = merge_reports(spec.name, batch, out.parts)
    report.method_requested, report.info = cfg.method, ops.info
    report.footprint_bytes, report.budget_bytes = batch * lane_bytes, budget
    report.chunks = tuple(out.chunks)
    report.oom_failures += out.oom
    report.chunk_events.extend(out.events)
    report.backoff_total += out.backoff
    if presult is not None:
        report.devices = presult.devices
        report.makespan = presult.makespan
        report.device_events.extend(dict(e) for e in presult.device_events)
        report.failovers += presult.failovers
        report.hedges += presult.hedges
    return report
