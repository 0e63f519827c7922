"""Self-healing batched dispatch: retry, fallback, lane quarantine.

The paper's dispatcher (paper Section 5.4) already expresses a degradation
order — fused for tiny orders, sliding-window as the workhorse, and the
fork-join reference design "as a safeguard".  This module turns that order
into an actual fault-tolerance ladder.  The resilience layer
(:func:`run_resilient`, reached as ``resilient=True`` on every batched
driver) wraps each kernel stage so that a batch survives the failure
modes the fault-injection harness (:mod:`repro.gpusim.faults`) models:

* **transient launch failures** (:class:`~repro.errors.DeviceError`) are
  retried in place, up to :attr:`ResiliencePolicy.max_retries` times per
  ladder rung with capped exponential backoff; operands are restored from
  pristine snapshots before every re-attempt, so a retry after a partial
  in-place factorization is exact, not best-effort;
* **shared-memory rejections** (:class:`~repro.errors.SharedMemoryError`)
  degrade to the next rung of the design ladder — ``fused`` → ``window`` →
  ``reference`` for the factorization, ``blocked`` → ``reference`` for the
  solve, fused ``gbsv`` → the standard two-stage path.  The gbtrf/gbtrs
  rungs are bit-identical by contract (the design-equivalence tests pin
  this at ``atol=0``), so a fallback changes *where* the batch runs, never
  *what* it computes;
* **lane corruption and numerical breakdown** are quarantined after the
  fact: any lane whose ``info > 0`` (singular) or whose outputs are
  non-finite is re-run from its snapshot through the reference design —
  first the reference kernels, then, should the storm also knock those
  over, the same per-column elimination on the host (``gbtf2`` /
  ``gbtrs_unblocked``, bit-identical to the reference kernels) — while the
  healthy lanes keep their fast-path results untouched and bit-identical
  to a fault-free run;
* recovered ``gbsv`` lanes that were quarantined for non-finite output, or
  whose pivot growth exceeds :attr:`ResiliencePolicy.growth_threshold`,
  get one :func:`~repro.core.gbrfs.gbrfs` refinement pass against the
  original operands.

Everything that happened is reported through a structured
:class:`BatchReport` so callers (and the fault-sweep tests) can assert the
batch survived *exactly* the storm that was injected.

The resilient path is honest about its own limits: argument errors
(:class:`~repro.errors.ArgumentError`) still raise eagerly — retrying a
malformed call cannot fix it — and a ladder whose every rung is exhausted
re-raises the last device error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields as _dataclass_fields

import numpy as np

from ..band.layout import ldab_for_factor
from ..errors import (
    DeviceError,
    DeviceLostError,
    DeviceMemoryError,
    KernelHangError,
    SharedMemoryError,
)
from ..gpusim.faults import active_injector
from .gbrfs import gbrfs
from .stack import IN, empty_report

__all__ = [
    "ResiliencePolicy",
    "BatchReport",
    "merge_reports",
    "run_resilient",
]

#: Marker used in :attr:`BatchReport.fallbacks` when a quarantine re-run
#: abandoned the reference *kernels* for the host reference *algorithm*.
HOST_FALLBACK = "host"

@dataclass(frozen=True)
class ResiliencePolicy:
    """Tunables for the self-healing dispatch.

    Attributes
    ----------
    max_retries:
        Re-attempts per ladder rung after a transient
        :class:`~repro.errors.DeviceError` before falling to the next
        rung.
    backoff_base, backoff_cap:
        Exponential backoff between retries: attempt ``i`` sleeps
        ``min(backoff_base * 2**(i-1), backoff_cap)`` seconds.  The
        default base of 0 keeps the simulation instant while preserving
        the accounting (:attr:`BatchReport.backoff_total`).
    growth_threshold:
        Pivot-growth ratio ``max|U| / max|A|`` above which a recovered
        ``gbsv`` lane gets a refinement pass even though it is finite.
    refine:
        Master switch for the single :func:`~repro.core.gbrfs.gbrfs`
        pass on recovered ``gbsv`` lanes.
    watchdog:
        Watchdog deadline (modeled seconds) armed on the pipelined
        executor's compute streams; a launch exceeding it raises
        :class:`~repro.errors.KernelHangError` and the chunk fails over.
        ``None`` disables hang detection.
    hedge_ratio:
        Straggler hedging threshold for the pipelined executor: after
        each dispatch round, any chunk whose modeled duration exceeded
        ``hedge_ratio`` times the round's median chunk duration is
        duplicated onto the fastest other healthy device; the first
        finisher wins (results are bit-identical either way) and the
        loser's traffic is attributed in ``BatchReport.device_events``.
        ``None`` disables hedging.
    breaker:
        A :class:`~repro.gpusim.multidevice.CircuitBreaker` shared with
        the pipelined executor; ``None`` gives each pipelined call a
        private breaker.  Pass a long-lived breaker (the serving layer
        does) so device state survives across calls.
    """

    max_retries: int = 4
    backoff_base: float = 0.0
    backoff_cap: float = 0.05
    growth_threshold: float = 1e8
    refine: bool = True
    watchdog: float | None = None
    hedge_ratio: float | None = None
    breaker: object = None

    def __post_init__(self):
        if self.watchdog is not None and self.watchdog <= 0.0:
            raise ValueError(f"watchdog must be > 0, got {self.watchdog}")
        if self.hedge_ratio is not None and self.hedge_ratio < 1.0:
            raise ValueError(
                f"hedge_ratio must be >= 1, got {self.hedge_ratio}")

    def backoff(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), in seconds."""
        return min(self.backoff_base * (2.0 ** (attempt - 1)),
                   self.backoff_cap)


@dataclass
class BatchReport:
    """Structured account of one resilient batched call.

    Lane tuples are 0-based batch indices, sorted ascending.  ``info`` is
    the same array the driver returned, attached for convenience.
    """

    operation: str
    batch: int
    method_requested: str = "auto"
    #: stage name -> design that finally served it (e.g. ``{"gbtrf":
    #: "window", "gbtrs": "blocked"}``).
    methods: dict = field(default_factory=dict)
    #: Launch re-attempts made after transient device errors.
    retries: int = 0
    #: Injected/real :class:`~repro.errors.DeviceError` launches absorbed.
    launch_failures: int = 0
    #: :class:`~repro.errors.SharedMemoryError` rejections absorbed.
    smem_rejections: int = 0
    #: Seconds of backoff accounted (slept when ``backoff_base > 0``).
    backoff_total: float = 0.0
    #: ``(stage, from_design, to_design)`` degradations, in order.
    fallbacks: list = field(default_factory=list)
    #: Lanes pulled off the fast path (union of singular + corrupted).
    quarantined: tuple = ()
    #: Quarantined lanes whose final ``info > 0`` (genuinely singular).
    singular: tuple = ()
    #: Quarantined lanes with non-finite output (corruption/breakdown).
    corrupted: tuple = ()
    #: Recovered lanes that received a gbrfs refinement pass.
    refined: tuple = ()
    #: Lanes that stayed non-finite even after the reference re-run
    #: (their *inputs* are non-finite; nothing recoverable).
    unrecovered: tuple = ()
    #: Estimated resident device footprint of the call, bytes (0 when the
    #: memory governor did not run, e.g. ``execute=False``).
    footprint_bytes: int = 0
    #: Device-memory budget the call was admitted against, bytes (None when
    #: the governor did not run).
    budget_bytes: int | None = None
    #: Lane counts of the chunks that executed on the device, in order.  A
    #: batch that fit whole records a single full-size chunk; lanes that
    #: finished on the host net appear in :attr:`chunk_events`, not here.
    chunks: tuple = ()
    #: Injected/real :class:`~repro.errors.DeviceMemoryError` allocations
    #: absorbed by the chunking ladder.
    oom_failures: int = 0
    #: Structured memory-governance decisions, in order: dicts with an
    #: ``action`` key (``"split"``, ``"halve"``, ``"host"``, and under
    #: the pipelined executor ``"drain"``) plus the numbers behind the
    #: decision; pipelined events also carry a ``"device"`` key.
    chunk_events: list = field(default_factory=list)
    #: Device names the call's shards ran on (empty for a plain
    #: single-device run outside the pipelined executor).
    devices: tuple = ()
    #: Modeled pipelined makespan, seconds (0 outside the pipelined
    #: executor): the per-stream tail maximum across every shard.
    makespan: float = 0.0
    #: Failure-domain decisions from the pipelined executor, in order:
    #: circuit-breaker transitions (``trip`` / ``probe`` / ``reopen`` /
    #: ``recover`` / ``dead``), chunk ``failover`` re-shards, and
    #: ``hedge`` duplicate dispatches (winner, loser, attributed bytes).
    device_events: list = field(default_factory=list)
    #: Chunks re-dispatched onto a surviving device after a device-lost
    #: or kernel-hang failure.
    failovers: int = 0
    #: Straggler chunks duplicated onto a second device (first-finisher
    #: wins; results are bit-identical either way).
    hedges: int = 0
    #: Verification mode that ran (``"cheap"`` / ``"full"``, empty when
    #: the call was not verified).  All ``verify_``/SDC fields below are
    #: stamped by :mod:`repro.core.verify`.
    verify_mode: str = ""
    #: Lanes whose residual gate was evaluated.
    verified_lanes: int = 0
    #: Lanes that failed a residual gate or digest check (silent data
    #: corruption detected).
    sdc_detected: tuple = ()
    #: Detected lanes the recovery ladder brought back under tolerance.
    sdc_recovered: tuple = ()
    #: Lanes whose read-only operands changed fingerprints across the
    #: stage boundary (restored from snapshots).
    digest_mismatches: tuple = ()
    #: Lanes that still fail their gate but are *expected*-inaccurate:
    #: condition estimate below the policy floor or pivot growth past the
    #: threshold.  Accepted, never raised.
    ill_conditioned: tuple = ()
    #: Lane-recompute events the escalation ladder performed (device
    #: recompute, host reference, equilibrated refactor).
    recomputes: int = 0
    #: Worst scaled residual observed across verified lanes.
    residual_max: float = 0.0
    #: Worst pivot-growth ratio ``max|U| / max|A|`` across verified lanes.
    growth_max: float = 0.0
    #: Worst gbrfs component-wise backward error across refined lanes.
    berr_max: float = 0.0
    #: Worst forward-error bound ``berr / rcond`` across refined lanes.
    ferr_max: float = 0.0
    #: Smallest gbcon condition estimate stamped (None when no estimate
    #: ran; ``'full'`` mode stamps every healthy lane).
    rcond_min: float | None = None
    info: np.ndarray | None = None

    @property
    def faults_tolerated(self) -> int:
        """Total faults this call absorbed without raising."""
        return (self.launch_failures + self.smem_rejections
                + len(self.corrupted) + self.oom_failures + self.failovers)

    @property
    def ok(self) -> bool:
        """True when every lane ended in a well-defined state."""
        return not self.unrecovered

    def summary(self) -> str:
        """One-line human-readable account."""
        parts = [f"{self.operation} batch={self.batch}"]
        if self.methods:
            parts.append("via " + ",".join(
                f"{s}:{m}" for s, m in sorted(self.methods.items())))
        parts.append(f"retries={self.retries}")
        parts.append(f"launch_failures={self.launch_failures}")
        parts.append(f"smem_rejections={self.smem_rejections}")
        if self.fallbacks:
            parts.append("fallbacks=" + ";".join(
                f"{s}:{a}->{b}" for s, a, b in self.fallbacks))
        if self.quarantined:
            parts.append(f"quarantined={list(self.quarantined)}"
                         f" (singular={list(self.singular)},"
                         f" corrupted={list(self.corrupted)})")
        if self.refined:
            parts.append(f"refined={list(self.refined)}")
        if len(self.chunks) > 1 or self.oom_failures:
            parts.append(f"chunks={list(self.chunks)}")
            parts.append(f"oom_failures={self.oom_failures}")
            parts.append(f"footprint={self.footprint_bytes}B"
                         f"/budget={self.budget_bytes}B")
        if self.devices:
            parts.append(f"devices={list(self.devices)}")
            parts.append(f"makespan={self.makespan * 1e3:.3f}ms")
        if self.failovers:
            parts.append(f"failovers={self.failovers}")
        if self.hedges:
            parts.append(f"hedges={self.hedges}")
        if self.device_events:
            parts.append(f"device_events={len(self.device_events)}")
        if self.verify_mode:
            parts.append(f"verify={self.verify_mode}"
                         f" lanes={self.verified_lanes}"
                         f" residual_max={self.residual_max:.3e}")
            if self.sdc_detected:
                parts.append(f"sdc_detected={list(self.sdc_detected)}"
                             f" recovered={list(self.sdc_recovered)}"
                             f" recomputes={self.recomputes}")
            if self.digest_mismatches:
                parts.append(
                    f"digest_mismatches={list(self.digest_mismatches)}")
            if self.ill_conditioned:
                parts.append(
                    f"ill_conditioned={list(self.ill_conditioned)}")
            if self.rcond_min is not None:
                parts.append(f"rcond_min={self.rcond_min:.3e}")
        if self.unrecovered:
            parts.append(f"UNRECOVERED={list(self.unrecovered)}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        """JSON-safe dict of the full report (for structured logging).

        Everything numpy becomes plain Python; tuples become lists.  The
        derived ``ok`` / ``faults_tolerated`` properties are included for
        log consumers; :meth:`from_dict` ignores them on the way back.
        """
        out = {f.name: _plain(getattr(self, f.name))
               for f in _dataclass_fields(self)}
        out["ok"] = bool(self.ok)
        out["faults_tolerated"] = int(self.faults_tolerated)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "BatchReport":
        """Rebuild a report from :meth:`to_dict` output (round-trip).

        Unknown keys are ignored (forward compatibility: a log written by
        a newer version still loads), as are the derived properties
        :meth:`to_dict` includes for log consumers.
        """
        d = {}
        for f in _dataclass_fields(cls):
            if f.default == ():
                d[f.name] = tuple(data.get(f.name, ()))
            elif f.name in data:
                d[f.name] = data[f.name]
        d["fallbacks"] = [tuple(f) for f in d.get("fallbacks", [])]
        if d.get("info") is not None:
            d["info"] = np.asarray(d["info"], dtype=np.int64)
        return cls(**d)


def _plain(value):
    """JSON-safe copy: numpy → Python scalars, tuples → lists."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


# Report fields merged across vbatch groups by addition (counters, event
# logs, chunk sizes) and by maximum (worst-case figures).
_SUMMED = ("retries", "launch_failures", "smem_rejections", "backoff_total",
           "fallbacks", "footprint_bytes", "chunks", "oom_failures",
           "chunk_events", "device_events", "failovers", "hedges",
           "verified_lanes", "recomputes")
_MAXED = ("makespan", "residual_max", "growth_max", "berr_max", "ferr_max")
_LANES = ("quarantined", "singular", "corrupted", "refined", "unrecovered",
          "sdc_detected", "sdc_recovered", "digest_mismatches",
          "ill_conditioned")


def _min_of(a, b):
    return b if a is None else a if b is None else min(a, b)


def merge_reports(operation: str, batch: int, parts) -> BatchReport:
    """Merge per-group reports of a vbatch call into one global report.

    ``parts`` is a sequence of ``(lane_indices, BatchReport)`` pairs where
    ``lane_indices[j]`` is the global lane of the group's lane ``j``.
    """
    merged = BatchReport(operation, batch)
    info = np.zeros(batch, dtype=np.int64)
    for idxs, rep in parts:
        merged.method_requested = rep.method_requested
        for name in _SUMMED:
            setattr(merged, name, getattr(merged, name) + getattr(rep, name))
        for name in _MAXED:
            setattr(merged, name, max(getattr(merged, name),
                                      getattr(rep, name)))
        for name in _LANES:
            setattr(merged, name, getattr(merged, name) + tuple(
                int(idxs[k]) for k in getattr(rep, name)))
        merged.budget_bytes = _min_of(merged.budget_bytes, rep.budget_bytes)
        merged.rcond_min = _min_of(merged.rcond_min, rep.rcond_min)
        merged.devices += tuple(d for d in rep.devices
                                if d not in merged.devices)
        merged.verify_mode = rep.verify_mode or merged.verify_mode
        for stage, meth in rep.methods.items():
            prev = merged.methods.get(stage)
            if prev is None:
                merged.methods[stage] = meth
            elif meth not in prev.split("+"):
                merged.methods[stage] = prev + "+" + meth
        if rep.info is not None:
            for j, i in enumerate(idxs):
                info[i] = rep.info[j]
    for name in _LANES:
        setattr(merged, name, tuple(sorted(getattr(merged, name))))
    merged.info = info
    return merged


# --- ladder execution ------------------------------------------------------

def _run_ladder(report, spec, cfg, ops, snap, policy, rungs,
                stage=None) -> np.ndarray | None:
    """Run ``spec`` down the design ladder ``rungs`` until one succeeds,
    else rewind once and run its net.

    The operands are rewound to their pristine snapshots before every
    attempt except the very first (whose operands are already pristine),
    which is what keeps the zero-fault overhead to one snapshot copy.
    Transient :class:`~repro.errors.DeviceError` launches are retried on
    the same rung; :class:`~repro.errors.SharedMemoryError` falls straight
    to the next rung (re-asking for the same allocation cannot succeed).
    Each exhausted rung records a fallback to the next rung or the net.

    The net of a stage is the host reference algorithm (``gbtf2`` /
    ``gbtrs_unblocked``, which the design-equivalence tests pin as
    bit-identical to the reference kernels), so a storm that rejects even
    the reference kernels still finishes and the resilience layer raises
    only for argument errors.  The net of a composed op is its stages:
    the factorization runs its own ladder, and the solve runs on the
    lanes it left healthy (per-lane results do not depend on sub-batch
    composition, so the sub-batch is bit-identical).  Returns the
    per-lane finite-factor mask a composed op's net scanned after its
    factorization when nothing can have written the factors since (the
    solve stage only reads them; a fault injector armed on the device
    may poison them after a solve kernel), else ``None``.

    When the call runs under the pipelined executor's device fault domain
    (``ops.call.escalate``), whole-device failures and watchdog hangs are
    raised at once: the pipeline coordinator owns them — it trips the
    circuit breaker and re-shards the chunk onto a surviving device —
    instead of their being retried on a dying device or absorbed into the
    net.
    """
    stage = stage or spec.name
    if spec.stages:
        def net():
            factor, solve = spec.stages
            _run_ladder(report, factor, cfg, ops, snap, policy,
                        factor.ladder(ops.call.plan.stage(cfg.device)))
            if not ops.nrhs:
                return None
            finite = ops.finite_factors()
            ok = np.flatnonzero((ops.info == 0) & finite).tolist()
            if len(ok) == ops.batch:    # all lanes: a stack stays a stack
                ok = range(ops.batch)
            if ok:
                sub = ops.take(ok)
                _run_ladder(report, solve, cfg, sub, snap.take(ok), policy,
                            solve.designs)
                ops.put_back(ok, sub, solve)
            return finite if active_injector(cfg.device) is None else None
    else:
        rungs = (*rungs, HOST_FALLBACK)

        def net():
            spec.host(ops)
            report.methods[stage] = HOST_FALLBACK
    dirty = False
    for pos, meth in enumerate(rungs[:-1]):     # the last names the net
        attempt = 0
        while True:
            try:
                if dirty:
                    spec.restore(ops, snap)
                dirty = True
                spec.dispatch(meth, cfg, ops)
                report.methods[stage] = meth
                return
            except (DeviceError, DeviceMemoryError, SharedMemoryError) as exc:
                if ops.call.escalate and isinstance(
                        exc, (DeviceLostError, KernelHangError)):
                    raise
                if isinstance(exc, SharedMemoryError):
                    report.smem_rejections += 1
                    break
                # Allocation failures (injected or genuine pressure) are
                # transient like launch failures: retry the rung, then
                # fall down the ladder toward the net.
                if isinstance(exc, DeviceMemoryError):
                    report.oom_failures += 1
                else:
                    report.launch_failures += 1
                if attempt >= policy.max_retries:
                    break
                attempt += 1
                report.retries += 1
                delay = policy.backoff(attempt)
                if delay > 0:
                    report.backoff_total += delay
                    time.sleep(delay)
        report.fallbacks.append((stage, meth, rungs[pos + 1]))
    if dirty:
        spec.restore(ops, snap)
    return net()


def _quarantine(report, spec, cfg, ops, snap, policy,
                factors=None) -> None:
    """Pull singular and corrupted lanes off the fast path and re-run them.

    Any lane whose ``info > 0`` (singular) or whose outputs are
    non-finite is rewound to its pristine inputs and re-run through the
    reference design; healthy lanes keep their fast-path results.
    Recovered factor-and-solve lanes quarantined for corruption — or
    whose pivot growth exceeds the policy threshold — get one
    :func:`~repro.core.gbrfs.gbrfs` refinement pass.  ``factors`` is
    the finite-factor mask already scanned since the factors were last
    written, if any.
    """
    info = ops.info
    if factors is None:
        factors = ops.finite_factors()
    finite = factors & ops.finite_solution()
    singular = np.flatnonzero(info > 0).tolist()
    corrupted = np.flatnonzero((info <= 0) & ~finite).tolist()
    bad = sorted(singular + corrupted)
    if not bad:
        return
    report.quarantined = tuple(bad)
    report.singular = tuple(singular)
    report.corrupted = tuple(corrupted)
    spec.restore(ops, snap, bad, inputs=True)
    factor, solve = spec.stages or (spec, spec)
    recovered, unrecovered = bad, []
    if factor.roles["pivots"] != IN:       # a pure solve factors nothing
        sub = ops.take(bad)
        _run_ladder(report, factor, cfg, sub, snap.take(bad), policy,
                    ("reference",), stage="quarantine:" + factor.name)
        ops.put_back(bad, sub, factor)
        factored = ops.finite_factors()
        live = [k for k in bad if info[k] == 0]
        unrecovered = [k for k in live if not factored[k]]
        recovered = [k for k in live if factored[k]]
    if ops.rhs is not None and ops.nrhs and recovered:
        sub = ops.take(recovered)
        _run_ladder(report, solve, cfg, sub, snap.take(recovered), policy,
                    ("reference",), stage="quarantine:" + solve.name)
        ops.put_back(recovered, sub, solve)
        solved = ops.finite_solution()
        unrecovered += [k for k in recovered if not solved[k]]
        if spec.stages and policy.refine:
            report.refined = _refine(spec, ops, snap, policy, [
                k for k in recovered if solved[k]], set(corrupted))
    report.unrecovered = tuple(sorted(unrecovered))
    report.singular = tuple(k for k in bad if info[k] > 0)


def _refine(spec, ops, snap, policy, lanes, corrupted) -> tuple:
    """One gbrfs pass on lanes that were corrupted or grew too much."""
    from .verify import pivot_growth_batch
    if not lanes:
        return ()
    rows = ldab_for_factor(ops.kl, ops.ku)
    growth = pivot_growth_batch(ops.mats[lanes],
                                snap["a"][lanes][:, :rows], ops.kl, ops.ku)
    refined = []
    for k, g in zip(lanes, growth):
        if k in corrupted or g > policy.growth_threshold:
            gbrfs(ops.n, ops.kl, ops.ku, snap["a"][k], ops.mats[k],
                  ops.pivots[k], snap["b"][k], ops.rhs[k], max_iter=1)
            refined.append(k)
    return tuple(refined)


# --- the resilience layer --------------------------------------------------

def run_resilient(spec, cfg, ops) -> BatchReport:
    """Self-healing dispatch of one (sub-)batch; returns its report.

    Healthy lanes are bit-identical to a fault-free call: every design of
    a stage is bit-identical, and every retry rewinds the operands from
    one pristine snapshot per call (verify's, when verification is on,
    else the one :func:`repro.core.stack.govern` registers).
    Singular lanes keep LAPACK semantics — factors and pivots written,
    ``info > 0``, ``B`` left unchanged.
    """
    policy = cfg.policy or ResiliencePolicy()
    report = empty_report(spec, cfg, ops)
    snap = ops.call.pristine.take(ops.lanes)
    factors = _run_ladder(report, spec, cfg, ops, snap, policy,
                          spec.ladder(ops.call.plan.design(cfg.device)))
    _quarantine(report, spec, cfg, ops, snap, policy, factors)
    return report
