"""Deterministic fault injection for the simulated device.

The paper keeps the reference design "as a safeguard" next to the fused and
sliding-window kernels (paper Section 5.4); exercising that safeguard — and
the retry/quarantine machinery of :mod:`repro.core.resilience` built around
it — requires failures on demand.  This module supplies them, seeded and
reproducible:

* **launch failures** — :class:`~repro.errors.DeviceError` raised from
  :func:`repro.gpusim.kernel.launch` with a configurable per-launch
  probability (the moral equivalent of a transient
  ``cudaErrorLaunchFailure``);
* **shared-memory rejections** — :class:`~repro.errors.SharedMemoryError`
  raised for the next ``k`` matching launches, as if the device refused the
  kernel's dynamic shared-memory request;
* **lane corruption** — designated batch lanes have their operands
  overwritten with NaN/Inf *after* a kernel stage executes, modelling a
  memory fault that poisons one problem without touching its neighbours;
* **allocation failures** — :class:`~repro.errors.DeviceMemoryError`
  raised from :meth:`repro.gpusim.memory.MemoryPool.alloc` with a
  configurable per-allocation probability (a transient
  ``cudaErrorMemoryAllocation``);
* **capacity squeezes** — the next ``k`` allocations see the pool's
  capacity transiently scaled down by ``squeeze_fraction``, modelling
  fragmentation or a competing tenant grabbing memory mid-run;
* **device outages** — after ``outage_after`` launch attempts the whole
  device raises :class:`~repro.errors.DeviceLostError` on every launch,
  either permanently or until ``outage_failures`` attempts have bounced
  off it (an Xid-style fallen-off-the-bus event followed by a reset);
* **kernel hangs** — the next ``k`` matching launches have their modeled
  duration inflated by ``hang_seconds``; a stream watchdog
  (:class:`~repro.gpusim.stream.Stream`) converts the stall into
  :class:`~repro.errors.KernelHangError`;
* **silent data corruption (compute)** — designated lanes have one
  element of their operands perturbed by a *finite* scale-relative delta
  after a kernel stage executes, invisible to the NaN/Inf scans that
  catch :data:`LANE_CORRUPTION` — only the residual gates of
  :mod:`repro.core.verify` see it;
* **silent data corruption (transfer)** — designated lanes are flipped
  *before* a matching kernel stage consumes them (corrupted staging),
  and real host<->device copies through :mod:`repro.gpusim.transfer`
  can have one payload element flipped in flight, attributed on the
  resulting :class:`~repro.gpusim.transfer.TransferRecord`.

Corruption lanes are *global* batch indices: when the memory-governed
drivers (:mod:`repro.core.memory_plan`) split a batch into chunks, they
set :attr:`FaultInjector.lane_offset` (via :meth:`FaultInjector.lane_window`)
so the same plan storms the same lanes regardless of chunk size.

A :class:`FaultPlan` describes the storm; arming it on a device (via
:func:`arm_faults` or the :func:`fault_injection` context manager) installs
a :class:`FaultInjector` that the launcher consults on every launch.  Every
injected fault is appended to the injector's :attr:`~FaultInjector.log`,
and corruption events additionally travel on the resulting
:class:`~repro.gpusim.kernel.LaunchRecord` so traces stay attributable.

All decisions are driven by ``numpy``'s PCG64 generator seeded from
``FaultPlan.seed``: the same plan against the same call sequence injects
the same faults, which is what lets tests assert that the self-healing
dispatcher survived *exactly* the storm it was dealt.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..errors import (DeviceError, DeviceLostError, DeviceMemoryError,
                      SharedMemoryError)

__all__ = [
    "LAUNCH_FAILURE", "SMEM_REJECTION", "LANE_CORRUPTION",
    "ALLOC_FAILURE", "CAPACITY_SQUEEZE", "DEVICE_OUTAGE", "KERNEL_HANG",
    "SDC_FLIP", "TRANSFER_CORRUPTION",
    "FaultEvent", "FaultPlan", "FaultInjector",
    "arm_faults", "disarm_faults", "active_injector", "fault_injection",
]

LAUNCH_FAILURE = "launch-failure"
SMEM_REJECTION = "smem-rejection"
LANE_CORRUPTION = "lane-corruption"
ALLOC_FAILURE = "alloc-failure"
CAPACITY_SQUEEZE = "capacity-squeeze"
DEVICE_OUTAGE = "device-outage"
KERNEL_HANG = "kernel-hang"
SDC_FLIP = "sdc-flip"
TRANSFER_CORRUPTION = "transfer-corruption"


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded on the injector log and the trace.

    ``lane`` is the 0-based batch lane for corruption events and ``-1``
    for launch-level faults.
    """

    kind: str
    kernel: str
    device: str
    lane: int = -1
    detail: str = ""


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of a fault storm.

    Attributes
    ----------
    seed:
        Seed for the injector's PCG64 generator; identical plans replay
        identical fault sequences.
    launch_failure_rate:
        Per-launch probability in ``[0, 1]`` of an injected
        :class:`~repro.errors.DeviceError`.
    max_launch_failures:
        Cap on the number of injected launch failures (``None`` =
        unlimited).
    fail_kernels:
        Substring filter on the kernel name for launch failures
        (``""`` matches every kernel).
    smem_rejections:
        Number of launches (matching ``smem_kernels``) whose shared-memory
        request is rejected with
        :class:`~repro.errors.SharedMemoryError`; each rejection is
        consumed once.
    smem_kernels:
        Substring filter on the kernel name for shared-memory rejections.
    corrupt_lanes:
        Batch lanes to poison once each, after a kernel matching
        ``corrupt_after`` executes them.
    corrupt_value:
        Value written over the poisoned lane's floating-point operands
        (NaN by default; use ``float("inf")`` for overflow-style faults).
    corrupt_after:
        Substring naming the stage after which corruption strikes
        (e.g. ``"gbtrf"``); ``""`` poisons after the first kernel that
        executes the lane.
    alloc_failure_rate:
        Per-allocation probability in ``[0, 1]`` of an injected
        :class:`~repro.errors.DeviceMemoryError` from
        :meth:`repro.gpusim.memory.MemoryPool.alloc`.
    max_alloc_failures:
        Cap on the number of injected allocation failures (``None`` =
        unlimited).
    alloc_labels:
        Substring filter on the allocation label for allocation failures
        (``""`` matches every allocation; the governed drivers label their
        chunk leases ``"<op>-chunk@<device>"``).
    capacity_squeezes:
        Number of allocations that see the pool capacity transiently
        multiplied by ``squeeze_fraction``; each squeeze is consumed once
        (whether or not it makes the allocation fail).
    squeeze_fraction:
        Capacity multiplier in ``(0, 1]`` applied by a squeeze.
    outage_after:
        When set, the device falls over after this many launch attempts:
        attempt ``outage_after + 1`` and every attempt thereafter raises
        :class:`~repro.errors.DeviceLostError` until ``outage_failures``
        failed attempts have been consumed.  ``0`` means the device is
        down from the first launch.
    outage_failures:
        Number of failed launch attempts the outage absorbs before the
        device recovers; ``None`` makes the outage permanent.
    hang_kernels:
        Substring filter on the kernel name for injected hangs (``""``
        matches every kernel once ``hang_launches`` is positive).
    hang_launches:
        Number of matching launches whose modeled duration is inflated by
        ``hang_seconds``; each hang is consumed once.  A stream armed with
        a ``watchdog`` deadline converts the inflated duration into a
        :class:`~repro.errors.KernelHangError`; without a watchdog the
        hang silently stretches the timeline (an undetected straggler).
    hang_seconds:
        Modeled seconds added to a hung launch's duration.
    sdc_lanes:
        Batch lanes struck by a silent *compute* flip once each, after a
        kernel matching ``sdc_after`` executes them: one element of the
        lane's floating-point operands is perturbed by a finite delta of
        ``sdc_scale * max(1, max|operand|)``.  The result stays finite —
        NaN/Inf scans cannot see it; only residual verification can.
    sdc_after:
        Substring naming the stage after which the compute flip strikes
        (e.g. ``"gbtrf"``); ``""`` flips after the first kernel that
        executes the lane.
    sdc_scale:
        Relative magnitude of every silent flip (compute and transfer),
        as a multiple of ``max(1, max|operand|)``.  Must be positive and
        finite; the default ``1.0`` is far above any residual tolerance.
    sdc_operand:
        Which operand sequence the lane flips strike: ``0`` (default)
        is the first floating-point operand batch (the matrices for
        every band kernel), ``1`` the second (the right-hand sides of a
        solve stage, i.e. the computed solutions when striking
        post-stage).  Out-of-range values clamp to the last sequence the
        kernel holds.
    transfer_sdc_lanes:
        Batch lanes struck by a silent *staging* flip once each, applied
        to the lane's operands immediately *before* a kernel matching
        ``transfer_before`` consumes them — modelling corruption during
        the host-to-device transfer of that stage's inputs.
    transfer_before:
        Substring naming the stage whose staged inputs are corrupted;
        ``""`` corrupts before the first kernel that executes the lane.
    transfer_copies:
        Number of explicit host<->device copies
        (:func:`repro.gpusim.transfer.memcpy_h2d` /
        :func:`~repro.gpusim.transfer.memcpy_d2h`) whose payload has one
        element flipped in flight; each is consumed once, and the event
        is attributed on the returned
        :class:`~repro.gpusim.transfer.TransferRecord`.
    transfer_kernels:
        Substring filter on the copy name for in-flight copy corruption
        (``"memcpy_h2d"``, ``"memcpy_d2h"``, or ``""`` for both).
    """

    seed: int = 0
    launch_failure_rate: float = 0.0
    max_launch_failures: int | None = None
    fail_kernels: str = ""
    smem_rejections: int = 0
    smem_kernels: str = ""
    corrupt_lanes: tuple[int, ...] = ()
    corrupt_value: float = float("nan")
    corrupt_after: str = ""
    alloc_failure_rate: float = 0.0
    max_alloc_failures: int | None = None
    alloc_labels: str = ""
    capacity_squeezes: int = 0
    squeeze_fraction: float = 0.5
    outage_after: int | None = None
    outage_failures: int | None = None
    hang_kernels: str = ""
    hang_launches: int = 0
    hang_seconds: float = 1.0
    sdc_lanes: tuple[int, ...] = ()
    sdc_after: str = ""
    sdc_scale: float = 1.0
    sdc_operand: int = 0
    transfer_sdc_lanes: tuple[int, ...] = ()
    transfer_before: str = ""
    transfer_copies: int = 0
    transfer_kernels: str = ""

    def __post_init__(self):
        if not 0.0 <= self.launch_failure_rate <= 1.0:
            raise ValueError(
                f"launch_failure_rate must be in [0, 1], got "
                f"{self.launch_failure_rate}")
        if not 0.0 <= self.alloc_failure_rate <= 1.0:
            raise ValueError(
                f"alloc_failure_rate must be in [0, 1], got "
                f"{self.alloc_failure_rate}")
        if self.smem_rejections < 0:
            raise ValueError(
                f"smem_rejections must be >= 0, got {self.smem_rejections}")
        if self.capacity_squeezes < 0:
            raise ValueError(
                f"capacity_squeezes must be >= 0, got "
                f"{self.capacity_squeezes}")
        if not 0.0 < self.squeeze_fraction <= 1.0:
            raise ValueError(
                f"squeeze_fraction must be in (0, 1], got "
                f"{self.squeeze_fraction}")
        if self.outage_after is not None and self.outage_after < 0:
            raise ValueError(
                f"outage_after must be >= 0, got {self.outage_after}")
        if self.outage_failures is not None and self.outage_failures < 1:
            raise ValueError(
                f"outage_failures must be >= 1, got {self.outage_failures}")
        if self.hang_launches < 0:
            raise ValueError(
                f"hang_launches must be >= 0, got {self.hang_launches}")
        if self.hang_seconds < 0.0:
            raise ValueError(
                f"hang_seconds must be >= 0, got {self.hang_seconds}")
        if not 0.0 < self.sdc_scale < float("inf"):
            raise ValueError(
                f"sdc_scale must be positive and finite, got "
                f"{self.sdc_scale}")
        if self.transfer_copies < 0:
            raise ValueError(
                f"transfer_copies must be >= 0, got {self.transfer_copies}")
        if self.sdc_operand < 0:
            raise ValueError(
                f"sdc_operand must be >= 0, got {self.sdc_operand}")
        object.__setattr__(self, "corrupt_lanes",
                           tuple(int(k) for k in self.corrupt_lanes))
        object.__setattr__(self, "sdc_lanes",
                           tuple(int(k) for k in self.sdc_lanes))
        object.__setattr__(self, "transfer_sdc_lanes",
                           tuple(int(k) for k in self.transfer_sdc_lanes))


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan`, armed on one device.

    The launcher calls :meth:`on_launch` before running a kernel (which may
    raise an injected error) and :meth:`after_execution` once the kernel's
    blocks have run (which may poison lanes).  Both hooks are no-ops once
    the plan's budgets are exhausted, so an armed injector with an empty
    plan costs one dictionary lookup per launch.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.log: list[FaultEvent] = []
        self._rng = np.random.default_rng(plan.seed)
        # Allocation faults draw from their own seeded stream so injecting
        # them does not perturb the launch-failure sequence (and vice
        # versa) — chunked and unchunked runs of the same plan then agree
        # on which faults strike which subsystem.
        self._alloc_rng = np.random.default_rng(
            np.random.SeedSequence(plan.seed).spawn(1)[0])
        self._smem_left = int(plan.smem_rejections)
        self._launch_left = (float("inf") if plan.max_launch_failures is None
                             else int(plan.max_launch_failures))
        self._alloc_left = (float("inf") if plan.max_alloc_failures is None
                            else int(plan.max_alloc_failures))
        self._squeeze_left = int(plan.capacity_squeezes)
        self._pending_lanes = set(plan.corrupt_lanes)
        #: Launch attempts seen so far (drives the outage trigger).
        self._launch_attempts = 0
        self._outage_left = 0
        if plan.outage_after is not None:
            self._outage_left = (float("inf") if plan.outage_failures is None
                                 else int(plan.outage_failures))
        self._hang_left = int(plan.hang_launches)
        self._sdc_pending = set(plan.sdc_lanes)
        self._transfer_pending = set(plan.transfer_sdc_lanes)
        self._copy_left = int(plan.transfer_copies)
        #: Global index of batch lane 0 of the launches currently running —
        #: the memory-governed drivers set this per chunk (see
        #: :meth:`lane_window`) so ``corrupt_lanes`` stay *global* batch
        #: indices regardless of how the batch was chunked.
        self.lane_offset = 0

    # -- bookkeeping -------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Number of injected faults so far, keyed by kind."""
        out = {LAUNCH_FAILURE: 0, SMEM_REJECTION: 0, LANE_CORRUPTION: 0,
               ALLOC_FAILURE: 0, CAPACITY_SQUEEZE: 0, DEVICE_OUTAGE: 0,
               KERNEL_HANG: 0, SDC_FLIP: 0, TRANSFER_CORRUPTION: 0}
        for ev in self.log:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def events(self, kind: str) -> list[FaultEvent]:
        """All logged events of one kind, in injection order."""
        return [ev for ev in self.log if ev.kind == kind]

    @property
    def exhausted(self) -> bool:
        """True when the plan has no faults left to inject.

        A permanent outage (``outage_failures=None``) never exhausts.
        """
        return (self._smem_left == 0 and not self._pending_lanes
                and not self._sdc_pending
                and not self._transfer_pending
                and self._copy_left == 0
                and self._squeeze_left == 0
                and self._outage_left == 0
                and self._hang_left == 0
                and (self.plan.launch_failure_rate == 0.0
                     or self._launch_left == 0)
                and (self.plan.alloc_failure_rate == 0.0
                     or self._alloc_left == 0))

    @contextmanager
    def lane_window(self, start: int):
        """Scope in which executing lane ``j`` is global lane ``start + j``.

        The chunked executors wrap each chunk's kernel launches in
        ``lane_window(chunk_start)`` so that ``corrupt_lanes`` address the
        original batch, making the storm independent of chunk size.
        """
        prev = self.lane_offset
        self.lane_offset = int(start)
        try:
            yield self
        finally:
            self.lane_offset = prev

    # -- launcher hooks ----------------------------------------------------

    def on_launch(self, device, kernel) -> None:
        """Pre-execution hook; raises the injected launch-level faults.

        The outage check runs first and counts every launch attempt: once
        ``outage_after`` attempts have gone by, each further attempt
        consumes one of the ``outage_failures`` budget and raises
        :class:`~repro.errors.DeviceLostError` — a whole-device failure
        the circuit breaker treats as fatal — until the budget drains
        (the device "comes back") or forever (``outage_failures=None``).
        """
        name = kernel.name
        self._launch_attempts += 1
        if (self.plan.outage_after is not None and self._outage_left > 0
                and self._launch_attempts > self.plan.outage_after):
            if self._outage_left != float("inf"):
                self._outage_left -= 1
            self.log.append(FaultEvent(
                DEVICE_OUTAGE, name, device.name,
                detail=f"attempt={self._launch_attempts} "
                       f"remaining={self._outage_left}"))
            raise DeviceLostError(device=device.name, injected=True)
        if (self.plan.launch_failure_rate > 0.0 and self._launch_left > 0
                and self.plan.fail_kernels in name
                and self._rng.random() < self.plan.launch_failure_rate):
            self._launch_left -= 1
            self.log.append(FaultEvent(
                LAUNCH_FAILURE, name, device.name,
                detail=f"rate={self.plan.launch_failure_rate}"))
            raise DeviceError("injected launch failure", kernel=name,
                              device=device.name, injected=True)
        if self._smem_left > 0 and self.plan.smem_kernels in name:
            self._smem_left -= 1
            requested = device.round_smem(kernel.smem_bytes())
            self.log.append(FaultEvent(
                SMEM_REJECTION, name, device.name,
                detail=f"requested={requested}"))
            raise SharedMemoryError(requested, device.max_smem_per_block,
                                    name, device=device.name, injected=True)

    def before_execution(self, device, kernel,
                         executing: int) -> tuple[FaultEvent, ...]:
        """Pre-execution hook; flips lanes whose staged inputs were
        corrupted in flight (the transfer-SDC mode).

        Called by the launcher after the launch-level checks pass and
        immediately before the blocks run, so the flip lands on the
        operands the kernel is about to consume — exactly what a
        corrupted host-to-device staging copy would produce.  Returns the
        injected events for the :class:`~repro.gpusim.kernel.
        LaunchRecord`.
        """
        if (not self._transfer_pending
                or self.plan.transfer_before not in kernel.name):
            return ()
        return self._strike_lanes(
            self._transfer_pending, device, kernel, executing,
            TRANSFER_CORRUPTION, "staged-input")

    def after_execution(self, device, kernel,
                        executed: int) -> tuple[FaultEvent, ...]:
        """Post-execution hook; poisons and silently flips pending lanes.

        NaN/Inf lane corruption (``corrupt_lanes``) and finite SDC flips
        (``sdc_lanes``) both strike here, after the kernel's blocks have
        written their outputs.  Returns the events injected by *this*
        launch, which the launcher attaches to the
        :class:`~repro.gpusim.kernel.LaunchRecord`.
        """
        events = []
        if self._pending_lanes and self.plan.corrupt_after in kernel.name:
            for lane in sorted(self._pending_lanes):
                # Pending lanes are global batch indices; the kernel only
                # sees lanes [lane_offset, lane_offset + executed).
                local = lane - self.lane_offset
                if not 0 <= local < executed:
                    continue
                if self._poison(kernel, local):
                    self._pending_lanes.discard(lane)
                    ev = FaultEvent(
                        LANE_CORRUPTION, kernel.name, device.name, lane=lane,
                        detail=f"value={self.plan.corrupt_value!r}")
                    self.log.append(ev)
                    events.append(ev)
        if self._sdc_pending and self.plan.sdc_after in kernel.name:
            events.extend(self._strike_lanes(
                self._sdc_pending, device, kernel, executed,
                SDC_FLIP, "post-stage"))
        return tuple(events)

    def _strike_lanes(self, pending: set, device, kernel, window: int,
                      kind: str, where: str) -> list[FaultEvent]:
        """Apply one finite flip to each pending lane inside the window."""
        events = []
        for lane in sorted(pending):
            local = lane - self.lane_offset
            if not 0 <= local < window:
                continue
            detail = self._flip(kernel, local)
            if detail is not None:
                pending.discard(lane)
                ev = FaultEvent(kind, kernel.name, device.name, lane=lane,
                                detail=f"{where} {detail}")
                self.log.append(ev)
                events.append(ev)
        return events

    def on_transfer(self, device, name: str,
                    data: np.ndarray) -> tuple[FaultEvent, ...]:
        """Copy hook; flips one element of an in-flight transfer payload.

        Called by :func:`repro.gpusim.transfer.memcpy_h2d` (on the
        device-side copy, after the upload) and :func:`~repro.gpusim.
        transfer.memcpy_d2h` (on the downloaded host array) while the
        ``transfer_copies`` budget lasts.  The flip is finite and
        scale-relative, like every SDC mode; the events land on the
        returned :class:`~repro.gpusim.transfer.TransferRecord` so copy
        corruption stays trace-attributed.
        """
        if (self._copy_left <= 0 or self.plan.transfer_kernels not in name
                or data.dtype.kind not in "fc" or not data.size):
            return ()
        self._copy_left -= 1
        detail = self._flip_array(data)
        ev = FaultEvent(TRANSFER_CORRUPTION, name, device.name,
                        detail=f"in-flight {detail}")
        self.log.append(ev)
        return (ev,)

    def injected_hang(self, device, kernel) -> tuple[float, tuple]:
        """Hang hook; returns ``(extra_seconds, events)`` for this launch.

        Consumed once per matching launch while the ``hang_launches``
        budget lasts.  The launcher adds ``extra_seconds`` to the launch's
        modeled duration and attaches the events to the resulting
        :class:`~repro.gpusim.kernel.LaunchRecord`, so hangs stay
        trace-attributed whether or not a stream watchdog converts them
        into :class:`~repro.errors.KernelHangError`.
        """
        if self._hang_left <= 0 or self.plan.hang_kernels not in kernel.name:
            return 0.0, ()
        self._hang_left -= 1
        ev = FaultEvent(
            KERNEL_HANG, kernel.name, device.name,
            detail=f"hang_seconds={self.plan.hang_seconds}")
        self.log.append(ev)
        return float(self.plan.hang_seconds), (ev,)

    def on_alloc(self, pool, nbytes: int, label: str = "") -> int:
        """Allocation hook; returns the capacity this request is held to.

        Called by :meth:`repro.gpusim.memory.MemoryPool.alloc` before the
        capacity check.  May raise an injected
        :class:`~repro.errors.DeviceMemoryError`; a pending capacity
        squeeze instead *returns* a transiently reduced capacity, letting
        the pool's own check decide whether the squeezed request still
        fits.
        """
        device = pool.device_name
        capacity = pool.capacity
        if self._squeeze_left > 0:
            self._squeeze_left -= 1
            capacity = int(capacity * self.plan.squeeze_fraction)
            self.log.append(FaultEvent(
                CAPACITY_SQUEEZE, label or "alloc", device,
                detail=f"capacity={capacity} of {pool.capacity}"))
        if (self.plan.alloc_failure_rate > 0.0 and self._alloc_left > 0
                and self.plan.alloc_labels in label
                and self._alloc_rng.random() < self.plan.alloc_failure_rate):
            self._alloc_left -= 1
            self.log.append(FaultEvent(
                ALLOC_FAILURE, label or "alloc", device,
                detail=f"requested={int(nbytes)}"))
            raise DeviceMemoryError(int(nbytes), pool.in_use, capacity,
                                    device=device, injected=True)
        return capacity

    def _lane_operands(self, kernel, lane: int) -> list[np.ndarray]:
        """The lane's floating-point operand arrays, in sequence order."""
        seqs = kernel.pack_operands()
        if not seqs:
            # Fork-join kernels keep operands on a shared state object
            # rather than on the kernel itself; check both holders.
            holders = (kernel, getattr(kernel, "state", None))
            seqs = tuple(s for h in holders if h is not None
                         for s in (getattr(h, "mats", None),
                                   getattr(h, "rhs", None))
                         if s is not None)
        out = []
        for seq in seqs:
            try:
                arr = seq[lane]
            except (IndexError, KeyError, TypeError):
                continue
            arr = np.asarray(arr)
            if arr.dtype.kind in "fc" and arr.size:
                out.append(arr)
        return out

    def _poison(self, kernel, lane: int) -> bool:
        """Overwrite the lane's first floating-point operand batch."""
        arrs = self._lane_operands(kernel, lane)
        if not arrs:
            return False
        arrs[0][...] = self.plan.corrupt_value
        return True

    def _flip(self, kernel, lane: int) -> str | None:
        """Silently flip one element of the lane's operands (finite)."""
        arrs = self._lane_operands(kernel, lane)
        if not arrs:
            return None
        return self._flip_array(arrs[min(self.plan.sdc_operand,
                                         len(arrs) - 1)])

    def _flip_array(self, arr: np.ndarray) -> str:
        """Add a finite, scale-relative delta to one seeded element.

        The delta is ``sdc_scale * max(1, max|arr|)`` — the result stays
        finite (invisible to NaN/Inf scans) yet is far outside rounding
        error for any ``sdc_scale`` above the residual tolerance.
        """
        idx = int(self._rng.integers(arr.size))
        scale = float(np.max(np.abs(arr)))
        if not np.isfinite(scale):
            scale = 0.0
        delta = self.plan.sdc_scale * max(1.0, scale)
        # ``.flat`` assigns through views (an interleaved lane is strided;
        # ``reshape(-1)`` would flip a copy and lose the fault).
        arr.flat[idx] += delta
        return f"idx={idx} delta={delta!r}"


# -- arming ----------------------------------------------------------------

_ARMED: dict[str, FaultInjector] = {}


def arm_faults(device, plan: FaultPlan | FaultInjector) -> FaultInjector:
    """Arm a fault plan (or a pre-built injector) on ``device``.

    Replaces any injector previously armed on the same device; returns the
    active injector so callers can inspect its log afterwards.
    """
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    _ARMED[device.name] = injector
    return injector


def disarm_faults(device=None) -> None:
    """Disarm ``device`` (or every device when ``None``)."""
    if device is None:
        _ARMED.clear()
    else:
        _ARMED.pop(device.name, None)


def active_injector(device) -> FaultInjector | None:
    """The injector currently armed on ``device``, if any."""
    return _ARMED.get(device.name)


@contextmanager
def fault_injection(device, plan: FaultPlan | FaultInjector):
    """Context manager: arm ``plan`` on ``device``, disarm on exit.

    Yields the :class:`FaultInjector` so the body can assert against its
    log::

        with fault_injection(H100_PCIE, FaultPlan(seed=7,
                                                  smem_rejections=1)) as inj:
            ...
        assert inj.counts()["smem-rejection"] == 1
    """
    injector = arm_faults(device, plan)
    try:
        yield injector
    finally:
        if _ARMED.get(device.name) is injector:
            disarm_faults(device)
