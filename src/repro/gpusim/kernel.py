"""Kernel abstraction and launch machinery for the simulated GPU.

A :class:`Kernel` is the unit of work that a real implementation would write
in CUDA/HIP: it declares a grid size (one block per matrix for the batched
band kernels), a block size, and a shared-memory footprint, and provides a
``run_block`` method with the *functional* behaviour of one thread block.

``run_block`` receives a :class:`SharedMemory` allocator that enforces the
declared footprint: a kernel that touches more shared memory than it asked
for fails immediately, the same way a real kernel would corrupt itself or
fail to launch.  This keeps the simulated kernels honest — the occupancy
maths in the cost model is fed by the same numbers the functional code is
held to.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field

import numpy as np

from ..errors import DeviceError, DeviceLostError, SharedMemoryError
from .costmodel import BlockCost, KernelTiming, estimate_kernel_time
from .device import DeviceSpec, device_health

__all__ = ["SharedMemory", "Kernel", "LaunchRecord", "launch",
           "ConversionCharge"]

class ConversionCharge:
    """Layout-conversion traffic of one driver call, awaiting attribution.

    A driver that converts its batch at the boundary (see
    :func:`repro.core.batch_args.convert_batch_layout`) adds the round-trip
    bytes here; the *first* launch of that call absorbs them into its
    record (``soa_bytes``), mirroring how ``pack_bytes`` attributes the
    gather/pack staging — and proving the one-conversion-per-batch
    contract in traces: later launches of the same call (and every chunk
    of a governed run) carry zero.  The charge belongs to the call, so a
    call that fails before launching leaves nothing behind for the next
    one, and pipeline workers of one call share it safely.
    """

    def __init__(self):
        self.nbytes = 0
        self._lock = threading.Lock()

    def add(self, nbytes: int) -> None:
        with self._lock:
            self.nbytes += int(nbytes)

    def take(self) -> int:
        """Return the pending bytes and reset them to zero."""
        with self._lock:
            nbytes, self.nbytes = self.nbytes, 0
        return nbytes


class SharedMemory:
    """Per-block shared-memory allocator with a hard byte budget.

    ``kernel`` and ``device`` are diagnostic labels: an over-budget
    allocation raises a :class:`~repro.errors.SharedMemoryError` naming the
    kernel and device it was serving, not just the byte counts.
    """

    def __init__(self, limit_bytes: int, *, kernel: str = "",
                 device: str = ""):
        self.limit = int(limit_bytes)
        self.used = 0
        self.kernel = kernel
        self.device = device
        self._arrays: list[np.ndarray] = []

    def alloc(self, shape, dtype=np.float64) -> np.ndarray:
        """Allocate a zeroed scratch array, charged against the budget."""
        arr = np.zeros(shape, dtype=dtype)
        self.used += arr.nbytes
        if self.used > self.limit:
            raise SharedMemoryError(
                self.used, self.limit,
                self.kernel or "SharedMemory.alloc", device=self.device)
        self._arrays.append(arr)
        return arr


class Kernel(abc.ABC):
    """Base class for simulated GPU kernels.

    Subclasses implement the resource declarations and the per-block
    functional body.  The same object serves double duty: ``launch`` runs
    the functional body, while the benchmark harness asks only for the
    resource declarations to time large batches without executing them.
    """

    name: str = "kernel"

    @abc.abstractmethod
    def grid(self) -> int:
        """Number of thread blocks (usually the batch size)."""

    @abc.abstractmethod
    def threads(self) -> int:
        """Threads per block doing useful work (pre warp-rounding)."""

    @abc.abstractmethod
    def smem_bytes(self) -> int:
        """Dynamic shared memory requested per block, in bytes."""

    @abc.abstractmethod
    def block_cost(self) -> BlockCost:
        """Per-block resource usage for the timing model."""

    @abc.abstractmethod
    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        """Functional behaviour of one thread block."""

    # -- batch-interleaved execution ---------------------------------------

    def can_batch_vectorize(self) -> bool:
        """Whether this launch is eligible for the batch-interleaved path.

        Kernels that can advance every block through each step of the
        algorithm simultaneously (one numpy operation over a
        ``(batch, ...)`` stack instead of a Python loop per block) return
        True *for the inputs they currently hold* — typically requiring
        all blocks to share uniform dimensions and the batch to be a
        contiguous stack.  The default is False, so ragged/vbatch and
        :class:`~repro.gpusim.memory.PointerArray` workloads keep the
        per-block path untouched.
        """
        return False

    def run_batch_vectorized(self, nblocks: int, smem: SharedMemory, *,
                             packed: bool = True) -> None:
        """Advance blocks ``0..nblocks-1`` together, batch-interleaved.

        Must be numerically bit-identical to running ``run_block`` for
        each of the ``nblocks`` blocks in order.  ``smem`` carries the
        aggregate budget of all executed blocks (``nblocks ×`` the
        per-block occupancy limit), mirroring the total on-chip footprint
        the grid would occupy.  Only called when
        :meth:`can_batch_vectorize`, :meth:`can_soa_vectorize` or
        :meth:`can_pack_vectorize` returned True.  ``packed`` is the
        launcher's rung decision: False on the direct and soa rungs,
        whose operands stage as zero-copy views
        (:func:`repro.core.batch_args.stage_stack`), True on the pack
        rung, whose operands are gathered and scattered back.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the "
            "batch-interleaved path")

    def can_soa_vectorize(self) -> bool:
        """Whether the inputs are a batch-interleaved (SoA) stack.

        Kernels whose operand lists are lanes of one lane-fastest
        interleaved stack (:func:`repro.core.batch_args.
        is_interleaved_stack`) return True: the batch-interleaved body
        then runs *natively* on a zero-copy ``(batch, ...)`` view — no
        gather, no scatter — and the launch is attributed ``[vec+soa]``
        in traces.  Checked after :meth:`can_batch_vectorize` (uniform
        lane-major stacks keep the classic ``[vec]`` attribution) and
        before :meth:`can_pack_vectorize` (interleaved lanes interleave
        their byte ranges, so the pack stage would reject them as
        overlapping).  The default is False.
        """
        return False

    # -- pack/scatter stage ------------------------------------------------

    def pack_operands(self) -> tuple:
        """Operand sequences the pack stage would gather and scatter back.

        A kernel with a batch-interleaved body whose staging loop copies
        per-problem arrays into ``(batch, ...)`` stacks (and writes the
        results back) returns those sequences here — typically
        ``(self.mats,)`` or ``(self.mats, self.rhs)``.  ``launch`` uses
        them to decide pack eligibility (:meth:`can_pack_vectorize`) and
        to attribute the staging traffic (:meth:`pack_bytes`).  The
        default (no operands) disables the pack path.
        """
        return ()

    def can_pack_vectorize(self) -> bool:
        """Whether a gather/pack stage makes this launch vectorizable.

        Inputs that are *not* a uniform contiguous stack — pointer-array
        batches, scattered allocations, strided views — can still take the
        batch-interleaved path if every operand batch can be gathered into
        a uniform stack and scattered back: same shape and dtype per
        problem, and no two problems sharing memory (see
        :func:`repro.gpusim.memory.is_packable_batch`).  Aliased or
        overlapping batches stay per-block, where repeated processing of
        the same storage keeps its sequential semantics.
        """
        from .memory import is_packable_batch
        ops = self.pack_operands()
        return bool(ops) and all(is_packable_batch(seq) for seq in ops)

    def pack_bytes(self, nblocks: int) -> int:
        """Bytes moved by the pack stage (gather + scatter) for a launch
        executing ``nblocks`` blocks — the host-side staging overhead the
        trace attributes to a ``[vec+pack]`` launch."""
        total = 0
        for seq in self.pack_operands():
            for a in list(seq)[:nblocks]:
                total += int(np.asarray(a).nbytes)
        return 2 * total

    # -- convenience -------------------------------------------------------

    def timing(self, device: DeviceSpec) -> KernelTiming:
        """Cost-model timing of this kernel on ``device``."""
        return estimate_kernel_time(
            device,
            grid=self.grid(),
            threads_per_block=self.threads(),
            smem_per_block=self.smem_bytes(),
            block_cost=self.block_cost(),
            kernel_name=self.name,
        )


@dataclass(frozen=True)
class LaunchRecord:
    """One completed (or timed-only) kernel launch."""

    kernel_name: str
    grid: int
    threads: int
    smem_bytes: int
    timing: KernelTiming
    executed_blocks: int
    vectorized: bool = False
    packed: bool = False
    pack_bytes: int = 0
    # Batch-interleaved (SoA) execution: the kernel ran natively on a
    # lane-fastest interleaved stack (zero-copy staging).  ``soa_bytes``
    # carries the round-trip traffic of a batch-boundary layout
    # conversion when the driver performed one (``layout=`` knob) — it
    # lands on the first launch after the conversion only, so summing it
    # over a trace counts conversions, not stages.
    soa: bool = False
    soa_bytes: int = 0
    # Fault-injection events (repro.gpusim.faults.FaultEvent) that struck
    # this launch — lane corruptions applied after the blocks executed,
    # and injected kernel hangs (which also set ``hang_time``).
    # Launch-level faults abort the launch and never produce a record; they
    # live on the injector's log instead.
    faults: tuple = ()
    # Extra modeled seconds from an injected kernel hang; a stream armed
    # with a watchdog deadline converts the inflated ``time`` into a
    # KernelHangError instead of recording it.
    hang_time: float = 0.0

    @property
    def time(self) -> float:
        return self.timing.total + self.hang_time

    @property
    def display_name(self) -> str:
        """Kernel name with a ``[vec]`` suffix for batch-interleaved runs
        (``[vec+pack]`` when a gather/pack stage staged non-uniform
        inputs, ``[vec+soa]`` when the kernel ran natively on a
        batch-interleaved stack), so vectorized launches stay
        attributable in traces (label table: docs/ARCHITECTURE.md)."""
        if self.soa:
            return f"{self.kernel_name}[vec+soa]"
        if self.packed:
            return f"{self.kernel_name}[vec+pack]"
        if self.vectorized:
            return f"{self.kernel_name}[vec]"
        return self.kernel_name


def _vector_rung(kernel: Kernel) -> str | None:
    """The batch-interleaved rung ``kernel`` can take on its current
    inputs: ``'direct'``, ``'soa'``, ``'pack'``, or None (per-block)."""
    if kernel.can_batch_vectorize():
        return "direct"
    if kernel.can_soa_vectorize():
        return "soa"
    if kernel.can_pack_vectorize():
        return "pack"
    return None


def launch(device: DeviceSpec, kernel: Kernel, *, stream=None,
           execute: bool = True, max_blocks: int | None = None,
           vectorize: bool | None = None,
           conversion: ConversionCharge | None = None) -> LaunchRecord:
    """Launch ``kernel`` on ``device``.

    Parameters
    ----------
    stream:
        Optional :class:`repro.gpusim.stream.Stream`; the launch is appended
        to its timeline (the paper's API requires a stream argument for all
        batched calls).
    execute:
        Run the functional block bodies.  When False only the timing model
        is evaluated — used by the benchmark harness for large batches.
    max_blocks:
        Execute at most this many blocks functionally (still timing the full
        grid).  Lets benchmarks validate numerics on a sample while modeling
        a batch of 1000.
    vectorize:
        Select the execution path for the functional bodies.  ``None``
        (default) auto-dispatches: the batch-interleaved
        :meth:`Kernel.run_batch_vectorized` path runs when more than one
        block executes and the kernel reports either
        :meth:`Kernel.can_batch_vectorize` (uniform stack, staged
        directly) or :meth:`Kernel.can_pack_vectorize` (scattered but
        packable inputs, staged through the gather/pack stage); otherwise
        blocks run one at a time through :meth:`Kernel.run_block`.
        ``False`` forces the per-block path (the reference semantics).
        ``True`` requires the vectorized path and raises
        :class:`~repro.errors.DeviceError` if the kernel (or its current
        inputs) cannot take it even with packing.  Both paths are
        bit-identical by contract.
    conversion:
        The calling driver's :class:`ConversionCharge`; pending
        layout-conversion bytes land on this launch's ``soa_bytes``.

    Raises
    ------
    SharedMemoryError
        If the kernel cannot launch on this device, or an armed fault plan
        (:mod:`repro.gpusim.faults`) rejects the shared-memory request.
    DeviceError
        If ``vectorize=True`` but the kernel cannot batch-vectorize its
        current inputs, even through the pack/scatter stage; or an armed
        fault plan injects a launch failure.
    """
    from .faults import active_injector

    grid = kernel.grid()
    if grid < 0:
        raise DeviceError(f"negative grid size {grid}",
                          kernel=kernel.name, device=device.name)
    health = device_health(device)
    try:
        timing = kernel.timing(device)  # raises SharedMemoryError if unlaunchable
    except SharedMemoryError:
        health.record_failure("smem")
        raise
    injector = active_injector(device)
    if injector is not None:
        # May raise an injected DeviceLostError / DeviceError /
        # SharedMemoryError.  Runs after the genuine resource checks so a
        # kernel that truly cannot launch reports its real failure, not an
        # injected one.  Every failure mode lands on the device's rolling
        # health window, keyed by kind, for the circuit breaker to read.
        try:
            injector.on_launch(device, kernel)
        except DeviceLostError:
            health.record_failure("device-lost")
            raise
        except SharedMemoryError:
            health.record_failure("smem")
            raise
        except DeviceError:
            health.record_failure("launch")
            raise
    # A capturing stream (see repro.gpusim.graph) records the kernel as a
    # graph node instead of executing it; work happens at replay.
    capturing = bool(getattr(stream, "_capturing", False))
    if capturing:
        execute = False
    # The rung is decided once per launch, and the kernel stages its
    # operands by that decision, so each operand list is walked once.
    rung = _vector_rung(kernel) if vectorize else None
    if vectorize and rung is None:
        raise DeviceError(
            f"kernel {kernel.name!r} cannot batch-vectorize its current "
            "inputs (no batch-interleaved path, or aliased/overlapping/"
            "mixed-shape blocks that the pack stage cannot stage)")
    executed = 0
    vectorized = False
    packed = False
    soa = False
    pack_bytes = 0
    faults: tuple = ()
    if execute:
        limit = timing.occupancy.smem_per_block
        n_exec = grid if max_blocks is None else min(grid, max_blocks)
        if vectorize is None and n_exec > 1:
            rung = _vector_rung(kernel)
        smem_ctx = dict(kernel=kernel.name, device=device.name)
        if injector is not None and n_exec > 0:
            # Transfer-SDC strikes the staged inputs the blocks are about
            # to consume (a corrupted host-to-device copy); the events
            # ride the same record as post-execution corruption.
            faults = injector.before_execution(device, kernel, n_exec)
        if rung is not None and n_exec > 0:
            packed = rung == "pack"
            soa = rung == "soa"
            kernel.run_batch_vectorized(
                n_exec, SharedMemory(limit * n_exec, **smem_ctx),
                packed=packed)
            executed = n_exec
            vectorized = True
            if packed:
                pack_bytes = kernel.pack_bytes(n_exec)
        else:
            for bid in range(n_exec):
                kernel.run_block(bid, SharedMemory(limit, **smem_ctx))
                executed += 1
        if injector is not None and executed:
            faults = tuple(faults) + injector.after_execution(
                device, kernel, executed)
    hang_time = 0.0
    if injector is not None:
        # Injected hangs inflate the launch's modeled duration; the events
        # travel on the record so traces attribute the stall even when no
        # watchdog converts it into an error.
        hang_time, hang_events = injector.injected_hang(device, kernel)
        if hang_events:
            faults = tuple(faults) + tuple(hang_events)
    soa_bytes = conversion.take() if conversion is not None else 0
    record = LaunchRecord(
        kernel_name=kernel.name,
        grid=grid,
        threads=kernel.threads(),
        smem_bytes=kernel.smem_bytes(),
        timing=timing,
        executed_blocks=executed,
        vectorized=vectorized,
        packed=packed,
        pack_bytes=pack_bytes,
        soa=soa and vectorized,
        soa_bytes=soa_bytes,
        faults=faults,
        hang_time=hang_time,
    )
    if stream is not None:
        # May raise KernelHangError when the stream's watchdog deadline
        # fires; Stream.record logs the hang on the health tracker itself.
        stream.record(record)
        if capturing:
            stream.add_node(kernel)
    health.record_success(record.time)
    return record
