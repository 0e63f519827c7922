"""Kernel abstraction and launch machinery for the simulated GPU.

A :class:`Kernel` is the unit of work that a real implementation would write
in CUDA/HIP: it declares a grid size (one block per matrix for the batched
band kernels), a block size, and a shared-memory footprint, and provides
the *functional* behaviour of its thread blocks.  Every kernel writes
that behaviour once, as ``run_batch_vectorized`` over a block range;
``run_block`` runs the same body on a single block.

The body receives a :class:`SharedMemory` allocator that enforces the declared
footprint: a kernel that touches more shared memory than it asked for
fails immediately, the same way a real kernel would corrupt itself or
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
from . import ahead
from .costmodel import BlockCost, KernelTiming, estimate_kernel_time
from .device import DeviceSpec, device_health

__all__ = ["SharedMemory", "Kernel", "LaunchRecord", "launch",
           "ConversionCharge"]

class ConversionCharge:
    """Layout-conversion traffic of one driver call, awaiting attribution.

    A driver that converts its batch at the boundary (see
    :func:`repro.core.batch_args.convert_batch_layout`) adds the round-trip
    bytes here; the *first* launch of that call absorbs them into its
    record (``soa_bytes``) — proving the one-conversion-per-batch
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

    Subclasses implement the resource declarations and one functional
    body, :meth:`run_batch_vectorized`: a block range advanced together,
    which :meth:`run_block` runs one block at a time.  A kernel whose
    blocks are batch lanes declares its operand batches in
    :meth:`pack_operands`, each one ``(batch, ...)`` ndarray, and its
    body slices them in place; the batches' shapes and strides are all
    :func:`launch` needs to pick the rung (soa, direct or per-block, see
    :func:`repro.core.batch_args.stack_rung`).  A kernel that declares
    none (the BLAS and ``gbmv`` kernels) runs on the per-block rung.  The
    one override of :meth:`run_block` is the fused ``gbtrf``'s, a tile
    around the scalar ``gbtf2`` that is faster on a one-lane launch.  The
    same object serves
    double duty: ``launch`` runs the functional body, while the benchmark
    harness asks only for the resource declarations to time large batches
    without executing them.
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

    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        """Functional behaviour of one thread block:
        :meth:`run_batch_vectorized` on the one block
        ``[block_id, block_id + 1)``, a view of the operands, so blocks
        executed one after another over overlapping storage keep their
        sequential semantics.
        """
        self.run_batch_vectorized(block_id + 1, smem, lo=block_id)

    # -- batch-interleaved execution ---------------------------------------

    #: True for a kernel whose body gathers its operands itself (the
    #: vbatch kernel's per-configuration buckets): its operand batch may
    #: be a list, above one block it always runs its body, and its record
    #: carries ``packed`` and the gather traffic its ``pack_bytes(nblocks)``
    #: reports.
    gathers: bool = False

    @abc.abstractmethod
    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        """Advance blocks ``lo..hi-1`` together, batch-interleaved.

        Blocks are independent: each block's bits do not depend on which
        other blocks share the range, so a range of one block is the
        per-block path.  ``smem`` carries the aggregate budget of the
        executed blocks (``hi - lo`` times the per-block occupancy
        limit), mirroring the total on-chip footprint the grid would
        occupy.  The launcher calls it with ``lo=0`` on the direct and
        soa rungs, and :meth:`run_block` with one block on the per-block
        path.  The body reads and writes ``operand[lo:hi]`` in place.
        """

    def pack_operands(self) -> tuple:
        """The kernel's operand batches, for the launcher's rung decision.

        A kernel with a batch-interleaved body returns the batches its
        body reads and writes — typically ``(self.mats,)`` or
        ``(self.mats, self.rhs)``, each a ``(batch, ...)`` ndarray.
        ``launch`` derives the rung from them
        (:func:`repro.core.batch_args.stack_rung`).  The default (no
        operands) keeps the kernel on the per-block path.
        """
        return ()

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
    # A kernel that gathers its operands itself (``Kernel.gathers``, the
    # vbatch kernel's buckets) ran batch-interleaved; ``pack_bytes`` is
    # the gather + scatter traffic.
    packed: bool = False
    pack_bytes: int = 0
    # Batch-interleaved (SoA) execution: the kernel ran natively on a
    # lane-fastest interleaved stack, in place.  ``soa_bytes``
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
        (``[vec+pack]`` when the kernel gathered its operands itself,
        ``[vec+soa]`` when the kernel ran natively on a
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
    inputs: ``'pack'`` for a kernel that gathers, else ``'direct'``,
    ``'soa'`` or None (per-block) from its operand stacks."""
    from ..core.batch_args import stack_rung
    if kernel.gathers:
        return "pack"
    seqs = kernel.pack_operands()
    return stack_rung(*seqs) if seqs else None


def _run_bodies(device: DeviceSpec, kernel: Kernel, timing: KernelTiming,
                vectorize: bool, *, run: bool = True) -> str | None:
    """Run ``kernel``'s bodies over its grid (unless ``run`` is false);
    returns the rung they take, ``None`` for the per-block path.

    The rung is decided once from the operands' shapes and strides; no
    lane is walked.  The bodies run under one ``np.errstate`` that
    ignores the IEEE flags of non-finite lanes, as LAPACK raises none,
    so their column steps need not enter it themselves.
    """
    grid = kernel.grid()
    limit = timing.occupancy.smem_per_block
    rung = _vector_rung(kernel) if vectorize and grid > 1 else None
    if not run:
        return rung
    ctx = dict(kernel=kernel.name, device=device.name)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if rung is not None:
            kernel.run_batch_vectorized(grid,
                                        SharedMemory(limit * grid, **ctx))
        else:
            for bid in range(grid):
                kernel.run_block(bid, SharedMemory(limit, **ctx))
    return rung


def launch(device: DeviceSpec, kernel: Kernel, *, stream=None,
           execute: bool = True, vectorize: bool = True,
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
    vectorize:
        ``True`` (default): the launcher picks the execution path from
        the operands when more than one block executes.  It derives the
        rung from the shapes and strides of the kernel's
        :meth:`Kernel.pack_operands` — soa when one is an interleaved
        stack, direct when every one's lanes are pairwise disjoint (see
        :func:`repro.core.batch_args.stack_rung`), pack for a kernel that
        gathers its operands itself (:attr:`Kernel.gathers`) — and runs
        :meth:`Kernel.run_batch_vectorized` once over the grid; with no
        rung (lanes that overlap), blocks run one at a time through
        :meth:`Kernel.run_block`.
        ``False`` is the per-block path: each block runs alone through
        the same body.  Lanes are independent, so both paths give
        the same bits; the reference semantics they are tested against
        live in the scalar :func:`~repro.core.gbtf2.gbtf2` and
        :func:`~repro.core.solve_blocks.gbtrs_unblocked`.
    conversion:
        The calling driver's :class:`ConversionCharge`; pending
        layout-conversion bytes land on this launch's ``soa_bytes``.

    Inside :func:`repro.gpusim.ahead.accounting` a launch does everything
    but run the bodies: the lanes already hold what they would write.

    Raises
    ------
    TypeError
        If an operand batch of a kernel that does not gather is not one
        ndarray (a list of lanes, say), before anything runs.
    SharedMemoryError
        If the kernel cannot launch on this device, or an armed fault plan
        (:mod:`repro.gpusim.faults`) rejects the shared-memory request.
    DeviceError
        If an armed fault plan injects a launch failure.
    """
    from .faults import active_injector

    if not kernel.gathers:
        for seq in kernel.pack_operands():
            if not isinstance(seq, np.ndarray):
                raise TypeError(
                    f"kernel {kernel.name!r} takes each operand batch as "
                    f"one (batch, ...) ndarray, got a {type(seq).__name__}")
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
    executed = 0
    rung = None
    pack_bytes = 0
    faults: tuple = ()
    if execute:
        if injector is not None and grid > 0:
            # Transfer-SDC strikes the staged inputs the blocks are about
            # to consume (a corrupted host-to-device copy); the events
            # ride the same record as post-execution corruption.
            faults = injector.before_execution(device, kernel, grid)
        # Lanes a host pass already computed are only accounted for.
        rung = _run_bodies(device, kernel, timing, vectorize,
                           run=not ahead.accounting_mode())
        executed = grid
        if rung == "pack":
            pack_bytes = kernel.pack_bytes(grid)
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
        vectorized=rung is not None,
        packed=rung == "pack",
        pack_bytes=pack_bytes,
        soa=rung == "soa",
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
