"""Simulated GPU device specifications.

The paper evaluates on an NVIDIA H100-PCIe (CUDA 12.1) and a single GCD of an
AMD MI250x (ROCm 5.5.1).  We model exactly the hardware parameters the paper
uses to explain its results:

* shared-memory capacity per SM / CU — drives occupancy, the paper's primary
  performance mechanism ("the shared memory capacity plays a pivotal role on
  the level of concurrency", paper Section 8);
* sustained DRAM bandwidth — the paper measured 1.92 TB/s (H100-PCIe) and
  1.31 TB/s (MI250x GCD) with large GEMV;
* multiprocessor count, thread/block limits, launch overhead, and a
  per-barrier synchronization latency that sets the serial cost of the
  one-column-at-a-time factorization loop.

The latency-style constants (``sync_latency``, ``smem_bw_per_block``,
``thread_flop_rate``) are calibration knobs, chosen so the benchmark harness
reproduces the *shape and ratios* of the paper's figures; see
EXPERIMENTS.md.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..errors import DeviceError

__all__ = ["DeviceSpec", "DeviceHealth", "H100_PCIE", "MI250X_GCD",
           "get_device", "register_device", "list_devices",
           "device_health", "reset_device_health"]


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a simulated GPU.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"h100-pcie"``.
    vendor:
        ``"nvidia"`` or ``"amd"``.
    num_sms:
        Number of streaming multiprocessors (NVIDIA) or compute units (AMD).
    smem_per_sm:
        Shared-memory / LDS capacity per SM in bytes usable by resident
        blocks.
    max_smem_per_block:
        Hard per-block shared memory limit; a kernel requesting more fails to
        launch (:class:`repro.errors.SharedMemoryError`), matching the fused
        kernel "failing to run" in the paper's Figure 3.
    max_threads_per_block / max_threads_per_sm / max_blocks_per_sm:
        Standard occupancy limits.
    warp_size:
        Threads per warp/wavefront; block sizes round up to this.
    dram_bandwidth:
        Sustained global-memory bandwidth in bytes/s (paper's GEMV-measured
        values).
    smem_bw_per_block:
        Effective shared-memory service rate seen by a single thread block,
        bytes/s.  Latency-bound thin-band kernels are dominated by this and
        by ``sync_latency``.
    sync_latency:
        Cost of one intra-block barrier (``__syncthreads`` /
        ``s_barrier``), seconds.
    launch_overhead:
        Host-side cost of one kernel launch, seconds.  This is the mechanism
        behind the batched-vs-streamed gap of Figure 1.
    thread_flop_rate:
        Scalar per-thread arithmetic throughput, flop/s.
    concurrent_kernels:
        Maximum number of kernels the device can run concurrently from
        different streams (hardware queue limit).
    global_mem_bytes:
        Device global-memory (HBM/DRAM) capacity in bytes.  Batched calls
        charge their resident footprint against it through the device's
        :class:`~repro.gpusim.memory.MemoryPool`; a batch that does not fit
        must be chunked (:mod:`repro.core.memory_plan`) or it raises
        :class:`~repro.errors.DeviceMemoryError`.
    """

    name: str
    vendor: str
    num_sms: int
    smem_per_sm: int
    max_smem_per_block: int
    max_threads_per_block: int
    max_threads_per_sm: int
    max_blocks_per_sm: int
    warp_size: int
    dram_bandwidth: float
    smem_bw_per_block: float
    sync_latency: float
    launch_overhead: float
    thread_flop_rate: float
    concurrent_kernels: int = 16
    # Device global-memory capacity (HBM/DRAM), bytes.  Default suits a
    # mid-size accelerator; the shipped models use their datasheet values.
    global_mem_bytes: int = 32 * 1024 ** 3
    # Host <-> device interconnect: sustained bandwidth (bytes/s) and the
    # fixed per-copy latency (driver + DMA setup).  H100-PCIe: PCIe Gen5
    # x16; MI250x: PCIe Gen4 x16 host link.
    h2d_bandwidth: float = 5.0e10
    d2h_bandwidth: float = 5.0e10
    transfer_latency: float = 8.0e-6
    # Minimum end-to-end duration of any kernel: tiny kernels never finish
    # faster than a couple of microseconds on real hardware (scheduling,
    # cache warmup, completion signaling).
    min_kernel_time: float = 2.0e-6
    # Per-block shared-memory bookkeeping overhead (allocation granularity,
    # pivot staging, padding).  Included in occupancy maths; this is what
    # tips the MI250x fused kernel from 2 resident blocks to 1 between
    # N = 416 and N = 448 for (kl, ku) = (2, 3) as reported in paper Section 5.2.
    smem_block_overhead: int = 1024
    # Shared-memory allocation granularity in bytes.
    smem_granularity: int = 256

    def round_smem(self, nbytes: int) -> int:
        """Apply allocation granularity and per-block overhead."""
        g = self.smem_granularity
        return ((int(nbytes) + self.smem_block_overhead + g - 1) // g) * g

    def round_threads(self, nthreads: int) -> int:
        """Round a block size up to a whole number of warps."""
        w = self.warp_size
        return max(w, ((int(nthreads) + w - 1) // w) * w)


_REGISTRY: dict[str, DeviceSpec] = {}


def register_device(spec: DeviceSpec) -> DeviceSpec:
    """Add a device to the registry (idempotent for identical specs)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing != spec:
        raise DeviceError(f"device {spec.name!r} already registered with a "
                          "different specification")
    _REGISTRY[spec.name] = spec
    return spec


def get_device(name: str) -> DeviceSpec:
    """Look up a registered device by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise DeviceError(
            f"unknown device {name!r}; known: {sorted(_REGISTRY)}") from None


def list_devices() -> list[str]:
    """Names of all registered devices, sorted."""
    return sorted(_REGISTRY)


# --- Per-device health tracking --------------------------------------------


class DeviceHealth:
    """Rolling health window for one device: launch outcomes and latencies.

    Every completed launch records a success (with its modeled duration)
    or a failure (with a fault kind such as ``"device-lost"`` or
    ``"hang"``) into a bounded window of the most recent ``window``
    outcomes.  The multi-device circuit breaker
    (:class:`~repro.gpusim.multidevice.CircuitBreaker`) and operators
    read ``error_rate`` / ``mean_latency`` off this tracker; the
    per-kind totals (``failure_kinds``) are cumulative, not windowed, so
    a long-running service can still attribute historical faults.
    """

    __slots__ = ("name", "window", "_outcomes", "_latencies",
                 "successes", "failures", "failure_kinds")

    def __init__(self, name: str, window: int = 64):
        if window < 1:
            raise DeviceError("health window must be >= 1")
        self.name = str(name)
        self.window = int(window)
        #: Rolling outcome window: True = success, False = failure.
        self._outcomes: deque = deque(maxlen=self.window)
        #: Rolling modeled durations of recent *successful* launches.
        self._latencies: deque = deque(maxlen=self.window)
        #: Cumulative totals (not windowed).
        self.successes = 0
        self.failures = 0
        #: Fault kind -> cumulative count.
        self.failure_kinds: dict = {}

    def record_success(self, latency: float = 0.0) -> None:
        """Log one successful launch with its modeled duration."""
        self._outcomes.append(True)
        self._latencies.append(float(latency))
        self.successes += 1

    def record_failure(self, kind: str = "error") -> None:
        """Log one failed launch attributed to fault ``kind``."""
        self._outcomes.append(False)
        self.failures += 1
        self.failure_kinds[kind] = self.failure_kinds.get(kind, 0) + 1

    @property
    def error_rate(self) -> float:
        """Failures / outcomes over the rolling window (0.0 when empty)."""
        if not self._outcomes:
            return 0.0
        bad = sum(1 for ok in self._outcomes if not ok)
        return bad / len(self._outcomes)

    @property
    def mean_latency(self) -> float:
        """Mean modeled duration of recent successful launches."""
        if not self._latencies:
            return 0.0
        return sum(self._latencies) / len(self._latencies)

    def snapshot(self) -> dict:
        """JSON-safe view of the tracker (for reports and logs)."""
        return {
            "device": self.name,
            "window": int(self.window),
            "successes": int(self.successes),
            "failures": int(self.failures),
            "failure_kinds": {str(k): int(v)
                              for k, v in sorted(self.failure_kinds.items())},
            "error_rate": float(self.error_rate),
            "mean_latency": float(self.mean_latency),
        }

    def take_state(self, other: "DeviceHealth") -> None:
        """Continue from ``other``, a copy of this tracker that recorded
        launches elsewhere (a forked pipeline shard); references to this
        tracker stay valid."""
        for name in self.__slots__:
            setattr(self, name, getattr(other, name))

    def reset(self) -> None:
        """Clear the window and all cumulative totals."""
        self._outcomes.clear()
        self._latencies.clear()
        self.successes = 0
        self.failures = 0
        self.failure_kinds.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DeviceHealth({self.name!r}, rate={self.error_rate:.2f}, "
                f"n={self.successes + self.failures})")


_HEALTH: dict[str, DeviceHealth] = {}


def device_health(device: "DeviceSpec | str") -> DeviceHealth:
    """The health tracker for ``device`` (created on first use).

    Trackers are keyed by device *name*, so replicated shard devices
    (``"h100-pcie:0"``, ``"h100-pcie:1"``) each get their own tracker.
    """
    name = device if isinstance(device, str) else device.name
    tracker = _HEALTH.get(name)
    if tracker is None:
        tracker = _HEALTH[name] = DeviceHealth(name)
    return tracker


def reset_device_health(device: "DeviceSpec | str | None" = None) -> None:
    """Reset one device's tracker, or every tracker when ``device=None``."""
    if device is None:
        _HEALTH.clear()
        return
    name = device if isinstance(device, str) else device.name
    _HEALTH.pop(name, None)


# --- Shipped device models -------------------------------------------------
#
# Capacity/limit numbers follow the vendor datasheets the paper cites;
# bandwidths are the paper's own sustained measurements (paper Section 8).  The
# calibration constants (sync latency, per-block smem rate, launch overhead)
# were fitted against the paper's reported curves; see EXPERIMENTS.md.

H100_PCIE = register_device(DeviceSpec(
    name="h100-pcie",
    vendor="nvidia",
    num_sms=114,
    smem_per_sm=228 * 1024,          # paper: "~224 KB" usable; 228 KB HW
    max_smem_per_block=227 * 1024,
    max_threads_per_block=1024,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    warp_size=32,
    dram_bandwidth=1.92e12,          # paper-measured sustained GEMV
    smem_bw_per_block=6.0e10,
    sync_latency=1.5e-7,
    launch_overhead=4.0e-6,
    thread_flop_rate=1.5e9,
    concurrent_kernels=32,
    global_mem_bytes=80 * 1024 ** 3,     # 80 GB HBM2e
    h2d_bandwidth=5.5e10,
    d2h_bandwidth=5.5e10,
))

MI250X_GCD = register_device(DeviceSpec(
    name="mi250x-gcd",
    vendor="amd",
    num_sms=110,
    smem_per_sm=64 * 1024,           # LDS per CU
    max_smem_per_block=64 * 1024,
    max_threads_per_block=1024,
    max_threads_per_sm=2048,
    max_blocks_per_sm=16,
    warp_size=64,
    dram_bandwidth=1.31e12,          # paper-measured sustained GEMV
    smem_bw_per_block=4.4e10,
    sync_latency=1.9e-7,
    launch_overhead=6.0e-6,
    thread_flop_rate=1.2e9,
    concurrent_kernels=16,
    global_mem_bytes=64 * 1024 ** 3,     # 64 GB HBM2e per GCD
    h2d_bandwidth=2.8e10,
    d2h_bandwidth=2.8e10,
    min_kernel_time=3.0e-6,
    # Larger per-block LDS bookkeeping than the NVIDIA part: this is what
    # drops the fused kernel from 2 resident blocks to 1 between N=416 and
    # N=448 for (kl, ku)=(2, 3), the paper's Section 5.2 observation.
    smem_block_overhead=5120,
))
