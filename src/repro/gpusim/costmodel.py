"""Analytic timing model for simulated kernel launches.

The model captures the three mechanisms the paper uses to explain its
results:

1. **Occupancy / waves.**  A batch of ``grid`` blocks executes in
   ``ceil(grid / resident)`` waves, where ``resident`` comes from the
   occupancy calculator.  Thin-band kernels have little intra-problem
   parallelism, so throughput is proportional to residency — this produces
   the staircase of Figure 3 when shared-memory growth cuts occupancy.
2. **Per-block serial latency.**  One column step of the factorization is a
   chain of dependent sub-steps (pivot reduction, broadcast, scale, rank-1
   update) separated by block-wide barriers, plus shared-memory traffic at a
   per-block service rate and a sliver of per-thread arithmetic.
3. **DRAM bandwidth floor.**  Total global traffic cannot move faster than
   the sustained bandwidth (the paper's GEMV-measured 1.92 / 1.31 TB/s); the
   kernel time is the max of the latency term and the bandwidth term, plus a
   fixed launch overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import DeviceSpec
from .occupancy import Occupancy, occupancy, waves_for_grid

__all__ = ["BlockCost", "KernelTiming", "estimate_block_time", "estimate_kernel_time"]


@dataclass(frozen=True)
class BlockCost:
    """Per-thread-block resource usage reported by a kernel.

    Attributes
    ----------
    flops:
        Floating-point operations executed by the block.
    smem_traffic:
        Bytes moved to/from shared memory by the block (the dominant term
        for the in-shared-memory factorizations).
    dram_traffic:
        Bytes moved to/from global memory by the block.
    syncs:
        Number of block-wide barriers executed (one per dependent sub-step
        of each column iteration).
    threads:
        Threads doing useful work (before warp rounding).
    """

    flops: float = 0.0
    smem_traffic: float = 0.0
    dram_traffic: float = 0.0
    syncs: float = 0.0
    threads: int = 1

    def __add__(self, other: "BlockCost") -> "BlockCost":
        return BlockCost(
            flops=self.flops + other.flops,
            smem_traffic=self.smem_traffic + other.smem_traffic,
            dram_traffic=self.dram_traffic + other.dram_traffic,
            syncs=self.syncs + other.syncs,
            threads=max(self.threads, other.threads),
        )

    def scaled(self, factor: float) -> "BlockCost":
        """Cost of repeating this block ``factor`` times."""
        return BlockCost(
            flops=self.flops * factor,
            smem_traffic=self.smem_traffic * factor,
            dram_traffic=self.dram_traffic * factor,
            syncs=self.syncs * factor,
            threads=self.threads,
        )


@dataclass(frozen=True, slots=True)
class KernelTiming:
    """Breakdown of one estimated kernel execution."""

    launch_overhead: float
    block_time: float
    waves: int
    dram_time: float
    occupancy: Occupancy

    min_kernel_time: float = 0.0

    @property
    def exec_time(self) -> float:
        """Device-side execution time (excludes launch overhead)."""
        return max(self.waves * self.block_time, self.dram_time,
                   self.min_kernel_time if self.waves > 0 else 0.0)

    @property
    def total(self) -> float:
        """End-to-end time of the launch in seconds."""
        return self.launch_overhead + self.exec_time

    @property
    def latency_bound(self) -> bool:
        """True when the wave/latency term (not DRAM) sets the time."""
        return self.waves * self.block_time >= self.dram_time


def estimate_block_time(device: DeviceSpec, cost: BlockCost) -> float:
    """Serial execution time of one thread block, seconds.

    The three components add rather than overlap: the barriers that separate
    the factorization's sub-steps prevent overlap within a block, which is
    precisely why the paper calls these workloads latency/occupancy-limited
    rather than bandwidth-limited.
    """
    threads = max(cost.threads, 1)
    compute = cost.flops / (threads * device.thread_flop_rate)
    # A block's shared-memory pipe only saturates with a full warp of
    # active lanes; thin-band kernels running with (kl + 1) threads see a
    # proportionally lower service rate.  This is the mechanism that makes
    # the threads-per-matrix tuning parameter matter (paper Section 5.3).
    lane_util = min(1.0, threads / device.warp_size)
    smem = cost.smem_traffic / (device.smem_bw_per_block * lane_util)
    sync = cost.syncs * device.sync_latency
    return compute + smem + sync


def estimate_kernel_time(device: DeviceSpec, *, grid: int,
                         threads_per_block: int, smem_per_block: int,
                         block_cost: BlockCost,
                         kernel_name: str = "") -> KernelTiming:
    """Estimate the time of one kernel launch of ``grid`` blocks.

    Raises :class:`~repro.errors.SharedMemoryError` if the block cannot
    launch at all.
    """
    occ = occupancy(device, threads_per_block, smem_per_block,
                    kernel_name=kernel_name)
    waves = waves_for_grid(device, occ, grid)
    block_time = estimate_block_time(device, block_cost)
    # A launch whose grid leaves most SMs idle cannot saturate DRAM: scale
    # the achievable bandwidth by the fraction of SMs holding a block (with
    # a floor — even one block keeps a slice of the memory system busy).
    # This is what keeps single-matrix kernels slow in the streamed baseline
    # of Figure 1 while leaving full batches (grid >= num_sms) unaffected.
    bw_util = min(1.0, max(grid / device.num_sms, 0.05))
    dram_time = (grid * block_cost.dram_traffic) / (device.dram_bandwidth
                                                    * bw_util)
    return KernelTiming(
        launch_overhead=device.launch_overhead,
        block_time=block_time,
        waves=waves,
        dram_time=dram_time,
        occupancy=occ,
        min_kernel_time=device.min_kernel_time,
    )
