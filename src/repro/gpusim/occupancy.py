"""Occupancy calculator for the simulated devices.

Occupancy — the number of thread blocks resident per SM — is the central
performance mechanism of the paper: the fused factorization's "staircase"
behaviour (Figure 3) and the H100/MI250x gap (paper Section 8) are both explained
by shared-memory-limited occupancy.  This module reproduces the standard
CUDA/HIP occupancy computation for the resource types our kernels use
(threads and shared memory; register pressure is folded into the block
limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import SharedMemoryError
from .device import DeviceSpec

__all__ = ["Occupancy", "occupancy", "waves_for_grid",
           "suggest_block_size"]


@dataclass(frozen=True, slots=True)
class Occupancy:
    """Result of an occupancy computation for one kernel configuration.

    Attributes
    ----------
    blocks_per_sm:
        Resident thread blocks per SM (the paper's "resident factorizations
        per multiprocessor/compute-unit").
    limited_by:
        Which resource bound the occupancy: ``"smem"``, ``"threads"`` or
        ``"blocks"``.
    smem_per_block:
        Rounded shared-memory footprint actually charged per block.
    threads_per_block:
        Rounded (whole-warp) block size.
    """

    blocks_per_sm: int
    limited_by: str
    smem_per_block: int
    threads_per_block: int

    def resident_blocks(self, device: DeviceSpec) -> int:
        """Total blocks resident across the whole device."""
        return self.blocks_per_sm * device.num_sms


def occupancy(device: DeviceSpec, threads_per_block: int,
              smem_per_block: int, *, kernel_name: str = "") -> Occupancy:
    """Compute resident blocks/SM for a kernel configuration.

    Raises :class:`~repro.errors.SharedMemoryError` when the per-block
    request exceeds the device's hard limit — the failure mode of the
    paper's fully fused kernel at large matrix sizes.
    """
    threads = device.round_threads(threads_per_block)
    smem = device.round_smem(smem_per_block)
    if smem > device.max_smem_per_block:
        raise SharedMemoryError(smem, device.max_smem_per_block, kernel_name,
                                device=device.name)
    if threads > device.max_threads_per_block:
        raise SharedMemoryError(threads, device.max_threads_per_block,
                                kernel_name or "threads-per-block",
                                device=device.name)

    by_smem = device.smem_per_sm // smem if smem > 0 else device.max_blocks_per_sm
    by_threads = device.max_threads_per_sm // threads
    by_blocks = device.max_blocks_per_sm
    blocks = max(0, min(by_smem, by_threads, by_blocks))
    if blocks == by_smem and by_smem <= min(by_threads, by_blocks):
        limiter = "smem"
    elif blocks == by_threads and by_threads <= by_blocks:
        limiter = "threads"
    else:
        limiter = "blocks"
    # A kernel that fits the per-block limit always gets at least one
    # resident block (the per-SM capacity is >= the per-block limit on both
    # modeled devices).
    blocks = max(blocks, 1)
    return Occupancy(blocks_per_sm=blocks, limited_by=limiter,
                     smem_per_block=smem, threads_per_block=threads)


def suggest_block_size(device: DeviceSpec, smem_per_block: int, *,
                       min_threads: int = 1,
                       max_threads: int | None = None) -> tuple[int, int]:
    """Pick the block size maximising resident *threads* per SM.

    The ``cudaOccupancyMaxPotentialBlockSize`` analogue for a fixed
    shared-memory footprint: sweeps whole-warp block sizes in
    ``[min_threads, max_threads]`` and returns ``(threads, blocks_per_sm)``
    for the configuration with the most resident threads (ties broken
    toward fewer threads per block — more independent matrices resident,
    which is what the batch-throughput workloads of the paper want).
    """
    if max_threads is None:
        max_threads = device.max_threads_per_block
    max_threads = min(max_threads, device.max_threads_per_block)
    best: tuple[int, int] | None = None
    best_resident = -1
    t = device.round_threads(max(min_threads, 1))
    while t <= max_threads:
        occ = occupancy(device, t, smem_per_block)
        resident = occ.blocks_per_sm * t
        if resident > best_resident:
            best_resident = resident
            best = (t, occ.blocks_per_sm)
        t += device.warp_size
    if best is None:
        raise SharedMemoryError(smem_per_block, device.max_smem_per_block,
                                "suggest_block_size", device=device.name)
    return best


def waves_for_grid(device: DeviceSpec, occ: Occupancy, grid: int) -> int:
    """Number of execution waves for ``grid`` blocks at occupancy ``occ``.

    A wave is one full round of resident blocks across the device; a batch
    of 1000 matrices on 114 SMs at 2 blocks/SM takes
    ``ceil(1000 / 228) = 5`` waves.
    """
    if grid <= 0:
        return 0
    return math.ceil(grid / occ.resident_blocks(device))
