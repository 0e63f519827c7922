"""Fully fused band LU factorization kernel (paper Section 5.2).

One thread block per matrix; the whole factor-layout band array is staged
into shared memory, factorized one column at a time (no blocking needed —
shared memory is as fast as L1), and written back.  Global traffic is
optimal (each matrix read and written exactly once), but the shared-memory
footprint grows linearly with ``n``, so occupancy collapses in staircase
steps as matrices grow, and the kernel stops launching altogether once a
single matrix no longer fits — both effects visible in the paper's
Figure 3.
"""

from __future__ import annotations

import numpy as np

from ..band.layout import BandLayout
from ..gpusim.costmodel import BlockCost
from ..gpusim.kernel import Kernel, SharedMemory
from .costs import gbtrf_fused_cost
from .gbtf2 import gbtf2, gbtf2_batched

__all__ = ["FusedGbtrfKernel", "default_fused_threads"]


def default_fused_threads(kl: int, ku: int) -> int:
    """Default thread count for the fused kernel.

    The design minimum is ``kl + 1`` (the pivot-search span, paper Section 5.2).
    We size the team so the rank-1 update of one column — ``kl`` rows by up
    to ``kv + 1`` columns — completes in at most two rounds, which keeps the
    serial dependency chain per column short even for wide bands.
    """
    work = max(kl * (kl + ku + 1), 1)
    return max(kl + 1, 16, min(-(-work // 2), 256))


class FusedGbtrfKernel(Kernel):
    """Batched in-shared-memory band LU (one block = one matrix)."""

    name = "gbtrf_fused"

    def __init__(self, m: int, n: int, kl: int, ku: int,
                 mats, pivots: np.ndarray, info: np.ndarray, *,
                 threads: int | None = None):
        self.m, self.n, self.kl, self.ku = m, n, kl, ku
        self.layout = BandLayout(m, n, kl, ku)
        self.mats = mats
        self.pivots = pivots
        self.info = info
        self.nthreads = threads or default_fused_threads(kl, ku)
        if self.nthreads < kl + 1:
            raise ValueError(
                f"fused gbtrf needs at least kl+1={kl + 1} threads, "
                f"got {self.nthreads}")
        self.itemdtype = mats[0].dtype if len(mats) else np.dtype(np.float64)
        self.itemsize = self.itemdtype.itemsize

    def grid(self) -> int:
        return len(self.mats)

    def threads(self) -> int:
        return self.nthreads

    def smem_bytes(self) -> int:
        return self.layout.fused_elems() * self.itemsize

    def block_cost(self) -> BlockCost:
        return gbtrf_fused_cost(self.m, self.n, self.kl, self.ku,
                                self.nthreads, self.itemsize)

    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        # The one override of Kernel.run_block: a tile around the scalar
        # gbtf2 rather than the batch-of-one body.  Every one-lane launch
        # (grid == 1) runs it, and the request service makes many; there
        # it takes 1.66 ms against 2.71 ms (n=64, kl=ku=3, best of 200).
        ab = self.mats[block_id]
        ldab = self.layout.ldab_factor
        tile = smem.alloc((ldab, self.n), dtype=ab.dtype)
        tile[...] = ab[:ldab, :]                      # global -> shared
        _, info = gbtf2(self.m, self.n, self.kl, self.ku, tile,
                        self.pivots[block_id])
        ab[:ldab, :] = tile                           # shared -> global
        self.info[block_id] = info

    def pack_operands(self) -> tuple:
        return (self.mats,)

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        ldab = self.layout.ldab_factor
        abst = self.mats[lo:hi, :ldab]
        # The shared tile is column-major and lane-last, like the window's:
        # one column's band rows are adjacent runs of lanes.
        tiles = smem.alloc((self.n, ldab, hi - lo),
                           dtype=self.itemdtype).transpose(2, 1, 0)
        tiles[...] = abst                             # global -> shared
        gbtf2_batched(self.m, self.n, self.kl, self.ku, tiles,
                      self.pivots[lo:hi], self.info[lo:hi])
        abst[...] = tiles                             # shared -> global
