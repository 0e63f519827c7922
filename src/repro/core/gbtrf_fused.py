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
from .gbtf2 import factor_if_narrow, gbtf2_batched

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

    def pack_operands(self) -> tuple:
        return (self.mats,)

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        ldab = self.layout.ldab_factor
        abst = self.mats[lo:hi, :ldab]
        if factor_if_narrow(self.m, self.n, self.kl, self.ku, abst,
                            self.pivots[lo:hi], self.info[lo:hi]):
            return  # a few lanes, on Python floats: lists are the tile
        # The shared tile is column-major and lane-last, like the window's:
        # one column's band rows are adjacent runs of lanes.
        tiles = smem.alloc((self.n, ldab, hi - lo),
                           dtype=self.itemdtype).transpose(2, 1, 0)
        tiles[...] = abst                             # global -> shared
        gbtf2_batched(self.m, self.n, self.kl, self.ku, tiles,
                      self.pivots[lo:hi], self.info[lo:hi])
        abst[...] = tiles                             # shared -> global
