"""Reference fork-join band LU (paper Section 5.1).

The CPU manages the factorization loop and launches GPU kernels at every
column iteration: one kernel performing the pivot search, fill-in setup,
bounded row swap and column scaling, and a second performing the rank-1
update.  Both operate directly on global memory.

As the paper notes, this fork-join design is "slower than a multicore CPU
solution in most cases" — ``min(m, n)`` iterations each paying kernel-launch
overhead — but it supports any size and any ``(kl, ku)`` with the same
numerical behaviour, so it is kept as the safeguard path of the dispatcher.
"""

from __future__ import annotations

import numpy as np

from ..gpusim.costmodel import BlockCost
from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import Kernel, SharedMemory, launch
from .costs import reference_column_cost
from .gbtf2 import (
    init_fillin,
    pivot_search,
    rank_one_update,
    scale_column,
    set_fillin,
    swap_right,
    update_bound,
)

__all__ = ["ColumnPivotKernel", "ColumnUpdateKernel", "FactorInitKernel",
           "gbtrf_reference_batch"]


class _ColumnKernelBase(Kernel):
    """Shared state for the per-column kernels of one batched factorization."""

    def __init__(self, state: "_FactorState", j: int):
        self.state = state
        self.j = j

    def grid(self) -> int:
        return len(self.state.mats)

    def threads(self) -> int:
        return self.state.threads

    def smem_bytes(self) -> int:
        return 0


class FactorInitKernel(_ColumnKernelBase):
    """Per-invocation setup: reset ``ju``/``info`` and clear fill-in rows.

    Running this as a kernel (rather than host code) keeps the whole
    fork-join pipeline device-side state, which is what makes it graph-
    capturable and replayable (see :mod:`repro.gpusim.graph`).
    """

    name = "gbtrf_ref_init"

    def __init__(self, state: "_FactorState"):
        super().__init__(state, 0)

    def block_cost(self) -> BlockCost:
        s = self.state
        fill = min(max(s.kl + s.ku - s.ku - 1, 0), s.n) * s.kl
        return BlockCost(dram_traffic=(fill + 2) * s.itemsize, syncs=1,
                         threads=s.threads)

    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        s = self.state
        s.ju[block_id] = -1
        s.info[block_id] = 0
        init_fillin(s.mats[block_id], s.n, s.kl, s.ku)


class ColumnPivotKernel(_ColumnKernelBase):
    """Pivot search + fill-in + bounded swap + scale for column ``j``."""

    name = "gbtrf_ref_pivot"

    def block_cost(self) -> BlockCost:
        s = self.state
        return reference_column_cost(s.kl, s.ku, s.threads, s.itemsize)[0]

    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        s, j = self.state, self.j
        ab = s.mats[block_id]
        kv = s.kl + s.ku
        set_fillin(ab, s.n, s.kl, s.ku, j)
        jp = pivot_search(ab, s.m, s.kl, s.ku, j)
        s.pivots[block_id][j] = j + jp
        if ab[kv + jp, j] != 0:
            s.ju[block_id] = update_bound(s.n, s.kl, s.ku, j, jp,
                                          s.ju[block_id])
            swap_right(ab, s.kl, s.ku, j, jp, s.ju[block_id])
            scale_column(ab, s.m, s.kl, s.ku, j)
        elif s.info[block_id] == 0:
            s.info[block_id] = j + 1


class ColumnUpdateKernel(_ColumnKernelBase):
    """Rank-1 trailing update for column ``j`` (bounded by ``ju``)."""

    name = "gbtrf_ref_update"

    def block_cost(self) -> BlockCost:
        s = self.state
        return reference_column_cost(s.kl, s.ku, s.threads, s.itemsize)[1]

    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        s, j = self.state, self.j
        ab = s.mats[block_id]
        kv = s.kl + s.ku
        # A zero pivot skips the update (LAPACK semantics); detect it from
        # the info flag set by the pivot kernel for this very column.
        if s.info[block_id] != 0 and s.info[block_id] == j + 1:
            return
        rank_one_update(ab, s.m, s.kl, s.ku, j, int(s.ju[block_id]))


class _FactorState:
    """Per-call mutable state shared by the column kernels."""

    def __init__(self, m, n, kl, ku, mats, pivots, info, threads):
        self.m, self.n, self.kl, self.ku = m, n, kl, ku
        self.mats = mats
        self.pivots = pivots
        self.info = info
        self.threads = threads
        self.ju = np.full(len(mats), -1, dtype=np.int64)
        self.itemsize = mats[0].dtype.itemsize if len(mats) else 8


def gbtrf_reference_batch(m: int, n: int, kl: int, ku: int,
                          mats: list[np.ndarray],
                          pivots: list[np.ndarray], info: np.ndarray,
                          device: DeviceSpec, stream=None, *,
                          execute: bool = True,
                          conversion=None) -> None:
    """Fork-join reference factorization: 2 kernel launches per column."""
    threads = max(kl + 1, 32)
    state = _FactorState(m, n, kl, ku, mats, pivots, info, threads)
    launch(device, FactorInitKernel(state), stream=stream,
           execute=execute, conversion=conversion)
    for j in range(min(m, n)):
        launch(device, ColumnPivotKernel(state, j), stream=stream,
               execute=execute, conversion=conversion)
        launch(device, ColumnUpdateKernel(state, j), stream=stream,
               execute=execute, conversion=conversion)
