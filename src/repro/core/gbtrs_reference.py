"""Reference band triangular solve (paper Section 6, first half).

The lower factor is applied with one (row swap, rank-1 update) kernel pair
per column, progressively applying the pivots to the RHS; the upper factor
with a column-wise backward solver.  Like the reference factorization this
is a fork-join design with per-column kernel launches, kept for generality
and as the ground truth the blocked kernels are tested against.
"""

from __future__ import annotations

import numpy as np

from ..gpusim.costmodel import BlockCost
from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import Kernel, SharedMemory, launch
from ..types import Trans
from .solve_blocks import backward_step, forward_swap, forward_update, gbtrs_unblocked

__all__ = ["RhsSwapKernel", "RhsUpdateKernel", "BackwardColumnKernel",
           "gbtrs_reference_batch"]


class _SolveState:
    """Shared state of one batched reference solve."""

    def __init__(self, n, kl, ku, nrhs, mats, pivots, rhs, threads):
        self.n, self.kl, self.ku, self.nrhs = n, kl, ku, nrhs
        self.mats = mats
        self.pivots = pivots
        self.rhs = rhs
        self.threads = threads
        self.itemsize = mats[0].dtype.itemsize if len(mats) else 8


class _SolveKernelBase(Kernel):
    def __init__(self, state: _SolveState, j: int):
        self.state = state
        self.j = j

    def grid(self) -> int:
        return len(self.state.mats)

    def threads(self) -> int:
        return self.state.threads

    def smem_bytes(self) -> int:
        return 0


class RhsSwapKernel(_SolveKernelBase):
    """Apply pivot ``j`` to the RHS (the swap kernel of the pair)."""

    name = "gbtrs_ref_swap"

    def block_cost(self) -> BlockCost:
        s = self.state
        return BlockCost(dram_traffic=4 * s.nrhs * s.itemsize, syncs=1,
                         threads=s.threads)

    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        s, j = self.state, self.j
        forward_swap(s.rhs[block_id], j, int(s.pivots[block_id][j]))


class RhsUpdateKernel(_SolveKernelBase):
    """Rank-1 update of the RHS with column ``j`` of ``L``."""

    name = "gbtrs_ref_update"

    def block_cost(self) -> BlockCost:
        s = self.state
        return BlockCost(flops=2 * s.kl * s.nrhs,
                         dram_traffic=(3 * s.kl + 2) * s.nrhs * s.itemsize,
                         syncs=1, threads=s.threads)

    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        s, j = self.state, self.j
        forward_update(s.mats[block_id], s.n, s.kl, s.ku, j, s.rhs[block_id])


class BackwardColumnKernel(_SolveKernelBase):
    """One column of the backward solve against ``U`` (bandwidth ``kv``)."""

    name = "gbtrs_ref_backward"

    def block_cost(self) -> BlockCost:
        s = self.state
        kv = s.kl + s.ku
        return BlockCost(flops=(2 * kv + 1) * s.nrhs,
                         dram_traffic=(3 * kv + 2) * s.nrhs * s.itemsize,
                         syncs=1, threads=s.threads)

    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        s, j = self.state, self.j
        backward_step(s.mats[block_id], s.n, s.kl, s.ku, j, s.rhs[block_id])


def gbtrs_reference_batch(trans: Trans | str, n: int, kl: int, ku: int,
                          nrhs: int, mats, pivots, rhs,
                          device: DeviceSpec, stream=None, *,
                          execute: bool = True,
                          conversion=None) -> None:
    """Fork-join reference solve: per-column kernel launches.

    The transposed solves have no per-column GPU decomposition in the paper
    (they are not needed by GBSV); they run as a host-side loop per matrix,
    still producing LAPACK-identical results.
    """
    trans = Trans.from_any(trans)
    threads = max(kl + 1, 32)
    state = _SolveState(n, kl, ku, nrhs, mats, pivots, rhs, threads)
    if trans is not Trans.NO_TRANS:
        if execute:
            for k in range(len(mats)):
                gbtrs_unblocked(trans, n, kl, ku, mats[k], pivots[k], rhs[k])
        return
    if kl > 0:
        for j in range(n - 1):
            launch(device, RhsSwapKernel(state, j), stream=stream,
                   execute=execute, conversion=conversion)
            launch(device, RhsUpdateKernel(state, j), stream=stream,
                   execute=execute, conversion=conversion)
    for j in range(n - 1, -1, -1):
        launch(device, BackwardColumnKernel(state, j), stream=stream,
               execute=execute, conversion=conversion)
