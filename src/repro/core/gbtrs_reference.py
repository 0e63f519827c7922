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
from ..gpusim import ahead
from ..gpusim.kernel import SharedMemory
from ..types import Trans
from .gbtrf_reference import ReferenceKernel, ReferenceState
from .solve_blocks import backward_step_batched, forward_update_batched, \
    transL_update_batched, transU_step_batched

__all__ = ["RhsSwapKernel", "RhsUpdateKernel", "BackwardColumnKernel",
           "TransUColumnKernel", "TransLUpdateKernel",
           "gbtrs_reference_batch"]


class RhsSwapKernel(ReferenceKernel):
    """Apply pivot ``j`` to the RHS (the swap kernel of the pair)."""

    name = "gbtrs_ref_swap"

    def block_cost(self) -> BlockCost:
        s = self.state
        return BlockCost(dram_traffic=4 * s.nrhs * s.itemsize, syncs=1,
                         threads=s.threads)

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        s, j = self.state, self.j
        piv = s.pivots[lo:hi, j]
        k = np.flatnonzero(piv != j)            # lanes that swap
        b, p = s.rhs[lo:hi], piv[k]
        row_p = b[k, p]
        b[k, p] = b[k, j]
        b[k, j] = row_p


class RhsUpdateKernel(ReferenceKernel):
    """Rank-1 update of the RHS with column ``j`` of ``L``."""

    name = "gbtrs_ref_update"

    def block_cost(self) -> BlockCost:
        s = self.state
        return BlockCost(flops=2 * s.kl * s.nrhs,
                         dram_traffic=(3 * s.kl + 2) * s.nrhs * s.itemsize,
                         syncs=1, threads=s.threads)

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        s, j = self.state, self.j
        kv = s.kl + s.ku
        forward_update_batched(s.mats[lo:hi, kv + 1:kv + s.kl + 1, j].T,
                               s.n, j, s.rhs[lo:hi].transpose(1, 2, 0))


class BackwardColumnKernel(ReferenceKernel):
    """One column of the backward solve against ``U`` (bandwidth ``kv``)."""

    name = "gbtrs_ref_backward"

    def block_cost(self) -> BlockCost:
        s = self.state
        kv = s.kl + s.ku
        return BlockCost(flops=(2 * kv + 1) * s.nrhs,
                         dram_traffic=(3 * kv + 2) * s.nrhs * s.itemsize,
                         syncs=1, threads=s.threads)

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        s, j = self.state, self.j
        backward_step_batched(s.mats[lo:hi, :s.kl + s.ku + 1, j].T, j,
                              s.rhs[lo:hi].transpose(1, 2, 0))


class TransUColumnKernel(ReferenceKernel):
    """One column of the solve against ``op(U)`` (lower triangular with
    bandwidth ``kv``), the first half of a transposed solve."""

    name = "gbtrs_ref_trans_u"

    def __init__(self, state: ReferenceState, j: int, conj: bool):
        super().__init__(state, j)
        self.conj = conj

    def block_cost(self) -> BlockCost:
        s = self.state
        kv = s.kl + s.ku
        return BlockCost(flops=(2 * kv + 1) * s.nrhs,
                         dram_traffic=(3 * kv + 2) * s.nrhs * s.itemsize,
                         syncs=1, threads=s.threads)

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        s, j = self.state, self.j
        transU_step_batched(s.mats[lo:hi, :s.kl + s.ku + 1, j].T, j,
                            s.rhs[lo:hi].transpose(1, 2, 0), conj=self.conj)


class TransLUpdateKernel(TransUColumnKernel):
    """Column ``j`` of the solve against ``op(L)``, before its pivot
    swap (:class:`RhsSwapKernel`)."""

    name = "gbtrs_ref_trans_l"

    def block_cost(self) -> BlockCost:
        s = self.state
        return BlockCost(flops=2 * s.kl * s.nrhs,
                         dram_traffic=(3 * s.kl + 2) * s.nrhs * s.itemsize,
                         syncs=1, threads=s.threads)

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        s, j = self.state, self.j
        kv = s.kl + s.ku
        transL_update_batched(s.mats[lo:hi, kv + 1:kv + s.kl + 1, j].T,
                              s.n, j, s.rhs[lo:hi].transpose(1, 2, 0),
                              conj=self.conj)


def gbtrs_reference_batch(trans: Trans | str, n: int, kl: int, ku: int,
                          nrhs: int, mats: np.ndarray, pivots: np.ndarray,
                          rhs: np.ndarray, device: DeviceSpec, stream=None,
                          *, execute: bool = True,
                          conversion=None) -> None:
    """Fork-join reference solve: per-column kernel launches.

    The transposed solves (not needed by GBSV, so not in the paper) run
    the same per-column steps as
    :func:`~repro.core.solve_blocks.gbtrs_batched` as launches: one
    ``op(U)`` column kernel per column, then an update and pivot-swap
    pair per column of ``op(L)``, in reverse.
    """
    trans = Trans.from_any(trans)
    run = ahead.launcher()
    state = ReferenceState(n, n, kl, ku, mats, pivots, nrhs=nrhs, rhs=rhs)
    if trans is not Trans.NO_TRANS:
        conj = trans is Trans.CONJ_TRANS and np.iscomplexobj(mats)
        for j in range(n):
            run(device, TransUColumnKernel(state, j, conj), stream=stream,
                execute=execute, conversion=conversion)
        if kl > 0:
            for j in range(n - 2, -1, -1):
                run(device, TransLUpdateKernel(state, j, conj),
                    stream=stream, execute=execute, conversion=conversion)
                run(device, RhsSwapKernel(state, j), stream=stream,
                    execute=execute, conversion=conversion)
        return
    if kl > 0:
        for j in range(n - 1):
            run(device, RhsSwapKernel(state, j), stream=stream,
                execute=execute, conversion=conversion)
            run(device, RhsUpdateKernel(state, j), stream=stream,
                execute=execute, conversion=conversion)
    for j in range(n - 1, -1, -1):
        run(device, BackwardColumnKernel(state, j), stream=stream,
            execute=execute, conversion=conversion)
