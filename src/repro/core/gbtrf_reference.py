"""Reference fork-join band LU (paper Section 5.1).

The CPU manages the factorization loop and launches GPU kernels at every
column iteration: one kernel performing the pivot search, fill-in setup,
bounded row swap and column scaling, and a second performing the rank-1
update.  Both operate directly on global memory, advancing every lane
of their range together with the ``*_batched`` blocks of
:mod:`repro.core.gbtf2`.

As the paper notes, this fork-join design is "slower than a multicore CPU
solution in most cases" — ``min(m, n)`` iterations each paying kernel-launch
overhead — but it supports any size and any ``(kl, ku)`` with the same
numerical behaviour, so it is kept as the safeguard path of the dispatcher.
"""

from __future__ import annotations

import numpy as np

from ..gpusim.costmodel import BlockCost
from ..gpusim.device import DeviceSpec
from ..gpusim import ahead
from ..gpusim.kernel import Kernel, SharedMemory
from .costs import reference_column_cost
from .gbtf2 import gbtf2_pivot_batched, init_fillin_batched, \
    rank_one_update_batched

__all__ = ["ColumnPivotKernel", "ColumnUpdateKernel", "FactorInitKernel",
           "gbtrf_reference_batch"]


class ReferenceState:
    """Operands and device state of one batched reference call, shared
    by its per-column kernels (the factorization's and the solve's).

    A factorization carries, per lane, the update bound ``ju`` and this
    step's ``bound`` for the swap and the rank-one update (``j - 1`` on
    a lane whose pivot is exactly zero, so it skips both); the init
    kernel resets them.
    """

    def __init__(self, m, n, kl, ku, mats, pivots, *, info=None, nrhs=0,
                 rhs=None):
        self.m, self.n, self.kl, self.ku, self.nrhs = m, n, kl, ku, nrhs
        self.mats, self.pivots, self.info, self.rhs = mats, pivots, info, rhs
        self.threads = max(kl + 1, 32)
        self.itemsize = mats[0].dtype.itemsize if len(mats) else 8
        self.ju = np.full(len(mats), -1, dtype=np.int64)
        self.bound = self.ju.copy()


class ReferenceKernel(Kernel):
    """One per-column kernel of a reference call: a block per lane, no
    shared memory, operating on the caller's stacks in place."""

    def __init__(self, state: ReferenceState, j: int = 0):
        self.state = state
        self.j = j

    def grid(self) -> int:
        return len(self.state.mats)

    def threads(self) -> int:
        return self.state.threads

    def smem_bytes(self) -> int:
        return 0

    def pack_operands(self) -> tuple:
        s = self.state
        return (s.mats,) if s.rhs is None else (s.mats, s.rhs)


class FactorInitKernel(ReferenceKernel):
    """Per-invocation setup: reset ``ju``/``bound``/``info`` and clear the
    initial fill-in rows.

    Running this as a kernel (rather than host code) keeps the whole
    fork-join pipeline device-side state, which is what makes it graph-
    capturable and replayable (see :mod:`repro.gpusim.graph`).
    """

    name = "gbtrf_ref_init"

    def block_cost(self) -> BlockCost:
        s = self.state
        fill = min(max(s.kl + s.ku - s.ku - 1, 0), s.n) * s.kl
        return BlockCost(dram_traffic=(fill + 2) * s.itemsize, syncs=1,
                         threads=s.threads)

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        s = self.state
        s.ju[lo:hi] = s.bound[lo:hi] = -1
        s.info[lo:hi] = 0
        init_fillin_batched(s.mats[lo:hi], s.n, s.kl, s.ku)


class ColumnPivotKernel(ReferenceKernel):
    """Pivot search + fill-in + bounded swap + scale for column ``j``."""

    name = "gbtrf_ref_pivot"

    def block_cost(self) -> BlockCost:
        s = self.state
        return reference_column_cost(s.kl, s.ku, s.threads, s.itemsize)[0]

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        s = self.state
        s.ju[lo:hi], s.bound[lo:hi], _, _ = gbtf2_pivot_batched(
            s.mats[lo:hi], s.m, s.n, s.kl, s.ku, self.j, s.ju[lo:hi],
            s.pivots[lo:hi], s.info[lo:hi])


class ColumnUpdateKernel(ReferenceKernel):
    """Rank-1 trailing update for column ``j`` (bounded by this step's
    ``bound``, which a zero pivot sets to ``j - 1``: LAPACK skips it)."""

    name = "gbtrf_ref_update"

    def block_cost(self) -> BlockCost:
        s = self.state
        return reference_column_cost(s.kl, s.ku, s.threads, s.itemsize)[1]

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        s = self.state
        rank_one_update_batched(s.mats[lo:hi], s.m, s.kl, s.ku, self.j,
                                s.bound[lo:hi])


def gbtrf_reference_batch(m: int, n: int, kl: int, ku: int,
                          mats: np.ndarray, pivots: np.ndarray,
                          info: np.ndarray, device: DeviceSpec, stream=None,
                          *, execute: bool = True,
                          conversion=None) -> None:
    """Fork-join reference factorization: 2 kernel launches per column."""
    run = ahead.launcher()
    if isinstance(mats, np.ndarray) and mats.strides[0] < 0:
        # The batched blocks address the stack by non-negative strides;
        # lanes are independent, so the reversed views give the same bits.
        mats, pivots, info = mats[::-1], pivots[::-1], info[::-1]
    state = ReferenceState(m, n, kl, ku, mats, pivots, info=info)
    run(device, FactorInitKernel(state), stream=stream, execute=execute,
        conversion=conversion)
    for j in range(min(m, n)):
        run(device, ColumnPivotKernel(state, j), stream=stream,
            execute=execute, conversion=conversion)
        run(device, ColumnUpdateKernel(state, j), stream=stream,
            execute=execute, conversion=conversion)
