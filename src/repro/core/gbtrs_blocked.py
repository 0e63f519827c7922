"""Blocked sliding-window triangular solves (paper Section 6, Figure 6).

Both kernels walk the factors ``nb`` columns at a time, caching a window of
the RHS in shared memory:

* **Forward**: starts from the first ``nb`` columns of ``L`` and the top of
  the RHS.  At most ``nb + kl`` RHS rows are cached — enough for all the
  pivot swaps (bounded by ``j + kl``) and rank-1 updates of those columns.
  After a block, the top ``nb`` rows are final: they are written to global
  memory and the remaining rows shift up.
* **Backward**: starts from the *last* ``nb`` columns of ``U`` and the
  bottom of the RHS, caching at most ``nb + kv`` rows (updates reach
  ``kv = kl + ku`` rows above the solved one).  Solved rows are written
  back and the remainder shifts down.

The ``nb`` columns of the factors are "cached in the register file" in the
paper's CUDA/HIP kernels; functionally we read them straight from the
matrix, and the cost formulas charge them as global traffic.

Like the factorization kernels (paper Sections 5.2-5.4), all four kernels
— forward, backward, and both transposed stages — carry a
batch-interleaved execution path
(:meth:`~repro.gpusim.kernel.Kernel.run_batch_vectorized`): every problem
advances through the identical window schedule with one numpy operation
per step, bit-identical to the per-block bodies (see
``docs/PERFORMANCE.md``).  Uniform contiguous stacks stage directly;
scattered/pointer-array batches go through the gather/pack stage
(:meth:`~repro.gpusim.kernel.Kernel.pack_operands`).
"""

from __future__ import annotations

import numpy as np

from ..band.layout import BandLayout
from ..gpusim.costmodel import BlockCost
from ..gpusim.kernel import Kernel, SharedMemory
from .batch_args import all_uniform, soa_stageable, stage_stack
from .costs import gbtrs_backward_cost, gbtrs_forward_cost
from .solve_blocks import (
    backward_step,
    backward_step_batched,
    forward_step,
    forward_swap_batched,
    forward_update_batched,
    transL_step,
    transL_step_batched,
    transU_step,
    transU_step_batched,
)

__all__ = ["BlockedForwardKernel", "BlockedBackwardKernel",
           "BlockedTransUKernel", "BlockedTransLKernel",
           "default_gbtrs_nb", "default_gbtrs_threads"]


def default_gbtrs_nb(kl: int, ku: int) -> int:
    """Default solve block size: amortise the shift over the overlap."""
    return min(max(2 * (kl + ku + 1), 16), 64)


def default_gbtrs_threads(kl: int, ku: int, nrhs: int) -> int:
    """Default threads: cover the update height (``kv + 1`` rows).

    Deliberately independent of ``nrhs``: the kernels keep one thread team
    per matrix and sweep it across the RHS block in rounds, so additional
    right-hand sides lengthen each column step rather than widening the
    block — the same trade the paper's kernels make (their RHS window is
    sized per column count, not per RHS count).
    """
    del nrhs
    return max(kl + 1, min(kl + ku + 1, 128), 16)


class _BlockedSolveBase(Kernel):
    def __init__(self, n: int, kl: int, ku: int, nrhs: int,
                 mats: list[np.ndarray], pivots, rhs: list[np.ndarray], *,
                 nb: int | None = None, threads: int | None = None):
        if nb is not None and nb < 1:
            raise ValueError(f"solve block size nb must be >= 1, got {nb}")
        self.n, self.kl, self.ku, self.nrhs = n, kl, ku, nrhs
        self.mats = mats
        self.pivots = pivots
        self.rhs = rhs
        self.nb = default_gbtrs_nb(kl, ku) if nb is None else nb
        self.nthreads = (default_gbtrs_threads(kl, ku, nrhs)
                         if threads is None else threads)
        self.itemsize = mats[0].dtype.itemsize if mats else 8

    def grid(self) -> int:
        return len(self.mats)

    def threads(self) -> int:
        return self.nthreads

    def _stage_batch(self, nblocks: int, packed: bool):
        """Stage factors, pivots and RHS of the first ``nblocks`` problems
        as ``(batch, ...)`` stacks for the batch-interleaved path.

        On the direct and soa rungs (``packed=False``) the factors and
        RHS stage as zero-copy views: the factors are read straight from
        the caller's storage and solved RHS rows land there directly, so
        :meth:`_writeback_rhs` only scatters on the pack rung.
        """
        abst = stage_stack(self.mats, nblocks, packed=packed)
        pivs = (np.stack([np.asarray(p) for p in self.pivots[:nblocks]])
                if self.pivots is not None else None)
        btall = stage_stack(self.rhs, nblocks, packed=packed)
        return abst, pivs, btall

    def _writeback_rhs(self, btall: np.ndarray, nblocks: int,
                       packed: bool) -> None:
        if packed:
            for k in range(nblocks):
                self.rhs[k][...] = btall[k]

    def can_batch_vectorize(self) -> bool:
        return all_uniform(self.mats, self.rhs)

    def can_soa_vectorize(self) -> bool:
        return soa_stageable(self.mats, self.rhs)

    def pack_operands(self) -> tuple:
        # Factors are read-only in the solves, but staging keeps one rule
        # for every kernel: both operand batches must be packable.
        return (self.mats, self.rhs)


class BlockedForwardKernel(_BlockedSolveBase):
    """Forward solve: progressive pivoting + rank-1 updates on a RHS window."""

    name = "gbtrs_fwd_blocked"

    def smem_bytes(self) -> int:
        return (self.nb + self.kl) * self.nrhs * self.itemsize

    def block_cost(self) -> BlockCost:
        return gbtrs_forward_cost(self.n, self.kl, self.ku, self.nrhs,
                                  self.nb, self.nthreads, self.itemsize)

    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        n, kl, ku, nb = self.n, self.kl, self.ku, self.nb
        ab = self.mats[block_id]
        piv = self.pivots[block_id]
        b = self.rhs[block_id]
        if kl == 0:
            return  # L is the identity: nothing to do
        rw = smem.alloc((nb + kl, self.nrhs), dtype=b.dtype)
        cached = min(nb + kl, n)
        rw[:cached] = b[:cached]
        jbeg = 0
        while jbeg < n:
            jend = min(jbeg + nb, n)
            for j in range(jbeg, jend):
                forward_step(ab, n, kl, ku, j, piv, rw, row0=jbeg)
            b[jbeg:jend] = rw[:jend - jbeg]        # final rows out
            if jend >= n:
                break
            done = jend - jbeg
            rem = cached - done
            rw[:rem] = rw[done:cached].copy()      # shift up
            lo = jbeg + cached
            hi = min(jend + nb + kl, n)
            if hi > lo:
                rw[rem:rem + (hi - lo)] = b[lo:hi]  # next rows in
            cached = rem + max(0, hi - lo)
            jbeg = jend

    def run_batch_vectorized(self, nblocks: int, smem: SharedMemory, *,
                             packed: bool = True) -> None:
        n, kl, ku, nb = self.n, self.kl, self.ku, self.nb
        if kl == 0:
            return  # L is the identity: nothing to do
        abst, pivs, bt = self._stage_batch(nblocks, packed)
        rw = smem.alloc((nblocks, nb + kl, self.nrhs), dtype=bt.dtype)
        cached = min(nb + kl, n)
        rw[:, :cached] = bt[:, :cached]
        jbeg = 0
        while jbeg < n:
            jend = min(jbeg + nb, n)
            for j in range(jbeg, jend):
                forward_swap_batched(rw, j, pivs[:, j], row0=jbeg)
                forward_update_batched(abst, n, kl, ku, j, rw, row0=jbeg)
            bt[:, jbeg:jend] = rw[:, :jend - jbeg]   # final rows out
            if jend >= n:
                break
            done = jend - jbeg
            rem = cached - done
            rw[:, :rem] = rw[:, done:cached].copy()  # shift up
            lo = jbeg + cached
            hi = min(jend + nb + kl, n)
            if hi > lo:
                rw[:, rem:rem + (hi - lo)] = bt[:, lo:hi]
            cached = rem + max(0, hi - lo)
            jbeg = jend
        self._writeback_rhs(bt, nblocks, packed)


class BlockedTransUKernel(_BlockedSolveBase):
    """Transposed-solve stage 1: ``op(U)^T y = b`` (paper Section 6 layout, A^T).

    ``U^T`` is *lower* triangular with bandwidth ``kv``, so this sweeps
    forward, caching ``nb + kv`` solved rows in shared memory — the mirror
    image of the backward kernel.  ``conj=True`` solves ``U^H``.
    """

    name = "gbtrs_transU_blocked"

    def __init__(self, *args, conj: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.conj = conj

    def smem_bytes(self) -> int:
        return (self.nb + self.kl + self.ku) * self.nrhs * self.itemsize

    def block_cost(self) -> BlockCost:
        # Same access structure as the backward solve, mirrored.
        return gbtrs_backward_cost(self.n, self.kl, self.ku, self.nrhs,
                                   self.nb, self.nthreads, self.itemsize)

    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        n, kl, ku, nb = self.n, self.kl, self.ku, self.nb
        kv = kl + ku
        ab = self.mats[block_id]
        b = self.rhs[block_id]
        conj = self.conj and np.iscomplexobj(ab)
        rw = smem.alloc((nb + kv, self.nrhs), dtype=b.dtype)
        jbeg = 0
        base = 0                       # global row of rw[0]
        cached = min(nb, n)
        rw[:cached] = b[:cached]
        while jbeg < n:
            jend = min(jbeg + nb, n)
            for j in range(jbeg, jend):
                transU_step(ab, n, kl, ku, j, rw, conj=conj, row0=base)
            b[jbeg:jend] = rw[jbeg - base:jend - base]
            if jend >= n:
                break
            # Keep the last kv solved rows for the next block's updates.
            base2 = max(jend - kv, 0)
            keep = jend - base2
            rw[:keep] = rw[base2 - base:jend - base].copy()
            hi = min(jend + nb, n)
            rw[keep:keep + (hi - jend)] = b[jend:hi]
            base = base2
            jbeg = jend

    def run_batch_vectorized(self, nblocks: int, smem: SharedMemory, *,
                             packed: bool = True) -> None:
        n, kl, ku, nb = self.n, self.kl, self.ku, self.nb
        kv = kl + ku
        abst, _, btall = self._stage_batch(nblocks, packed)
        conj = self.conj and np.iscomplexobj(abst)
        rw = smem.alloc((nblocks, nb + kv, self.nrhs), dtype=btall.dtype)
        jbeg = 0
        base = 0                       # global row of rw[:, 0]
        cached = min(nb, n)
        rw[:, :cached] = btall[:, :cached]
        while jbeg < n:
            jend = min(jbeg + nb, n)
            for j in range(jbeg, jend):
                transU_step_batched(abst, n, kl, ku, j, rw, conj=conj,
                                    row0=base)
            btall[:, jbeg:jend] = rw[:, jbeg - base:jend - base]
            if jend >= n:
                break
            base2 = max(jend - kv, 0)
            keep = jend - base2
            rw[:, :keep] = rw[:, base2 - base:jend - base].copy()
            hi = min(jend + nb, n)
            rw[:, keep:keep + (hi - jend)] = btall[:, jend:hi]
            base = base2
            jbeg = jend
        self._writeback_rhs(btall, nblocks, packed)


class BlockedTransLKernel(_BlockedSolveBase):
    """Transposed-solve stage 2: ``op(L)^T x = y`` with pivots in reverse.

    ``L^T`` is unit *upper* triangular with bandwidth ``kl``; the sweep
    runs backward, caching ``nb + kl`` rows, and applies each column's row
    interchange *after* its update — the reverse of the forward
    elimination's (swap, update) pairs.
    """

    name = "gbtrs_transL_blocked"

    def __init__(self, *args, conj: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.conj = conj

    def smem_bytes(self) -> int:
        return (self.nb + self.kl) * self.nrhs * self.itemsize

    def block_cost(self) -> BlockCost:
        return gbtrs_forward_cost(self.n, self.kl, self.ku, self.nrhs,
                                  self.nb, self.nthreads, self.itemsize)

    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        n, kl, ku, nb = self.n, self.kl, self.ku, self.nb
        ab = self.mats[block_id]
        piv = self.pivots[block_id]
        b = self.rhs[block_id]
        if kl == 0:
            return                      # L is the identity
        conj = self.conj and np.iscomplexobj(ab)
        rw = smem.alloc((nb + kl, self.nrhs), dtype=b.dtype)
        # Each block's swaps can reach kl rows past its top (piv[j] <=
        # j + kl), touching rows finalised by the previous (later) block —
        # so the window covers [jbeg, jend + kl) and the overlap is
        # re-written after the swaps land
        # (piv[j] <= j + kl <= jend - 1 + kl < hi).
        jend = n
        while jend > 0:
            jbeg = max(jend - nb, 0)
            hi = min(jend + kl, n)
            rw[:hi - jbeg] = b[jbeg:hi]
            for j in range(jend - 1, jbeg - 1, -1):
                transL_step(ab, n, kl, ku, j, int(piv[j]), rw, conj=conj,
                            row0=jbeg)
            b[jbeg:hi] = rw[:hi - jbeg]
            jend = jbeg

    def run_batch_vectorized(self, nblocks: int, smem: SharedMemory, *,
                             packed: bool = True) -> None:
        n, kl, ku, nb = self.n, self.kl, self.ku, self.nb
        if kl == 0:
            return                      # L is the identity
        abst, pivs, btall = self._stage_batch(nblocks, packed)
        conj = self.conj and np.iscomplexobj(abst)
        rw = smem.alloc((nblocks, nb + kl, self.nrhs), dtype=btall.dtype)
        jend = n
        while jend > 0:
            jbeg = max(jend - nb, 0)
            hi = min(jend + kl, n)
            rw[:, :hi - jbeg] = btall[:, jbeg:hi]
            for j in range(jend - 1, jbeg - 1, -1):
                transL_step_batched(abst, n, kl, ku, j, pivs[:, j], rw,
                                    conj=conj, row0=jbeg)
            btall[:, jbeg:hi] = rw[:, :hi - jbeg]
            jend = jbeg
        self._writeback_rhs(btall, nblocks, packed)


class BlockedBackwardKernel(_BlockedSolveBase):
    """Backward solve against ``U`` (bandwidth ``kv``) on a RHS window."""

    name = "gbtrs_bwd_blocked"

    def smem_bytes(self) -> int:
        return (self.nb + self.kl + self.ku) * self.nrhs * self.itemsize

    def block_cost(self) -> BlockCost:
        return gbtrs_backward_cost(self.n, self.kl, self.ku, self.nrhs,
                                   self.nb, self.nthreads, self.itemsize)

    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        n, kl, ku, nb = self.n, self.kl, self.ku, self.nb
        kv = kl + ku
        ab = self.mats[block_id]
        b = self.rhs[block_id]
        rw = smem.alloc((nb + kv, self.nrhs), dtype=b.dtype)
        jend = n
        jbeg = max(n - nb, 0)
        base = max(jbeg - kv, 0)
        rw[:jend - base] = b[base:jend]
        while True:
            for j in range(jend - 1, jbeg - 1, -1):
                backward_step(ab, n, kl, ku, j, rw, row0=base)
            b[jbeg:jend] = rw[jbeg - base:jend - base]  # solved rows
            if jbeg == 0:
                break
            jend2 = jbeg
            jbeg2 = max(jend2 - nb, 0)
            base2 = max(jbeg2 - kv, 0)
            keep = jend2 - base                 # updated rows to keep
            off = base - base2
            if keep > 0:
                rw[off:off + keep] = rw[:keep].copy()   # shift down
            if off > 0:
                rw[:off] = b[base2:base]        # stream next rows in
            jend, jbeg, base = jend2, jbeg2, base2

    def run_batch_vectorized(self, nblocks: int, smem: SharedMemory, *,
                             packed: bool = True) -> None:
        n, kl, ku, nb = self.n, self.kl, self.ku, self.nb
        kv = kl + ku
        abst, _, bt = self._stage_batch(nblocks, packed)
        rw = smem.alloc((nblocks, nb + kv, self.nrhs), dtype=bt.dtype)
        jend = n
        jbeg = max(n - nb, 0)
        base = max(jbeg - kv, 0)
        rw[:, :jend - base] = bt[:, base:jend]
        while True:
            for j in range(jend - 1, jbeg - 1, -1):
                backward_step_batched(abst, n, kl, ku, j, rw, row0=base)
            bt[:, jbeg:jend] = rw[:, jbeg - base:jend - base]
            if jbeg == 0:
                break
            jend2 = jbeg
            jbeg2 = max(jend2 - nb, 0)
            base2 = max(jbeg2 - kv, 0)
            keep = jend2 - base                 # updated rows to keep
            off = base - base2
            if keep > 0:
                rw[:, off:off + keep] = rw[:, :keep].copy()  # shift down
            if off > 0:
                rw[:, :off] = bt[:, base2:base]
            jend, jbeg, base = jend2, jbeg2, base2
        self._writeback_rhs(bt, nblocks, packed)
