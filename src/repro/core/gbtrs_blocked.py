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
paper's CUDA/HIP kernels, and the cost formulas charge them as global
traffic.

Like the factorization kernels (paper Sections 5.2-5.4), all four kernels
— forward, backward, and both transposed stages — have one
batch-interleaved body
(:meth:`~repro.gpusim.kernel.Kernel.run_batch_vectorized`): every problem
of a lane range advances through the identical window schedule with one
numpy operation per step, and the per-block path runs it on one lane.
Each lane's bits equal :func:`~repro.core.solve_blocks.gbtrs_unblocked`
(see ``docs/PERFORMANCE.md``).  The bodies read the factors and write
the right-hand sides in the caller's stacks, whatever their strides.
They run lane-last: the RHS window is ``(rows, nrhs, batch)`` and each
``nb``-column block of the factor rows a kernel reads — the ``kl``
multipliers or the ``kv + 1`` rows of ``U`` — is staged once into a
reused ``(rows, nb, batch)`` tile, so every column step reads runs of
adjacent lanes.  On the soa rung the lanes are already fastest-varying
and the tile is a view.
"""

from __future__ import annotations

import numpy as np

from ..gpusim.costmodel import BlockCost
from ..gpusim.kernel import Kernel, SharedMemory
from .costs import gbtrs_backward_cost, gbtrs_forward_cost
from .solve_blocks import (
    backward_step_batched,
    forward_swap_batched,
    forward_swap_plane,
    forward_update_batched,
    solve_if_narrow,
    transL_step_batched,
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


class _FactorTiles:
    """Lane-last ``(rows, nb, batch)`` tiles of band rows ``[r0, r1)``.

    ``abl`` is the staged factor stack viewed ``(ldab, n, batch)``.  When
    its lanes are fastest-varying (the soa rung) or there is one lane, a
    tile is a view; otherwise each block is copied into one reused buffer.
    """

    def __init__(self, abl: np.ndarray, r0: int, r1: int, nb: int):
        self.rows = abl[r0:r1]
        self.buf = (None if abl.strides[-1] == abl.itemsize
                    or abl.shape[-1] == 1 else
                    np.empty((r1 - r0, nb, abl.shape[-1]), dtype=abl.dtype))

    def block(self, jbeg: int, jend: int) -> np.ndarray:
        """Columns ``[jbeg, jend)``; column ``j`` is ``tile[:, j - jbeg]``."""
        src = self.rows[:, jbeg:jend]
        if self.buf is None:
            return src
        tile = self.buf[:, :jend - jbeg]
        tile[...] = src
        return tile


class _BlockedSolveBase(Kernel):
    def __init__(self, n: int, kl: int, ku: int, nrhs: int,
                 mats, pivots: np.ndarray | None, rhs, *,
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
        self.itemsize = mats[0].dtype.itemsize if len(mats) else 8

    def grid(self) -> int:
        return len(self.mats)

    def threads(self) -> int:
        return self.nthreads

    def _lane_views(self, hi: int, lo: int):
        """Factors, pivots and RHS of problems ``lo..hi-1`` viewed
        lane-last for the kernel body: ``(ldab, n, batch)``, ``(n,
        batch)`` and ``(n, nrhs, batch)``.  The factors are read straight
        from the caller's stack and solved RHS rows land in it."""
        pivs = None if self.pivots is None else self.pivots[lo:hi].T
        return (self.mats[lo:hi].transpose(1, 2, 0), pivs,
                self.rhs[lo:hi].transpose(1, 2, 0))

    def pack_operands(self) -> tuple:
        return (self.mats, self.rhs)

    def _narrow(self, hi: int, lo: int, *, forward: bool) -> bool:
        """Run one half of the ``'N'`` solve of lanes ``lo..hi-1`` on
        Python floats when they are few enough
        (:func:`repro.core.solve_blocks.solve_if_narrow`); returns
        whether it ran."""
        return solve_if_narrow(
            self.n, self.kl, self.ku, self.mats[lo:hi],
            self.pivots[lo:hi] if forward else None, self.rhs[lo:hi],
            forward=forward, backward=not forward)


class BlockedForwardKernel(_BlockedSolveBase):
    """Forward solve: progressive pivoting + rank-1 updates on a RHS window."""

    name = "gbtrs_fwd_blocked"

    def smem_bytes(self) -> int:
        return (self.nb + self.kl) * self.nrhs * self.itemsize

    def block_cost(self) -> BlockCost:
        return gbtrs_forward_cost(self.n, self.kl, self.ku, self.nrhs,
                                  self.nb, self.nthreads, self.itemsize)

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        n, kl, ku, nb = self.n, self.kl, self.ku, self.nb
        if kl == 0 or self._narrow(hi, lo, forward=True):
            return  # kl == 0: L is the identity, nothing to do
        kv = kl + ku
        abl, pivs, bt = self._lane_views(hi, lo)
        tiles = _FactorTiles(abl, kv + 1, kv + kl + 1, nb)
        rw = smem.alloc((nb + kl, self.nrhs, hi - lo), dtype=bt.dtype)
        plane = forward_swap_plane(rw)
        swaps = (pivs != np.arange(n)[:, None]).any(axis=1)
        cached = min(nb + kl, n)
        rw[:cached] = bt[:cached]
        jbeg = 0
        while jbeg < n:
            jend = min(jbeg + nb, n)
            lt = tiles.block(jbeg, jend)
            for j in range(jbeg, jend):
                if swaps[j]:
                    forward_swap_batched(rw, j, pivs[j], plane, row0=jbeg)
                forward_update_batched(lt[:, j - jbeg], n, j, rw, row0=jbeg)
            bt[jbeg:jend] = rw[:jend - jbeg]         # final rows out
            if jend >= n:
                break
            done = jend - jbeg
            rem = cached - done
            rw[:rem] = rw[done:cached]      # shift up (numpy buffers overlap)
            r0 = jbeg + cached                  # next rows in: [r0, r1)
            r1 = min(jend + nb + kl, n)
            if r1 > r0:
                rw[rem:rem + (r1 - r0)] = bt[r0:r1]
            cached = rem + max(0, r1 - r0)
            jbeg = jend


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

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        n, kl, ku, nb = self.n, self.kl, self.ku, self.nb
        kv = kl + ku
        abl, _, btl = self._lane_views(hi, lo)
        conj = self.conj and np.iscomplexobj(abl)
        tiles = _FactorTiles(abl, 0, kv + 1, nb)
        rw = smem.alloc((nb + kv, self.nrhs, hi - lo), dtype=btl.dtype)
        jbeg = 0
        base = 0                       # global row of rw[0]
        cached = min(nb, n)
        rw[:cached] = btl[:cached]
        while jbeg < n:
            jend = min(jbeg + nb, n)
            ut = tiles.block(jbeg, jend)
            for j in range(jbeg, jend):
                transU_step_batched(ut[:, j - jbeg], j, rw, conj=conj,
                                    row0=base)
            btl[jbeg:jend] = rw[jbeg - base:jend - base]
            if jend >= n:
                break
            base2 = max(jend - kv, 0)
            keep = jend - base2
            rw[:keep] = rw[base2 - base:jend - base]
            r1 = min(jend + nb, n)
            rw[keep:keep + (r1 - jend)] = btl[jend:r1]
            base = base2
            jbeg = jend


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

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        n, kl, ku, nb = self.n, self.kl, self.ku, self.nb
        if kl == 0:
            return                      # L is the identity
        kv = kl + ku
        abl, pivs, btl = self._lane_views(hi, lo)
        conj = self.conj and np.iscomplexobj(abl)
        tiles = _FactorTiles(abl, kv + 1, kv + kl + 1, nb)
        rw = smem.alloc((nb + kl, self.nrhs, hi - lo), dtype=btl.dtype)
        plane = forward_swap_plane(rw)
        # Each block's swaps can reach kl rows past its top (piv[j] <=
        # j + kl), touching rows finalised by the previous (later) block —
        # so the window covers [jbeg, jend + kl) and the overlap is
        # re-written after the swaps land
        # (piv[j] <= j + kl <= jend - 1 + kl < r1).
        jend = n
        while jend > 0:
            jbeg = max(jend - nb, 0)
            r1 = min(jend + kl, n)
            rw[:r1 - jbeg] = btl[jbeg:r1]
            lt = tiles.block(jbeg, jend)
            for j in range(jend - 1, jbeg - 1, -1):
                transL_step_batched(lt[:, j - jbeg], n, j, pivs[j], rw,
                                    plane, conj=conj, row0=jbeg)
            btl[jbeg:r1] = rw[:r1 - jbeg]
            jend = jbeg


class BlockedBackwardKernel(_BlockedSolveBase):
    """Backward solve against ``U`` (bandwidth ``kv``) on a RHS window."""

    name = "gbtrs_bwd_blocked"

    def smem_bytes(self) -> int:
        return (self.nb + self.kl + self.ku) * self.nrhs * self.itemsize

    def block_cost(self) -> BlockCost:
        return gbtrs_backward_cost(self.n, self.kl, self.ku, self.nrhs,
                                   self.nb, self.nthreads, self.itemsize)

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        if self._narrow(hi, lo, forward=False):
            return
        n, kl, ku, nb = self.n, self.kl, self.ku, self.nb
        kv = kl + ku
        abl, _, bt = self._lane_views(hi, lo)
        tiles = _FactorTiles(abl, 0, kv + 1, nb)
        rw = smem.alloc((nb + kv, self.nrhs, hi - lo), dtype=bt.dtype)
        jend = n
        jbeg = max(n - nb, 0)
        base = max(jbeg - kv, 0)
        rw[:jend - base] = bt[base:jend]
        while True:
            ut = tiles.block(jbeg, jend)
            for j in range(jend - 1, jbeg - 1, -1):
                backward_step_batched(ut[:, j - jbeg], j, rw, row0=base)
            bt[jbeg:jend] = rw[jbeg - base:jend - base]
            if jbeg == 0:
                break
            jend2 = jbeg
            jbeg2 = max(jend2 - nb, 0)
            base2 = max(jbeg2 - kv, 0)
            keep = jend2 - base                 # updated rows to keep
            off = base - base2
            if keep > 0:
                rw[off:off + keep] = rw[:keep]  # shift down
            if off > 0:
                rw[:off] = bt[base2:base]
            jend, jbeg, base = jend2, jbeg2, base2
