"""Fused factorize-and-solve kernel (paper Section 7).

For very small systems, a single kernel performs the band LU factorization
on the augmented matrix ``[A|B]`` held entirely in shared memory.  Applying
every (pivot swap, scale, rank-1 update) column step to the ``B`` columns
as well *implicitly performs the forward triangular solve*; after the
factorization, the backward solve runs in shared memory too, and the
factors, pivots and solution are written out once.  This maximises data
reuse and bandwidth utilisation for very small sizes — the paper enables it
for systems of order 64 or less with a single right-hand side.

Following LAPACK ``DGBSV`` semantics, if the factorization reports a
singular ``U`` the solution is not computed: the factors and pivots are
still written back but ``B`` is left unchanged in global memory.

The kernel also implements the batch-interleaved path
(:meth:`~repro.gpusim.kernel.Kernel.run_batch_vectorized`): uniform
contiguous ``[A|B]`` batches run every column step (paper Section 5.1 building
blocks plus the paper Section 6 solve steps) across the whole batch at once,
bit-identical to the per-block body (see ``docs/PERFORMANCE.md``); the
solutions of singular problems are computed but never written out.
"""

from __future__ import annotations

import numpy as np

from ..band.layout import BandLayout
from ..gpusim.costmodel import BlockCost
from ..gpusim.kernel import Kernel, SharedMemory
from .batch_args import all_uniform, soa_stageable, stage_stack
from .costs import gbsv_fused_cost
from .gbtf2 import (
    ColumnWork,
    gbtf2_step_batched,
    init_fillin,
    init_fillin_batched,
    pivot_search,
    rank_one_update,
    scale_column,
    set_fillin,
    swap_right,
    update_bound,
)
from .gbtrf_fused import default_fused_threads
from .solve_blocks import (
    backward_step,
    backward_step_batched,
    forward_swap,
    forward_swap_batched,
    forward_update,
    forward_update_batched,
)

__all__ = ["FusedGbsvKernel"]


class FusedGbsvKernel(Kernel):
    """Batched in-shared-memory factorize-and-solve on ``[A|B]``."""

    name = "gbsv_fused"

    def __init__(self, n: int, kl: int, ku: int, nrhs: int,
                 mats: list[np.ndarray], pivots: list[np.ndarray],
                 rhs: list[np.ndarray], info: np.ndarray, *,
                 threads: int | None = None):
        self.n, self.kl, self.ku, self.nrhs = n, kl, ku, nrhs
        self.layout = BandLayout(n, n, kl, ku)
        self.mats = mats
        self.pivots = pivots
        self.rhs = rhs
        self.info = info
        self.nthreads = threads or default_fused_threads(kl, ku)
        self.itemsize = mats[0].dtype.itemsize if mats else 8

    def grid(self) -> int:
        return len(self.mats)

    def threads(self) -> int:
        return self.nthreads

    def smem_bytes(self) -> int:
        augmented = self.layout.fused_elems() + self.n * self.nrhs
        return augmented * self.itemsize

    def block_cost(self) -> BlockCost:
        return gbsv_fused_cost(self.n, self.kl, self.ku, self.nrhs,
                               self.nthreads, self.itemsize)

    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        n, kl, ku = self.n, self.kl, self.ku
        kv = kl + ku
        ab = self.mats[block_id]
        piv = self.pivots[block_id]
        b = self.rhs[block_id]
        ldab = self.layout.ldab_factor

        tile = smem.alloc((ldab, n), dtype=ab.dtype)
        bt = smem.alloc((n, self.nrhs), dtype=b.dtype)
        tile[...] = ab[:ldab, :]
        bt[...] = b

        # Band LU on the augmented [A|B]: every column step also swaps and
        # updates the RHS rows, which is the forward solve in disguise.
        init_fillin(tile, n, kl, ku)
        ju = -1
        info = 0
        for j in range(n):
            set_fillin(tile, n, kl, ku, j)
            jp = pivot_search(tile, n, kl, ku, j)
            piv[j] = j + jp
            if tile[kv + jp, j] != 0:
                ju = update_bound(n, kl, ku, j, jp, ju)
                swap_right(tile, kl, ku, j, jp, ju)
                forward_swap(bt, j, j + jp)
                scale_column(tile, n, kl, ku, j)
                rank_one_update(tile, n, kl, ku, j, ju)
                forward_update(tile, n, kl, ku, j, bt)
            elif info == 0:
                info = j + 1

        ab[:ldab, :] = tile
        self.info[block_id] = info
        if info != 0:
            return  # LAPACK GBSV: leave B untouched on singularity
        # Backward solve, still in shared memory.
        for j in range(n - 1, -1, -1):
            backward_step(tile, n, kl, ku, j, bt)
        b[...] = bt

    def can_batch_vectorize(self) -> bool:
        return all_uniform(self.mats, self.rhs)

    def can_soa_vectorize(self) -> bool:
        return soa_stageable(self.mats, self.rhs)

    def pack_operands(self) -> tuple:
        return (self.mats, self.rhs)

    def run_batch_vectorized(self, nblocks: int, smem: SharedMemory, *,
                             packed: bool = True) -> None:
        n, kl, ku = self.n, self.kl, self.ku
        ldab = self.layout.ldab_factor
        abst = stage_stack(self.mats, nblocks, packed=packed, rows=ldab)
        btst = stage_stack(self.rhs, nblocks, packed=packed)
        # Column-major, lane-last shared tiles: one column's band rows are
        # adjacent runs of lanes, and the RHS tile is the lane-last window
        # the solve steps take.
        store = smem.alloc((n, ldab, nblocks), dtype=abst.dtype)
        tiles = store.transpose(2, 1, 0)
        rw = smem.alloc((n, self.nrhs, nblocks), dtype=btst.dtype)
        tiles[...] = abst
        rw[...] = btst.transpose(1, 2, 0)

        kv = kl + ku
        pivs = np.zeros((nblocks, n), dtype=np.int64)
        info = np.zeros(nblocks, dtype=np.int64)
        init_fillin_batched(tiles, n, kl, ku)
        ju = np.full(nblocks, -1, dtype=np.int64)
        work = ColumnWork(tiles, kl, ku)
        # A singular lane's RHS is never written out, so the forward
        # steps need no mask: only lanes that end with info == 0 (a
        # nonzero pivot in every column) keep their results.
        for j in range(n):
            ju, jp, _ = gbtf2_step_batched(tiles, n, n, kl, ku, j, ju, pivs,
                                           info, work=work)
            forward_swap_batched(rw, j, j + jp)
            forward_update_batched(store[j, kv + 1:], n, j, rw)

        abst[...] = tiles
        for k in range(nblocks):
            if packed:
                self.mats[k][:ldab, :] = abst[k]
            self.pivots[k][:] = pivs[k]
        self.info[:nblocks] = info
        ok = info == 0
        if not ok.any():
            return  # LAPACK GBSV: leave B untouched on singularity
        # Backward solve on every lane; only the non-singular ones are
        # written out, so singular problems keep B untouched.
        for j in range(n - 1, -1, -1):
            backward_step_batched(store[j, :kv + 1], j, rw)
        x = rw.transpose(2, 0, 1)
        if not packed:
            btst[ok] = x[ok]
            return
        for k in np.flatnonzero(ok):
            self.rhs[k][...] = x[k]
