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

The kernel body is batch-interleaved
(:meth:`~repro.gpusim.kernel.Kernel.run_batch_vectorized`): a lane range
of ``[A|B]`` problems runs every column step (paper Section 5.1 building
blocks plus the paper Section 6 solve steps) across all its lanes at once,
and the per-block path runs the same body on one lane.  Each lane's bits
equal :func:`~repro.core.gbtf2.gbtf2` followed, when ``info == 0``, by
:func:`~repro.core.solve_blocks.gbtrs_unblocked` (see
``docs/PERFORMANCE.md``); the solutions of singular problems are computed
but never written out.
"""

from __future__ import annotations

import numpy as np

from ..band.layout import BandLayout
from ..gpusim.costmodel import BlockCost
from ..gpusim.kernel import Kernel, SharedMemory
from .costs import gbsv_fused_cost
from .gbtf2 import ColumnWork, factor_if_narrow, gbtf2_step_batched, \
    init_fillin_batched
from .gbtrf_fused import default_fused_threads
from .solve_blocks import (
    backward_step_batched,
    forward_swap_batched,
    forward_swap_plane,
    forward_update_batched,
)

__all__ = ["FusedGbsvKernel"]


class FusedGbsvKernel(Kernel):
    """Batched in-shared-memory factorize-and-solve on ``[A|B]``."""

    name = "gbsv_fused"

    def __init__(self, n: int, kl: int, ku: int, nrhs: int,
                 mats, pivots: np.ndarray, rhs, info: np.ndarray, *,
                 threads: int | None = None):
        self.n, self.kl, self.ku, self.nrhs = n, kl, ku, nrhs
        self.layout = BandLayout(n, n, kl, ku)
        self.mats = mats
        self.pivots = pivots
        self.rhs = rhs
        self.info = info
        self.nthreads = threads or default_fused_threads(kl, ku)
        self.itemsize = mats[0].dtype.itemsize if len(mats) else 8

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

    def pack_operands(self) -> tuple:
        return (self.mats, self.rhs)

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        n, kl, ku = self.n, self.kl, self.ku
        ldab = self.layout.ldab_factor
        nblocks = hi - lo
        abst = self.mats[lo:hi, :ldab]
        btst = self.rhs[lo:hi]
        pivs = self.pivots[lo:hi]
        if factor_if_narrow(n, n, kl, ku, abst, pivs, self.info[lo:hi],
                            btst):
            return  # a few lanes, factored and solved on Python floats
        # Column-major, lane-last shared tiles: one column's band rows are
        # adjacent runs of lanes, and the RHS tile is the lane-last window
        # the solve steps take.  Band LU runs on the augmented [A|B]:
        # every column step also swaps and updates the RHS rows, which is
        # the forward solve in disguise.
        store = smem.alloc((n, ldab, nblocks), dtype=abst.dtype)
        tiles = store.transpose(2, 1, 0)
        rw = smem.alloc((n, self.nrhs, nblocks), dtype=btst.dtype)
        tiles[...] = abst
        rw[...] = btst.transpose(1, 2, 0)

        kv = kl + ku
        info = np.zeros(nblocks, dtype=np.int64)
        init_fillin_batched(tiles, n, kl, ku)
        ju = np.full(nblocks, -1, dtype=np.int64)
        work = ColumnWork(tiles, kl, ku)
        plane = forward_swap_plane(rw)
        # A singular lane's RHS is never written out, so the forward
        # steps need no mask: only lanes that end with info == 0 (a
        # nonzero pivot in every column) keep their results.
        for j in range(n):
            ju, jp = gbtf2_step_batched(tiles, n, n, kl, ku, j, ju, pivs,
                                        info, work=work)
            forward_swap_batched(rw, j, j + jp, plane)
            forward_update_batched(store[j, kv + 1:], n, j, rw)

        abst[...] = tiles
        self.info[lo:hi] = info
        ok = info == 0
        if not ok.any():
            return  # LAPACK GBSV: leave B untouched on singularity
        # Backward solve on every lane, still in shared memory; only the
        # non-singular ones are written out, so singular problems keep B
        # untouched.
        for j in range(n - 1, -1, -1):
            backward_step_batched(store[j, :kv + 1], j, rw)
        x = rw.transpose(2, 0, 1)
        btst[ok] = x[ok]
