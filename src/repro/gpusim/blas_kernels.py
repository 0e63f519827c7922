"""Batched GEMM/GEMV kernels for the simulated device.

These are the workloads of the paper's Figure 1 (dedicated batch kernels
versus concurrent-stream execution of single-matrix kernels) and of the
sustained-bandwidth measurement of paper Section 8 (very large GEMV).

The dedicated batch kernels assign ``ceil(n / tile)^2`` tiles per matrix in
one launch over the whole batch; the streamed baseline launches one
single-matrix kernel per problem (see :mod:`repro.bench.streams` for the
concurrent-stream executor).  A single-matrix kernel is the batch of one
of its batched kernel: both run one body over their block range, and
declare no operand stacks, so they run on the per-block rung.
"""

from __future__ import annotations

import math

import numpy as np

from .costmodel import BlockCost
from .kernel import Kernel, SharedMemory

__all__ = ["BatchedGemmKernel", "BatchedGemvKernel", "GemvKernel",
           "GemmKernel"]

GEMM_TILE = 32       # square shared-memory tile of the GEMM kernels
GEMV_ROWS = 128      # rows handled per GEMV thread block


class GemmKernel(Kernel):
    """Tiled GEMM ``C = alpha*A@B + beta*C`` (square ``n``) on one matrix,
    or on every matrix of ``(batch, n, n)`` stacks."""

    name = "gemm"

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                 alpha: float = 1.0, beta: float = 0.0):
        self.a, self.b, self.c = ((a, b, c) if a.ndim == 3
                                  else (a[None], b[None], c[None]))
        self.alpha, self.beta = alpha, beta
        self.n = a.shape[-1]
        self.tiles = max(1, math.ceil(self.n / GEMM_TILE))
        self.itemsize = a.dtype.itemsize

    def grid(self) -> int:
        return len(self.a) * self.tiles * self.tiles

    def threads(self) -> int:
        return 256

    def smem_bytes(self) -> int:
        return 2 * GEMM_TILE * GEMM_TILE * self.itemsize

    def block_cost(self) -> BlockCost:
        n, t = self.n, GEMM_TILE
        rows = min(t, n)
        return BlockCost(
            flops=2.0 * rows * rows * n,
            smem_traffic=2.0 * rows * n * self.itemsize,
            dram_traffic=(2.0 * rows * n + rows * rows) * self.itemsize,
            syncs=2 * math.ceil(n / t),
            threads=256,
        )

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        t = GEMM_TILE
        for block_id in range(lo, hi):
            k, tile = divmod(block_id, self.tiles * self.tiles)
            bi, bj = divmod(tile, self.tiles)
            r = slice(bi * t, min((bi + 1) * t, self.n))
            c = slice(bj * t, min((bj + 1) * t, self.n))
            acc = self.alpha * (self.a[k, r, :] @ self.b[k, :, c])
            self.c[k, r, c] = acc + self.beta * self.c[k, r, c]


class BatchedGemmKernel(GemmKernel):
    """Dedicated batch GEMM: all matrices' tiles in a single launch."""

    name = "gemm_batch"


class GemvKernel(Kernel):
    """GEMV ``y = alpha*A@x + beta*y`` (``m x n``) on one matrix, or on
    every matrix of a ``(batch, m, n)`` stack."""

    name = "gemv"

    def __init__(self, a: np.ndarray, x: np.ndarray, y: np.ndarray,
                 alpha: float = 1.0, beta: float = 0.0):
        self.a, self.x, self.y = ((a, x, y) if a.ndim == 3
                                  else (a[None], x[None], y[None]))
        self.alpha, self.beta = alpha, beta
        self.m, self.n = a.shape[-2:]
        self.blocks_per = max(1, math.ceil(self.m / GEMV_ROWS))
        self.itemsize = a.dtype.itemsize

    def grid(self) -> int:
        return len(self.a) * self.blocks_per

    def threads(self) -> int:
        return GEMV_ROWS

    def smem_bytes(self) -> int:
        return 0

    def block_cost(self) -> BlockCost:
        rows = min(GEMV_ROWS, self.m)
        return BlockCost(
            flops=2.0 * rows * self.n,
            smem_traffic=0.0,
            dram_traffic=(rows * self.n + self.n + 2 * rows) * self.itemsize,
            syncs=1,
            threads=GEMV_ROWS,
        )

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        for block_id in range(lo, hi):
            k, blk = divmod(block_id, self.blocks_per)
            r = slice(blk * GEMV_ROWS, min((blk + 1) * GEMV_ROWS, self.m))
            self.y[k, r] = (self.alpha * (self.a[k, r, :] @ self.x[k])
                            + self.beta * self.y[k, r])


class BatchedGemvKernel(GemvKernel):
    """Dedicated batch GEMV: all matrices' row blocks in a single launch."""

    name = "gemv_batch"
