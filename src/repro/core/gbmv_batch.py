"""Batched band matrix-vector product kernel (batched ``GBMV``).

The batched-BLAS ecosystem the paper builds on (its reference [3] defines
the standard) pairs every batched solver with the matching batched BLAS
operations.  A device-side batched ``GBMV`` is the natural companion of
``gbtrf_batch``: residual evaluation for iterative refinement, matrix-free
checks, and power iterations all need ``y = alpha*op(A) x + beta*y`` over
the same band batches the solver consumes.

One thread block per matrix; the band is streamed through registers (it is
read once — no shared-memory staging needed), so the kernel is purely
DRAM-bound, like the GEMV the paper uses to measure sustained bandwidth.
"""

from __future__ import annotations

import numpy as np

from ..band.ops import gbmv
from ..errors import ArgumentError, check_arg
from ..gpusim.costmodel import BlockCost
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..gpusim.kernel import Kernel, SharedMemory, launch
from ..types import Trans
from .batch_args import as_matrix_list, check_gb_args

__all__ = ["BatchedGbmvKernel", "gbmv_batch"]


class BatchedGbmvKernel(Kernel):
    """``y_k = alpha * op(A_k) x_k + beta * y_k`` for a uniform band batch."""

    name = "gbmv_batch"

    def __init__(self, trans: Trans, m: int, n: int, kl: int, ku: int,
                 alpha, mats: list[np.ndarray], xs: list[np.ndarray],
                 beta, ys: list[np.ndarray]):
        self.trans = trans
        self.m, self.n, self.kl, self.ku = m, n, kl, ku
        self.alpha, self.beta = alpha, beta
        self.mats, self.xs, self.ys = mats, xs, ys
        self.itemsize = mats[0].dtype.itemsize if len(mats) else 8

    def grid(self) -> int:
        return len(self.mats)

    def threads(self) -> int:
        # One thread per output row, a warp's worth minimum.
        return max(32, min(self.m if self.trans is Trans.NO_TRANS
                           else self.n, 256))

    def smem_bytes(self) -> int:
        return 0

    def block_cost(self) -> BlockCost:
        band_entries = (self.kl + self.ku + 1) * self.n
        out_len = self.m if self.trans is Trans.NO_TRANS else self.n
        in_len = self.n if self.trans is Trans.NO_TRANS else self.m
        return BlockCost(
            flops=2.0 * band_entries,
            smem_traffic=0.0,
            dram_traffic=(band_entries + in_len + 2 * out_len)
            * self.itemsize,
            syncs=2,
            threads=self.threads(),
        )

    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        gbmv(self.trans, self.m, self.kl, self.ku, self.alpha,
             self.mats[block_id], self.xs[block_id], self.beta,
             self.ys[block_id])


def gbmv_batch(trans: Trans | str, m: int, n: int, kl: int, ku: int,
               alpha, a_array, x_array, beta, y_array, *,
               batch: int | None = None, device: DeviceSpec = H100_PCIE,
               stream=None, execute: bool = True) -> None:
    """Batched band matrix-vector product on the simulated device.

    ``x_array``/``y_array`` are ``(batch, len)`` stacks or sequences of
    per-problem vectors (each may also be ``(len, nrhs)`` blocks); ``y`` is
    updated in place, so each of its entries must be an ndarray.
    Matrices are factor-layout band storage, matching the solver's
    operands, so residuals of solver inputs need no conversion.
    """
    trans = Trans.from_any(trans)
    if batch is None:
        batch = len(a_array)
    mats = as_matrix_list(a_array, batch, arg_pos=7)
    check_gb_args(m, n, kl, ku, mats, batch=batch)
    out_len = m if trans is Trans.NO_TRANS else n
    in_len = n if trans is Trans.NO_TRANS else m
    xs = [np.asarray(x) for x in x_array]
    ys = list(y_array)
    check_arg(len(xs) == batch, 8,
              f"x has {len(xs)} entries, expected {batch}")
    check_arg(len(ys) == batch, 10,
              f"y has {len(ys)} entries, expected {batch}")
    for k in range(batch):
        check_arg(xs[k].shape[0] == in_len, 8,
                  f"x[{k}] has {xs[k].shape[0]} rows, expected {in_len}")
        if not isinstance(ys[k], np.ndarray):
            raise ArgumentError(10, f"y[{k}] is a {type(ys[k]).__name__}, "
                                "not an ndarray; the call writes it")
        check_arg(ys[k].shape[0] == out_len, 10,
                  f"y[{k}] has {ys[k].shape[0]} rows, expected {out_len}")
    if batch == 0:
        return
    kernel = BatchedGbmvKernel(trans, m, n, kl, ku, alpha, mats, xs,
                               beta, ys)
    launch(device, kernel, stream=stream, execute=execute)
