"""Single-kernel non-uniform batched factorization (paper Section 9).

The grouped vbatch strategy (:func:`repro.core.batched.gbtrf_vbatch`) pays
one kernel launch per distinct configuration and, worse, executes the
groups *sequentially* — a batch of 100 different shapes degenerates to 100
launches.  The single-kernel strategy launches once: every thread block
carries its own problem descriptor ``(m, n, kl, ku, nb)`` and runs the
sliding-window factorization sized for its problem.

The trade, faithfully modeled: shared memory must be reserved for the
*largest* window in the batch (occupancy is set by the worst problem), and
the wave time is governed by the most expensive block.  Grouped execution
keeps per-group occupancy optimal but serialises groups — which strategy
wins depends on the shape mix, which is exactly what the shipped ablation
benchmark explores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..band.layout import BandLayout
from ..errors import check_arg
from ..gpusim.costmodel import BlockCost
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..gpusim.kernel import Kernel, SharedMemory, launch
from ..tuning.defaults import window_params
from .batch_args import check_disjoint, ensure_info, vbatch_configs, \
    vbatch_matrices, vbatch_pivots
from .costs import gbtrf_window_cost
from .gbtrf_window import sliding_window_factor_batched

__all__ = ["VbatchProblem", "VbatchGbtrfKernel", "gbtrf_vbatch_fused"]


@dataclass(frozen=True)
class VbatchProblem:
    """Per-block problem descriptor of the non-uniform kernel."""

    m: int
    n: int
    kl: int
    ku: int
    nb: int
    threads: int

    @property
    def window_bytes(self) -> int:
        return BandLayout(self.m, self.n, self.kl,
                          self.ku).window_elems(self.nb) * 8


class VbatchGbtrfKernel(Kernel):
    """One launch, many shapes: per-block sliding-window factorization."""

    name = "gbtrf_vbatch"
    # The body gathers its per-configuration buckets from the lane list;
    # the driver rejects shared storage within a bucket.
    gathers = True

    def __init__(self, problems: list[VbatchProblem],
                 mats: list[np.ndarray], pivots: list[np.ndarray],
                 info: np.ndarray):
        check_arg(len(problems) == len(mats), 1,
                  f"{len(problems)} descriptors for {len(mats)} matrices")
        self.problems = problems
        self.mats = mats
        self.pivots = pivots
        self.info = info
        self.itemsize = mats[0].dtype.itemsize if len(mats) else 8

    def grid(self) -> int:
        return len(self.problems)

    def threads(self) -> int:
        # The block size must satisfy every problem's minimum (kl + 1) and
        # serve the widest update; the launch uses the batch maximum.
        return max((p.threads for p in self.problems), default=1)

    def smem_bytes(self) -> int:
        # Reserved for the largest window in the batch: the occupancy cost
        # of mixing shapes in one launch.
        return max((BandLayout(p.m, p.n, p.kl, p.ku).window_elems(p.nb)
                    * self.itemsize for p in self.problems), default=0)

    def block_cost(self) -> BlockCost:
        # Wave time is set by the most expensive resident block.
        costs = [gbtrf_window_cost(p.m, p.n, p.kl, p.ku, p.nb, p.threads,
                                   self.itemsize) for p in self.problems]
        worst = max(costs, key=lambda c: c.syncs + c.smem_traffic)
        dram = sum(c.dram_traffic for c in costs) / max(len(costs), 1)
        return BlockCost(flops=worst.flops, smem_traffic=worst.smem_traffic,
                         dram_traffic=dram, syncs=worst.syncs,
                         threads=self.threads())

    # -- bucketed batch-interleaved execution ------------------------------

    def _buckets(self, hi: int, lo: int = 0) -> dict:
        """Group block ids ``lo..hi-1`` by full problem configuration (and
        storage shape, so each bucket stacks into one uniform array)."""
        buckets: dict = {}
        for bid in range(lo, hi):
            p = self.problems[bid]
            key = (p.m, p.n, p.kl, p.ku, p.nb, self.mats[bid].shape)
            buckets.setdefault(key, []).append(bid)
        return buckets

    def pack_operands(self) -> tuple:
        return (self.mats,)

    def pack_bytes(self, nblocks: int) -> int:
        """Gather + scatter traffic of the buckets of blocks
        ``0..nblocks-1``."""
        return 2 * sum(int(a.nbytes) for a in self.mats[:nblocks])

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        """Bucketed vectorization: each same-configuration bucket is
        gathered, advances through the window schedule batch-interleaved
        (a singleton is a bucket of one) and is scattered back.  Problems
        are independent, so per-bucket execution order cannot change any
        result bits."""
        for idxs in self._buckets(hi, lo).values():
            p = self.problems[idxs[0]]
            ldab = BandLayout(p.m, p.n, p.kl, p.ku).ldab_factor
            abst = np.stack([self.mats[i][:ldab, :] for i in idxs])
            pivs = np.zeros((len(idxs), min(p.m, p.n)), dtype=np.int64)
            binfo = np.zeros(len(idxs), dtype=np.int64)
            sliding_window_factor_batched(
                abst, pivs, binfo, p.m, p.n, p.kl, p.ku, p.nb, smem)
            for t, i in enumerate(idxs):
                self.mats[i][:ldab, :] = abst[t]
                self.pivots[i][:] = pivs[t]
                self.info[i] = binfo[t]


def gbtrf_vbatch_fused(ms, ns, kls, kus, a_array, pv_array=None,
                       info=None, *, device: DeviceSpec = H100_PCIE,
                       stream=None, execute: bool = True):
    """Non-uniform batch LU in a single kernel launch.

    Same contract as :func:`repro.core.batched.gbtrf_vbatch` (grouped
    strategy) — identical results, different execution shape, and the
    same argument positions.  Returns ``(pivots, info)``.  The launcher
    buckets the batch by configuration and advances each bucket
    batch-interleaved; matrices of one bucket that share memory raise
    :class:`~repro.errors.ArgumentError` at position 5 before anything
    runs, as they do in the grouped driver.
    """
    batch = len(a_array)
    ms, ns, kls, kus = vbatch_configs(batch, (
        ("ms", ms), ("ns", ns), ("kls", kls), ("kus", kus)))
    mats = vbatch_matrices(a_array, ns, kls, kus, arg_pos=5)
    pivots = vbatch_pivots(pv_array, list(map(min, ms, ns)), arg_pos=6)
    info = ensure_info(info, batch, arg_pos=7)
    if batch == 0:
        return pivots, info
    problems = [VbatchProblem(m, n, kl, ku, *window_params(device, kl, ku))
                for m, n, kl, ku in zip(ms, ns, kls, kus)]
    kernel = VbatchGbtrfKernel(problems, mats, pivots, info)
    for idxs in kernel._buckets(batch).values():
        check_disjoint([mats[i] for i in idxs], arg_pos=5, what="matrix")
    launch(device, kernel, stream=stream, execute=execute)
    return pivots, info
