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
from ..gpusim.memory import is_packable_batch
from ..tuning.defaults import window_params
from .costs import gbtrf_window_cost
from .gbtrf_window import sliding_window_factor, sliding_window_factor_batched

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

    def __init__(self, problems: list[VbatchProblem],
                 mats: list[np.ndarray], pivots: list[np.ndarray],
                 info: np.ndarray):
        check_arg(len(problems) == len(mats), 1,
                  f"{len(problems)} descriptors for {len(mats)} matrices")
        self.problems = problems
        self.mats = mats
        self.pivots = pivots
        self.info = info
        self.itemsize = mats[0].dtype.itemsize if mats else 8

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

    def run_block(self, block_id: int, smem: SharedMemory) -> None:
        p = self.problems[block_id]
        self.info[block_id] = sliding_window_factor(
            self.mats[block_id], self.pivots[block_id],
            p.m, p.n, p.kl, p.ku, p.nb, smem)

    # -- bucketed batch-interleaved execution ------------------------------

    def _buckets(self, nblocks: int) -> dict:
        """Group block ids by full problem configuration (and storage
        shape, so each bucket stacks into one uniform array)."""
        buckets: dict = {}
        for bid in range(nblocks):
            p = self.problems[bid]
            key = (p.m, p.n, p.kl, p.ku, p.nb, self.mats[bid].shape)
            buckets.setdefault(key, []).append(bid)
        return buckets

    def pack_operands(self) -> tuple:
        return (self.mats,)

    def can_pack_vectorize(self) -> bool:
        """Bucketed eligibility: every same-configuration bucket of more
        than one problem must be packable (same dtype, no overlapping
        storage); singleton buckets run their per-block body as-is."""
        if not self.mats:
            return False
        for idxs in self._buckets(len(self.mats)).values():
            if len(idxs) > 1 and \
                    not is_packable_batch([self.mats[i] for i in idxs]):
                return False
        return True

    def run_batch_vectorized(self, nblocks: int, smem: SharedMemory, *,
                             packed: bool = True) -> None:
        """Bucketed vectorization: each same-configuration bucket advances
        through the window schedule batch-interleaved; singleton buckets
        run the scalar body.  Problems are independent, so per-bucket
        execution order cannot change any result bits."""
        for idxs in self._buckets(nblocks).values():
            p = self.problems[idxs[0]]
            if len(idxs) == 1:
                bid = idxs[0]
                self.info[bid] = sliding_window_factor(
                    self.mats[bid], self.pivots[bid],
                    p.m, p.n, p.kl, p.ku, p.nb, smem)
                continue
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
                       stream=None, execute: bool = True,
                       max_blocks: int | None = None,
                       vectorize: bool | None = None):
    """Non-uniform batch LU in a single kernel launch.

    Same contract as :func:`repro.core.batched.gbtrf_vbatch` (grouped
    strategy) — identical results, different execution shape.  Returns
    ``(pivots, info)``.

    ``vectorize`` selects the host execution path (``None``/``False``/
    ``True`` as in :func:`repro.core.gbtrf.gbtrf_batch`): the vectorized
    path buckets the batch by configuration and advances each bucket
    batch-interleaved, bit-identical to the per-block loop.
    """
    batch = len(a_array)
    for name, seq, pos in (("ms", ms, 1), ("ns", ns, 2), ("kls", kls, 3),
                           ("kus", kus, 4)):
        check_arg(len(seq) == batch, pos,
                  f"{name} has {len(seq)} entries, expected {batch}")
    mats = [np.asarray(a) for a in a_array]
    problems = []
    for k in range(batch):
        m, n, kl, ku = int(ms[k]), int(ns[k]), int(kls[k]), int(kus[k])
        need = 2 * kl + ku + 1
        check_arg(mats[k].shape[0] >= need and mats[k].shape[1] == n, 5,
                  f"matrix {k} has shape {mats[k].shape}; needs at least "
                  f"({need}, {n})")
        nb, threads = window_params(device, kl, ku)
        problems.append(VbatchProblem(m=m, n=n, kl=kl, ku=ku, nb=nb,
                                      threads=threads))
    if pv_array is not None:
        pivots = list(pv_array)
    else:
        pivots = [np.zeros(min(p.m, p.n), dtype=np.int64)
                  for p in problems]
    if info is None:
        info = np.zeros(batch, dtype=np.int64)
    if batch == 0:
        return pivots, info
    kernel = VbatchGbtrfKernel(problems, mats, pivots, info)
    launch(device, kernel, stream=stream, execute=execute,
           max_blocks=max_blocks, vectorize=vectorize)
    return pivots, info
