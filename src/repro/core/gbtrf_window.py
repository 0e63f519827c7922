"""Sliding-window band LU factorization kernel (paper Section 5.3).

The key observation: during the factorization of column ``j`` the last
column that can be touched is ``ju = max(ju, min(j + ku + jp, n-1))``,
bounded by ``j + kv`` (worst case ``jp = kl``).  So a window of
``nb + kv + 1`` columns — ``nb`` "factor window" columns plus the widest
possible "update window" — is all that ever needs to live in shared
memory.  The window shifts through the matrix *inside one kernel* (the
paper found this faster than one kernel per block-column, which it keeps as
an ablation; see :mod:`repro.bench.figures`), giving a shared-memory
footprint that is constant in the matrix size:

    ``(kv + nb + 1) x (kv + kl + 1)`` elements.

Tuning parameters: the block size ``nb`` and the threads per matrix
(minimum ``kl + 1``); see :mod:`repro.tuning`.
"""

from __future__ import annotations

import numpy as np

from ..band.layout import BandLayout, is_column_interleaved
from ..gpusim.costmodel import BlockCost
from ..gpusim.kernel import Kernel, SharedMemory
from .costs import gbtrf_window_cost
from .gbtf2 import ColumnWork, factor_if_narrow, gbtf2_batched, \
    gbtf2_step_batched, init_fillin_batched

__all__ = ["SlidingWindowGbtrfKernel", "window_factor_steps",
           "sliding_window_factor_batched"]


def window_factor_steps(mn: int, nb: int) -> int:
    """Number of window iterations: ``ceil(min(m, n) / nb)``."""
    return -(-mn // nb) if mn > 0 else 0


def _stream_in(store: np.ndarray, abst: np.ndarray, at: int, lo: int,
               hi: int) -> None:
    """Copy columns ``[lo, hi)`` of ``abst`` to window columns ``at..``.

    ``store`` is the ``(wcols, ldab, batch)`` window storage.  The copy
    runs one band row at a time: numpy moves each row's 2-D transpose
    about twice as fast as the whole 3-D one (113 columns at batch 1000,
    ldab 25: 8.8 against 19.5 ms on a 2-core host).
    """
    for r in range(store.shape[1]):
        store[at:at + hi - lo, r] = abst[:, r, lo:hi].T


def sliding_window_factor_batched(abst: np.ndarray, pivs: np.ndarray,
                                  info: np.ndarray, m: int, n: int,
                                  kl: int, ku: int, nb: int,
                                  smem: SharedMemory) -> None:
    """The sliding-window factorization (the kernel body), batch-interleaved.

    Factorizes a ``(batch, ldab, n)`` factor-layout stack in place
    through a shared-memory window allocated from ``smem``, advancing
    every problem through each column step with one numpy operation;
    ``pivs`` is ``(batch, mn)`` and ``info`` ``(batch,)`` (LAPACK codes),
    both written in place.  Lanes are independent, so a batch of one is
    the per-block body, and each lane's bits equal
    :func:`~repro.core.gbtf2.gbtf2` on that problem.  Shared between the
    uniform kernel and the non-uniform (vbatch) kernel, which calls it
    once per configuration.

    A column-interleaved stack
    (:func:`~repro.band.layout.is_column_interleaved`) already is the
    window's layout, so its column steps run on the stack itself: no
    window store, stream-in, shift or write-back.  The model still
    charges the window's shared memory (``smem_bytes``); the host only
    skips copies.  Like :func:`~repro.core.gbtf2.gbtf2_batched`, it
    enters the column steps' ``np.errstate`` itself.
    """
    if is_column_interleaved(abst):
        if not factor_if_narrow(m, n, kl, ku, abst, pivs, info):
            gbtf2_batched(m, n, kl, ku, abst, pivs, info)
        return
    batch = abst.shape[0]
    mn = min(m, n)
    layout = BandLayout(m, n, kl, ku)
    ldab = layout.ldab_factor
    wcols = layout.window_cols(nb)

    # Any other stack is staged through a window laid out as a
    # column-interleaved stack: ``(wcols, ldab, batch)`` storage viewed
    # ``(batch, ldab, wcols)``.  Every per-column block then runs its
    # elementwise work with a contiguous inner loop over the batch, and
    # one column's band rows are adjacent, so a column step's slab is one
    # compact run of memory.  The blocks are layout-agnostic (they go
    # through ``abst.strides``), and every elementwise op used is
    # correctly rounded independent of memory layout, so the bits don't
    # change.
    store = smem.alloc((wcols, ldab, batch), dtype=abst.dtype)
    win = store.transpose(2, 1, 0)
    # Initial load: the first wcols columns (zero-padded past n), with
    # the up-front fill-in clearing of columns ku+1..kv-1 that the full
    # factorization would do (LAPACK DGBTF2's preamble).
    loaded = min(wcols, n)
    _stream_in(store, abst, 0, 0, loaded)
    init_fillin_batched(win, n, kl, ku, ncols=loaded)

    work = ColumnWork(win, kl, ku)
    c0 = 0
    ju = np.full(batch, -1, dtype=np.int64)
    info[...] = 0
    j = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while j < mn:
            jend = min(j + nb, mn)
            for jj in range(j, jend):
                ju, _ = gbtf2_step_batched(win, m, n, kl, ku, jj, ju, pivs,
                                           info, col0=c0, work=work)
            abst[:, :ldab, j:jend] = win[:, :, j - c0:jend - c0]
            if jend >= mn:
                # Trailing columns beyond min(m, n) (only when m < n) hold
                # live updates and must be flushed too.
                tail_hi = min(c0 + wcols, n)
                if tail_hi > jend:
                    abst[:, :ldab, jend:tail_hi] = \
                        win[:, :, jend - c0:tail_hi - c0]
                break
            # Shift the window left by the columns just retired and stream
            # in the next ones; only the padding past column n is zeroed.
            shift = jend - c0
            keep = wcols - shift
            store[:keep] = store[shift:]
            lo = c0 + wcols
            hi = max(min(lo + shift, n), lo)
            _stream_in(store, abst, keep, lo, hi)
            store[keep + (hi - lo):] = 0
            c0 = jend
            j = jend


class SlidingWindowGbtrfKernel(Kernel):
    """Batched band LU with a sliding shared-memory window."""

    name = "gbtrf_window"

    def __init__(self, m: int, n: int, kl: int, ku: int,
                 mats, pivots: np.ndarray, info: np.ndarray, *, nb: int,
                 threads: int):
        if nb < 1:
            raise ValueError(f"window block size nb must be >= 1, got {nb}")
        if threads < kl + 1:
            raise ValueError(
                f"sliding-window gbtrf needs at least kl+1={kl + 1} threads, "
                f"got {threads}")
        self.m, self.n, self.kl, self.ku = m, n, kl, ku
        self.layout = BandLayout(m, n, kl, ku)
        self.mats = mats
        self.pivots = pivots
        self.info = info
        self.nb = nb
        self.nthreads = threads
        self.itemsize = mats[0].dtype.itemsize if len(mats) else 8

    def grid(self) -> int:
        return len(self.mats)

    def threads(self) -> int:
        return self.nthreads

    def smem_bytes(self) -> int:
        return self.layout.window_elems(self.nb) * self.itemsize

    def block_cost(self) -> BlockCost:
        return gbtrf_window_cost(self.m, self.n, self.kl, self.ku, self.nb,
                                 self.nthreads, self.itemsize)

    def pack_operands(self) -> tuple:
        return (self.mats,)

    def run_batch_vectorized(self, hi: int, smem: SharedMemory, *,
                             lo: int = 0) -> None:
        # The window reads and writes the caller's stack in place (and
        # runs on it directly when it is column-interleaved).
        sliding_window_factor_batched(
            self.mats[lo:hi, :self.layout.ldab_factor], self.pivots[lo:hi],
            self.info[lo:hi], self.m, self.n, self.kl, self.ku, self.nb,
            smem)
