"""Benchmark harness: modeled timings of the batched routines.

The harness evaluates the *timing model* of every design at the paper's
workload scale (batches of 1000 in double precision) without functionally
executing all 1000 factorizations — the drivers run with ``execute=False``
(kernel resource declarations and the occupancy/cost model are exercised;
numerical correctness is covered separately by the test suite and by each
benchmark's small functional sample).  Times are returned in seconds; the
report layer converts to the paper's milliseconds.

:func:`wallclock_gbtrf_paths` and :func:`wallclock_vbatch_paths` are the
exception: they execute the functional kernel bodies for real on both
execution paths (the launcher's per-block reference loop vs its
batch-interleaved rungs) and report host wall-clock, quantifying the
simulator's own throughput rather than the modeled device time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..band.layout import ldab_for_factor
from ..core.gbsv import gbsv_batch
from ..core.gbtrf import GBTRF, gbtrf_batch
from ..core.gbtrs import gbtrs_batch
from ..core.stack import ExecConfig, Operands
from ..cpu.costmodel import XEON_6140, CpuSpec, cpu_gbsv_time, cpu_gbtrf_time, cpu_gbtrs_time
from ..errors import SharedMemoryError
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..gpusim.kernel import launch
from ..gpusim.stream import Stream
from ..types import Trans

__all__ = [
    "DEFAULT_BATCH", "shape_only_batch", "time_gbtrf", "time_gbtrs",
    "time_gbsv", "time_cpu_gbtrf", "time_cpu_gbtrs", "time_cpu_gbsv",
    "WallClock", "wallclock_gbtrf_paths", "wallclock_vbatch_paths",
]

# The paper's evaluation batch size.
DEFAULT_BATCH = 1000


def shape_only_batch(n: int, kl: int, ku: int, batch: int,
                     dtype=np.float64, nrhs: int | None = None):
    """Build a timing-only batch: one tiny real allocation shared by all.

    With ``execute=False`` kernels only read shapes/dtypes and the batch
    length, so a single matrix broadcast to a read-only ``(batch, ldab,
    n)`` stack (lane stride 0, zero-copy) is enough to drive the full
    timing model without allocating 1000 real matrices.
    """
    ab = np.zeros((ldab_for_factor(kl, ku), n), dtype=dtype)
    mats = np.broadcast_to(ab, (batch,) + ab.shape)
    if nrhs is None:
        return mats
    b = np.zeros((n, max(nrhs, 1)), dtype=dtype)
    return mats, np.broadcast_to(b, (batch,) + b.shape)


def time_gbtrf(device: DeviceSpec, n: int, kl: int, ku: int, *,
               batch: int = DEFAULT_BATCH, method: str = "auto",
               nb: int | None = None, threads: int | None = None,
               dtype=np.float64) -> float:
    """Modeled seconds of one batched factorization; raises
    :class:`~repro.errors.SharedMemoryError` when the design cannot launch
    (the paper's fused kernel "failing to run" at large sizes)."""
    mats = shape_only_batch(n, kl, ku, batch, dtype)
    stream = Stream(device)
    gbtrf_batch(n, n, kl, ku, mats, None, None, batch=batch, device=device,
                stream=stream, method=method, nb=nb, threads=threads,
                execute=False)
    return stream.synchronize()


def time_gbtrs(device: DeviceSpec, n: int, kl: int, ku: int, nrhs: int, *,
               batch: int = DEFAULT_BATCH, method: str = "auto",
               nb: int | None = None, threads: int | None = None,
               dtype=np.float64) -> float:
    """Modeled seconds of one batched triangular solve."""
    mats, rhs = shape_only_batch(n, kl, ku, batch, dtype, nrhs=nrhs)
    pivots = np.zeros((batch, n), dtype=np.int64)
    stream = Stream(device)
    gbtrs_batch(Trans.NO_TRANS, n, kl, ku, nrhs, mats, pivots, rhs,
                batch=batch, device=device, stream=stream, method=method,
                nb=nb, threads=threads, execute=False)
    return stream.synchronize()


def time_gbsv(device: DeviceSpec, n: int, kl: int, ku: int, nrhs: int, *,
              batch: int = DEFAULT_BATCH, method: str = "auto",
              dtype=np.float64) -> float:
    """Modeled seconds of one batched factorize-and-solve."""
    mats, rhs = shape_only_batch(n, kl, ku, batch, dtype, nrhs=nrhs)
    stream = Stream(device)
    gbsv_batch(n, kl, ku, nrhs, mats, None, rhs, batch=batch, device=device,
               stream=stream, method=method, execute=False)
    return stream.synchronize()


@dataclass(frozen=True)
class WallClock:
    """Host wall-clock seconds of one workload on both execution paths."""

    per_block: float
    vectorized: float
    batch: int

    @property
    def speedup(self) -> float:
        return self.per_block / self.vectorized


def _factor_stack(device, method, m, n, kl, ku, mats, vectorize) -> None:
    """Launch the kernels of ``gbtrf`` design ``method`` in place over the
    ``(batch, ldab, n)`` stack ``mats``, with no driver layer around
    them: per block with ``vectorize=False``, else on the rung the
    launcher picks."""
    batch = len(mats)
    ops = Operands(m, n, kl, ku, mats,
                   np.zeros((batch, min(m, n)), dtype=np.int64),
                   np.zeros(batch, dtype=np.int64))
    kernels = GBTRF.kernels(device, method, ExecConfig(device=device), ops)
    if kernels is None:
        raise ValueError(f"method {method!r} has no kernels to launch")
    for kernel in kernels:
        launch(device, kernel, vectorize=vectorize)


def _both_paths(factor, fresh, batch, repeats, warmup) -> WallClock:
    """Best-of-``repeats`` seconds of ``factor(work, vectorize)`` on the
    per-block path and on the launcher's own, each run on ``work =
    fresh(lanes)``, a fresh copy of the first ``lanes`` inputs."""
    from time import perf_counter

    seconds = {}
    for label, vec in (("per_block", False), ("vectorized", True)):
        if warmup:
            factor(fresh(min(8, batch)), vec)
        best = None
        for _ in range(max(1, repeats)):
            work = fresh(batch)
            t0 = perf_counter()
            factor(work, vec)
            dt = perf_counter() - t0
            best = dt if best is None else min(best, dt)
        seconds[label] = best
    return WallClock(per_block=seconds["per_block"],
                     vectorized=seconds["vectorized"], batch=batch)


def wallclock_gbtrf_paths(n: int, kl: int, ku: int, *,
                          batch: int = DEFAULT_BATCH,
                          device: DeviceSpec = H100_PCIE,
                          method: str = "auto", dtype=np.float64,
                          seed: int = 0, repeats: int = 1,
                          warmup: bool = False) -> WallClock:
    """Wall-clock a real (``execute=True``) batched factorization on the
    per-block and batch-interleaved paths.

    Unlike the modeled ``time_*`` entries above, this measures what the
    host actually spends executing the functional kernel bodies — the
    quantity the launcher's batch-interleaved rungs exist to improve.
    Both sides launch the kernels of design ``method`` (``'auto'``,
    ``'fused'`` or ``'window'``) on identical copies of one random
    batch: ``launch(vectorize=False)``, the per-block reference path,
    against the launcher's default.  The factored outputs are
    bit-identical by the launch contract (asserted in
    ``benchmarks/bench_vectorized_speedup.py``).

    ``repeats`` reports the best of that many timed runs (each from a
    fresh copy of the inputs) and ``warmup`` runs each path once on a
    small batch first, so first-call effects (allocator/page-fault
    warmup) don't contaminate the steady-state comparison.
    """
    from ..band.generate import random_band_batch

    a = random_band_batch(batch, n, kl, ku, dtype=dtype, seed=seed)
    return _both_paths(
        lambda work, vec: _factor_stack(device, method, n, n, kl, ku, work,
                                        vec),
        lambda lanes: a[:lanes].copy(), batch, repeats, warmup)


def wallclock_vbatch_paths(configs, *, device: DeviceSpec = H100_PCIE,
                           dtype=np.float64, seed: int = 0,
                           repeats: int = 1,
                           warmup: bool = False) -> WallClock:
    """Wall-clock a real non-uniform batch on both execution paths.

    ``configs`` is one ``(m, n, kl, ku)`` or ``(n, kl, ku)`` tuple per
    problem (lane order is preserved).  Each path factors fresh copies
    of the same random batch the way
    :func:`repro.core.batched.gbtrf_vbatch` does: lanes of one
    configuration are gathered into one stack, the ``'auto'`` design's
    kernels run over it, and the factors are scattered back.  The
    per-block side launches with ``vectorize=False``, the other on the
    launcher's own rung; the outputs are bit-identical by the launch
    contract.  ``repeats``/``warmup`` behave as in
    :func:`wallclock_gbtrf_paths`.
    """
    from ..band.generate import random_band

    full = [c if len(c) == 4 else (c[0],) + tuple(c) for c in configs]
    rng = np.random.default_rng(seed)
    mats = [random_band(n, kl, ku, m=m, dtype=dtype, seed=rng)
            for m, n, kl, ku in full]

    def factor(work, vec):
        groups: dict = {}
        for k, a in enumerate(work):
            groups.setdefault((full[k], a.shape), []).append(k)
        for ((m, n, kl, ku), _shape), idxs in groups.items():
            stack = np.stack([work[i] for i in idxs])
            _factor_stack(device, "auto", m, n, kl, ku, stack, vec)
            for t, i in enumerate(idxs):
                work[i][...] = stack[t]

    return _both_paths(factor, lambda lanes: [a.copy() for a in
                                              mats[:lanes]],
                       len(full), repeats, warmup)


def time_cpu_gbtrf(n: int, kl: int, ku: int, *,
                   batch: int = DEFAULT_BATCH,
                   spec: CpuSpec = XEON_6140) -> float:
    """Modeled seconds of the CPU baseline's batched factorization."""
    return cpu_gbtrf_time(spec, n, n, kl, ku, batch)


def time_cpu_gbtrs(n: int, kl: int, ku: int, nrhs: int, *,
                   batch: int = DEFAULT_BATCH,
                   spec: CpuSpec = XEON_6140) -> float:
    """Modeled seconds of the CPU baseline's batched solve."""
    return cpu_gbtrs_time(spec, n, kl, ku, nrhs, batch)


def time_cpu_gbsv(n: int, kl: int, ku: int, nrhs: int, *,
                  batch: int = DEFAULT_BATCH,
                  spec: CpuSpec = XEON_6140) -> float:
    """Modeled seconds of the CPU baseline's batched factorize-and-solve."""
    return cpu_gbsv_time(spec, n, kl, ku, nrhs, batch)
