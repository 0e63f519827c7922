"""Batched CPU baseline: OpenMP-over-the-batch LAPACK calls.

This is the "mkl + openmp" competitor of every figure in the paper: the
batch is partitioned across a thread team, each thread factoring/solving
its matrices with ordinary single-matrix LAPACK.  Functional results are
identical to the GPU routines (same LAPACK semantics); modeled times come
from :mod:`repro.cpu.costmodel`.
"""

from __future__ import annotations

import numpy as np

from ..core.batch_args import (
    as_matrix_list,
    as_rhs_list,
    check_gb_args,
    ensure_info,
    ensure_pivots,
)
from ..errors import check_arg
from ..types import Trans
from .costmodel import XEON_6140, CpuSpec, cpu_gbsv_time, cpu_gbtrf_time, cpu_gbtrs_time
from .lapack_like import cpu_gbsv_one, cpu_gbtrf_one, cpu_gbtrs_one
from .threading import CpuPool

__all__ = ["cpu_gbtrf_batch", "cpu_gbtrs_batch", "cpu_gbsv_batch"]


def cpu_gbtrf_batch(m: int, n: int, kl: int, ku: int, a_array,
                    pv_array=None, info=None, *, batch: int | None = None,
                    spec: CpuSpec = XEON_6140, pool: CpuPool | None = None,
                    execute: bool = True):
    """Batch band LU on the CPU baseline.

    Returns ``(pivots, info, modeled_seconds)``.
    """
    if batch is None:
        batch = len(a_array)
    mats = as_matrix_list(a_array, batch, arg_pos=5, written=True)
    check_gb_args(m, n, kl, ku, mats, batch=batch)
    pivots = ensure_pivots(pv_array, batch, min(m, n), arg_pos=7,
                           zero=True)
    info = ensure_info(info, batch, arg_pos=8)
    if execute and batch and min(m, n):
        pool = pool or CpuPool(spec.cores)

        def body(k: int) -> None:
            info[k] = cpu_gbtrf_one(m, n, kl, ku, mats[k], pivots[k])

        pool.parallel_for(batch, body)
    return pivots, info, cpu_gbtrf_time(spec, m, n, kl, ku, batch)


def cpu_gbtrs_batch(trans: Trans | str, n: int, kl: int, ku: int,
                    nrhs: int, a_array, pv_array, b_array, *,
                    batch: int | None = None, spec: CpuSpec = XEON_6140,
                    pool: CpuPool | None = None, execute: bool = True):
    """Batch band solve on the CPU baseline.  Returns ``modeled_seconds``."""
    trans = Trans.from_any(trans)
    check_arg(nrhs >= 0, 5, f"nrhs must be non-negative, got {nrhs}")
    if batch is None:
        batch = len(a_array)
    mats = as_matrix_list(a_array, batch, arg_pos=6, ldab_pos=7)
    check_gb_args(n, n, kl, ku, mats, batch=batch, ldab_pos=7,
                  dims_pos=(2, 2, 3, 4))
    pivots = ensure_pivots(pv_array, batch, n, arg_pos=8)
    rhs = as_rhs_list(b_array, batch, n, nrhs, arg_pos=9,
                      written=True)
    if execute and batch and n and nrhs:
        pool = pool or CpuPool(spec.cores)

        def body(k: int) -> None:
            cpu_gbtrs_one(trans, n, kl, ku, mats[k], pivots[k], rhs[k])

        pool.parallel_for(batch, body)
    return cpu_gbtrs_time(spec, n, kl, ku, nrhs, batch)


def cpu_gbsv_batch(n: int, kl: int, ku: int, nrhs: int, a_array,
                   pv_array, b_array, info=None, *,
                   batch: int | None = None, spec: CpuSpec = XEON_6140,
                   pool: CpuPool | None = None, execute: bool = True):
    """Batch factorize-and-solve on the CPU baseline.

    Returns ``(pivots, info, modeled_seconds)``.
    """
    check_arg(nrhs >= 0, 4, f"nrhs must be non-negative, got {nrhs}")
    if batch is None:
        batch = len(a_array)
    mats = as_matrix_list(a_array, batch, arg_pos=5, written=True)
    check_gb_args(n, n, kl, ku, mats, batch=batch, dims_pos=(1, 1, 2, 3))
    pivots = ensure_pivots(pv_array, batch, n, arg_pos=6, zero=True)
    rhs = as_rhs_list(b_array, batch, n, nrhs, arg_pos=7,
                      written=True)
    info = ensure_info(info, batch, arg_pos=8)
    if execute and batch and n:
        pool = pool or CpuPool(spec.cores)

        def body(k: int) -> None:
            info[k] = cpu_gbsv_one(n, kl, ku, mats[k], pivots[k], rhs[k])

        pool.parallel_for(batch, body)
    return pivots, info, cpu_gbsv_time(spec, n, kl, ku, nrhs, batch)
