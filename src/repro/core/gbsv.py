"""Batched band factorize-and-solve driver (paper Sections 4, 7).

LAPACK defines ``GBSV`` as a driver calling ``GBTRF`` then ``GBTRS``.  Our
``gbsv_batch`` follows that, except that small systems (order
``<= FUSED_GBSV_CUTOFF`` with a single right-hand side — the paper's
empirical crossover) are handled by the fused single-kernel
factorize-and-solve of :mod:`repro.core.gbsv_fused`.

LAPACK semantics on singularity: the factorization always completes and is
written back with the pivots; the solve is skipped for any problem whose
``info > 0``, leaving that problem's ``B`` unchanged.
"""

from __future__ import annotations

import numpy as np

from ..errors import check_arg
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..gpusim import ahead
from ..tuning.defaults import FUSED_GBSV_CUTOFF
from ..types import Trans
from .batch_args import (
    as_matrix_list,
    as_rhs_list,
    check_gb_args,
    ensure_info,
    ensure_pivots,
)
from .gbsv_fused import FusedGbsvKernel
from .gbtf2 import gbtf2
from .gbtrf import GBTRF
from .gbtrs import GBTRS
from .solve_blocks import gbtrs_unblocked
from .stack import INOUT, OUT, ExecConfig, Operands, OpSpec, \
    check_execution, run
from .verify import as_verify_policy, gate_gbsv, score_gbsv

__all__ = ["gbsv", "gbsv_batch", "run_gbsv", "select_gbsv_method", "GBSV"]

_METHODS = ("auto", "fused", "standard")


def gbsv(n: int, kl: int, ku: int, ab: np.ndarray, b: np.ndarray,
         ipiv: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Single-matrix band solve ``A x = b`` (LAPACK ``DGBSV`` equivalent).

    ``ab`` (factor layout) is overwritten with the factors and ``b`` with
    the solution (unless singular).  Returns ``(b, ipiv, info)``.
    """
    ipiv, info = gbtf2(n, n, kl, ku, ab, ipiv)
    if info == 0:
        b2 = b[:, None] if b.ndim == 1 else b
        gbtrs_unblocked(Trans.NO_TRANS, n, kl, ku, ab, ipiv, b2)
    return b, ipiv, info


def select_gbsv_method(device: DeviceSpec, n: int, kl: int, ku: int,
                       nrhs: int, itemsize: int = 8) -> str:
    """Dispatcher choice: fused for small single-RHS systems (paper Section 7)."""
    if n <= FUSED_GBSV_CUTOFF and nrhs == 1:
        from ..band.layout import BandLayout
        elems = BandLayout(n, n, kl, ku).fused_elems() + n * nrhs
        if device.round_smem(elems * itemsize) <= device.max_smem_per_block:
            return "fused"
    return "standard"


def gbsv_batch(n: int, kl: int, ku: int, nrhs: int, a_array, pv_array,
               b_array, info=None, *, batch: int | None = None,
               device: DeviceSpec = H100_PCIE, stream=None,
               method: str = "auto", execute: bool = True,
               resilient: bool = False, policy=None,
               max_resident_bytes: int | None = None,
               chunk_hint: int | None = None,
               streams: int | None = None, devices=None,
               layout: str | None = None,
               verify=None):
    """Factor and solve a uniform batch of band systems (paper's top API).

    Returns ``(pivots, info)``.  ``a_array`` is overwritten with factors,
    ``b_array`` with solutions (per-problem, skipped when singular).
    When some problems are singular the follow-up solve runs on the
    non-singular lanes, gathered into one stack and scattered back.

    ``resilient=True`` routes the call through the self-healing dispatch
    of :mod:`repro.core.resilience` and returns ``(pivots, info,
    report)``; ``policy`` is an optional
    :class:`~repro.core.resilience.ResiliencePolicy`.

    ``max_resident_bytes`` / ``chunk_hint`` are the memory-governance
    knobs (:mod:`repro.core.memory_plan`): a batch whose resident
    footprint exceeds the device pool budget (or either cap) is streamed
    through the device in chunks, bit-identically to an unchunked run.

    ``streams`` / ``devices`` are the pipelined-execution
    knobs (see :func:`repro.core.gbtrf.gbtrf_batch`): chunks stream
    through double-buffered copy/compute streams and shard across
    devices (extra shards in forked worker processes),
    bit-identically to the sequential single-device path.

    ``layout`` selects the batch storage layout (docs/LAYOUTS.md, same
    semantics as :func:`repro.core.gbtrf.gbtrf_batch`): ``None`` runs
    matrices and right-hand sides in the layout they arrive in,
    ``'interleaved'``/``'soa'`` or ``'lane-major'``/``'aos'`` stage both
    operand batches into that layout exactly once at the batch
    boundary — the internal factorize and solve stages then run in that
    layout with no further conversion.

    ``verify`` turns on the silent-data-corruption defense
    (:mod:`repro.core.verify`): ``True``, ``'cheap'``, ``'full'`` or a
    :class:`~repro.core.verify.VerifyPolicy`.  Every healthy lane's
    solution is checked against a pristine snapshot of ``A`` and ``b``
    with a scaled residual gate; failing lanes escalate through recompute
    → reference path → equilibrated refactor → iterative refinement, and
    the call returns ``(pivots, info, report)`` with the verification
    fields stamped on the :class:`~repro.core.resilience.BatchReport`.
    Lanes that pass are bit-identical to an unverified call.
    """
    check_arg(method in _METHODS, 12,
              f"method must be one of {_METHODS}, got {method!r}")
    cfg = ExecConfig(
        device=device, stream=stream, method=method, execute=execute,
        resilient=resilient, policy=policy, max_resident_bytes=max_resident_bytes,
        chunk_hint=chunk_hint, streams=streams, devices=devices,
        layout=layout, verify=as_verify_policy(verify))
    pivots, info, report = run_gbsv(cfg, n, kl, ku, nrhs, a_array, pv_array,
                                    b_array, info, batch)
    return (pivots, info, report) if cfg.reports else (pivots, info)


def run_gbsv(cfg, n, kl, ku, nrhs, a_array, pv_array, b_array, info=None,
             batch=None):
    """Validate one ``gbsv`` call and run it through the layer stack.

    Returns ``(pivots, info, report)``; ``report`` is ``None`` unless the
    configuration is resilient or verified.
    """
    check_execution(cfg, 13)
    check_arg(nrhs >= 0, 4, f"nrhs must be non-negative, got {nrhs}")
    if batch is None:
        batch = len(a_array)
    mats = as_matrix_list(a_array, batch, arg_pos=5, written=True)
    check_gb_args(n, n, kl, ku, mats, batch=batch,
                  dims_pos=(1, 1, 2, 3))
    pivots = ensure_pivots(pv_array, batch, n, arg_pos=6, zero=True)
    rhs = as_rhs_list(b_array, batch, n, nrhs, arg_pos=7,
                      written=True)
    info = ensure_info(info, batch, arg_pos=8)
    report = run(GBSV, cfg, Operands(
        n, n, kl, ku, mats, pivots, info, nrhs=nrhs, rhs=rhs))
    return pivots, info, report


def _resolve(device, ops):
    return select_gbsv_method(device, ops.n, ops.kl, ops.ku, ops.nrhs,
                              ops.mats[0].dtype.itemsize)


def _fused(method, device, ops) -> bool:
    if method == "auto":
        method = _resolve(device, ops)
    return method == "fused" and ops.nrhs >= 1


def _kernels(device, method, cfg, ops):
    """The fused kernel, or the factor + solve stages' kernels."""
    if _fused(method, device, ops):
        return [FusedGbsvKernel(ops.n, ops.kl, ops.ku, ops.nrhs, ops.mats,
                                ops.pivots, ops.rhs, ops.info)]
    kernels = GBTRF.kernels(device, "auto", cfg, ops) or []
    if ops.nrhs:
        kernels += GBTRS.kernels(device, "auto", cfg, ops)
    return kernels


def _dispatch(method, cfg, ops):
    if _fused(method, cfg.device, ops):
        fused, = _kernels(cfg.device, "fused", cfg, ops)
        ahead.launcher()(cfg.device, fused, stream=cfg.stream,
                         execute=cfg.execute, conversion=ops.call.conversion)
        return
    GBTRF.dispatch("auto", cfg, ops)
    _solve_regular(ops, lambda sub: GBTRS.dispatch("auto", cfg, sub))


def _solve_regular(ops, solve) -> None:
    """Run ``solve`` on the factored problems whose ``info`` is 0 (LAPACK
    leaves B of a singular problem unchanged): all lanes in place, else
    gathered into one stack whose solutions are scattered back."""
    if ops.nrhs == 0:
        return
    ok = np.flatnonzero(ops.info == 0)
    if len(ok) == ops.batch:
        solve(ops)
    elif len(ok):
        sub = ops.take(ok)
        solve(sub)
        ops.put_back(ok, sub, GBTRS)


def _host(ops):
    """Host reference: the factorization's, then the solve's on the
    regular lanes."""
    GBTRF.host(ops)
    _solve_regular(ops, GBTRS.host)


#: Factor-and-solve: the fused kernel, degrading to gbtrf then gbtrs.
GBSV = OpSpec(
    name="gbsv",
    roles={"a": INOUT, "pivots": OUT, "b": INOUT, "info": OUT},
    designs=("fused", "standard"), resolve=_resolve, kernels=_kernels,
    dispatch=_dispatch, host=_host, score=score_gbsv,
    gate=gate_gbsv, stages=(GBTRF, GBTRS))
