"""Batched band triangular solve driver (paper Sections 4 and 6).

``gbtrs_batch`` mirrors the paper's ``dgbtrs_batch`` signature: it consumes
the factors and pivots produced by :func:`repro.core.gbtrf.gbtrf_batch` and
solves for ``nrhs`` right-hand sides per problem, dispatching between the
blocked sliding-window kernels (default) and the reference per-column
design.  The single-matrix :func:`gbtrs` wrapper is LAPACK
``DGBTRS``-equivalent.
"""

from __future__ import annotations

import numpy as np

from ..errors import check_arg
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..types import Trans
from .batch_args import (
    as_matrix_list,
    as_rhs_list,
    check_gb_args,
    ensure_info,
    ensure_pivots,
)
from .gbtrs_blocked import (
    BlockedBackwardKernel,
    BlockedForwardKernel,
    BlockedTransLKernel,
    BlockedTransUKernel,
)
from .gbtrs_reference import gbtrs_reference_batch
from .solve_blocks import gbtrs_batched, gbtrs_unblocked, solve_if_narrow
from .stack import IN, INOUT, OUT, ExecConfig, Operands, OpSpec, \
    check_execution, launch_kernels, run
from .verify import as_verify_policy, gate_gbtrs, score_gbtrs

__all__ = ["gbtrs", "gbtrs_batch", "run_gbtrs", "GBTRS"]

_METHODS = ("auto", "blocked", "reference")


def gbtrs(trans: Trans | str, n: int, kl: int, ku: int, ab: np.ndarray,
          ipiv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Single-matrix band solve from ``gbtrf`` factors, in place on ``b``.

    Equivalent to LAPACK ``DGBTRS``.  ``b`` may be ``(n,)`` or
    ``(n, nrhs)``; returns the solution view.
    """
    b2 = b[:, None] if b.ndim == 1 else b
    check_arg(b2.shape[0] == n, 7,
              f"b has {b2.shape[0]} rows, expected {n}")
    gbtrs_unblocked(trans, n, kl, ku, ab, ipiv, b2)
    return b


def gbtrs_batch(trans: Trans | str, n: int, kl: int, ku: int, nrhs: int,
                a_array, pv_array, b_array, info=None, *,
                batch: int | None = None, device: DeviceSpec = H100_PCIE,
                stream=None, method: str = "auto", nb: int | None = None,
                threads: int | None = None, execute: bool = True,
                resilient: bool = False, policy=None,
                max_resident_bytes: int | None = None,
                chunk_hint: int | None = None,
                streams: int | None = None, devices=None,
                layout: str | None = None,
                verify=None):
    """Solve a uniform batch of factored band systems on the simulated GPU.

    Arguments follow the paper's ``dgbtrs_batch``; ``b_array`` (``(batch,
    n, nrhs)`` stack or pointer array) is overwritten with the solutions.
    Returns the ``info`` array (all zeros unless argument validation
    raises; numerical singularity is reported by the factorization, not the
    solve — LAPACK semantics).

    The launcher runs the blocked kernels — no-transpose *and*
    transposed — on the batch-interleaved path, in place, whenever the
    lanes of the factors and of the right-hand sides are disjoint (any
    stack that does not overlap itself, and pointer arrays, which become
    one stack at entry).  The factors are only read, so their pointer
    array may alias; ``b_array``'s may not.

    ``resilient=True`` routes the call through the self-healing dispatch
    of :mod:`repro.core.resilience` and returns ``(info, report)``;
    ``policy`` is an optional
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
    factors and right-hand sides in the layout they arrive in
    (interleaved stacks natively, as ``[vec+soa]``),
    ``'interleaved'``/``'soa'`` or ``'lane-major'``/``'aos'`` stage both
    operand batches into that layout exactly once at the batch boundary.

    ``verify`` turns on the silent-data-corruption defense
    (:mod:`repro.core.verify`): ``True``, ``'cheap'``, ``'full'`` or a
    :class:`~repro.core.verify.VerifyPolicy`.  Each solution is checked
    by replaying ``P L U x`` from pristine factor snapshots against the
    pristine right-hand side; in ``'full'`` mode the read-only factors
    and pivots are also digest-checked across the stage boundary.
    Failing lanes escalate through recompute → reference path, and the
    call returns ``(info, report)``.  No-transpose solves only.
    """
    trans = Trans.from_any(trans)
    check_arg(method in _METHODS, 14,
              f"method must be one of {_METHODS}, got {method!r}")
    cfg = ExecConfig(
        device=device, stream=stream, method=method, nb=nb, threads=threads,
        execute=execute, resilient=resilient,
        policy=policy, max_resident_bytes=max_resident_bytes,
        chunk_hint=chunk_hint, streams=streams, devices=devices,
        layout=layout, verify=as_verify_policy(verify))
    info, report = run_gbtrs(cfg, trans, n, kl, ku, nrhs, a_array, pv_array,
                             b_array, info, batch)
    return (info, report) if cfg.reports else info


def run_gbtrs(cfg, trans, n, kl, ku, nrhs, a_array, pv_array, b_array,
              info=None, batch=None):
    """Validate one ``gbtrs`` call and run it through the layer stack.

    Returns ``(info, report)``; ``report`` is ``None`` unless the
    configuration is resilient or verified.
    """
    trans = Trans.from_any(trans)
    check_execution(cfg, 15)
    if cfg.verify is not None:
        check_arg(trans is Trans.NO_TRANS, 1,
                  "verify supports trans='N' solves (the reconstruction "
                  "replays forward elimination); use verify=None for "
                  "transposed solves")
    check_arg(nrhs >= 0, 5, f"nrhs must be non-negative, got {nrhs}")
    if batch is None:
        batch = len(a_array)
    mats = as_matrix_list(a_array, batch, arg_pos=6, ldab_pos=7)
    check_gb_args(n, n, kl, ku, mats, batch=batch, ldab_pos=7,
                  dims_pos=(2, 2, 3, 4))
    pivots = ensure_pivots(pv_array, batch, n, arg_pos=8)
    rhs = as_rhs_list(b_array, batch, n, nrhs, arg_pos=9,
                      written=True)
    info = ensure_info(info, batch, arg_pos=11)
    report = run(GBTRS, cfg, Operands(
        n, n, kl, ku, mats, pivots, info, nrhs=nrhs, rhs=rhs, trans=trans))
    return info, report


def _kernels(device, method, cfg, ops):
    """The two kernels of the blocked solve (``None``: reference)."""
    if method == "reference":
        return None
    args = (ops.n, ops.kl, ops.ku, ops.nrhs, ops.mats, ops.pivots, ops.rhs)
    if ops.trans is Trans.NO_TRANS:
        return [BlockedForwardKernel(*args, nb=cfg.nb, threads=cfg.threads),
                BlockedBackwardKernel(*args, nb=cfg.nb, threads=cfg.threads)]
    conj = ops.trans is Trans.CONJ_TRANS
    return [BlockedTransUKernel(*args, nb=cfg.nb, threads=cfg.threads,
                                conj=conj),
            BlockedTransLKernel(*args, nb=cfg.nb, threads=cfg.threads,
                                conj=conj)]


def _dispatch(method, cfg, ops):
    kernels = _kernels(cfg.device, method, cfg, ops)
    if kernels is None:
        gbtrs_reference_batch(ops.trans, ops.n, ops.kl, ops.ku, ops.nrhs,
                              ops.mats, ops.pivots, ops.rhs, cfg.device,
                              cfg.stream, execute=cfg.execute,
                              conversion=ops.call.conversion)
    else:
        launch_kernels(cfg, ops, kernels)


def _host(ops):
    """Host reference, bit-identical to ``gbtrs_unblocked`` per lane: the
    scalar engine on a narrow float64 ``'N'`` batch
    (``solve_if_narrow``), else ``gbtrs_batched`` over every lane."""
    if ops.trans is Trans.NO_TRANS and solve_if_narrow(
            ops.n, ops.kl, ops.ku, ops.mats, ops.pivots, ops.rhs):
        return
    gbtrs_batched(ops.trans, ops.n, ops.kl, ops.ku, ops.mats, ops.pivots,
                  ops.rhs)


#: The solve as the layer stack sees it: factors and pivots are inputs.
GBTRS = OpSpec(
    name="gbtrs",
    roles={"a": IN, "pivots": IN, "b": INOUT, "info": OUT},
    designs=("blocked", "reference"),
    resolve=lambda device, ops: "blocked",
    kernels=_kernels, dispatch=_dispatch, host=_host, score=score_gbtrs,
    gate=gate_gbtrs)
