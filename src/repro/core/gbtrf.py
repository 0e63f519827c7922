"""Batched band LU factorization driver (paper Sections 4 and 5.4).

``gbtrf_batch`` puts the three factorization designs behind one interface:

* *fused* — whole matrix in shared memory; chosen for very small matrices
  (order ``<= FUSED_CUTOFF``) where it avoids the window-shift
  synchronisation overhead;
* *window* — sliding window; the workhorse covering "a very wide range of
  band sizes regardless of the matrix size";
* *reference* — fork-join per-column kernels; kept as the safeguard when a
  single window would not even fit in shared memory.

The single-matrix :func:`gbtrf` convenience wrapper applies the same
algorithm on the host (it is LAPACK ``DGBTRF``-equivalent).
"""

from __future__ import annotations

import numpy as np

from ..band.layout import is_column_interleaved, ldab_for_factor
from ..errors import check_arg
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..tuning.defaults import FUSED_CUTOFF, window_params
from .batch_args import as_matrix_list, check_gb_args, ensure_info, \
    ensure_pivots
from .gbtf2 import factor_if_narrow, gbtf2, gbtf2_batched
from .gbtrf_fused import FusedGbtrfKernel
from .gbtrf_reference import gbtrf_reference_batch
from .gbtrf_window import SlidingWindowGbtrfKernel
from .stack import INOUT, OUT, ExecConfig, Operands, OpSpec, \
    check_execution, launch_kernels, run
from .verify import as_verify_policy, gate_gbtrf, score_gbtrf

__all__ = ["gbtrf", "gbtrf_batch", "run_gbtrf", "select_gbtrf_method",
           "GBTRF"]

_METHODS = ("auto", "fused", "window", "reference")


def gbtrf(m: int, n: int, kl: int, ku: int, ab: np.ndarray,
          ipiv: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Single-matrix band LU with partial pivoting, in place on ``ab``.

    Equivalent to LAPACK ``DGBTRF`` (identical factors, pivots and info).
    Returns ``(ipiv, info)``; pivots are 0-based absolute row indices.
    """
    check_gb_args(m, n, kl, ku, [np.asarray(ab)], batch=1, ldab_pos=6)
    return gbtf2(m, n, kl, ku, ab, ipiv)


def select_gbtrf_method(device: DeviceSpec, m: int, n: int, kl: int,
                        ku: int, itemsize: int = 8) -> str:
    """The dispatcher's choice for a configuration (paper Section 5.4)."""
    from ..band.layout import BandLayout
    layout = BandLayout(m, n, kl, ku)
    fused_smem = device.round_smem(layout.fused_elems() * itemsize)
    if max(m, n) <= FUSED_CUTOFF and fused_smem <= device.max_smem_per_block:
        return "fused"
    nb, _ = window_params(device, kl, ku)
    window_smem = device.round_smem(layout.window_elems(nb) * itemsize)
    if window_smem <= device.max_smem_per_block:
        return "window"
    return "reference"


def gbtrf_batch(m: int, n: int, kl: int, ku: int, a_array,
                pv_array=None, info=None, *, batch: int | None = None,
                device: DeviceSpec = H100_PCIE, stream=None,
                method: str = "auto", nb: int | None = None,
                threads: int | None = None, execute: bool = True,
                resilient: bool = False, policy=None,
                max_resident_bytes: int | None = None,
                chunk_hint: int | None = None,
                streams: int | None = None, devices=None,
                layout: str | None = None,
                verify=None):
    """LU-factorize a uniform batch of band matrices on the simulated GPU.

    Parameters
    ----------
    a_array:
        ``(batch, ldab, n)`` stack or pointer array of ``(ldab, n)``
        matrices in factor layout (``ldab >= 2*kl + ku + 1``); overwritten
        with the factors.  A pointer array's entries must be ndarrays of
        one shape and dtype with disjoint storage; it becomes one stack
        where the call enters the layer stack (a zero-copy view when its
        lanes already are one, else one gather written back at the end).
    pv_array:
        Optional ``(batch, min(m, n))`` integer stack (or pointer array) to
        receive 0-based pivot rows; allocated when ``None``.
    info:
        Optional ``(batch,)`` integer array for per-problem status codes;
        allocated when ``None``.
    device, stream:
        Simulated device and execution stream (the paper's mandatory
        ``gpu_stream_t`` argument).
    method:
        ``'auto'`` (dispatcher), ``'fused'``, ``'window'`` or
        ``'reference'``.
    nb, threads:
        Sliding-window tuning overrides; defaults come from the tuning
        tables / heuristics.
    execute:
        Passed to the launcher: ``execute=False`` evaluates only the timing
        model.
    resilient, policy:
        ``resilient=True`` routes the call through the self-healing
        dispatch of :mod:`repro.core.resilience` (retry, design-ladder
        fallback, lane quarantine) and returns ``(pivots, info, report)``
        with a :class:`~repro.core.resilience.BatchReport` appended.
        ``policy`` is an optional
        :class:`~repro.core.resilience.ResiliencePolicy`.
    max_resident_bytes, chunk_hint:
        Memory-governance knobs (:mod:`repro.core.memory_plan`).
        ``max_resident_bytes`` caps the batch's resident device footprint
        below the pool budget; ``chunk_hint`` caps the lanes per chunk.
        A batch over either cap is streamed through the device in chunks,
        bit-identically to an unchunked run.
    streams, devices:
        Pipelined-execution knobs (:mod:`repro.core.pipeline`).
        ``streams`` (1–3) sets the per-device stream count — 3 gives the
        full h2d/compute/d2h double-buffered pipeline, 2 a shared copy
        stream, 1 sequential staging; with ``devices`` set and
        ``streams`` unset each device runs all three.
        ``devices`` shards the batch across devices — an int replicates
        ``device`` that many times, or pass a list of uniquely-named
        :class:`~repro.gpusim.device.DeviceSpec`; shards are weighted by
        modeled per-device throughput.  A round's first shard runs on
        the calling thread and each other one in a child forked for it
        (one per spare core) on shared host buffers; the children's
        outcomes and device state (memory pool, health tracker, fault
        injector) come back as if every shard had run in turn.  A round
        runs in turn on the calling thread when the platform cannot
        fork, another Python thread is alive or two devices share a
        fault injector.  Results stay bit-identical to the sequential
        single-device path.
        Ignored for non-governed calls (``execute=False``, graph
        capture).

    layout:
        Batch storage-layout selector (docs/LAYOUTS.md).  ``None``
        (default) runs the batch in the layout it arrives in:
        batch-interleaved (SoA, lane index fastest-varying) stacks run
        natively as ``[vec+soa]`` launches, in place, lane-major
        stacks keep the classic ``[vec]`` path.
        ``'interleaved'``/``'soa'`` stages a uniform batch into the
        interleaved layout first; ``'lane-major'``/``'aos'`` stages an
        interleaved batch into the classic layout first.  The conversion
        happens exactly once at the batch boundary — before governance,
        chunking and pipelining split the batch — and its round-trip
        traffic is attributed to the first launch's ``soa_bytes``.
        Results always land back in the caller's arrays, bit-identical
        across layouts.

    verify:
        Silent-data-corruption defense (:mod:`repro.core.verify`):
        ``True``, ``'cheap'``, ``'full'`` or a
        :class:`~repro.core.verify.VerifyPolicy`.  The factors of every
        healthy lane are checked by applying the reconstructed ``P L U``
        to a deterministic probe vector and comparing against ``A``
        applied to the same vector (snapshotted before the call);
        failing lanes escalate through recompute → reference path, and
        the call returns ``(pivots, info, report)``.  Requires square
        matrices (``m == n``).  Lanes that pass are bit-identical to an
        unverified call.

    Returns
    -------
    (pivots, info):
        List of per-problem pivot vectors and the info array (plus the
        report when ``resilient=True`` or ``verify`` is set).
    """
    check_arg(method in _METHODS, 14,
              f"method must be one of {_METHODS}, got {method!r}")
    cfg = ExecConfig(
        device=device, stream=stream, method=method, nb=nb, threads=threads,
        execute=execute, resilient=resilient, policy=policy,
        max_resident_bytes=max_resident_bytes, chunk_hint=chunk_hint,
        streams=streams, devices=devices, layout=layout,
        verify=as_verify_policy(verify))
    pivots, info, report = run_gbtrf(cfg, m, n, kl, ku, a_array, pv_array,
                                     info, batch)
    return (pivots, info, report) if cfg.reports else (pivots, info)


def run_gbtrf(cfg, m, n, kl, ku, a_array, pv_array=None, info=None,
              batch=None):
    """Validate one ``gbtrf`` call and run it through the layer stack.

    Returns ``(pivots, info, report)``; ``report`` is ``None`` unless the
    configuration is resilient or verified.
    """
    check_execution(cfg, 15)
    if cfg.verify is not None:
        check_arg(m == n, 1,
                  f"verify requires square matrices, got m={m}, n={n}")
    if batch is None:
        batch = len(a_array)
    mats = as_matrix_list(a_array, batch, arg_pos=5, written=True)
    check_gb_args(m, n, kl, ku, mats, batch=batch)
    pivots = ensure_pivots(pv_array, batch, min(m, n), arg_pos=7, zero=True)
    info = ensure_info(info, batch, arg_pos=8)
    report = run(GBTRF, cfg, Operands(m, n, kl, ku, mats, pivots, info))
    return pivots, info, report


def _resolve(device, ops):
    return select_gbtrf_method(device, ops.m, ops.n, ops.kl, ops.ku,
                               ops.mats[0].dtype.itemsize)


def _kernels(device, method, cfg, ops):
    """The kernels of one factorization design (``None``: fork-join)."""
    m, n, kl, ku = ops.m, ops.n, ops.kl, ops.ku
    if method == "fused":
        return [FusedGbtrfKernel(m, n, kl, ku, ops.mats, ops.pivots,
                                 ops.info, threads=cfg.threads)]
    if method == "window":
        nb_d, th_d = window_params(device, kl, ku)
        return [SlidingWindowGbtrfKernel(
            m, n, kl, ku, ops.mats, ops.pivots, ops.info,
            nb=nb_d if cfg.nb is None else cfg.nb,
            threads=th_d if cfg.threads is None else cfg.threads)]
    return None


def _dispatch(method, cfg, ops):
    kernels = _kernels(cfg.device, method, cfg, ops)
    if kernels is None:
        gbtrf_reference_batch(ops.m, ops.n, ops.kl, ops.ku, ops.mats,
                              ops.pivots, ops.info, cfg.device, cfg.stream,
                              execute=cfg.execute,
                              conversion=ops.call.conversion)
    else:
        launch_kernels(cfg, ops, kernels)


def _host(ops):
    """Host reference, bit-identical to ``gbtf2`` per lane: the scalar
    engine on a narrow float64 batch (``factor_if_narrow``), else
    ``gbtf2_batched`` over every lane.  That runs on a column-interleaved
    stack itself; any other stack's factor rows are staged into such a
    copy, as the fused kernel's tile is: one column's band rows are
    adjacent runs of lanes."""
    a = ops.mats[:, :ldab_for_factor(ops.kl, ops.ku)]
    if factor_if_narrow(ops.m, ops.n, ops.kl, ops.ku, a, ops.pivots,
                        ops.info):
        return
    if is_column_interleaved(a):
        gbtf2_batched(ops.m, ops.n, ops.kl, ops.ku, a, ops.pivots, ops.info)
        return
    tiles = np.empty(a.shape[::-1], a.dtype).transpose(2, 1, 0)
    tiles[...] = a
    gbtf2_batched(ops.m, ops.n, ops.kl, ops.ku, tiles, ops.pivots, ops.info)
    a[...] = tiles


#: The factorization as the layer stack sees it.
GBTRF = OpSpec(
    name="gbtrf",
    roles={"a": INOUT, "pivots": OUT, "info": OUT},
    designs=("fused", "window", "reference"), resolve=_resolve,
    kernels=_kernels, dispatch=_dispatch, host=_host, score=score_gbtrf,
    gate=gate_gbtrf)
