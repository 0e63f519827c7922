"""Paper-faithful batched entry points (paper Section 4) and non-uniform batches.

The three C declarations of the paper map to :func:`dgbtrf_batch`,
:func:`dgbtrs_batch` and :func:`dgbsv_batch` (with ``s``/``c``/``z``
precision variants generated from the same dtype-generic core)::

    void dgbtrf_batch(int m, int n, int kl, int ku,
        double** A_array, int lda, int** pv_array,
        int* info, int batch, gpu_stream_t stream);

    void dgbtrs_batch(transpose_t transA, int n, int kl, int ku, int nrhs,
        double** A_array, int lda, int** pv_array,
        double** B_array, int ldb, int* info, int batch,
        gpu_stream_t stream);

    void dgbsv_batch(int n, int kl, int ku, int nrhs,
        double** A_array, int lda, int** pv_array,
        double** B_array, int ldb, int* info, int batch,
        gpu_stream_t stream);

These wrappers are strict: the stream is mandatory (it identifies the
device), ``lda``/``ldb`` are validated, and the dtype must match the
precision prefix.  The keyword-style drivers in :mod:`repro.core.gbtrf`
/ ``gbtrs`` / ``gbsv`` are the friendlier API underneath.

``gbtrf_vbatch`` / ``gbsv_vbatch`` implement the paper's future-work
extension (paper Section 9): non-uniform batches with per-problem sizes and/or
bandwidths, executed by grouping identical configurations into uniform
sub-batches.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..errors import check_arg
from ..gpusim.stream import Stream
from ..types import Trans
from .batch_args import ensure_info, vbatch_configs, vbatch_matrices, \
    vbatch_pivots, vbatch_rhs
from .gbsv import gbsv_batch, run_gbsv
from .gbtrf import gbtrf_batch, run_gbtrf
from .gbtrs import gbtrs_batch
from .resilience import merge_reports
from .stack import ExecConfig
from .verify import as_verify_policy

__all__ = [
    "sgbtrf_batch", "dgbtrf_batch", "cgbtrf_batch", "zgbtrf_batch",
    "sgbtrs_batch", "dgbtrs_batch", "cgbtrs_batch", "zgbtrs_batch",
    "sgbsv_batch", "dgbsv_batch", "cgbsv_batch", "zgbsv_batch",
    "gbtrf_vbatch", "gbsv_vbatch", "run_gbtrf_vbatch",
]


def _require_stream(stream) -> Stream:
    check_arg(isinstance(stream, Stream), 99,
              "a Stream is required (the paper's gpu_stream_t argument)")
    return stream


def _check_dtype(arrays, dtype, pos):
    for k, a in enumerate(arrays):
        check_arg(np.asarray(a).dtype == np.dtype(dtype), pos,
                  f"matrix {k} has dtype {np.asarray(a).dtype}, "
                  f"expected {np.dtype(dtype).name}")


def _make_gbtrf(prefix: str, dtype):
    def fn(m, n, kl, ku, A_array, lda, pv_array, info, batch, stream):
        stream = _require_stream(stream)
        mats = list(A_array)
        _check_dtype(mats, dtype, 5)
        check_arg(lda >= 2 * kl + ku + 1, 6,
                  f"lda={lda} < 2*kl+ku+1={2 * kl + ku + 1}")
        return gbtrf_batch(m, n, kl, ku, mats, pv_array, info, batch=batch,
                           device=stream.device, stream=stream)

    fn.__name__ = f"{prefix}gbtrf_batch"
    fn.__qualname__ = fn.__name__
    fn.__doc__ = (
        f"Batch band LU factorization in {np.dtype(dtype).name} "
        "(paper Section 4 signature). Returns (pivots, info).")
    return fn


def _make_gbtrs(prefix: str, dtype):
    def fn(transA, n, kl, ku, nrhs, A_array, lda, pv_array, B_array, ldb,
           info, batch, stream):
        stream = _require_stream(stream)
        mats = list(A_array)
        _check_dtype(mats, dtype, 6)
        check_arg(lda >= 2 * kl + ku + 1, 7,
                  f"lda={lda} < 2*kl+ku+1={2 * kl + ku + 1}")
        check_arg(ldb >= max(1, n), 10, f"ldb={ldb} < n={n}")
        return gbtrs_batch(Trans.from_any(transA), n, kl, ku, nrhs, mats,
                           pv_array, B_array, info, batch=batch,
                           device=stream.device, stream=stream)

    fn.__name__ = f"{prefix}gbtrs_batch"
    fn.__qualname__ = fn.__name__
    fn.__doc__ = (
        f"Batch band forward/backward solve in {np.dtype(dtype).name} "
        "(paper Section 4 signature). Returns info.")
    return fn


def _make_gbsv(prefix: str, dtype):
    def fn(n, kl, ku, nrhs, A_array, lda, pv_array, B_array, ldb, info,
           batch, stream):
        stream = _require_stream(stream)
        mats = list(A_array)
        _check_dtype(mats, dtype, 5)
        check_arg(lda >= 2 * kl + ku + 1, 6,
                  f"lda={lda} < 2*kl+ku+1={2 * kl + ku + 1}")
        check_arg(ldb >= max(1, n), 9, f"ldb={ldb} < n={n}")
        return gbsv_batch(n, kl, ku, nrhs, mats, pv_array, B_array, info,
                          batch=batch, device=stream.device, stream=stream)

    fn.__name__ = f"{prefix}gbsv_batch"
    fn.__qualname__ = fn.__name__
    fn.__doc__ = (
        f"Batch band factorize-and-solve in {np.dtype(dtype).name} "
        "(paper's top-level API). Returns (pivots, info).")
    return fn


sgbtrf_batch = _make_gbtrf("s", np.float32)
dgbtrf_batch = _make_gbtrf("d", np.float64)
cgbtrf_batch = _make_gbtrf("c", np.complex64)
zgbtrf_batch = _make_gbtrf("z", np.complex128)

sgbtrs_batch = _make_gbtrs("s", np.float32)
dgbtrs_batch = _make_gbtrs("d", np.float64)
cgbtrs_batch = _make_gbtrs("c", np.complex64)
zgbtrs_batch = _make_gbtrs("z", np.complex128)

sgbsv_batch = _make_gbsv("s", np.float32)
dgbsv_batch = _make_gbsv("d", np.float64)
cgbsv_batch = _make_gbsv("c", np.complex64)
zgbsv_batch = _make_gbsv("z", np.complex128)


# --- Non-uniform batches (paper Section 9, future work) --------------------

def _vbatch_config(device, stream, execute, **knobs) -> ExecConfig:
    from ..gpusim.device import H100_PCIE
    device = device or (stream.device if stream is not None else H100_PCIE)
    # A resilient call always executes (the ladder needs real results).
    execute = execute or knobs["resilient"]
    knobs["verify"] = as_verify_policy(knobs["verify"])
    return ExecConfig(device=device, stream=stream, execute=execute, **knobs)


def _run_groups(op: str, cfg: ExecConfig, keys, info, run_group):
    """Run each uniform group of a vbatch; returns the merged report.

    ``keys[k]`` is problem ``k``'s configuration; ``run_group(key, idxs,
    sub_info)`` runs the problems ``idxs`` sharing ``key`` and returns
    their report.  Lanes of the merged report are global problem indices.
    """
    groups: dict = defaultdict(list)
    for idx, key in enumerate(keys):
        groups[key].append(idx)
    parts = []
    for key, idxs in groups.items():
        sub_info = np.zeros(len(idxs), dtype=np.int64)
        parts.append((idxs, run_group(key, idxs, sub_info)))
        for j, i in enumerate(idxs):
            info[i] = sub_info[j]
    if not cfg.reports:
        return None
    report = merge_reports(op, len(keys), parts)
    report.info = info
    return report


def gbtrf_vbatch(ms, ns, kls, kus, a_array, pv_array=None, info=None, *,
                 device=None, stream=None, execute: bool = True,
                 resilient: bool = False, policy=None,
                 max_resident_bytes: int | None = None,
                 chunk_hint: int | None = None,
                 streams: int | None = None, devices=None,
                 layout: str | None = None,
                 verify=None):
    """Non-uniform batch band LU: per-problem ``(m, n, kl, ku)``.

    Problems with identical configuration are grouped into uniform
    sub-batches, each dispatched through :func:`gbtrf_batch` (one kernel
    per configuration — the natural GPU strategy for irregular batches).

    Returns ``(pivots, info)`` ordered like the input problems.

    Arguments are validated once, at this call's own positions: every
    ``a_array`` entry (position 5) must be a 2-D ndarray, since the
    factors are written into it; ``pv_array`` (6) entries are integer
    ndarrays of length ``min(m, n)``; ``info`` (7) has one entry per
    problem.  Each group's matrices are gathered into one stack where
    its call enters the layer stack and run on the batch-interleaved
    path; aliased matrices in one group raise
    :class:`~repro.errors.ArgumentError`.

    ``resilient=True`` runs every group through the self-healing dispatch
    (:mod:`repro.core.resilience`) and returns ``(pivots, info, report)``
    where ``report`` merges the per-group
    :class:`~repro.core.resilience.BatchReport` objects with lanes mapped
    back to global problem indices.

    ``max_resident_bytes`` / ``chunk_hint`` are the memory-governance
    knobs of :mod:`repro.core.memory_plan`, applied per uniform group
    (each group plans against the shared device pool, so the caps bound
    every group's resident footprint).

    ``streams`` / ``devices`` are the pipelined-execution
    knobs (see :func:`repro.core.gbtrf.gbtrf_batch`), applied per
    uniform group: each group's chunks stream through double-buffered
    copy/compute streams and shard across devices (extra shards in
    forked worker processes), bit-identically.

    ``layout`` is the storage-layout selector (docs/LAYOUTS.md), applied
    per uniform group: ``None`` runs each group in the layout it arrives
    in (consecutive slices of an interleaved stack stay zero-copy),
    ``'interleaved'``/``'soa'`` or ``'lane-major'``/``'aos'`` stage each
    group into that layout once before it executes.

    ``verify`` turns on the silent-data-corruption defense per uniform
    group (:mod:`repro.core.verify`; same values as the uniform drivers)
    and makes the call return ``(pivots, info, report)`` with the
    per-group verification fields merged back to global lane indices.
    Requires square problems (``ms[k] == ns[k]``).
    """
    cfg = _vbatch_config(
        device, stream, execute, resilient=resilient,
        policy=policy, max_resident_bytes=max_resident_bytes,
        chunk_hint=chunk_hint, streams=streams, devices=devices,
        layout=layout, verify=verify)
    pivots, info, report = run_gbtrf_vbatch(cfg, ms, ns, kls, kus, a_array,
                                            pv_array, info)
    return (pivots, info, report) if cfg.reports else (pivots, info)


def run_gbtrf_vbatch(cfg, ms, ns, kls, kus, a_array, pv_array=None,
                     info=None):
    """:func:`gbtrf_vbatch` under a prepared :class:`ExecConfig`.

    Returns ``(pivots, info, report)`` (``report`` is ``None`` unless
    resilient or verified).
    """
    batch = len(a_array)
    ms, ns, kls, kus = vbatch_configs(batch, (
        ("ms", ms), ("ns", ns), ("kls", kls), ("kus", kus)))
    mats = vbatch_matrices(a_array, ns, kls, kus, arg_pos=5)
    pivots = vbatch_pivots(pv_array, list(map(min, ms, ns)), arg_pos=6)
    info = ensure_info(info, batch, arg_pos=7)
    # Storage shape joins the key so every group stacks uniformly on the
    # batch-interleaved path (same (m, n, kl, ku) may arrive with
    # different ldab padding).
    keys = [(ms[k], ns[k], kls[k], kus[k], mats[k].shape)
            for k in range(batch)]

    def run_group(key, idxs, sub_info):
        m, n, kl, ku, _shape = key
        return run_gbtrf(cfg, m, n, kl, ku, [mats[i] for i in idxs],
                         [pivots[i] for i in idxs], sub_info,
                         batch=len(idxs))[2]

    return pivots, info, _run_groups("gbtrf", cfg, keys, info, run_group)


def gbsv_vbatch(ns, kls, kus, nrhss, a_array, b_array, pv_array=None,
                info=None, *, device=None, stream=None,
                execute: bool = True,
                resilient: bool = False, policy=None,
                max_resident_bytes: int | None = None,
                chunk_hint: int | None = None,
                streams: int | None = None, devices=None,
                layout: str | None = None,
                verify=None):
    """Non-uniform batch factorize-and-solve: per-problem ``(n, kl, ku, nrhs)``.

    Returns ``(pivots, info)``; each problem's ``B`` is overwritten with its
    solution unless that problem is singular.

    Arguments are validated once, at this call's own positions: every
    ``a_array`` (5) and ``b_array`` (6) entry must be an ndarray, since
    the factors and solutions are written into it (a 1-D right-hand
    side is viewed as one column when its ``nrhs`` is 1); ``pv_array``
    (7) entries are integer ndarrays of length ``n``; ``info`` (8) has
    one entry per problem.

    ``resilient=True`` mirrors :func:`gbtrf_vbatch`, returning
    ``(pivots, info, report)`` with a merged
    :class:`~repro.core.resilience.BatchReport`.
    ``max_resident_bytes`` / ``chunk_hint`` bound each uniform group's
    resident device footprint (:mod:`repro.core.memory_plan`);
    ``streams`` / ``devices`` pipeline each group's chunks, extra
    shards in forked worker processes
    (see :func:`repro.core.gbtrf.gbtrf_batch`); ``layout`` stages each
    uniform group into the requested storage layout once before it
    executes (see :func:`gbtrf_vbatch` and docs/LAYOUTS.md); ``verify``
    runs each group behind the silent-data-corruption defense
    (:mod:`repro.core.verify`) and returns ``(pivots, info, report)``
    with the merged verification fields.
    """
    cfg = _vbatch_config(
        device, stream, execute, resilient=resilient,
        policy=policy, max_resident_bytes=max_resident_bytes,
        chunk_hint=chunk_hint, streams=streams, devices=devices,
        layout=layout, verify=verify)
    batch = len(a_array)
    ns, kls, kus, nrhss = vbatch_configs(batch, (
        ("ns", ns), ("kls", kls), ("kus", kus), ("nrhss", nrhss)))
    mats = vbatch_matrices(a_array, ns, kls, kus, arg_pos=5)
    rhs = vbatch_rhs(b_array, ns, nrhss, arg_pos=6)
    pivots = vbatch_pivots(pv_array, ns, arg_pos=7)
    info = ensure_info(info, batch, arg_pos=8)
    keys = [(ns[k], kls[k], kus[k], nrhss[k], mats[k].shape)
            for k in range(batch)]

    def run_group(key, idxs, sub_info):
        n, kl, ku, nrhs, _shape = key
        return run_gbsv(cfg, n, kl, ku, nrhs, [mats[i] for i in idxs],
                        [pivots[i] for i in idxs], [rhs[i] for i in idxs],
                        sub_info, batch=len(idxs))[2]

    report = _run_groups("gbsv", cfg, keys, info, run_group)
    return (pivots, info, report) if cfg.reports else (pivots, info)
