"""Canonicalisation and validation of batched call arguments.

The paper's C interface (paper Section 4) takes arrays of device pointers plus an
``info`` output array.  On the Python side we accept, for each batched
operand, either

* a 3-D numpy stack ``(batch, ldab, n)`` — the strided-batch idiom, or
* a :class:`~repro.gpusim.memory.PointerArray` / sequence of 2-D arrays —
  the true pointer-array idiom (each matrix anywhere in memory),

and canonicalise to a list of per-problem views.  Validation mirrors
LAPACK argument checking: the 1-based argument positions in raised
:class:`~repro.errors.ArgumentError` match the paper's C signatures.
"""

from __future__ import annotations

import math

import numpy as np

from ..band.layout import (
    INTERLEAVED,
    LANE_MAJOR,
    ldab_for_factor,
    to_interleaved,
    to_lane_major,
)
from ..errors import ArgumentError, check_arg
from ..gpusim.memory import PointerArray, is_packable_batch

__all__ = [
    "as_matrix_list",
    "as_rhs_list",
    "ensure_pivots",
    "ensure_info",
    "check_gb_args",
    "is_uniform_stack",
    "is_interleaved_stack",
    "is_packable_batch",
    "stack_view",
    "stage_stack",
    "soa_stageable",
    "all_uniform",
    "convert_batch_layout",
]


def is_uniform_stack(mats) -> bool:
    """True when ``mats`` are consecutive slices of one contiguous stack.

    This is the *direct* eligibility gate for the batch-interleaved
    execution path: every per-problem view must share the same base array,
    shape, dtype and strides, and sit at evenly spaced, non-overlapping
    offsets — exactly what ``list(stack)`` of a ``(batch, ldab, n)``
    strided-batch array produces.
    :class:`~repro.gpusim.memory.PointerArray` batches (matrices scattered
    through memory), aliased matrices and ragged (vbatch) inputs all
    return False; scattered same-shape batches can still vectorize via the
    gather/pack stage (:func:`~repro.gpusim.memory.is_packable_batch`),
    while aliased/overlapping batches keep the per-block path.
    """
    if len(mats) == 0:
        return False
    first = mats[0]
    if not isinstance(first, np.ndarray) or first.base is None:
        return False
    base = first.base
    shape, dtype, strides = first.shape, first.dtype, first.strides
    if len(mats) == 1:
        return True
    ptr0 = first.__array_interface__["data"][0]
    extent = shape[0] * strides[0] if strides else 0
    if extent <= 0:
        return False
    for k, mk in enumerate(mats[1:], 1):
        if (not isinstance(mk, np.ndarray) or mk.base is not base
                or mk.shape != shape or mk.dtype != dtype
                or mk.strides != strides):
            return False
        if mk.__array_interface__["data"][0] != ptr0 + k * extent:
            return False
    return True


def is_interleaved_stack(mats) -> bool:
    """True when ``mats`` are lanes of one batch-interleaved (SoA) stack.

    This is the eligibility gate for the SoA-native execution path
    (``[vec+soa]`` in traces): every per-problem view must share the same
    base array, shape, dtype and strides, with data pointers at a
    constant positive delta ``d`` — lane ``k`` starts ``k*d`` bytes after
    lane 0, the lane-fastest layout of
    :func:`repro.band.layout.alloc_band_interleaved`.  Disjointness of
    the lanes is proven from the strides: every in-view stride is a
    multiple of some ``g`` with ``g >= nlanes * d``, so two lanes can
    never address the same element.  Consecutive sub-slices of an
    interleaved batch (as the chunked executor takes) stay detectable,
    which is what keeps governance, pipelining and resilience
    layout-native with zero extra conversions.  The proof needs only the
    first two lanes and runs before the walk over the rest, so
    lane-major and scattered lists are rejected without a walk.
    """
    nlanes = len(mats)
    if nlanes < 2:
        return False
    first, second = mats[0], mats[1]
    if (not isinstance(first, np.ndarray) or first.base is None
            or not isinstance(second, np.ndarray)
            or second.base is not first.base):
        return False
    shape, dtype, strides = first.shape, first.dtype, first.strides
    ptr0 = first.__array_interface__["data"][0]
    d = second.__array_interface__["data"][0] - ptr0
    if d <= 0:
        return False
    # Lane disjointness: strides along extents > 1 must share a common
    # divisor g that is a multiple of d and covers all nlanes offsets.
    live = [abs(s) for s, e in zip(strides, shape) if e > 1]
    if live:
        g = math.gcd(*live)
        if g % d or g // d < nlanes:
            return False
    elif d < dtype.itemsize:
        return False
    base = first.base
    for k, mk in enumerate(mats[1:], 1):
        if (not isinstance(mk, np.ndarray) or mk.base is not base
                or mk.shape != shape or mk.dtype != dtype
                or mk.strides != strides
                or mk.__array_interface__["data"][0] != ptr0 + k * d):
            return False
    return True


def stack_view(mats, nlanes: int | None = None) -> np.ndarray:
    """Writable ``(nlanes, ...)`` view over a uniform or interleaved list.

    Only valid when :func:`is_uniform_stack` or
    :func:`is_interleaved_stack` returned True for ``mats``: the view
    aliases exactly the union of the first ``nlanes`` per-lane views
    (default: all of them; lane ``k`` of the result *is* ``mats[k]``'s
    memory), so kernels can execute on it in place — no gather, no
    scatter.  Only the first two lanes are read.
    """
    if nlanes is None:
        nlanes = len(mats)
    first = mats[0]
    if nlanes == 1:
        return first[None]
    d = (mats[1].__array_interface__["data"][0]
         - first.__array_interface__["data"][0])
    return np.lib.stride_tricks.as_strided(
        first, shape=(nlanes,) + first.shape,
        strides=(d,) + first.strides)


def stage_stack(seq, nblocks: int, *, packed: bool,
                rows: int | None = None) -> np.ndarray:
    """Stage the first ``nblocks`` operands as a ``(nblocks, ...)`` stack.

    ``packed`` is the rung the launcher chose.  On the direct and soa
    rungs (``packed=False``) every operand list is a uniform lane-major
    or an interleaved stack, and it stages as a writable zero-copy view:
    the kernel's results land in the caller's storage, with no gather
    and no write-back, and the list is not walked again.  On the pack
    rung (``packed=True``) the operands are gathered with
    :func:`numpy.stack` and the kernel must scatter its results back.
    ``rows`` optionally trims each operand to its first ``rows`` rows
    (the factor-layout ``ldab`` slice).
    """
    if packed:
        sub = seq[:nblocks]
        if rows is not None:
            sub = [a[:rows, :] for a in sub]
        return np.stack(sub)
    view = stack_view(seq, nblocks)
    return view if rows is None else view[:, :rows, :]


def soa_stageable(*seqs) -> bool:
    """SoA-route eligibility across several operand lists.

    True when every operand batch can be staged in place for the
    batch-interleaved body (interleaved lanes or a uniform lane-major
    stack) and at least one of them is actually interleaved (otherwise
    the classic ``[vec]`` route already applies).  Each list is walked
    at most once: a lane-major list fails the interleaving proof before
    its walk.
    """
    soa = [is_interleaved_stack(seq) for seq in seqs]
    return any(soa) and all(
        i or is_uniform_stack(seq) for i, seq in zip(soa, seqs))


def all_uniform(*seqs) -> bool:
    """True when every operand list is a uniform lane-major stack.

    The two-lane prefix of every list is checked before any full walk,
    so an interleaved or scattered list rejects the batch without the
    others being walked.
    """
    return (all(is_uniform_stack(seq[:2]) for seq in seqs)
            and all(is_uniform_stack(seq) for seq in seqs))


def convert_batch_layout(layout: str, operands, *, batch: int,
                         outputs=None):
    """Stage batched operands into ``layout`` at the batch boundary.

    ``operands`` is a sequence of batched arguments (each a 3-D logical
    stack or a list of per-problem 2-D arrays); ``layout`` is a
    canonical name from :func:`repro.band.layout.normalize_layout`.
    Returns ``None`` when nothing needs converting (every operand is
    already in the requested layout), else ``(converted, writeback,
    nbytes)``: ``converted`` mirrors ``operands`` with working copies in
    the target layout, ``writeback()`` copies results back into the
    caller's storage, and ``nbytes`` is the total traffic of the
    round-trip (in + out, ``pack_bytes``-style) for trace attribution.

    ``outputs`` is an optional per-operand boolean mask: ``False`` marks
    a pure input (``gbtrs`` factors, for example) — it is staged into the
    working layout but never written back, so read-only inputs convert
    fine and the return copy is skipped (its traffic is counted one-way).

    This is the *one conversion per batch* of the layout contract
    (docs/LAYOUTS.md): drivers call it once, before governance splits
    the batch into chunks, so every downstream stage runs natively.
    """
    if outputs is None:
        outputs = (True,) * len(operands)
    originals, converted, moved = [], [], 0
    for op, is_output in zip(operands, outputs):
        if op is None:
            converted.append(None)
            continue
        if isinstance(op, np.ndarray) and op.ndim >= 2:
            mats = list(op)
        else:
            mats = [np.asarray(m) for m in op]
        check_arg(len(mats) == batch, 0,
                  f"operand has {len(mats)} entries, expected {batch}")
        if batch == 0:
            converted.append(op)
            continue
        shape = mats[0].shape
        if layout == INTERLEAVED and is_interleaved_stack(mats):
            converted.append(op)
            continue
        if layout == LANE_MAJOR and not is_interleaved_stack(mats):
            # Lane-major (or scattered/packable) input already runs the
            # classic path; nothing to stage.
            converted.append(op)
            continue
        check_arg(all(m.shape == shape for m in mats), 0,
                  "layout conversion requires uniform per-problem shapes "
                  f"(got {sorted({m.shape for m in mats})})")
        gathered = np.stack(mats)
        work = (to_interleaved(gathered) if layout == INTERLEAVED
                else to_lane_major(gathered))
        if is_output:
            originals.append((mats, work))
        converted.append(work)
        moved += (2 if is_output else 1) * int(gathered.nbytes)
    if not originals and moved == 0:
        return None

    def writeback() -> None:
        for mats, work in originals:
            for k, m in enumerate(mats):
                m[...] = work[k]

    return converted, writeback, moved


def as_matrix_list(a_array, batch: int, *, arg_pos: int) -> list[np.ndarray]:
    """Canonicalise a batched band-matrix argument to a list of 2-D views."""
    if isinstance(a_array, np.ndarray):
        check_arg(a_array.ndim == 3, arg_pos,
                  f"expected a (batch, ldab, n) stack, got ndim={a_array.ndim}")
        check_arg(a_array.shape[0] == batch, arg_pos,
                  f"stack has batch {a_array.shape[0]}, expected {batch}")
        return list(a_array)
    mats = list(a_array)
    check_arg(len(mats) == batch, arg_pos,
              f"pointer array has {len(mats)} entries, expected {batch}")
    out = []
    for k, m in enumerate(mats):
        m = np.asarray(m)
        check_arg(m.ndim == 2, arg_pos,
                  f"matrix {k} has ndim={m.ndim}, expected 2")
        out.append(m)
    return out


def as_rhs_list(b_array, batch: int, n: int, nrhs: int, *,
                arg_pos: int) -> list[np.ndarray]:
    """Canonicalise a batched RHS argument to a list of ``(n, nrhs)`` views.

    1-D per-problem arrays are accepted for ``nrhs == 1`` and reshaped.
    """
    if isinstance(b_array, np.ndarray):
        if b_array.ndim == 2 and nrhs == 1:
            b_array = b_array[:, :, None]
        check_arg(b_array.ndim == 3, arg_pos,
                  f"expected a (batch, n, nrhs) stack, got ndim={b_array.ndim}")
        check_arg(b_array.shape[0] == batch, arg_pos,
                  f"stack has batch {b_array.shape[0]}, expected {batch}")
        mats = list(b_array)
    else:
        mats = [np.asarray(b) for b in b_array]
        check_arg(len(mats) == batch, arg_pos,
                  f"pointer array has {len(mats)} entries, expected {batch}")
    out = []
    for k, b in enumerate(mats):
        if b.ndim == 1 and nrhs == 1:
            b = b[:, None]
        check_arg(b.ndim == 2, arg_pos,
                  f"RHS {k} has ndim={b.ndim}, expected 2")
        check_arg(b.shape == (n, nrhs), arg_pos,
                  f"RHS {k} has shape {b.shape}, expected {(n, nrhs)}")
        out.append(b)
    return out


def ensure_pivots(pv_array, batch: int, mn: int, *, arg_pos: int,
                  zero: bool = False) -> list[np.ndarray]:
    """Canonicalise/allocate the per-problem pivot vectors.

    ``zero=True`` is for routines that *produce* pivots (``gbtrf``,
    ``gbsv``): the caller-supplied storage is zeroed as soon as it
    validates, upholding the error-path guarantee documented on
    :func:`ensure_info`.  Routines that *consume* pivots (``gbtrs``,
    ``gbrfs``, ``gbcon``) leave it False.
    """
    if pv_array is None:
        return [np.zeros(mn, dtype=np.int64) for _ in range(batch)]
    if isinstance(pv_array, np.ndarray):
        check_arg(pv_array.ndim == 2 and pv_array.shape == (batch, mn), arg_pos,
                  f"pivot stack has shape {pv_array.shape}, "
                  f"expected {(batch, mn)}")
        check_arg(np.issubdtype(pv_array.dtype, np.integer), arg_pos,
                  f"pivot array must be integer, got {pv_array.dtype}")
        if zero:
            pv_array[...] = 0
        return list(pv_array)
    pivs = list(pv_array)
    check_arg(len(pivs) == batch, arg_pos,
              f"pivot pointer array has {len(pivs)} entries, expected {batch}")
    for k, p in enumerate(pivs):
        check_arg(p.shape == (mn,), arg_pos,
                  f"pivot vector {k} has shape {p.shape}, expected {(mn,)}")
        check_arg(np.issubdtype(p.dtype, np.integer), arg_pos,
                  f"pivot vector {k} must be integer, got {p.dtype}")
        if zero:
            p[...] = 0
    return pivs


def ensure_info(info, batch: int, *, arg_pos: int) -> np.ndarray:
    """Canonicalise/allocate the per-problem ``info`` output array.

    The array is **zeroed here**, at canonicalisation time, before any
    numerical work starts.  This is the batched drivers' error-path
    guarantee: if a driver raises after its outputs validated — a rejected
    kernel launch, a shared-memory failure, an injected fault — the
    caller's ``info`` (and, via ``ensure_pivots(..., zero=True)``, output
    pivots) hold zeros, never stale values from a previous call.  Status
    codes written before the exception (e.g. by a completed factorization
    stage) are preserved, since they are meaningful results.
    """
    if info is None:
        return np.zeros(batch, dtype=np.int64)
    info = np.asarray(info)
    check_arg(info.shape == (batch,), arg_pos,
              f"info has shape {info.shape}, expected {(batch,)}")
    check_arg(np.issubdtype(info.dtype, np.integer), arg_pos,
              f"info must be integer, got {info.dtype}")
    info[...] = 0
    return info


def check_gb_args(m: int, n: int, kl: int, ku: int,
                  mats: list[np.ndarray], *, batch: int,
                  ldab_pos: int = 6) -> None:
    """Validate dimensions against every matrix of the batch.

    Positions follow the paper's ``dgbtrf_batch`` signature:
    ``(m, n, kl, ku, A_array, ldab, ...)``.
    """
    check_arg(m >= 0, 1, f"m must be non-negative, got {m}")
    check_arg(n >= 0, 2, f"n must be non-negative, got {n}")
    check_arg(kl >= 0, 3, f"kl must be non-negative, got {kl}")
    check_arg(ku >= 0, 4, f"ku must be non-negative, got {ku}")
    check_arg(batch >= 0, 12, f"batch must be non-negative, got {batch}")
    need = ldab_for_factor(kl, ku)
    for k, a in enumerate(mats):
        if a.shape[0] < need or a.shape[1] != n:
            raise ArgumentError(
                ldab_pos,
                f"matrix {k} has shape {a.shape}; needs at least "
                f"({need}, {n}) for kl={kl}, ku={ku}")
