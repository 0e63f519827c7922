"""Canonicalisation and validation of batched call arguments.

The paper's C interface (paper Section 4) takes arrays of device pointers plus an
``info`` output array.  On the Python side we accept, for each batched
operand, either

* a 3-D numpy stack ``(batch, ldab, n)`` — the strided-batch idiom, or
* a :class:`~repro.gpusim.memory.PointerArray` / sequence of 2-D arrays —
  the true pointer-array idiom (each matrix anywhere in memory),

A stack stays one array, validated by its shape; a pointer array becomes
a list of per-problem views.  Validation mirrors LAPACK argument
checking: the 1-based argument positions in raised
:class:`~repro.errors.ArgumentError` match the paper's C signatures.
Whether an operand batch is one lane-major or interleaved stack (the
zero-copy launch rungs) is decided here too, by :func:`stack_layouts`
and :func:`stack_rung`.
"""

from __future__ import annotations

import math

import numpy as np

from ..band.layout import (
    INTERLEAVED,
    LANE_MAJOR,
    ldab_for_factor,
    to_interleaved,
)
from ..errors import ArgumentError, check_arg
from ..gpusim.memory import PointerArray, is_packable_batch

__all__ = [
    "as_matrix_list",
    "as_rhs_list",
    "ensure_pivots",
    "ensure_info",
    "check_gb_args",
    "stack_layouts",
    "stack_rung",
    "is_uniform_stack",
    "is_interleaved_stack",
    "is_packable_batch",
    "stack_view",
    "stage_stack",
    "convert_batch_layout",
]


_NO_STACK = frozenset()


def _ptr(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def _first_lanes(seq):
    """``(layouts, step)`` of ``seq`` judged from its first two lanes and
    its length; ``step`` is the byte offset from lane 0 to lane 1.

    A lane sequence is a *lane-major* stack when each lane starts one
    lane extent (rows times row stride) after the previous one, and an
    *interleaved* stack when the step is positive and every in-lane
    stride (along extents > 1) is a multiple of some ``g >= nlanes *
    step``, so no two lanes can address the same element.  The lanes of
    an ndarray share shape, dtype, strides and base and sit at a
    constant step, so for one the answer is final; a list must still
    show that the rest of its lanes follow (:func:`_lanes_follow`).
    """
    nlanes = len(seq)
    if nlanes == 0:
        return _NO_STACK, 0
    first = seq[0]
    if not isinstance(first, np.ndarray) or first.base is None:
        return _NO_STACK, 0
    if nlanes == 1:
        return frozenset((LANE_MAJOR,)), 0
    second = seq[1]
    if (not isinstance(second, np.ndarray) or second.base is not first.base
            or second.shape != first.shape or second.dtype != first.dtype
            or second.strides != first.strides):
        return _NO_STACK, 0
    shape, strides = first.shape, first.strides
    step = _ptr(second) - _ptr(first)
    kinds = set()
    if strides and step == shape[0] * strides[0] > 0:
        kinds.add(LANE_MAJOR)
    live = [abs(s) for s, e in zip(strides, shape) if e > 1]
    g = math.gcd(*live) if live else 0
    if step > 0 and (g % step == 0 and g // step >= nlanes if live
                     else step >= first.itemsize):
        kinds.add(INTERLEAVED)
    return frozenset(kinds), step


def _lanes_follow(seq, step: int) -> bool:
    """Every lane of ``seq`` is lane 0's shape, dtype and strides over the
    same base, ``step`` bytes after the previous lane.  Always true of an
    ndarray; a list is walked once."""
    if isinstance(seq, np.ndarray):
        return True
    first = seq[0]
    base, shape, dtype, strides = (first.base, first.shape, first.dtype,
                                   first.strides)
    ptr0 = _ptr(first)
    for k, mk in enumerate(seq[2:], 2):
        if (not isinstance(mk, np.ndarray) or mk.base is not base
                or mk.shape != shape or mk.dtype != dtype
                or mk.strides != strides or _ptr(mk) != ptr0 + k * step):
            return False
    return True


def stack_layouts(seq) -> frozenset:
    """The layouts in which operand batch ``seq`` is one zero-copy stack.

    ``seq`` is a 3-D ``(batch, ...)`` array or a list of per-lane views.
    The result holds :data:`~repro.band.layout.LANE_MAJOR` when the lanes
    are consecutive slices of one stack (what ``list(stack)`` of a
    strided batch gives) and :data:`~repro.band.layout.INTERLEAVED` when
    they are lanes of one lane-fastest stack
    (:func:`repro.band.layout.alloc_band_interleaved`, or consecutive
    sub-slices of one, as the chunked executor takes).  Scattered
    (:class:`~repro.gpusim.memory.PointerArray`), aliased, overlapping
    and ragged batches give the empty set.  An ndarray is judged from its
    first two lanes and its length, never by walking its lanes; a list
    is walked once, after its first two lanes pass.
    """
    kinds, step = _first_lanes(seq)
    return kinds if kinds and _lanes_follow(seq, step) else _NO_STACK


def stack_rung(*seqs) -> str | None:
    """The zero-copy rung for a kernel's operand batches.

    ``'direct'`` when every batch is a lane-major stack, ``'soa'`` when
    every batch is a lane-major or an interleaved stack (at least one
    interleaved), ``None`` otherwise (the launcher then tries the pack
    rung).  Every batch's first two lanes are checked before any list is
    walked, so a list is walked at most once, and not at all when another
    batch already fails.
    """
    firsts = [_first_lanes(seq) for seq in seqs]
    if not (seqs and all(kinds for kinds, _ in firsts) and all(
            _lanes_follow(seq, step)
            for seq, (_, step) in zip(seqs, firsts))):
        return None
    if all(LANE_MAJOR in kinds for kinds, _ in firsts):
        return "direct"
    return "soa"


def is_uniform_stack(mats) -> bool:
    """True when ``mats`` are consecutive slices of one lane-major stack
    (see :func:`stack_layouts`)."""
    return LANE_MAJOR in stack_layouts(mats)


def is_interleaved_stack(mats) -> bool:
    """True when ``mats`` are lanes of one batch-interleaved (SoA) stack
    (see :func:`stack_layouts`)."""
    return INTERLEAVED in stack_layouts(mats)


def stack_view(mats, nlanes: int | None = None) -> np.ndarray:
    """Writable ``(nlanes, ...)`` view over a lane-major or interleaved
    list (one :func:`stack_layouts` accepts).

    The view aliases exactly the union of the first ``nlanes`` per-lane
    views (default: all of them; lane ``k`` of the result *is*
    ``mats[k]``'s memory), so kernels can execute on it in place — no
    gather, no scatter.  Only the first two lanes are read.
    """
    if nlanes is None:
        nlanes = len(mats)
    first = mats[0]
    if nlanes == 1:
        return first[None]
    return np.lib.stride_tricks.as_strided(
        first, shape=(nlanes,) + first.shape,
        strides=(_ptr(mats[1]) - _ptr(first),) + first.strides)


def stage_stack(seq, hi: int, *, packed: bool, lo: int = 0,
                rows: int | None = None) -> np.ndarray:
    """Stage operands ``lo..hi-1`` as a ``(hi - lo, ...)`` stack.

    ``packed`` is the rung the launcher chose.  On the direct and soa
    rungs (``packed=False``) the operand batch is a lane-major or an
    interleaved stack, and it stages as a writable zero-copy view (the
    array itself, or :func:`stack_view` of a list): the kernel's results
    land in the caller's storage, with no gather and no write-back.  On
    the pack rung and the per-block path (``packed=True``) the operands
    are gathered with :func:`numpy.stack` and the kernel must scatter its
    results back.
    ``rows`` optionally trims each operand to its first ``rows`` rows
    (the factor-layout ``ldab`` slice).
    """
    if packed:
        sub = seq[lo:hi]
        if rows is not None:
            sub = [a[:rows, :] for a in sub]
        return np.stack(sub)
    view = (seq[lo:hi] if isinstance(seq, np.ndarray)
            else stack_view(seq, hi)[lo:])
    return view if rows is None else view[:, :rows, :]


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
        mats = (op if isinstance(op, np.ndarray) and op.ndim >= 2
                else [np.asarray(m) for m in op])
        check_arg(len(mats) == batch, 0,
                  f"operand has {len(mats)} entries, expected {batch}")
        # Interleaved input already runs natively; lane-major (or
        # scattered/packable) input already runs the classic path.
        if batch == 0 or (INTERLEAVED in stack_layouts(mats)) == (
                layout == INTERLEAVED):
            converted.append(op)
            continue
        if not isinstance(mats, np.ndarray):
            shapes = {m.shape for m in mats}
            check_arg(len(shapes) == 1, 0,
                      "layout conversion requires uniform per-problem "
                      f"shapes (got {sorted(shapes)})")
        work = (to_interleaved(mats) if layout == INTERLEAVED
                else np.array(mats, order="C"))
        if is_output:
            originals.append((mats, work))
        converted.append(work)
        moved += (2 if is_output else 1) * int(work.nbytes)
    if not originals and moved == 0:
        return None

    def writeback() -> None:
        for mats, work in originals:
            for m, w in zip(mats, work):
                m[...] = w

    return converted, writeback, moved


def as_matrix_list(a_array, batch: int, *, arg_pos: int):
    """Canonicalise a batched band-matrix argument.

    A 3-D ``(batch, ldab, n)`` stack is returned as is, checked by its
    shape; any other sequence (a pointer array) becomes a list of 2-D
    views.
    """
    if isinstance(a_array, np.ndarray):
        check_arg(a_array.ndim == 3, arg_pos,
                  f"expected a (batch, ldab, n) stack, got ndim={a_array.ndim}")
        check_arg(a_array.shape[0] == batch, arg_pos,
                  f"stack has batch {a_array.shape[0]}, expected {batch}")
        return a_array
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


def as_rhs_list(b_array, batch: int, n: int, nrhs: int, *, arg_pos: int):
    """Canonicalise a batched RHS argument to ``(n, nrhs)`` lanes.

    A ``(batch, n, nrhs)`` stack is returned as is (a ``(batch, n)`` one
    as its ``(batch, n, 1)`` view when ``nrhs == 1``), checked by its
    shape; any other sequence becomes a list of ``(n, nrhs)`` views, with
    1-D per-problem arrays accepted and reshaped for ``nrhs == 1``.
    """
    if isinstance(b_array, np.ndarray):
        if b_array.ndim == 2 and nrhs == 1:
            b_array = b_array[:, :, None]
        check_arg(b_array.ndim == 3, arg_pos,
                  f"expected a (batch, n, nrhs) stack, got ndim={b_array.ndim}")
        check_arg(b_array.shape[0] == batch, arg_pos,
                  f"stack has batch {b_array.shape[0]}, expected {batch}")
        check_arg(batch == 0 or b_array.shape[1:] == (n, nrhs), arg_pos,
                  f"RHS 0 has shape {b_array.shape[1:]}, expected "
                  f"{(n, nrhs)}")
        return b_array
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
    # A stack's lanes share one shape: check it once, as lane 0's.
    shapes = ([mats.shape[1:]] if isinstance(mats, np.ndarray) and batch
              else [a.shape for a in mats])
    for k, shape in enumerate(shapes):
        if shape[0] < need or shape[1] != n:
            raise ArgumentError(
                ldab_pos,
                f"matrix {k} has shape {shape}; needs at least "
                f"({need}, {n}) for kl={kl}, ku={ku}")
