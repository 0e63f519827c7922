"""Canonicalisation and validation of batched call arguments.

The paper's C interface (paper Section 4) takes arrays of device pointers plus an
``info`` output array.  On the Python side we accept, for each batched
operand, either

* a 3-D numpy stack ``(batch, ldab, n)`` — the strided-batch idiom, or
* a :class:`~repro.gpusim.memory.PointerArray` / sequence of 2-D arrays —
  the true pointer-array idiom (each matrix anywhere in memory),

A stack stays one array, validated by its shape.  A pointer array is
validated lane by lane and stays a list of the caller's per-problem
arrays until the layer stack is entered, where :func:`lane_stack` makes
it one array: a zero-copy view when its lanes already form one stack,
else one gather (written back when the call writes the operand).
Validation mirrors LAPACK argument checking: the 1-based argument
positions in raised :class:`~repro.errors.ArgumentError` match the
paper's C signatures.
Whether an operand list is one lane-major or interleaved stack is
decided here too (:func:`stack_layouts`), as is the launch rung of a
kernel's operand stacks (:func:`stack_rung`).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from ..band.layout import (
    INTERLEAVED,
    LANE_MAJOR,
    ldab_for_factor,
)
from ..errors import ArgumentError, check_arg
from ..gpusim.memory import PointerArray, _byte_span

__all__ = [
    "as_matrix_list",
    "as_rhs_list",
    "ensure_pivots",
    "lane_stack",
    "ensure_info",
    "check_gb_args",
    "check_disjoint",
    "stack_layouts",
    "stack_rung",
    "is_uniform_stack",
    "is_interleaved_stack",
    "stack_view",
    "convert_batch_layout",
    "vbatch_configs",
    "vbatch_matrices",
    "vbatch_pivots",
    "vbatch_rhs",
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


def stack_rung(*stacks) -> str | None:
    """The launch rung for a kernel's operand batches, each a ``(batch,
    ...)`` ndarray.

    ``'soa'`` when one batch is an interleaved stack (and not also a
    lane-major one) and every other is interleaved or has pairwise
    disjoint lanes; ``'direct'`` when every batch's lanes are pairwise
    disjoint (a lane-major stack, a chunk of one, a lane-step view such
    as ``buf[::2]``); ``None`` (per-block) when some batch's lanes
    overlap.  Judged from lane 0's byte span and each batch's lane
    step, never by walking lanes; the kernel body runs in place on
    every rung.
    """
    soa = False
    for stack in stacks:
        kinds, _ = _first_lanes(stack)
        if INTERLEAVED in kinds and LANE_MAJOR not in kinds:
            soa = True
            continue
        if len(stack) < 2:
            continue
        lo, hi = _byte_span(stack[0])
        if hi - lo > abs(stack.strides[0]):
            return None
    return "soa" if soa else "direct"


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


def convert_batch_layout(layout: str, operands, *, batch: int,
                         outputs=None, leases=None):
    """Working copies of batched operands in ``layout``, at the batch
    boundary.

    ``operands`` is a sequence of batched arguments, each a ``(batch,
    ...)`` stack or ``None`` (the layer stack holds every operand as one
    array, :func:`lane_stack`); ``layout`` is a canonical name from
    :func:`repro.band.layout.normalize_layout`.  Returns ``None`` when
    nothing needs converting (every operand is already in the requested
    layout), else ``(converted, writeback, nbytes)``: ``converted``
    mirrors ``operands`` with working copies in the target layout,
    ``writeback(lo, hi)`` copies lanes ``lo..hi-1`` of the results back
    into the caller's storage (every lane by default), and ``nbytes`` is
    the total traffic of the round-trip (in + out) for trace
    attribution.

    The working copies are left unfilled: the caller copies each lane
    range in (``work[lo:hi] = operand[lo:hi]`` for every operand that was
    converted) before the lanes are touched, in whichever process runs
    them (:class:`repro.core.stack.Staging`).

    ``outputs`` is an optional per-operand boolean mask: ``False`` marks
    a pure input (``gbtrs`` factors, for example) — it is staged into the
    working layout but never written back, so read-only inputs convert
    fine and the return copy is skipped (its traffic is counted one-way).

    The working copies live in buffers leased from ``leases`` (the
    layout layer passes the call's :class:`~repro.core.arena.Leases`);
    without leases, or past the arena's bound, they are private arrays.

    This is the *one conversion per batch* of the layout contract
    (docs/LAYOUTS.md): drivers call it once, before governance splits
    the batch into chunks, so every downstream stage runs natively.
    """
    if outputs is None:
        outputs = (True,) * len(operands)
    originals, converted, moved = [], [], 0
    for op, is_output in zip(operands, outputs):
        # Interleaved input already runs natively; lane-major (or
        # strided) input already runs the classic path.
        if op is None or batch == 0 or (INTERLEAVED in stack_layouts(op)) == (
                layout == INTERLEAVED):
            converted.append(op)
            continue
        work = _working_copy(layout, op, leases)
        if is_output:
            originals.append((op, work))
        converted.append(work)
        moved += (2 if is_output else 1) * int(work.nbytes)
    if not originals and moved == 0:
        return None

    def writeback(lo: int = 0, hi: int = batch) -> None:
        # A stack no taller than wide (the band factors) goes back one
        # band row at a time, the ``gbtrf_window._stream_in`` idiom: at
        # (1000, 25, 256) that is 24 against 55 ms per lane on a 2-core
        # host.  Tall stacks (right-hand sides) go back lane by lane; at
        # (1000, 256, 1) rows would be 2x slower.
        for mats, work in originals:
            if mats.shape[1] <= mats.shape[2]:
                for r in range(mats.shape[1]):
                    mats[lo:hi, r] = work[lo:hi, r]
            else:
                for m, w in zip(mats[lo:hi], work[lo:hi]):
                    m[...] = w

    return converted, writeback, moved


def _working_copy(layout: str, mats: np.ndarray, leases) -> np.ndarray:
    """An unfilled ``mats``-shaped stack in ``layout`` (the interleaved
    one is laid out as :func:`~repro.band.layout.to_interleaved` makes
    it), in a buffer leased from ``leases`` when the arena has room."""
    shape = mats.shape
    lane_last = layout == INTERLEAVED
    if lane_last:
        shape = shape[1:] + shape[:1]
    buf = leases.empty(shape, mats.dtype) if leases is not None else None
    if buf is None:
        buf = np.empty(shape, dtype=mats.dtype)
    return np.moveaxis(buf, -1, 0) if lane_last else buf


def _pointer_array(seq, batch: int, *, arg_pos: int, what: str,
                   written: bool, lane, shape_pos: int | None = None,
                   arrays: bool = False, uniform: bool = True) -> list:
    """The entries of pointer array ``seq``, validated as one stack's
    lanes.

    ``lane(k, x)`` checks entry ``k`` and returns it as a lane.  An
    operand the call only reads may hold any array-likes (each becomes an
    array, and entries may alias) unless ``arrays`` is set; the entries
    of one the call writes must be arrays, because the results go back
    into them.  Every lane has lane 0's shape (else the error is at
    ``shape_pos``, default ``arg_pos``) and dtype, as the paper's one
    ``ldab`` per call implies, and written lanes must not overlap
    (:func:`check_disjoint`) unless they are already lanes of one
    interleaved stack.  A non-uniform batch
    (``uniform=False``, the vbatch drivers) skips these cross-lane
    checks: its lanes differ by design, and each uniform group it runs is
    checked as one call.  The per-lane checks format
    no message unless they fail: a scattered batch of 1,000 lanes pays
    for them on every call.
    """
    lanes = list(seq)
    check_arg(len(lanes) == batch, arg_pos,
              f"pointer array has {len(lanes)} entries, expected {batch}")
    for k, x in enumerate(lanes):
        if not (written or arrays):
            x = np.asarray(x)
        if not isinstance(x, np.ndarray):
            raise ArgumentError(arg_pos, f"{what} {k} is a "
                                f"{type(x).__name__}, not an ndarray")
        x = lanes[k] = lane(k, x)
        if not uniform:
            continue
        if x.shape != lanes[0].shape:
            raise ArgumentError(shape_pos or arg_pos, (
                f"{what} {k} has shape {x.shape}, {what} 0 has "
                f"{lanes[0].shape}: one call takes one leading dimension"))
        if x.dtype != lanes[0].dtype:
            raise ArgumentError(arg_pos, f"{what} {k} has dtype {x.dtype}, "
                                f"{what} 0 has {lanes[0].dtype}")
    if written and uniform:
        check_disjoint(lanes, arg_pos=arg_pos, what=what)
    return lanes


def check_disjoint(lanes, *, arg_pos: int, what: str) -> None:
    """Lanes a call writes must not share memory, unless they are already
    lanes of one interleaved stack (whose elements never coincide)."""
    spans = sorted(_byte_span(x) for x in lanes)
    check_arg(all(lo2 >= hi1 for (_, hi1), (lo2, _) in zip(spans, spans[1:]))
              or bool(stack_layouts(lanes)), arg_pos,
              f"entries of the {what} pointer array share memory; the "
              "call writes them, so each needs its own storage")


@contextmanager
def lane_stack(operand, *, write_back: bool):
    """Yield ``operand`` (from :func:`as_matrix_list`,
    :func:`as_rhs_list` or :func:`ensure_pivots`) as one ``(batch, ...)``
    array.

    An array (or ``None``) is yielded as is.  A pointer array whose
    lanes already form one lane-major or interleaved stack is yielded as
    its zero-copy :func:`stack_view`.  Any other pointer array is
    gathered once into private memory; with ``write_back`` (an op that
    writes the operand) its rows are copied back into the caller's
    lanes, in lane order, when the block exits, normally or by an
    exception.
    """
    if operand is None or isinstance(operand, np.ndarray):
        yield operand
        return
    if stack_layouts(operand):
        yield stack_view(operand)
        return
    stack = np.stack(operand)
    try:
        yield stack
    finally:
        if write_back:
            for lane, row in zip(operand, stack):
                lane[...] = row


def as_matrix_list(a_array, batch: int, *, arg_pos: int, ldab_pos: int = 6,
                   written: bool = False):
    """Canonicalise a batched band-matrix argument.

    A 3-D ``(batch, ldab, n)`` stack is returned as is, checked by its
    shape; any other sequence (a pointer array) becomes a list of 2-D
    lanes of one shape (:func:`_pointer_array`; ``written`` when the call
    overwrites the matrices), and an empty one an empty stack.
    """
    if isinstance(a_array, np.ndarray):
        check_arg(a_array.ndim == 3, arg_pos,
                  f"expected a (batch, ldab, n) stack, got ndim={a_array.ndim}")
        check_arg(a_array.shape[0] == batch, arg_pos,
                  f"stack has batch {a_array.shape[0]}, expected {batch}")
        return a_array

    def lane(k, m):
        if m.ndim != 2:
            raise ArgumentError(arg_pos,
                                f"matrix {k} has ndim={m.ndim}, expected 2")
        return m

    mats = _pointer_array(a_array, batch, arg_pos=arg_pos, what="matrix",
                          written=written, lane=lane, shape_pos=ldab_pos)
    return mats if mats else np.empty((0, 0, 0))


def as_rhs_list(b_array, batch: int, n: int, nrhs: int, *, arg_pos: int,
                written: bool = False):
    """Canonicalise a batched RHS argument to ``(n, nrhs)`` lanes.

    A ``(batch, n, nrhs)`` stack is returned as is (a ``(batch, n)`` one
    as its ``(batch, n, 1)`` view when ``nrhs == 1``), checked by its
    shape; any other sequence becomes a list of ``(n, nrhs)`` lanes
    (:func:`_pointer_array`; ``written`` when the call overwrites them),
    with 1-D per-problem arrays accepted and viewed as ``(n, 1)`` for
    ``nrhs == 1``, and an empty one an empty stack.
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

    def lane(k, b):
        if b.ndim == 1 and nrhs == 1:
            b = b[:, None]
        if b.shape != (n, nrhs):
            raise ArgumentError(arg_pos, f"RHS {k} has shape {b.shape}, "
                                f"expected {(n, nrhs)}")
        return b

    rhs = _pointer_array(b_array, batch, arg_pos=arg_pos, what="RHS",
                         written=written, lane=lane)
    return rhs if rhs else np.empty((0, n, nrhs))


def ensure_pivots(pv_array, batch: int, mn: int, *, arg_pos: int,
                  zero: bool = False):
    """Canonicalise/allocate the pivots as one ``(batch, mn)`` array.

    ``None`` allocates one int64 array; a caller's 2-D integer stack is
    returned as is, checked by its shape and dtype.  A pointer array
    (a sequence of per-problem integer vectors, each an ndarray) becomes
    a list of the caller's vectors, each checked (:func:`_pointer_array`);
    :func:`lane_stack` makes it one array where the layer stack is
    entered.  ``zero=True`` is for routines that *produce* pivots
    (``gbtrf``, ``gbsv``): the caller-supplied storage is zeroed as soon
    as it validates, upholding the error-path guarantee documented on
    :func:`ensure_info`.  Routines that *consume* pivots (``gbtrs``,
    ``gbrfs``, ``gbcon``) leave it False.
    """
    if pv_array is None:
        return np.zeros((batch, mn), dtype=np.int64)
    if isinstance(pv_array, np.ndarray):
        check_arg(pv_array.ndim == 2 and pv_array.shape == (batch, mn), arg_pos,
                  f"pivot stack has shape {pv_array.shape}, "
                  f"expected {(batch, mn)}")
        check_arg(np.issubdtype(pv_array.dtype, np.integer), arg_pos,
                  f"pivot array must be integer, got {pv_array.dtype}")
        if zero:
            pv_array[...] = 0
        return pv_array

    def lane(k, p):
        if p.shape != (mn,) or p.dtype.kind not in "iu":
            raise ArgumentError(arg_pos, (
                f"pivot vector {k} has shape {p.shape} and dtype {p.dtype}, "
                f"expected {(mn,)} integer"))
        return p

    pivs = _pointer_array(pv_array, batch, arg_pos=arg_pos,
                          what="pivot vector", written=zero, lane=lane,
                          arrays=True)
    if zero:
        for p in pivs:
            p[...] = 0
    return pivs if pivs else np.zeros((0, mn), dtype=np.int64)


def ensure_info(info, batch: int, *, arg_pos: int) -> np.ndarray:
    """Canonicalise/allocate the per-problem ``info`` output array.

    The array is **zeroed here**, at canonicalisation time, before any
    numerical work starts.  This is the batched drivers' error-path
    guarantee: if a driver raises after its outputs validated — a rejected
    kernel launch, a shared-memory failure, an injected fault — the
    caller's ``info`` (and, via ``ensure_pivots(..., zero=True)``, output
    pivots) hold zeros, never stale values from a previous call.  Status
    codes and pivots written before the exception (e.g. by a completed
    factorization stage) are preserved, since they are meaningful
    results; :func:`lane_stack` copies a pointer array's gathered lanes
    back on the error path too.
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


def vbatch_configs(batch: int, named) -> list:
    """Validate the per-problem configuration lists of a vbatch call.

    ``named`` holds ``(name, seq)`` for argument positions 1, 2, ...;
    each ``seq`` must have ``batch`` non-negative entries.  Returns the
    lists as Python ints.
    """
    out = []
    for pos, (name, seq) in enumerate(named, 1):
        check_arg(len(seq) == batch, pos,
                  f"{name} has {len(seq)} entries, expected {batch}")
        vals = [int(v) for v in seq]
        check_arg(min(vals, default=0) >= 0, pos,
                  f"{name} must be non-negative, got {min(vals, default=0)}")
        out.append(vals)
    return out


def vbatch_matrices(a_array, ns, kls, kus, *, arg_pos: int) -> list:
    """The band matrices of a vbatch call, one ndarray per problem.

    Problem ``k``'s matrix is 2-D with at least ``2*kl + ku + 1`` rows
    and ``ns[k]`` columns.  The call writes the factors into it, so an
    entry that is not an ndarray (a nested list, say) is rejected rather
    than factored into a temporary copy.
    """
    def lane(k, a):
        need = ldab_for_factor(kls[k], kus[k])
        if a.ndim != 2 or a.shape[0] < need or a.shape[1] != ns[k]:
            raise ArgumentError(arg_pos, (
                f"matrix {k} has shape {a.shape}; needs at least "
                f"({need}, {ns[k]})"))
        return a

    return _pointer_array(a_array, len(ns), arg_pos=arg_pos, what="matrix",
                          written=True, lane=lane, uniform=False)


def vbatch_pivots(pv_array, mns, *, arg_pos: int) -> list:
    """The pivot vectors of a vbatch call: problem ``k``'s is an integer
    ndarray of length ``mns[k]``, allocated when ``pv_array`` is None."""
    if pv_array is None:
        return [np.zeros(mn, dtype=np.int64) for mn in mns]

    def lane(k, p):
        if p.shape != (mns[k],) or p.dtype.kind not in "iu":
            raise ArgumentError(arg_pos, (
                f"pivot vector {k} has shape {p.shape} and dtype {p.dtype}, "
                f"expected {(mns[k],)} integer"))
        return p

    return _pointer_array(pv_array, len(mns), arg_pos=arg_pos,
                          what="pivot vector", written=True, lane=lane,
                          uniform=False)


def vbatch_rhs(b_array, ns, nrhss, *, arg_pos: int) -> list:
    """The right-hand sides of a vbatch call as ``(n, nrhs)`` ndarrays
    (a 1-D entry is viewed as ``(n, 1)`` when its ``nrhs`` is 1).  The
    call writes the solutions into them, so each must be an ndarray."""
    def lane(k, b):
        if b.ndim == 1 and nrhss[k] == 1:
            b = b[:, None]
        if b.shape != (ns[k], nrhss[k]):
            raise ArgumentError(arg_pos, (
                f"RHS {k} has shape {b.shape}, expected "
                f"{(ns[k], nrhss[k])}"))
        return b

    return _pointer_array(b_array, len(ns), arg_pos=arg_pos, what="RHS",
                          written=True, lane=lane, uniform=False)


def check_gb_args(m: int, n: int, kl: int, ku: int, mats, *, batch: int,
                  ldab_pos: int = 6, dims_pos=(1, 2, 3, 4)) -> None:
    """Validate dimensions against the batch's one lane shape.

    ``mats`` comes from :func:`as_matrix_list`, whose lanes share one
    shape, so lane 0's stands for all.  Positions follow the paper's
    ``dgbtrf_batch`` signature: ``(m, n, kl, ku, A_array, ldab, ...)``;
    a square driver passes its own positions of ``(m, n, kl, ku)`` as
    ``dims_pos`` (``gbsv_batch``: ``(1, 1, 2, 3)``).
    """
    m_pos, n_pos, kl_pos, ku_pos = dims_pos
    check_arg(m >= 0, m_pos, f"m must be non-negative, got {m}")
    check_arg(n >= 0, n_pos, f"n must be non-negative, got {n}")
    check_arg(kl >= 0, kl_pos, f"kl must be non-negative, got {kl}")
    check_arg(ku >= 0, ku_pos, f"ku must be non-negative, got {ku}")
    check_arg(batch >= 0, 12, f"batch must be non-negative, got {batch}")
    need = ldab_for_factor(kl, ku)
    if batch and (mats[0].shape[0] < need or mats[0].shape[1] != n):
        raise ArgumentError(
            ldab_pos,
            f"matrix shape {mats[0].shape}; needs at least "
            f"({need}, {n}) for kl={kl}, ku={ku}")
