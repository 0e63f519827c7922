"""Column-wise triangular-solve building blocks (paper Section 6).

After ``gbtrf``, the lower factor ``L`` is *not* stored in its final form:
its multipliers sit in the ``kl`` sub-diagonal rows, un-permuted.  Rather
than reconstructing ``L`` (extra workspace and data movement), the solve
applies the pivots progressively to the right-hand side, pairing each row
interchange with the rank-1 update of that column — exactly the scheme the
paper describes: "for each column j in the lower factor, two GPU kernels
perform a pair of (row swap, rank-1 update) operations on the RHS matrix".

The upper factor has bandwidth ``kv = kl + ku`` after pivoting and is solved
with a column-wise backward substitution.

The per-problem functions operate in place on ``b`` with shape
``(n, nrhs)``, in LAPACK ``DGBTRS``'s column order; they make up
:func:`gbtrs_unblocked`, the scalar reference.  Their ``*_batched`` forms
run one step on every lane of a uniform batch, lane-last, with the same
bits, on a cached window of the RHS (via ``row0``); they make up
:func:`gbtrs_batched`, the whole solve on a batch.
"""

from __future__ import annotations

import numpy as np

from ..blas.level1 import stable_mul
from ..types import Trans

__all__ = [
    "forward_swap",
    "forward_update",
    "forward_step",
    "backward_step",
    "transU_step",
    "transL_step",
    "forward_swap_plane",
    "forward_swap_batched",
    "forward_update_batched",
    "backward_step_batched",
    "transU_step_batched",
    "transL_step_batched",
    "gbtrs_unblocked",
    "gbtrs_batched",
    "SOLVE_SCALAR_WORK",
    "SOLVE_STEP_WORK",
    "solve_cost",
    "is_narrow_solve",
    "solve_if_narrow",
    "gbtrs_lanes",
]


def _sub_mul(dst: np.ndarray, x, y) -> None:
    """``dst -= x * y`` in place, rounded as :func:`stable_mul` rounds.

    Non-finite lanes evaluate ``inf - inf`` (and may overflow) here;
    LAPACK raises no IEEE flags for them, so neither do we.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        if np.iscomplexobj(x) or np.iscomplexobj(y):
            dst -= stable_mul(x, y)
        else:
            dst -= x * y


def _sub_mul_lanes(dst: np.ndarray, x, y) -> None:
    """:func:`_sub_mul` for the batched steps: no ``np.errstate`` of its
    own (they run under their caller's), and the complex case read off
    ``dst``, which a complex product must land in."""
    dst -= stable_mul(x, y) if dst.dtype.kind == "c" else x * y


def forward_swap(b: np.ndarray, j: int, piv: int) -> None:
    """Row interchange ``b[j] <-> b[piv]`` (the pivot kernel of a column)."""
    if piv != j:
        tmp = b[j].copy()
        b[j] = b[piv]
        b[piv] = tmp


def forward_update(ab: np.ndarray, n: int, kl: int, ku: int, j: int,
                   b: np.ndarray) -> None:
    """Rank-1 update of the RHS with column ``j`` of the lower factor.

    ``b[j+1 : j+lm+1] -= L[j+1:j+lm+1, j] * b[j]`` with
    ``lm = min(kl, n-j-1)``.
    """
    kv = kl + ku
    lm = min(kl, n - j - 1)
    if lm > 0:
        _sub_mul(b[j + 1:j + lm + 1], ab[kv + 1:kv + lm + 1, j][:, None],
                 b[j][None, :])


def forward_step(ab: np.ndarray, n: int, kl: int, ku: int, j: int,
                 ipiv: np.ndarray, b: np.ndarray) -> None:
    """One forward-elimination column: (row swap, rank-1 update) pair."""
    forward_swap(b, j, int(ipiv[j]))
    forward_update(ab, n, kl, ku, j, b)


def backward_step(ab: np.ndarray, n: int, kl: int, ku: int, j: int,
                  b: np.ndarray) -> None:
    """One backward-substitution column against ``U`` (bandwidth ``kv``).

    ``b[j] /= U(j, j)`` then ``b[j-lm : j] -= U[j-lm:j, j] * b[j]`` with
    ``lm = min(kv, j)``.  Division by an exactly zero ``U(j, j)`` produces
    infinities, matching LAPACK ``DGBTRS`` (which does not guard either);
    callers wanting a guard check the factorization's ``info``.
    """
    kv = kl + ku
    # LAPACK DGBTRS does not guard this division; a zero U(j, j) must
    # propagate inf/NaN silently (the caller's guard is gbtrf's info).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b[j] = b[j] / ab[kv, j]
    lm = min(kv, j)
    if lm > 0:
        _sub_mul(b[j - lm:j], ab[kv - lm:kv, j][:, None], b[j][None, :])


def transU_step(ab: np.ndarray, n: int, kl: int, ku: int, j: int,
                b: np.ndarray, *, conj: bool = False) -> None:
    """One column of ``op(U) y = b``: ``op(U)`` is *lower* triangular with
    bandwidth ``kv``, so the sweep runs forward.

    ``b[j] -= sum_t op(U)[j, j-t] * b[j-t]`` for ``t = lm..1``
    (``lm = min(kv, j)``), then ``b[j] /= op(U)[j, j]``.  The sum is
    accumulated *sequentially, one term at a time* (ascending source row)
    rather than as a dot-product reduction: BLAS dot reductions are not
    shape-stable, so a batched formulation could not reproduce their bits.
    Term-at-a-time subtraction plus :func:`~repro.blas.level1.stable_mul`
    makes :func:`transU_step_batched` bit-identical by construction.
    """
    kv = kl + ku
    lm = min(kv, j)
    for t in range(lm, 0, -1):
        coeff = np.conj(ab[kv - t, j]) if conj else ab[kv - t, j]
        _sub_mul(b[j], coeff, b[j - t])
    pivot = np.conj(ab[kv, j]) if conj else ab[kv, j]
    # Unguarded like LAPACK: zero pivots propagate inf/NaN silently.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b[j] = b[j] / pivot


def transL_step(ab: np.ndarray, n: int, kl: int, ku: int, j: int,
                piv: int, b: np.ndarray, *, conj: bool = False) -> None:
    """One column of ``op(L) x = y``, pivots applied in reverse order.

    ``op(L)`` is unit *upper* triangular with bandwidth ``kl``; the sweep
    runs backward and each column's row interchange lands *after* its
    update — the reverse of forward elimination's (swap, update) pairs.
    The update is accumulated sequentially for the same shape-stability
    reason as :func:`transU_step`.
    """
    kv = kl + ku
    lm = min(kl, n - j - 1)
    for t in range(1, lm + 1):
        coeff = np.conj(ab[kv + t, j]) if conj else ab[kv + t, j]
        _sub_mul(b[j], coeff, b[j + t])
    forward_swap(b, j, piv)


# --- Lane-last batched steps ------------------------------------------------
#
# The same steps over a whole uniform batch, with the lane axis last: the
# RHS window ``rw`` is ``(rows, nrhs, batch)`` and each step reads one
# lane-last factor column, ``(rows, batch)``.  Every operand a step touches
# is then a run of adjacent lanes, the interleaved-batch layout of Gloster
# et al. (arXiv:1909.04539).  ``l`` is a column's ``kl`` multipliers (band
# rows ``kv+1 .. kv+kl``) and ``u`` its ``kv + 1`` rows of ``U`` (band rows
# ``0 .. kv``, the diagonal last).  The steps run under their caller's
# ``np.errstate`` (the kernel launcher's, or :func:`gbtrs_batched`'s):
# non-finite lanes raise no IEEE warnings, as in LAPACK.


def forward_swap_plane(rw: np.ndarray) -> np.ndarray:
    """The ``(nrhs, batch)`` offsets of one row's elements in the window
    ``rw``: the part of :func:`forward_swap_batched`'s index plane that
    every step shares, built once per body."""
    return np.arange(rw[0].size).reshape(rw.shape[1:])


def forward_swap_batched(rw: np.ndarray, j: int, piv: np.ndarray,
                         plane: np.ndarray, *, row0: int = 0) -> None:
    """Batched :func:`forward_swap` with a per-lane pivot-row vector.

    ``rw`` is a C-contiguous ``(rows, nrhs, batch)`` window; ``piv`` holds
    absolute pivot rows (``piv[k] == j`` means no swap for lane ``k``).
    The pivot rows are addressed through one flat index plane, as in
    :func:`~repro.core.gbtf2.swap_right_batched`, offset from the body's
    :func:`forward_swap_plane`; a no-swap lane's plane points back at row
    ``j`` and swaps it with itself, an exact bit copy.  A body that
    knows its pivots skips the steps where no lane swaps.
    """
    if not rw.flags.c_contiguous:
        raise ValueError("forward_swap_batched needs a C-contiguous window")
    jj = j - row0
    plane = (piv - row0) * plane.size + plane
    flat = rw.reshape(-1)
    row_p = flat.take(plane)
    flat[plane] = rw[jj]
    rw[jj] = row_p


def forward_update_batched(l: np.ndarray, n: int, j: int, rw: np.ndarray,
                           *, row0: int = 0) -> None:
    """Batched :func:`forward_update` with the lane-last multipliers ``l``."""
    lm = min(l.shape[0], n - j - 1)
    if lm > 0:
        jj = j - row0
        _sub_mul_lanes(rw[jj + 1:jj + lm + 1], l[:lm, None], rw[jj])


def backward_step_batched(u: np.ndarray, j: int, rw: np.ndarray,
                          *, row0: int = 0) -> None:
    """Batched :func:`backward_step` with the lane-last column ``u``."""
    kv = u.shape[0] - 1
    jj = j - row0
    # Unguarded like LAPACK: zero pivots propagate inf/NaN silently.
    np.divide(rw[jj], u[kv], out=rw[jj])
    lm = min(kv, j)
    if lm > 0:
        _sub_mul_lanes(rw[jj - lm:jj], u[kv - lm:kv, None], rw[jj])


def transU_step_batched(u: np.ndarray, j: int, rw: np.ndarray, *,
                        conj: bool = False, row0: int = 0) -> None:
    """Batched :func:`transU_step`: the identical term-at-a-time schedule
    on the lane-last column ``u``, bit-identical per lane."""
    kv = u.shape[0] - 1
    jj = j - row0
    if conj:
        u = np.conj(u)
    for t in range(min(kv, j), 0, -1):
        _sub_mul_lanes(rw[jj], u[kv - t], rw[jj - t])
    # Unguarded like LAPACK: zero pivots propagate inf/NaN silently.
    np.divide(rw[jj], u[kv], out=rw[jj])


def transL_update_batched(l: np.ndarray, n: int, j: int, rw: np.ndarray,
                          *, conj: bool = False, row0: int = 0) -> None:
    """The update half of :func:`transL_step_batched` (no pivot swap);
    ``rw`` may have any strides."""
    jj = j - row0
    if conj:
        l = np.conj(l)
    for t in range(1, min(l.shape[0], n - j - 1) + 1):
        _sub_mul_lanes(rw[jj], l[t - 1], rw[jj + t])


def transL_step_batched(l: np.ndarray, n: int, j: int, piv: np.ndarray,
                        rw: np.ndarray, plane: np.ndarray, *,
                        conj: bool = False, row0: int = 0) -> None:
    """Batched :func:`transL_step` on the lane-last multipliers ``l``;
    ``plane`` is the body's :func:`forward_swap_plane`."""
    transL_update_batched(l, n, j, rw, conj=conj, row0=row0)
    forward_swap_batched(rw, j, piv, plane, row0=row0)


def gbtrs_unblocked(trans: Trans | str, n: int, kl: int, ku: int,
                    ab: np.ndarray, ipiv: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """Unblocked band triangular solve on one matrix, in place on ``b``.

    Parameters
    ----------
    trans:
        ``'N'`` solves ``A x = b``; ``'T'``/``'C'`` solve ``A^T x = b`` /
        ``A^H x = b``.
    ab:
        Factor-layout output of :func:`repro.core.gbtf2.gbtf2`.
    ipiv:
        0-based absolute pivot rows from the factorization.
    b:
        ``(n, nrhs)`` right-hand sides, overwritten with the solution.
    """
    trans = Trans.from_any(trans)
    if trans is Trans.NO_TRANS:
        if kl > 0:
            for j in range(n - 1):
                forward_step(ab, n, kl, ku, j, ipiv, b)
        for j in range(n - 1, -1, -1):
            backward_step(ab, n, kl, ku, j, b)
        return b

    conj = trans is Trans.CONJ_TRANS and np.iscomplexobj(ab)
    # Solve op(U) y = b: op(U) is lower triangular with bandwidth kv.
    for j in range(n):
        transU_step(ab, n, kl, ku, j, b, conj=conj)
    # Solve op(L) x = y, applying the pivots in reverse order.
    if kl > 0:
        for j in range(n - 2, -1, -1):
            transL_step(ab, n, kl, ku, j, int(ipiv[j]), b, conj=conj)
    return b


def gbtrs_batched(trans: Trans | str, n: int, kl: int, ku: int,
                  mats: np.ndarray, pivots: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """:func:`gbtrs_unblocked` on a whole uniform batch, in place on ``rhs``.

    ``mats`` is the ``(batch, ldab, n)`` factor stack, ``pivots`` the
    ``(batch, n)`` pivot rows and ``rhs`` the ``(batch, n, nrhs)`` stack.
    The right-hand sides are solved in a C-contiguous lane-last copy
    (``(n, nrhs, batch)``; a view when ``rhs`` already is one) and the
    factor columns are read lane-last from ``mats``.  Each lane's bits
    equal :func:`gbtrs_unblocked` on it.  Enters the steps'
    ``np.errstate`` once, for the whole solve.
    """
    trans = Trans.from_any(trans)
    kv = kl + ku
    abl, piv = mats.transpose(1, 2, 0), pivots.T
    rw = np.ascontiguousarray(rhs.transpose(1, 2, 0))
    plane = forward_swap_plane(rw)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if trans is Trans.NO_TRANS:
            if kl > 0:
                swaps = (piv != np.arange(n)[:, None]).any(axis=1)
                for j in range(n - 1):
                    if swaps[j]:
                        forward_swap_batched(rw, j, piv[j], plane)
                    forward_update_batched(abl[kv + 1:kv + kl + 1, j], n, j,
                                           rw)
            for j in range(n - 1, -1, -1):
                backward_step_batched(abl[:kv + 1, j], j, rw)
        else:
            conj = trans is Trans.CONJ_TRANS and np.iscomplexobj(mats)
            for j in range(n):
                transU_step_batched(abl[:kv + 1, j], j, rw, conj=conj)
            if kl > 0:
                for j in range(n - 2, -1, -1):
                    transL_step_batched(abl[kv + 1:kv + kl + 1, j], n, j,
                                        piv[j], rw, plane, conj=conj)
    rhs[...] = rw.transpose(2, 0, 1)
    return rhs


# --- Scalar lanes -------------------------------------------------------------
#
# The ``'N'`` solve of a narrow body, one lane at a time on Python
# floats (see the scalar lanes of :mod:`repro.core.gbtf2`): each
# operand comes in with one ``tolist()`` and the right-hand sides go
# back with one write.  The steps apply :func:`forward_step` and
# :func:`backward_step`'s operations in their order, so the bits are
# :func:`gbtrs_unblocked`'s.


#: The solve's counterparts of :data:`repro.core.gbtf2.FACTOR_STEP_WORK`
#: and ``FACTOR_SCALAR_WORK``: the scalar engine runs one right-hand
#: side of one lane at a time, so a solve column costs it ``nrhs * (kl +
#: ku + 1 + SOLVE_STEP_WORK)`` (the multiply-subtracts plus the swap,
#: division and loop), and the numpy steps' fixed cost per column is
#: lower than the factorization's.  Fitted to the crossovers in
#: docs/PERFORMANCE.md ("Narrow launches").
SOLVE_STEP_WORK = 15
SOLVE_SCALAR_WORK = 160


def solve_cost(kl: int, ku: int, nrhs: int) -> int:
    """The scalar engine's cost of one ``'N'`` solve column on one lane,
    in multiply-subtracts."""
    return nrhs * (kl + ku + 1 + SOLVE_STEP_WORK)


def is_narrow_solve(kl: int, ku: int, mats: np.ndarray,
                    rhs: np.ndarray) -> bool:
    """Whether an ``'N'`` solve body over the ``(batch, ldab, n)``
    factors ``mats`` and the ``(batch, n, nrhs)`` right-hand sides
    ``rhs`` runs the scalar engine: both native float64 and ``batch *``
    :func:`solve_cost` at most :data:`SOLVE_SCALAR_WORK`."""
    return (len(rhs) * solve_cost(kl, ku, rhs.shape[-1])
            <= SOLVE_SCALAR_WORK and mats.dtype == np.float64
            and rhs.dtype == np.float64)


def solve_if_narrow(n: int, kl: int, ku: int, mats: np.ndarray,
                    pivots: np.ndarray | None, rhs: np.ndarray, *,
                    forward: bool = True, backward: bool = True) -> bool:
    """Run the ``'N'`` solve halves of a narrow body with
    :func:`gbtrs_lanes` and return ``True``; return ``False``, touching
    nothing, when the body is wide enough for the numpy steps
    (:func:`is_narrow_solve`)."""
    if not is_narrow_solve(kl, ku, mats, rhs):
        return False
    gbtrs_lanes(n, kl, ku, mats, pivots, rhs, forward=forward,
                backward=backward)
    return True


def _forward_lane(n: int, kl: int, l: list, piv: list, x: list) -> None:
    """The forward steps on one right-hand side ``x`` of one lane:
    ``l[j * kl + t]`` is multiplier ``t`` of column ``j``."""
    for j in range(n - 1):
        p = piv[j]
        if p != j:
            x[j], x[p] = x[p], x[j]
        y = x[j]
        i = j
        for li in l[j * kl:j * kl + (kl if kl < n - j - 1 else n - j - 1)]:
            i += 1
            x[i] -= li * y


def _backward_lane(n: int, kv: int, u: list, x: list) -> None:
    """The backward steps on one right-hand side ``x`` of one lane:
    ``u[j * (kv + 1) + t]`` is band row ``t`` of column ``j`` (the
    diagonal at ``t == kv``)."""
    for j in range(n - 1, -1, -1):
        c = j * (kv + 1) + kv
        dj = u[c]
        if dj == 0:
            # Unguarded like LAPACK: numpy's division gives the signed
            # infinities and default NaN where Python's would raise.
            with np.errstate(divide="ignore", invalid="ignore"):
                y = x[j] = float(np.float64(x[j]) / dj)
        else:
            y = x[j] = x[j] / dj
        i = j - (kv if kv < j else j)
        for ut in u[c - j + i:c]:
            x[i] -= ut * y
            i += 1


def gbtrs_lanes(n: int, kl: int, ku: int, mats: np.ndarray,
                pivots: np.ndarray | None, rhs: np.ndarray, *,
                forward: bool = True, backward: bool = True) -> np.ndarray:
    """The ``'N'`` :func:`gbtrs_unblocked` on each lane of a float64
    batch, in place on ``rhs``, on Python floats.

    ``mats`` is the ``(batch, ldab, n)`` factor stack, ``pivots`` the
    ``(batch, n)`` pivot rows (unused without ``forward``) and ``rhs``
    the ``(batch, n, nrhs)`` stack, any strides.  ``forward`` and
    ``backward`` pick the halves (the blocked kernels run one each).
    """
    batch, _, nrhs = rhs.shape
    kv = kl + ku
    cols = rhs.transpose(0, 2, 1)
    xs = cols.reshape(batch * nrhs, n).tolist()
    if forward and kl:
        ls = mats[:, kv + 1:kv + kl + 1].transpose(0, 2, 1).reshape(
            batch, n * kl).tolist()
        ps = pivots.tolist()
        for k, x in enumerate(xs):
            _forward_lane(n, kl, ls[k // nrhs], ps[k // nrhs], x)
    if backward:
        us = mats[:, :kv + 1].transpose(0, 2, 1).reshape(
            batch, n * (kv + 1)).tolist()
        for k, x in enumerate(xs):
            _backward_lane(n, kv, us[k // nrhs], x)
    cols[...] = np.reshape(xs, cols.shape)
    return rhs
