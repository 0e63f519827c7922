"""Column-wise band LU building blocks (paper Section 5.1).

These are the memory-bound primitives of the reference design's pseudocode::

    kv = kl + ku;  ju = 0;
    for(j = 0; j < min(m, n); j++) {
        km    = 1 + min( kl, m-j-1 );
        pivot = IAMAX( km, A(kv, j) );
        ju    = GET_UPDATE_BOUND(kl, ku, j, pivot, ju);
        SET_FILLIN(m, n, kl, ku, A, j, ju);
        SWAP(m, n, kl, ku, A(kv, j), j, ju, pivot);   // right only
        SCAL( km-1, A(kv+1, j), 1/A(kv, j) );
        RANK_ONE_UPDATE(m, n, kl, ku, A(kv, j), ju );
    }

The band array is factor layout: dense entry ``(r, c)`` lives at
``ab[kv + r - c, c]``.  All indices 0-based.  The pivot sequence and
``info`` match LAPACK's ``DGBTF2`` (ties in the pivot search resolve to the
first maximal entry, as in ``IDAMAX``); the factors agree with a compiled
LAPACK to rounding, not bit for bit (see :mod:`repro.cpu.lapack_like`).

The per-problem blocks work on a whole matrix.  Through :func:`gbtf2`
they are the scalar reference every design is tested against, the
single-matrix driver and the one-lane path of the fully fused kernel
(paper Section 5.2, :mod:`repro.core.gbtrf_fused`).

**Batch-interleaved variants.**  Each building block also has a
``*_batched`` form operating on a ``(batch, ldab, ncols)`` stack that
advances *every* matrix of a uniform batch through the same column step in
one numpy instruction stream — the Python analogue of the paper's
one-thread-block-per-matrix parallelism (and of the interleaved batch
layout of Gloster et al., arXiv:1909.04539).  Per-problem control-flow
divergence (pivot offsets, the ``ju`` update bound, singular columns) is
handled with per-batch index vectors and masks; every element of every
matrix receives the identical floating-point operation sequence the scalar
blocks would apply, so the results are **bit-for-bit identical** to running
:func:`gbtf2` per problem.  They also take a *column offset* ``col0``
(dense column ``c`` at stack column ``c - col0``), so the same step runs
on a whole-matrix shared-memory tile (fused design, paper Section 5.2) or
on a sliding window holding only columns ``[c0, c0 + nb + kv + 1)``
(paper Section 5.3, :mod:`repro.core.gbtrf_window`).  The fork-join
reference design (paper Section 5.1, :mod:`repro.core.gbtrf_reference`)
runs them one launch per step on the caller's stack, and
:func:`gbtf2_batched` is the host net of the resilient dispatch.
"""

from __future__ import annotations

import numpy as np

from ..blas.level1 import iamax, stable_mul

__all__ = [
    "pivot_search",
    "update_bound",
    "init_fillin",
    "set_fillin",
    "swap_right",
    "scale_column",
    "rank_one_update",
    "gbtf2",
    "ColumnWork",
    "pivot_search_batched",
    "update_bound_batched",
    "init_fillin_batched",
    "set_fillin_batched",
    "swap_right_batched",
    "scale_column_batched",
    "rank_one_update_batched",
    "gbtf2_pivot_batched",
    "gbtf2_step_batched",
    "gbtf2_batched",
]


def init_fillin(ab: np.ndarray, n: int, kl: int, ku: int) -> None:
    """Zero the fill-in rows of the *initial* columns ``ku+1 .. kv-1``.

    Columns ``>= kv`` have their fill-in cleared lazily by
    :func:`set_fillin` as the factorization reaches them, but the early
    columns can be read by rank-1 updates before any ``set_fillin`` touches
    them, so LAPACK's ``DGBTF2`` clears them up front.
    """
    kv = kl + ku
    for c in range(ku + 1, min(kv, n)):
        ab[kv - c:kl, c] = 0


def pivot_search(ab: np.ndarray, m: int, kl: int, ku: int, j: int) -> int:
    """IAMAX over column ``j``'s diagonal + sub-diagonal entries.

    Returns the pivot offset ``jp`` in ``[0, km]`` where ``km = min(kl,
    m-j-1)``; the pivot row in dense coordinates is ``j + jp``.
    """
    kv = kl + ku
    km = min(kl, m - j - 1)
    return iamax(ab[kv:kv + km + 1, j])


def update_bound(n: int, kl: int, ku: int, j: int, jp: int, ju: int) -> int:
    """GET_UPDATE_BOUND: extend the last-affected-column bound ``ju``.

    With the pivot ``jp`` rows below the diagonal, row ``j + jp`` of ``U``
    reaches out to column ``j + ku + jp``, so
    ``ju = max(ju, min(j + ku + jp, n - 1))`` (paper Section 5.3).
    """
    return max(ju, min(j + ku + jp, n - 1))


def set_fillin(ab: np.ndarray, n: int, kl: int, ku: int, j: int) -> None:
    """SET_FILLIN: zero-initialise the fill-in rows of column ``j + kv``.

    Column ``j + kv`` enters the active part of the factorization at step
    ``j``; its top ``kl`` storage rows (the ``+`` entries of Figure 2) must
    be cleared before any update may scatter fill-in into them.
    """
    kv = kl + ku
    c = j + kv
    if c < n and kl > 0:
        ab[0:kl, c] = 0


def swap_right(ab: np.ndarray, kl: int, ku: int, j: int, jp: int,
               ju: int) -> None:
    """SWAP: exchange dense rows ``j`` and ``j + jp`` over columns ``[j, ju]``.

    Unlike a fully dense factorization, the swap only touches the trailing
    submatrix ("swap to the right only") because ``L`` is kept in unswapped
    form within its ``kl`` storage rows.
    """
    if jp == 0:
        return
    kv = kl + ku
    cols = np.arange(j, ju + 1)
    r1 = kv + j - cols          # band rows of dense row j
    r2 = r1 + jp                # band rows of dense row j + jp
    tmp = ab[r1, cols].copy()
    ab[r1, cols] = ab[r2, cols]
    ab[r2, cols] = tmp


def scale_column(ab: np.ndarray, m: int, kl: int, ku: int, j: int) -> None:
    """SCAL: divide the sub-diagonal of column ``j`` by the pivot.

    Must run *after* :func:`swap_right` so the pivot sits on the diagonal.
    The caller guarantees the pivot is nonzero (a zero pivot skips both the
    scale and the update, per LAPACK).
    """
    kv = kl + ku
    km = min(kl, m - j - 1)
    if km > 0:
        col = ab[kv + 1:kv + km + 1, j]
        # A signaling-NaN or subnormal pivot raises no IEEE flag either.
        with np.errstate(invalid="ignore", over="ignore"):
            inv = 1.0 / ab[kv, j]
            col[...] = (stable_mul(col, inv) if np.iscomplexobj(col)
                        else col * inv)


def rank_one_update(ab: np.ndarray, m: int, kl: int, ku: int, j: int,
                    ju: int) -> None:
    """RANK_ONE_UPDATE: ``A[j+1:j+km+1, j+1:ju+1] -= l_j * u_j`` in band form.

    Only the columns up to ``ju`` are touched — the band factorization's
    update window, which is what makes the sliding-window design possible.
    """
    kv = kl + ku
    km = min(kl, m - j - 1)
    if km <= 0 or ju <= j:
        return
    cols = np.arange(j + 1, ju + 1)
    u = ab[kv + j - cols, cols]                   # row j of U, columns j+1..ju
    l = ab[kv + 1:kv + km + 1, j]                 # multipliers of column j
    rows = np.arange(j + 1, j + km + 1)
    band_rows = kv + rows[:, None] - cols[None, :]
    # Non-finite entries evaluate inf - inf and inf * 0 here (and may
    # overflow); LAPACK raises no IEEE flags for them, so neither do we.
    with np.errstate(invalid="ignore", over="ignore"):
        prod = (stable_mul(l[:, None], u[None, :]) if np.iscomplexobj(ab)
                else l[:, None] * u[None, :])
        ab[band_rows, cols[None, :]] -= prod


def gbtf2(m: int, n: int, kl: int, ku: int, ab: np.ndarray,
          ipiv: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Unblocked band LU with partial pivoting on one matrix, in place.

    Parameters
    ----------
    ab:
        ``(ldab, n)`` band array in factor layout (``ldab >= 2*kl+ku+1``);
        overwritten with ``L`` (multipliers, unswapped, in the ``kl``
        sub-diagonal rows) and ``U`` (bandwidth ``kl+ku``).
    ipiv:
        Optional output pivot vector of length ``min(m, n)``; 0-based
        absolute row indices (``ipiv[j] == j`` means no swap at step ``j``).

    Returns
    -------
    (ipiv, info):
        ``info`` follows LAPACK: 0 on success, ``j+1`` (1-based) if
        ``U(j, j)`` is exactly zero.  The factorization still completes.
    """
    mn = min(m, n)
    if ipiv is None:
        ipiv = np.zeros(mn, dtype=np.int64)
    kv = kl + ku
    info = 0

    # Columns kv..n-1 have their fill-in rows cleared lazily by set_fillin
    # as the loop reaches them; the early columns ku+1..kv-1 must be cleared
    # up front because updates read them before any set_fillin would.
    init_fillin(ab, n, kl, ku)
    ju = -1
    for j in range(mn):
        set_fillin(ab, n, kl, ku, j)
        jp = pivot_search(ab, m, kl, ku, j)
        ipiv[j] = j + jp
        if ab[kv + jp, j] != 0:
            ju = update_bound(n, kl, ku, j, jp, ju)
            swap_right(ab, kl, ku, j, jp, ju)
            scale_column(ab, m, kl, ku, j)
            rank_one_update(ab, m, kl, ku, j, ju)
        elif info == 0:
            info = j + 1
    return ipiv, info


# --- Batch-interleaved variants ---------------------------------------------
#
# Same blocks, vectorized over the leading batch axis of a
# ``(batch, ldab, ncols)`` stack.  ``jp`` and ``ju`` become per-lane
# vectors, and the control data built from them is lane-last: masks and
# index planes are ``(cols, batch)``, so their inner loops run along the
# batch, which is contiguous in the batch-minor stacks the kernels factor.
# The swap and the rank-one update take this step's per-lane bound (the
# second result of :func:`update_bound_batched`): a lane whose pivot is
# exactly zero gets ``j - 1`` and so skips both, as in LAPACK.  No block
# uses a masked ufunc, and lanes or columns outside a lane's bound keep
# their exact bits.  The blocks run under their caller's ``np.errstate``
# (the kernel launcher's, or :func:`gbtf2_batched`'s): non-finite lanes
# raise no IEEE warnings, as in LAPACK, and no block pays for entering
# it on every column.


class ColumnWork:
    """Reused workspace of the batched column step on one stack.

    ``flat`` is a 1-D view of the stack's buffer starting at element
    ``[0, 0, 0]`` and ``strides`` are the stack's strides in elements.
    ``steps`` holds the column offsets ``0..kv`` as a ``(kv + 1, 1)``
    column, ``diag[t, k]`` the flat offset of ``abst[k, r - t, c + t]``
    from ``abst[0, r, c]`` (lane ``k``, ``t`` dense columns right along
    one dense row), and ``prod`` receives the rank-one products;
    ``prod_bits`` views them as unsigned integers, with a trailing axis
    of an element's halves (two ``uint64`` for complex128, else one).
    ``cplx`` is the complex case.  Built once per factorization, so the
    column blocks allocate no index planes and no product buffers, and
    dispatch on the dtype once.
    """

    def __init__(self, abst: np.ndarray, kl: int, ku: int):
        isz = abst.itemsize
        if any(s < 0 or s % isz for s in abst.strides):
            raise ValueError("batched gbtf2 needs non-negative strides "
                             "that are multiples of the item size")
        self.strides = sb, sr, sc = tuple(s // isz for s in abst.strides)
        span = 0
        if abst.size:
            span = 1 + sum((e - 1) * s
                           for e, s in zip(abst.shape, self.strides))
        self.flat = np.lib.stride_tricks.as_strided(
            abst, shape=(span,), strides=(isz,))
        self.cplx = abst.dtype.kind == "c"
        self.kv, self.batch = kl + ku, abst.shape[0]
        # Dense (r, c) lives at band row kv + r - c, so one dense column
        # right is ``sc - sr`` elements: a block of dense rows and
        # columns is a plain strided view, taken lane-last.
        self.dense_strides = (sr * isz, (sc - sr) * isz, sb * isz)
        self.steps = np.arange(self.kv + 1)[:, None]
        self.diag = self.steps * (sc - sr) + np.arange(self.batch) * sb
        # Laid out like the slab of a column-major stack: rows adjacent.
        buf = np.empty((self.kv, kl, self.batch), dtype=abst.dtype)
        self.prod = buf.transpose(1, 0, 2)
        ubits = np.dtype(f"u{min(isz, 8)}")
        self.prod_bits = buf.view(ubits).reshape(
            buf.shape + (isz // ubits.itemsize,)).transpose(1, 0, 2, 3)

    def corner(self, j: int, col0: int) -> int:
        """Flat offset of dense ``(j, j)`` of lane 0."""
        return self.kv * self.strides[1] + (j - col0) * self.strides[2]

    def dense(self, j: int, col0: int, rows: int, cols: int, *,
              bits: bool = False) -> np.ndarray:
        """Writable ``(rows, cols, batch)`` view of the dense block
        ``A[j:j+rows, j:j+cols]`` of every lane (stack column ``c -
        col0``); ``bits=True`` views its bits as ``prod_bits`` does."""
        dtype, tail = ((self.prod_bits.dtype, self.prod_bits.shape[3:])
                       if bits else (self.flat.dtype, ()))
        return np.ndarray((rows, cols, self.batch) + tail, dtype,
                          buffer=self.flat,
                          offset=self.corner(j, col0) * self.flat.itemsize,
                          strides=self.dense_strides + (8,) * len(tail))


def init_fillin_batched(abst: np.ndarray, n: int, kl: int, ku: int,
                        *, col0: int = 0, ncols: int | None = None) -> None:
    """Batched :func:`init_fillin` on a ``(batch, ldab, ncols)`` stack."""
    kv = kl + ku
    hi = min(kv, n)
    if ncols is not None:
        hi = min(hi, col0 + ncols)
    for c in range(max(ku + 1, col0), hi):
        abst[:, kv - c:kl, c - col0] = 0


def pivot_search_batched(abst: np.ndarray, m: int, kl: int, ku: int, j: int,
                         *, col0: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`pivot_search` over the lane-last pivot column.

    Returns ``(jp, active)``: the ``(batch,)`` pivot offsets (IAMAX
    semantics: ``|real| + |imag|``, first maximal entry) and whether each
    lane's pivot is nonzero.  The pivot is zero exactly when the largest
    magnitude is (and the offset then ``0``); a NaN magnitude selects a
    NaN pivot, which is nonzero.  Runs under its caller's ``np.errstate``
    (signaling-NaN entries).
    """
    kv = kl + ku
    km = min(kl, m - j - 1)
    x = abst[:, kv:kv + km + 1, j - col0].T
    mag = (np.abs(x.real) + np.abs(x.imag) if np.iscomplexobj(x)
           else np.abs(x))
    return mag.argmax(axis=0), mag.max(axis=0) != 0


def update_bound_batched(n: int, kl: int, ku: int, j: int, jp: np.ndarray,
                         ju: np.ndarray, active: np.ndarray | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`update_bound`.

    Returns ``(ju, bound)``: the carried bound (zero-pivot lanes keep
    theirs) and this step's per-lane bound for the swap and the update
    (``j - 1`` on zero-pivot lanes, so they skip both).  ``active=None``
    means every lane's pivot is nonzero.
    """
    new = np.maximum(ju, np.minimum(jp + (j + ku), n - 1))
    if active is None:
        return new, new
    return np.where(active, new, ju), np.where(active, new, j - 1)


def set_fillin_batched(abst: np.ndarray, n: int, kl: int, ku: int, j: int,
                       *, col0: int = 0) -> None:
    """Batched :func:`set_fillin` (the cleared column is batch-uniform)."""
    kv = kl + ku
    c = j + kv
    if c < n and kl > 0:
        abst[:, 0:kl, c - col0] = 0


def swap_right_batched(abst: np.ndarray, kl: int, ku: int, j: int,
                       jp: np.ndarray, ju: np.ndarray, *, col0: int = 0,
                       work: ColumnWork | None = None,
                       span: tuple | None = None) -> None:
    """Batched :func:`swap_right` with per-lane pivots and bounds.

    Lane ``k`` exchanges dense rows ``j`` and ``j + jp[k]`` over columns
    ``[j, ju[k]]`` (none when ``ju[k] < j``).  Row ``j`` is a band
    anti-diagonal, a strided view; row ``j + jp`` lies ``jp`` band rows
    below it, so one flat index plane addresses it, out to the step's
    widest bound on every lane (``span`` is ``(ju.min(), ju.max())``
    when the caller has it).  Past a lane's own bound both rows hold
    only fill-in, which SET_FILLIN zeroed at or before this step and no
    swap or update has reached since (earlier bounds are no wider): the
    exchange moves ``+0.0`` onto ``+0.0``, so no mask is needed.  A lane
    whose pivot is zero has ``jp == 0`` and swaps row ``j`` with itself.
    """
    hi = int(ju.max()) if span is None else span[1]
    if kl == 0 or hi < j:           # kl == 0: the pivot is the diagonal
        return
    if work is None:
        work = ColumnWork(abst, kl, ku)
    w = hi - j + 1
    row_j = work.dense(j, col0, 1, w)[0]
    row_p = work.diag[:w] + (work.corner(j, col0) + jp * work.strides[1])
    a_p = work.flat.take(row_p)
    work.flat[row_p] = row_j
    row_j[...] = a_p


def scale_column_batched(abst: np.ndarray, m: int, kl: int, ku: int, j: int,
                         *, col0: int = 0,
                         active: np.ndarray | None = None) -> None:
    """Batched :func:`scale_column`: broadcast multiply by the reciprocal.

    Matches the scalar block's ``*= 1.0 / pivot`` exactly: the reciprocal
    is formed per problem in the array dtype and multiplied in, which is
    the identical per-element operation sequence.  ``active=None`` means
    every lane scales.  Runs under its caller's ``np.errstate``.
    """
    kv = kl + ku
    km = min(kl, m - j - 1)
    if km <= 0:
        return
    col = abst[:, kv + 1:kv + km + 1, j - col0]
    piv = abst[:, kv, j - col0]
    if active is not None:
        piv = np.where(active, piv, piv.dtype.type(1))
    prod = stable_mul(col, (1.0 / piv)[:, None])
    col[...] = prod if active is None else np.where(active[:, None], prod, col)


def rank_one_update_batched(abst: np.ndarray, m: int, kl: int, ku: int,
                            j: int, ju: np.ndarray, *, col0: int = 0,
                            work: ColumnWork | None = None,
                            span: tuple | None = None) -> None:
    """Batched :func:`rank_one_update` with per-lane bounds.

    Lane ``k`` updates columns ``j+1 .. ju[k]`` (none when
    ``ju[k] <= j``); ``span`` is ``(ju.min(), ju.max())`` when the caller
    has it.  The products of every lane land in the workspace
    (``out=``).  A plain subtract covers the columns every lane updates;
    on the remaining tail columns each element takes its new or its old
    bits through an XOR/AND select on the workspace's unsigned views.
    Non-finite lanes evaluate ``inf - inf`` and ``inf * 0`` here (and
    may overflow); LAPACK raises no IEEE flags for them, and the block
    runs under its caller's ``np.errstate``.
    """
    km = min(kl, m - j - 1)
    lo, hi = (int(ju.min()), int(ju.max())) if span is None else span
    if km <= 0 or hi <= j:
        return
    if work is None:
        work = ColumnWork(abst, kl, ku)
    nc = hi - j
    nh = min(max(lo - j, 0), nc)
    # The slab A[j+1:j+km+1, j+1:hi+1], the multipliers A[j+1:j+km+1, j]
    # and U's row A[j, j+1:hi+1], as views of one dense block.
    block = work.dense(j, col0, km + 1, nc + 1)
    slab, l, u = block[1:, 1:], block[1:, :1], block[:1, 1:]
    prod = work.prod[:km, :nc]
    (stable_mul if work.cplx else np.multiply)(l, u, out=prod)
    if nh:
        head = slab[:, :nh]
        np.subtract(head, prod[:, :nh], out=head)
    if nh == nc:
        return
    np.subtract(slab[:, nh:], prod[:, nh:], out=prod[:, nh:])
    old = work.dense(j, col0, km + 1, nc + 1, bits=True)[1:, nh + 1:]
    new = work.prod_bits[:km, nh:nc]
    keep = np.subtract(0, (work.steps[nh + 1:nc + 1] <= ju - j)[..., None],
                       dtype=old.dtype)             # all ones: update
    np.bitwise_xor(new, old, out=new)
    np.bitwise_and(new, keep, out=new)
    np.bitwise_xor(old, new, out=old)


def gbtf2_pivot_batched(abst: np.ndarray, m: int, n: int, kl: int,
                        ku: int, j: int, ju: np.ndarray, ipiv: np.ndarray,
                        info: np.ndarray, *, col0: int = 0,
                        work: ColumnWork | None = None) -> tuple:
    """The column step up to its rank-one update, on every lane, in place.

    Runs SET_FILLIN, IAMAX, GET_UPDATE_BOUND, SWAP and SCAL for column
    ``j``, writes the pivot rows to ``ipiv[:, j]`` and ``j + 1`` to
    ``info`` of lanes whose first zero pivot this is.  ``ju`` is the
    carried per-lane update bound.  Returns ``(ju, bound, jp, span)``:
    the new carried bound, this step's bound for the rank-one update
    (``j - 1`` on a zero-pivot lane), the pivot offsets and ``(bound.min(),
    bound.max())``.  The reference design's pivot kernel runs it alone.
    """
    set_fillin_batched(abst, n, kl, ku, j, col0=col0)
    jp, active = pivot_search_batched(abst, m, kl, ku, j, col0=col0)
    ipiv[:, j] = jp + j
    lanes = None if active.all() else active
    ju, bound = update_bound_batched(n, kl, ku, j, jp, ju, lanes)
    span = int(bound.min()), int(bound.max())
    swap_right_batched(abst, kl, ku, j, jp, bound, col0=col0, work=work,
                       span=span)
    scale_column_batched(abst, m, kl, ku, j, col0=col0, active=lanes)
    if lanes is not None:
        info[(info == 0) & ~active] = j + 1
    return ju, bound, jp, span


def gbtf2_step_batched(abst: np.ndarray, m: int, n: int, kl: int, ku: int,
                       j: int, ju: np.ndarray, ipiv: np.ndarray,
                       info: np.ndarray, *, col0: int = 0,
                       work: ColumnWork | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """One column of the batched factorization, on every lane, in place:
    :func:`gbtf2_pivot_batched`, then RANK_ONE_UPDATE.  Returns ``(ju,
    jp)``: the new carried bound and the pivot offsets.
    """
    ju, bound, jp, span = gbtf2_pivot_batched(
        abst, m, n, kl, ku, j, ju, ipiv, info, col0=col0, work=work)
    rank_one_update_batched(abst, m, kl, ku, j, bound, col0=col0,
                            work=work, span=span)
    return ju, jp


def gbtf2_batched(m: int, n: int, kl: int, ku: int, abst: np.ndarray,
                  ipiv: np.ndarray | None = None,
                  info: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Unblocked band LU on a whole uniform batch, interleaved, in place.

    Parameters
    ----------
    abst:
        ``(batch, ldab, n)`` stack in factor layout; every matrix is
        overwritten with its factors exactly as :func:`gbtf2` would.
    ipiv:
        Optional ``(batch, min(m, n))`` integer output stack.
    info:
        Optional ``(batch,)`` integer output vector.

    Returns
    -------
    (ipiv, info):
        Bit-for-bit identical to looping :func:`gbtf2` over the batch.

    Enters the blocks' ``np.errstate`` once, for the whole factorization.
    """
    batch = abst.shape[0]
    mn = min(m, n)
    if ipiv is None:
        ipiv = np.zeros((batch, mn), dtype=np.int64)
    if info is None:
        info = np.zeros(batch, dtype=np.int64)
    else:
        info[...] = 0          # pure output, like LAPACK's INFO
    init_fillin_batched(abst, n, kl, ku)
    ju = np.full(batch, -1, dtype=np.int64)
    work = ColumnWork(abst, kl, ku)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(mn):
            ju, _ = gbtf2_step_batched(abst, m, n, kl, ku, j, ju, ipiv,
                                       info, work=work)
    return ipiv, info
