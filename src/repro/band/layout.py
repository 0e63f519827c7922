"""LAPACK band (GB) storage layout (paper Section 3, Figure 2).

A band matrix with ``kl`` sub-diagonals and ``ku`` super-diagonals is stored
with every diagonal occupying a *row* of the band array ``AB``:

    ``AB[kl + ku + i - j, j] == A[i, j]``   for ``max(0, j-ku) <= i <= min(m-1, j+kl)``

The factorization routines additionally require ``kl`` spare rows at the top
of ``AB`` (the ``+`` entries in the paper's Figure 2) to hold the fill-in
created by partial pivoting: after ``gbtrf`` the upper factor ``U`` has an
effective bandwidth of ``kv = kl + ku``.  Hence the leading dimension must
satisfy ``ldab >= 2*kl + ku + 1``.

Entries of ``AB`` outside the band (the ``*`` entries of Figure 2) are never
referenced.

All indices in this module are 0-based, matching numpy; docstrings call out
the few spots where LAPACK's 1-based conventions differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import check_arg

__all__ = [
    "BandLayout",
    "INTERLEAVED",
    "LANE_MAJOR",
    "ldab_for_factor",
    "ldab_for_storage",
    "diag_row",
    "band_index",
    "in_band",
    "col_rows",
    "alloc_band",
    "alloc_band_interleaved",
    "normalize_layout",
    "is_interleaved",
    "is_column_interleaved",
    "to_interleaved",
    "to_lane_major",
    "copy_lanes",
]


def ldab_for_storage(kl: int, ku: int) -> int:
    """Minimum leading dimension for storage-only band layout: ``kl+ku+1``."""
    return kl + ku + 1


def ldab_for_factor(kl: int, ku: int) -> int:
    """Minimum leading dimension for a factorizable band array: ``2*kl+ku+1``.

    The extra ``kl`` rows hold fill-in from partial pivoting.
    """
    return 2 * kl + ku + 1


def diag_row(kl: int, ku: int) -> int:
    """Row of ``AB`` holding the main diagonal in factor layout: ``kl+ku``."""
    return kl + ku


def band_index(kl: int, ku: int, i: int, j: int) -> tuple[int, int]:
    """Map a dense index ``(i, j)`` to its ``(row, col)`` in factor layout.

    The caller is responsible for ``(i, j)`` being inside the (possibly
    filled-in) band, i.e. ``j - (kl+ku) <= i <= j + kl``.
    """
    return kl + ku + i - j, j


def in_band(kl: int, ku: int, i: int, j: int) -> bool:
    """True if dense entry ``(i, j)`` lies inside the *original* band."""
    return -ku <= i - j <= kl


def col_rows(m: int, kl: int, ku: int, j: int) -> tuple[int, int]:
    """Dense-row range ``[lo, hi)`` of original-band entries in column ``j``."""
    return max(0, j - ku), min(m, j + kl + 1)


def alloc_band(n: int, kl: int, ku: int, dtype=np.float64, *,
               batch: int | None = None, ldab: int | None = None) -> np.ndarray:
    """Allocate a zeroed band array in factor layout.

    Returns shape ``(ldab, n)`` or ``(batch, ldab, n)`` when ``batch`` is
    given.  ``ldab`` defaults to the minimum factor layout,
    ``2*kl + ku + 1``.
    """
    check_arg(n >= 0, 1, f"n must be non-negative, got {n}")
    check_arg(kl >= 0, 2, f"kl must be non-negative, got {kl}")
    check_arg(ku >= 0, 3, f"ku must be non-negative, got {ku}")
    if ldab is None:
        ldab = ldab_for_factor(kl, ku)
    check_arg(ldab >= ldab_for_factor(kl, ku), 6,
              f"ldab={ldab} < 2*kl+ku+1={ldab_for_factor(kl, ku)}")
    shape = (ldab, n) if batch is None else (batch, ldab, n)
    return np.zeros(shape, dtype=dtype)


# --- batch storage layouts -------------------------------------------------
#
# A *batch* of band matrices can be stored two ways (docs/LAYOUTS.md):
#
# * **lane-major** (array-of-structures): the classic ``(batch, ldab, n)``
#   C-contiguous stack — each matrix occupies one contiguous slab, the
#   lane index has the *largest* stride.
# * **interleaved** (structure-of-arrays): the lane index is the
#   *fastest-varying* axis — element ``(i, j)`` of every matrix in the
#   batch sits contiguously, which is the coalesced-access layout of
#   "Efficient Interleaved Batch Matrix Solvers for CUDA" (PAPERS.md).
#   Each lane is column-major: physically the buffer is a C-contiguous
#   ``(n, ldab, batch)`` array, the Fortran order of the logical
#   ``(batch, ldab, n)`` stack, so one column's band rows are adjacent
#   runs of lanes and a batched column step reads one compact slab.
#   Logically it is always handled as the ``(batch, ldab, n)`` transposed
#   view, so every consumer keeps the one indexing convention.

LANE_MAJOR = "lane-major"
INTERLEAVED = "interleaved"

#: Lanes per tile of a :func:`copy_lanes` band-row copy.
LANE_BLOCK = 64

_LAYOUT_ALIASES = {
    "lane-major": LANE_MAJOR, "aos": LANE_MAJOR,
    "interleaved": INTERLEAVED, "soa": INTERLEAVED,
}


def normalize_layout(layout: str | None) -> str | None:
    """Canonicalise a ``layout=`` knob value.

    ``None`` (auto: run each batch in the layout it arrives in) passes
    through; ``'lane-major'``/``'aos'`` and ``'interleaved'``/``'soa'``
    map to the two canonical names.  Anything else raises.
    """
    if layout is None:
        return None
    key = str(layout).lower()
    check_arg(key in _LAYOUT_ALIASES, 0,
              f"layout must be None, 'lane-major'/'aos' or "
              f"'interleaved'/'soa', got {layout!r}")
    return _LAYOUT_ALIASES[key]


def alloc_band_interleaved(n: int, kl: int, ku: int, batch: int,
                           dtype=np.float64, *,
                           ldab: int | None = None) -> np.ndarray:
    """Allocate a zeroed batch-interleaved band stack in factor layout.

    Returns the canonical *logical* view: shape ``(batch, ldab, n)`` with
    the lane index fastest-varying in memory and each lane column-major
    (the underlying buffer is a C-contiguous ``(n, ldab, batch)`` array,
    see :func:`is_column_interleaved`).  Drop-in compatible with
    :func:`alloc_band`'s ``batch=`` form — same indexing, different
    element order.
    """
    check_arg(batch >= 0, 5, f"batch must be non-negative, got {batch}")
    buf = alloc_band(n, kl, ku, dtype, batch=batch, ldab=ldab)
    return np.zeros(buf.shape, dtype=dtype, order="F")


def is_interleaved(stack: np.ndarray) -> bool:
    """True when a 3-D logical ``(batch, ...)`` stack is lane-fastest.

    The canonical interleaved form keeps adjacent lanes one element
    apart: the batch-axis stride equals the itemsize.  Lane-axis slices
    (``stack[a:b]``) of an interleaved stack stay interleaved.
    """
    return (isinstance(stack, np.ndarray) and stack.ndim == 3
            and stack.size > 0
            and stack.strides[0] == stack.itemsize)


def is_column_interleaved(stack: np.ndarray) -> bool:
    """True when a 3-D ``(batch, rows, cols)`` stack is interleaved with
    each lane column-major: lanes fastest, then the rows of one column.

    That is the storage :func:`alloc_band_interleaved` and
    :func:`to_interleaved` make, and any lane range or leading-row slice
    of it; the kernels run their column steps on it in place.  A legacy
    row-major interleaved ``(rows, cols, batch)`` buffer is interleaved
    but not column-interleaved.
    """
    return (is_interleaved(stack)
            and stack.strides[1] <= stack.strides[2])


def to_interleaved(stack: np.ndarray) -> np.ndarray:
    """Copy a logical ``(batch, ...)`` stack into interleaved form.

    The returned array compares equal element-wise (``np.array_equal``)
    and indexes identically; only the memory order changes: it is the
    Fortran order of the logical stack (the lane axis fastest-varying,
    each lane column-major).  Already interleaved input is still copied
    (fresh storage).
    """
    stack = np.asarray(stack)
    check_arg(stack.ndim >= 2, 1,
              f"expected a (batch, ...) stack, got ndim={stack.ndim}")
    out = np.empty(stack.shape, dtype=stack.dtype, order="F")
    copy_lanes(out, stack, 0, len(stack))
    return out


def copy_lanes(dst: np.ndarray, src: np.ndarray, lo: int, hi: int) -> None:
    """``dst[lo:hi] = src[lo:hi]`` between a lane-major and an interleaved
    stack.

    A stack no taller than wide (the band factors) is copied one band
    row at a time, in blocks of :data:`LANE_BLOCK` lanes: numpy moves
    such a 2-D transposed tile faster than the whole 3-D transpose, and
    a tile of 64 lanes by 256 columns stays in cache (at (1000, 25, 256)
    on a 2-core host: into the column-interleaved storage 86 ms whole,
    35 ms per row, 20 ms per row and block; back 57, 19 and 20 ms).
    Tall stacks (right-hand sides) are copied whole.
    """
    if dst.ndim == 3 and dst.shape[1] <= dst.shape[2]:
        for r in range(dst.shape[1]):
            for k in range(lo, hi, LANE_BLOCK):
                end = min(k + LANE_BLOCK, hi)
                dst[k:end, r] = src[k:end, r]
    else:
        dst[lo:hi] = src[lo:hi]


def to_lane_major(stack: np.ndarray) -> np.ndarray:
    """Copy a logical ``(batch, ...)`` stack into lane-major form.

    Inverse of :func:`to_interleaved` up to memory order: the result is
    a C-contiguous array with identical elements.
    """
    stack = np.asarray(stack)
    check_arg(stack.ndim >= 2, 1,
              f"expected a (batch, ...) stack, got ndim={stack.ndim}")
    return np.ascontiguousarray(stack)


@dataclass(frozen=True)
class BandLayout:
    """Describes the band structure of an ``m x n`` matrix.

    Parameters
    ----------
    m, n:
        Dense dimensions.
    kl, ku:
        Number of sub- and super-diagonals (lower/upper bandwidth).

    The layout object centralises the index arithmetic shared by every kernel
    so that the factor/update windows of the sliding-window design (paper
    Section 5.3) can be reasoned about in one place.
    """

    m: int
    n: int
    kl: int
    ku: int

    def __post_init__(self):
        check_arg(self.m >= 0, 1, f"m must be non-negative, got {self.m}")
        check_arg(self.n >= 0, 2, f"n must be non-negative, got {self.n}")
        check_arg(self.kl >= 0, 3, f"kl must be non-negative, got {self.kl}")
        check_arg(self.ku >= 0, 4, f"ku must be non-negative, got {self.ku}")

    @property
    def kv(self) -> int:
        """Effective upper bandwidth after pivoting: ``kl + ku``."""
        return self.kl + self.ku

    @property
    def ldab_storage(self) -> int:
        return ldab_for_storage(self.kl, self.ku)

    @property
    def ldab_factor(self) -> int:
        return ldab_for_factor(self.kl, self.ku)

    @property
    def diag_row(self) -> int:
        """Row of the main diagonal in *factor* layout."""
        return diag_row(self.kl, self.ku)

    def index(self, i: int, j: int) -> tuple[int, int]:
        """Factor-layout coordinates of dense entry ``(i, j)``."""
        return band_index(self.kl, self.ku, i, j)

    def contains(self, i: int, j: int) -> bool:
        return (0 <= i < self.m and 0 <= j < self.n
                and in_band(self.kl, self.ku, i, j))

    def col_rows(self, j: int) -> tuple[int, int]:
        """Dense-row range ``[lo, hi)`` of original-band entries in column ``j``."""
        return col_rows(self.m, self.kl, self.ku, j)

    def nnz(self) -> int:
        """Number of entries inside the original band."""
        return sum(hi - lo for lo, hi in
                   (self.col_rows(j) for j in range(self.n)))

    def window_cols(self, nb: int) -> int:
        """Columns cached by the sliding-window kernel: ``nb + kv + 1``.

        ``nb`` columns form the factor window; up to ``kv + 1`` further
        columns can be touched by the rank-1 updates of those ``nb`` columns
        in the worst pivoting case (paper Section 5.3).
        """
        return nb + self.kv + 1

    def window_rows(self) -> int:
        """Rows cached per window column: ``kv + kl + 1`` (full factor layout)."""
        return self.kv + self.kl + 1

    def window_elems(self, nb: int) -> int:
        """Shared-memory elements needed by the sliding window for ``nb``."""
        return self.window_cols(nb) * self.window_rows()

    def fused_elems(self) -> int:
        """Shared-memory elements needed by the fully fused kernel.

        The fused design (paper Section 5.2) caches the whole factor-layout
        band array: ``(2*kl + ku + 1) x n``.
        """
        return self.ldab_factor * self.n
