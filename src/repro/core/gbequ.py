"""Band-matrix equilibration (LAPACK ``GBEQU`` / ``LAQGB`` analogues).

The PELE matrices (paper Section 2.1) span "a large range of condition
numbers"; equilibration — scaling rows and columns so every row/column has
unit infinity norm — is LAPACK's standard pre-conditioning for that
situation, and any production band-solver stack ships it alongside the
factorization.  Routines follow LAPACK semantics:

* :func:`gbequ` computes row scalings ``r`` and column scalings ``c`` with
  ``r[i] = 1 / max_j |A(i, j)|`` and ``c[j] = 1 / max_i (r[i] |A(i, j)|)``,
  plus ``rowcnd``/``colcnd`` ratios and ``amax``.
* :func:`laqgb` applies the scalings in place when they are worthwhile
  (the same ``thresh = 0.1`` rule LAPACK uses) and reports which were
  applied via ``equed`` in ``{"N", "R", "C", "B"}``.
* :func:`gbequ_batch` / :func:`laqgb_batch` vectorise over a uniform batch.
"""

from __future__ import annotations

import numpy as np

from ..errors import check_arg
from .batch_args import as_matrix_list, check_gb_args

__all__ = ["gbequ", "laqgb", "gbequ_batch", "laqgb_batch"]

# LAPACK's threshold: scale only if the small/large ratio is below 0.1.
THRESH = 0.1


def gbequ(m: int, n: int, kl: int, ku: int, ab: np.ndarray, *,
          factor_layout: bool = True):
    """Compute equilibration scalings for one band matrix.

    Returns ``(r, c, rowcnd, colcnd, amax, info)``; ``info`` follows
    LAPACK ``DGBEQU``: ``i + 1`` if row ``i`` is exactly zero, ``m + j + 1``
    if column ``j`` is exactly zero (rows are checked first).
    """
    ab = np.asarray(ab)
    offset = kl + ku if factor_layout else ku
    r = np.zeros(m)
    c = np.zeros(n)
    amax = 0.0
    # Row maxima, walking the diagonals of the band storage.
    for d in range(-kl, ku + 1):
        length = min(m - max(-d, 0), n - max(d, 0))
        if length <= 0:
            continue
        cols = np.arange(max(d, 0), max(d, 0) + length)
        vals = np.abs(ab[offset - d, cols])
        np.maximum.at(r, cols - d, vals)
        amax = max(amax, float(vals.max(initial=0.0)))
    for i in range(m):
        if r[i] == 0.0:
            return r, c, 0.0, 0.0, amax, i + 1
    rowcnd = float(r.min() / r.max()) if m else 1.0
    r = 1.0 / r
    # Column maxima of the row-scaled matrix.
    for d in range(-kl, ku + 1):
        length = min(m - max(-d, 0), n - max(d, 0))
        if length <= 0:
            continue
        cols = np.arange(max(d, 0), max(d, 0) + length)
        vals = np.abs(ab[offset - d, cols]) * r[cols - d]
        np.maximum.at(c, cols, vals)
    for j in range(n):
        if c[j] == 0.0:
            return r, c, rowcnd, 0.0, amax, m + j + 1
    colcnd = float(c.min() / c.max()) if n else 1.0
    c = 1.0 / c
    return r, c, rowcnd, colcnd, amax, 0


def laqgb(m: int, n: int, kl: int, ku: int, ab: np.ndarray,
          r: np.ndarray, c: np.ndarray, rowcnd: float, colcnd: float, *,
          factor_layout: bool = True) -> str:
    """Apply equilibration in place when worthwhile; returns ``equed``.

    ``equed``: ``"N"`` no scaling, ``"R"`` rows only, ``"C"`` columns only,
    ``"B"`` both — LAPACK ``DLAQGB`` semantics with its 0.1 threshold (the
    large/small safe-range checks are unnecessary in double precision for
    our generated workloads and are folded into the ratio test).
    """
    offset = kl + ku if factor_layout else ku
    do_rows = rowcnd < THRESH
    do_cols = colcnd < THRESH
    if not do_rows and not do_cols:
        return "N"
    for d in range(-kl, ku + 1):
        length = min(m - max(-d, 0), n - max(d, 0))
        if length <= 0:
            continue
        cols = np.arange(max(d, 0), max(d, 0) + length)
        scale = np.ones(length)
        if do_rows:
            scale = scale * r[cols - d]
        if do_cols:
            scale = scale * c[cols]
        ab[offset - d, cols] *= scale
    return "B" if (do_rows and do_cols) else ("R" if do_rows else "C")


def gbequ_batch(m: int, n: int, kl: int, ku: int, a_array, *,
                batch: int | None = None):
    """Batched :func:`gbequ`.  Returns ``(rs, cs, rowcnds, colcnds, amaxs,
    info)`` stacks."""
    if batch is None:
        batch = len(a_array)
    mats = as_matrix_list(a_array, batch, arg_pos=5)
    check_gb_args(m, n, kl, ku, mats, batch=batch)
    rs = np.zeros((batch, m))
    cs = np.zeros((batch, n))
    rowcnds = np.zeros(batch)
    colcnds = np.zeros(batch)
    amaxs = np.zeros(batch)
    info = np.zeros(batch, dtype=np.int64)
    for k in range(batch):
        rs[k], cs[k], rowcnds[k], colcnds[k], amaxs[k], info[k] = \
            gbequ(m, n, kl, ku, mats[k])
    return rs, cs, rowcnds, colcnds, amaxs, info


def laqgb_batch(m: int, n: int, kl: int, ku: int, a_array, rs, cs,
                rowcnds, colcnds, *, batch: int | None = None) -> list[str]:
    """Batched :func:`laqgb`; returns the per-problem ``equed`` flags."""
    if batch is None:
        batch = len(a_array)
    mats = as_matrix_list(a_array, batch, arg_pos=5)
    check_gb_args(m, n, kl, ku, mats, batch=batch)
    return [laqgb(m, n, kl, ku, mats[k], rs[k], cs[k],
                  float(rowcnds[k]), float(colcnds[k]))
            for k in range(batch)]
