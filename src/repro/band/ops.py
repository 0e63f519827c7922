"""Band-matrix operations: products, norms, and residual checks.

These operate directly on band storage (no densification), mirroring the
BLAS ``GBMV`` routine, and are used both as library functionality and as the
measurement tools for the accuracy checks in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..errors import check_arg
from ..types import Trans

__all__ = ["gbmv", "gbmm", "band_norm_inf", "band_norm_1", "solve_residual"]


def gbmv(trans: Trans | str, m: int, kl: int, ku: int,
         alpha, ab: np.ndarray, x: np.ndarray, beta, y: np.ndarray, *,
         factor_layout: bool = True) -> np.ndarray:
    """``y = alpha * op(A) @ x + beta * y`` for a band matrix ``A``.

    ``ab`` is band storage of an ``(m, n)`` matrix; ``factor_layout`` selects
    whether the diagonal sits on row ``kl+ku`` (factor layout, our default)
    or row ``ku`` (plain storage).  ``y`` is updated in place and returned.
    """
    trans = Trans.from_any(trans)
    ab = np.asarray(ab)
    n = ab.shape[1]
    offset = kl + ku if factor_layout else ku
    check_arg(ab.shape[0] > offset, 6,
              f"band array has {ab.shape[0]} rows; needs > {offset}")
    out_len = m if trans is Trans.NO_TRANS else n
    in_len = n if trans is Trans.NO_TRANS else m
    check_arg(x.shape[0] == in_len, 7,
              f"x has length {x.shape[0]}, expected {in_len}")
    check_arg(y.shape[0] == out_len, 9,
              f"y has length {y.shape[0]}, expected {out_len}")

    acc = np.zeros_like(y, dtype=np.result_type(ab.dtype, x.dtype))
    # Walk the diagonals: diagonal d couples A[i, i+d] for the valid range.
    for d in range(-kl, ku + 1):
        row = offset - d
        length = min(m - max(-d, 0), n - max(d, 0))
        if length <= 0:
            continue
        cols = np.arange(max(d, 0), max(d, 0) + length)
        rows = cols - d
        diag = ab[row, cols]
        if trans is Trans.NO_TRANS:
            acc[rows] += (diag.T * x[cols].T).T
        elif trans is Trans.TRANS:
            acc[cols] += (diag.T * x[rows].T).T
        else:  # CONJ_TRANS
            acc[cols] += (np.conj(diag).T * x[rows].T).T
    y *= beta
    y += alpha * acc.astype(y.dtype, copy=False)
    return y


def gbmm(m: int, kl: int, ku: int, ab: np.ndarray, x: np.ndarray, *,
         factor_layout: bool = True) -> np.ndarray:
    """``A @ X`` for band ``A`` and a dense ``(n, nrhs)`` block ``X``."""
    y = np.zeros((m,) + x.shape[1:], dtype=np.result_type(ab.dtype, x.dtype))
    return gbmv(Trans.NO_TRANS, m, kl, ku, 1.0, ab, x, 0.0, y,
                factor_layout=factor_layout)


def band_norm_inf(ab: np.ndarray, m: int, kl: int, ku: int, *,
                  factor_layout: bool = True) -> float:
    """Infinity norm (max absolute row sum) computed in band storage."""
    n = ab.shape[1]
    offset = kl + ku if factor_layout else ku
    sums = np.zeros(m, dtype=np.float64)
    for d in range(-kl, ku + 1):
        length = min(m - max(-d, 0), n - max(d, 0))
        if length <= 0:
            continue
        cols = np.arange(max(d, 0), max(d, 0) + length)
        sums[cols - d] += np.abs(ab[offset - d, cols])
    return float(sums.max(initial=0.0))


def band_norm_1(ab: np.ndarray, m: int, kl: int, ku: int, *,
                factor_layout: bool = True) -> float:
    """One norm (max absolute column sum) computed in band storage."""
    n = ab.shape[1]
    offset = kl + ku if factor_layout else ku
    sums = np.zeros(n, dtype=np.float64)
    for d in range(-kl, ku + 1):
        length = min(m - max(-d, 0), n - max(d, 0))
        if length <= 0:
            continue
        cols = np.arange(max(d, 0), max(d, 0) + length)
        sums[cols] += np.abs(ab[offset - d, cols])
    return float(sums.max(initial=0.0))


def solve_residual(ab_orig: np.ndarray, x: np.ndarray, b: np.ndarray,
                   kl: int, ku: int, *, factor_layout: bool = True) -> float:
    """Normalised residual ``||A x - b||_inf / (||A||_inf ||x||_inf + ||b||_inf)``.

    A backward-stable banded solve should produce residuals of a few units of
    machine epsilon; the test suite asserts this bound.
    """
    n = ab_orig.shape[1]
    r = gbmm(n, kl, ku, ab_orig, x, factor_layout=factor_layout) - b
    norm_a = band_norm_inf(ab_orig, n, kl, ku, factor_layout=factor_layout)
    denom = norm_a * np.abs(x).max(initial=0.0) + np.abs(b).max(initial=0.0)
    if denom == 0.0:
        return float(np.abs(r).max(initial=0.0))
    return float(np.abs(r).max(initial=0.0) / denom)
