"""Level-2 BLAS building blocks (GER, GEMV, TRSV).

``ger`` is the rank-1 update at the heart of every right-looking LU step;
``gemv`` doubles as the bandwidth micro-benchmark used by the paper to
estimate sustained memory bandwidth (Section 8).
"""

from __future__ import annotations

import numpy as np

from ..errors import check_arg
from ..types import Trans

__all__ = ["ger", "gemv", "trsv"]


def ger(alpha, x: np.ndarray, y: np.ndarray, a: np.ndarray) -> None:
    """Rank-1 update ``a += alpha * outer(x, y)`` in place.

    ``a`` may be any (possibly non-contiguous) 2-D view, which is how the
    band kernels apply the update across the diagonal-striped storage.
    """
    check_arg(a.shape == (x.shape[0], y.shape[0]), 4,
              f"a has shape {a.shape}, expected {(x.shape[0], y.shape[0])}")
    a += alpha * np.outer(x, y)


def gemv(trans: Trans | str, alpha, a: np.ndarray, x: np.ndarray,
         beta, y: np.ndarray) -> np.ndarray:
    """``y = alpha * op(a) @ x + beta * y`` in place; returns ``y``."""
    trans = Trans.from_any(trans)
    if trans is Trans.NO_TRANS:
        op = a
    elif trans is Trans.TRANS:
        op = a.T
    else:
        op = a.conj().T
    check_arg(x.shape[0] == op.shape[1], 4,
              f"x has length {x.shape[0]}, expected {op.shape[1]}")
    check_arg(y.shape[0] == op.shape[0], 6,
              f"y has length {y.shape[0]}, expected {op.shape[0]}")
    y *= beta
    y += alpha * (op @ x)
    return y


def trsv(uplo: str, trans: Trans | str, diag: str, a: np.ndarray,
         x: np.ndarray) -> np.ndarray:
    """Solve ``op(T) x = b`` in place for triangular ``T`` stored in ``a``.

    ``uplo`` in {'L', 'U'}, ``diag`` in {'N', 'U'} ('U' = unit diagonal, the
    convention of the L factor from LU).  The solve is column-oriented,
    matching the access pattern of the paper's blocked GBTRS kernels.
    """
    trans = Trans.from_any(trans)
    uplo = uplo.upper()
    diag = diag.upper()
    check_arg(uplo in ("L", "U"), 1, f"uplo must be 'L' or 'U', got {uplo!r}")
    check_arg(diag in ("N", "U"), 3, f"diag must be 'N' or 'U', got {diag!r}")
    n = a.shape[0]
    check_arg(a.shape == (n, n), 4, f"a must be square, got {a.shape}")
    check_arg(x.shape[0] == n, 5, f"x has length {x.shape[0]}, expected {n}")

    if trans is Trans.CONJ_TRANS:
        a = a.conj()
        trans = Trans.TRANS
    if trans is Trans.TRANS:
        a = a.T
        uplo = "U" if uplo == "L" else "L"

    if uplo == "L":
        order = range(n)
    else:
        order = range(n - 1, -1, -1)
    for j in order:
        if diag == "N":
            x[j] = x[j] / a[j, j]
        if uplo == "L":
            if j + 1 < n:
                x[j + 1:] -= a[j + 1:, j] * x[j]
        else:
            if j > 0:
                x[:j] -= a[:j, j] * x[j]
    return x
