"""Single-matrix CPU band routines (the per-thread work of the baseline).

Each batched CPU call runs one of these per matrix.  When scipy's real
LAPACK (MKL-class code) supports the dtype, we call it — exactly what the
paper's "mkl + openmp" baseline does per OpenMP task; otherwise the pure
numpy implementation (:func:`~repro.core.gbtf2.gbtf2` and
:func:`~repro.core.solve_blocks.gbtrs_unblocked`) is used.

The two paths produce identical pivots and ``info`` codes; their factors
and solutions agree to rounding, not bit for bit.  Against scipy's
``dgbtrf`` on 200 random shapes (n < 60, kl and ku < 6, fp64), ``gbtf2``
matched pivots and ``info`` on all 200 and the factor bytes on 41.
"""

from __future__ import annotations

import numpy as np

from ..core.gbtf2 import gbtf2
from ..core.solve_blocks import gbtrs_unblocked
from ..types import Trans

__all__ = ["cpu_gbtrf_one", "cpu_gbtrs_one", "cpu_gbsv_one"]

try:  # pragma: no cover - import guard
    from scipy.linalg import lapack as _lapack
except ImportError:  # pragma: no cover
    _lapack = None

_TRF = {}
_TRS = {}
if _lapack is not None:
    _TRF = {np.dtype(d): getattr(_lapack, p + "gbtrf")
            for d, p in (("float32", "s"), ("float64", "d"),
                         ("complex64", "c"), ("complex128", "z"))}
    _TRS = {np.dtype(d): getattr(_lapack, p + "gbtrs")
            for d, p in (("float32", "s"), ("float64", "d"),
                         ("complex64", "c"), ("complex128", "z"))}

_TRANS_CODE = {Trans.NO_TRANS: 0, Trans.TRANS: 1, Trans.CONJ_TRANS: 2}


def cpu_gbtrf_one(m: int, n: int, kl: int, ku: int,
                  ab: np.ndarray, ipiv: np.ndarray) -> int:
    """Factor one band matrix in place; returns LAPACK ``info``."""
    fn = _TRF.get(ab.dtype)
    if fn is not None and ab.shape[0] == 2 * kl + ku + 1:
        lu, piv, info = fn(np.asfortranarray(ab), kl, ku, m=m, n=n)
        ab[...] = lu
        ipiv[...] = piv  # scipy returns 0-based pivots
        return int(info)
    _, info = gbtf2(m, n, kl, ku, ab, ipiv)
    return info


def cpu_gbtrs_one(trans: Trans, n: int, kl: int, ku: int, ab: np.ndarray,
                  ipiv: np.ndarray, b: np.ndarray) -> None:
    """Solve one factored band system in place on ``b`` (``(n, nrhs)``)."""
    fn = _TRS.get(ab.dtype)
    if fn is not None and ab.shape[0] == 2 * kl + ku + 1:
        x, info = fn(np.asfortranarray(ab), kl, ku,
                     np.asfortranarray(b), np.asarray(ipiv, dtype=np.int32),
                     trans=_TRANS_CODE[trans])
        b[...] = x
        return
    gbtrs_unblocked(trans, n, kl, ku, ab, ipiv, b)


def cpu_gbsv_one(n: int, kl: int, ku: int, ab: np.ndarray,
                 ipiv: np.ndarray, b: np.ndarray) -> int:
    """Factor and solve one band system; B untouched when singular."""
    info = cpu_gbtrf_one(n, n, kl, ku, ab, ipiv)
    if info == 0:
        cpu_gbtrs_one(Trans.NO_TRANS, n, kl, ku, ab, ipiv, b)
    return info
