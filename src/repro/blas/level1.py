"""Level-1 BLAS building blocks (IAMAX, SWAP, SCAL, AXPY, DOT).

These are the memory-bound primitives the paper's reference GBTF2 design
(Section 5.1) is built from.  They operate on numpy views, so the strided
accesses of band storage (a matrix *row* strides across band columns) come
for free.
"""

from __future__ import annotations

import numpy as np

__all__ = ["iamax", "swap", "scal", "stable_mul", "axpy", "dot", "nrm2",
           "asum"]


def stable_mul(x, y, out=None):
    """Elementwise product whose rounding does not depend on array shape.

    numpy's complex multiply is not shape-stable: the contiguous SIMD main
    loop contracts ``re*re - im*im`` with FMA while the scalar/strided/tail
    loop evaluates the naive real-decomposed formula, so the same operand
    values multiplied under different shapes or strides can differ in the
    last ulp.  The batch-interleaved kernels must produce factors that are
    bit-identical to the per-matrix reference path, so every complex
    multiply in the factor/solve building blocks routes through this
    helper.  It evaluates the naive formula with real arithmetic — real
    multiply/add/subtract are correctly rounded elementwise in every numpy
    loop, hence shape-stable.  Real dtypes multiply directly (also
    correctly rounded elementwise, so already stable).  ``out``, when
    given, receives the product.

    Propagating non-finite lanes (singular solves, poisoned operands)
    legitimately evaluates ``inf*0`` and ``inf-inf`` here; LAPACK raises
    no IEEE flags for these, and every caller runs it under an
    ``np.errstate`` that ignores them.
    """
    if not (np.iscomplexobj(x) or np.iscomplexobj(y)):
        return np.multiply(x, y, out=out)
    x = np.asarray(x)
    y = np.asarray(y)
    xr, xi = x.real, x.imag
    yr, yi = y.real, y.imag
    if out is None:
        out = np.empty(np.broadcast_shapes(x.shape, y.shape),
                       dtype=np.result_type(x, y))
    out.real = xr * yr - xi * yi
    out.imag = xr * yi + xi * yr
    return out


def iamax(x: np.ndarray) -> int:
    """Index of the entry with the largest ``|real| + |imag|`` magnitude.

    LAPACK's pivot search (``IDAMAX``/``IZAMAX``) uses the 1-norm of the
    components for complex data, not the modulus; we match that so pivot
    sequences agree with LAPACK exactly.  Ties resolve to the first
    occurrence, also matching LAPACK.  Returns a 0-based index.
    """
    if x.size == 0:
        return 0
    if np.iscomplexobj(x):
        with np.errstate(invalid="ignore"):     # signaling-NaN entries
            mag = np.abs(x.real) + np.abs(x.imag)
    else:
        mag = np.abs(x)
    return int(np.argmax(mag))


def swap(x: np.ndarray, y: np.ndarray) -> None:
    """Exchange the contents of two equal-length views, in place."""
    tmp = x.copy()
    x[...] = y
    y[...] = tmp


def scal(alpha, x: np.ndarray) -> None:
    """``x *= alpha`` in place."""
    x *= alpha


def axpy(alpha, x: np.ndarray, y: np.ndarray) -> None:
    """``y += alpha * x`` in place."""
    y += alpha * x


def dot(x: np.ndarray, y: np.ndarray, *, conj: bool = False):
    """Inner product; ``conj=True`` conjugates ``x`` (``DOTC``)."""
    if conj:
        x = np.conj(x)
    return np.sum(x * y)


def nrm2(x: np.ndarray) -> float:
    """Euclidean norm."""
    return float(np.linalg.norm(x))


def asum(x: np.ndarray) -> float:
    """Sum of ``|real| + |imag|`` (BLAS ``ASUM`` semantics)."""
    if np.iscomplexobj(x):
        return float(np.sum(np.abs(x.real) + np.abs(x.imag)))
    return float(np.sum(np.abs(x)))
