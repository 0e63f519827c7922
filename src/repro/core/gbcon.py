"""Condition-number estimation from band LU factors (LAPACK ``GBCON``).

Estimates ``rcond = 1 / (||A|| * ||A^{-1}||)`` without forming the inverse,
using the Hager/Higham one-norm estimator (LAPACK's ``DLACN2``): a few
solves with the already-computed factors bound ``||A^{-1}||`` from below.
The paper's PELE use case explicitly worries about "a large range of
condition numbers"; pairing the batched factorization with a batched
condition estimate is how a production stack surfaces that risk to users.
"""

from __future__ import annotations

import numpy as np

from ..errors import check_arg
from ..types import Trans
from .batch_args import (
    as_matrix_list,
    check_gb_args,
    ensure_pivots,
)
from .solve_blocks import gbtrs_unblocked

__all__ = ["onenorm_inv_estimate", "gbcon", "gbcon_batch"]

_MAX_ITER = 5


def onenorm_inv_estimate(n: int, solve, solve_t) -> float:
    """Estimate ``||A^{-1}||_1`` given solve callbacks (Hager's algorithm).

    ``solve(v)`` must return ``A^{-1} v`` and ``solve_t(v)`` must return
    ``A^{-T} v`` (new arrays or in-place, their return value is used).
    The estimate is a lower bound that Higham reports is almost always
    within a factor of ~3 of the true norm.
    """
    if n == 0:
        return 0.0
    x = np.full(n, 1.0 / n)
    est = 0.0
    for _ in range(_MAX_ITER):
        y = solve(x.copy())
        est = float(np.abs(y).sum())
        xi = np.sign(y)
        xi[xi == 0] = 1.0
        z = solve_t(xi)
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= float(z @ x):
            break
        x = np.zeros(n)
        x[j] = 1.0
    # Higham's refinement: also try the alternating "ramp" vector, which
    # catches adversarial cases where the power-like iteration stalls.
    v = np.array([(-1.0) ** i * (1.0 + i / max(n - 1, 1))
                  for i in range(n)])
    y = solve(v)
    alt = 2.0 * float(np.abs(y).sum()) / (3.0 * n)
    return max(est, alt)


def gbcon(norm: str, n: int, kl: int, ku: int, ab_fact: np.ndarray,
          ipiv: np.ndarray, anorm: float) -> float:
    """Reciprocal condition estimate from ``gbtrf`` factors.

    Parameters
    ----------
    norm:
        ``"1"``/``"O"`` for the one norm, ``"I"`` for the infinity norm
        (estimated via the transposed solves, as LAPACK does).
    anorm:
        The corresponding norm of the *original* matrix (use
        :func:`repro.band.ops.band_norm_1` / ``band_norm_inf`` before
        factorizing).

    Returns ``rcond`` in ``[0, 1]``; 0 for an exactly singular factor.
    """
    norm = norm.upper()
    check_arg(norm in ("1", "O", "I"), 1,
              f"norm must be '1', 'O' or 'I', got {norm!r}")
    if n == 0:
        return 1.0
    if anorm == 0.0:
        return 0.0
    kv = kl + ku
    if (np.asarray(ab_fact)[kv, :n] == 0).any():
        return 0.0       # singular U: condition is infinite

    def solve(v):
        return gbtrs_unblocked(Trans.NO_TRANS, n, kl, ku, ab_fact, ipiv,
                               v[:, None])[:, 0]

    def solve_t(v):
        return gbtrs_unblocked(Trans.TRANS, n, kl, ku, ab_fact, ipiv,
                               v[:, None])[:, 0]

    if norm == "I":
        # ||A^{-1}||_inf == ||A^{-T}||_1: swap the solve roles.
        solve, solve_t = solve_t, solve
    inv_norm = onenorm_inv_estimate(n, solve, solve_t)
    if inv_norm == 0.0:
        return 0.0
    return min(1.0, 1.0 / (anorm * inv_norm))


def gbcon_batch(norm: str, n: int, kl: int, ku: int, a_array, pv_array,
                anorms, *, batch: int | None = None) -> np.ndarray:
    """Batched :func:`gbcon` over factored matrices.

    ``anorms`` is a length-``batch`` sequence of original-matrix norms.
    Returns the ``rcond`` array.

    The factor batch may arrive lane-major or batch-interleaved (SoA,
    docs/LAYOUTS.md); estimation indexes per-lane views, so both run
    natively.
    """
    if batch is None:
        batch = len(a_array)
    mats = as_matrix_list(a_array, batch, arg_pos=5)
    check_gb_args(n, n, kl, ku, mats, batch=batch)
    pivots = ensure_pivots(pv_array, batch, n, arg_pos=6)
    check_arg(len(anorms) == batch, 7,
              f"anorms has {len(anorms)} entries, expected {batch}")
    out = np.zeros(batch)
    for k in range(batch):
        out[k] = gbcon(norm, n, kl, ku, mats[k], pivots[k],
                       float(anorms[k]))
    return out
