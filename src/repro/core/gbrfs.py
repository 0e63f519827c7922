"""Iterative refinement for band solves (LAPACK ``GBRFS``) and a
mixed-precision batched driver.

``gbrfs`` polishes a solution from :func:`repro.core.gbtrs` by Newton
iteration on the residual — one band matrix-vector product plus one solve
with the existing factors per step — and reports the componentwise backward
error LAPACK calls ``berr``.  ``gbsv_refined_batch`` composes it into the
classic mixed-precision scheme (factor in float32, iterate the residual in
float64), the natural GPU follow-up to the paper given fp32's 2x bandwidth
advantage on both vendors' parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..band.ops import gbmv
from ..errors import SingularMatrixError, check_arg
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..types import Trans
from .batch_args import (
    as_matrix_list,
    as_rhs_list,
    check_gb_args,
    ensure_info,
    ensure_pivots,
)
from .solve_blocks import gbtrs_unblocked

__all__ = ["RefinementResult", "gbrfs", "gbrfs_batch",
           "gbsv_refined_batch"]

_MAX_REFINE = 10


@dataclass
class RefinementResult:
    """Outcome of one refinement run."""

    iterations: int
    berr: np.ndarray          # (nrhs,) componentwise backward error
    converged: bool


def _backward_error(ab_orig, n, kl, ku, x, b, residual) -> np.ndarray:
    """Componentwise backward error max_i |r_i| / (|A||x| + |b|)_i."""
    absx = np.abs(x)
    denom = np.abs(b).astype(np.float64).copy()
    gbmv(Trans.NO_TRANS, n, kl, ku, 1.0, np.abs(ab_orig), absx, 1.0, denom)
    safe = denom > 0
    out = np.zeros(residual.shape[1])
    if safe.any():
        ratio = np.zeros_like(residual, dtype=np.float64)
        ratio[safe] = np.abs(residual[safe]) / denom[safe]
        out = ratio.max(axis=0)
    return out


def gbrfs(n: int, kl: int, ku: int, ab_orig: np.ndarray,
          ab_fact: np.ndarray, ipiv: np.ndarray, b: np.ndarray,
          x: np.ndarray, *, tol: float | None = None,
          max_iter: int = _MAX_REFINE) -> RefinementResult:
    """Refine ``x`` (in place) so that ``A x = b`` to working precision.

    Parameters
    ----------
    ab_orig:
        The *unfactored* band matrix (factor layout), needed for residuals.
    ab_fact, ipiv:
        Output of ``gbtrf`` on (a possibly lower-precision copy of) ``A``.
    tol:
        Stop when the componentwise backward error falls below this;
        defaults to ``n * eps`` of ``x``'s dtype (LAPACK's criterion scale).

    Returns the iteration count and final ``berr`` per right-hand side.
    """
    check_arg(x.shape == b.shape, 8,
              f"x has shape {x.shape}, b has {b.shape}")
    eps = float(np.finfo(x.dtype).eps)
    if tol is None:
        tol = max(n, 1) * eps
    berr = np.full(b.shape[1] if b.ndim == 2 else 1, np.inf)
    last = np.inf
    for it in range(max_iter):
        residual = b.astype(np.float64).copy()
        gbmv(Trans.NO_TRANS, n, kl, ku, -1.0, ab_orig.astype(np.float64),
             x.astype(np.float64), 1.0, residual)
        berr = _backward_error(ab_orig, n, kl, ku, x, b, residual)
        if berr.max(initial=0.0) <= tol:
            return RefinementResult(iterations=it, berr=berr,
                                    converged=True)
        if berr.max() >= last / 2:    # stagnation (LAPACK's 2x rule)
            return RefinementResult(iterations=it, berr=berr,
                                    converged=berr.max() <= np.sqrt(eps))
        last = berr.max()
        correction = residual.astype(ab_fact.dtype)
        gbtrs_unblocked(Trans.NO_TRANS, n, kl, ku, ab_fact, ipiv,
                        correction)
        x += correction.astype(x.dtype)
    return RefinementResult(iterations=max_iter, berr=berr,
                            converged=bool(berr.max() <= tol))


def gbrfs_batch(n: int, kl: int, ku: int, nrhs: int, a_orig_array,
                a_fact_array, pv_array, b_array, x_array, *,
                batch: int | None = None,
                max_iter: int = _MAX_REFINE) -> list[RefinementResult]:
    """Batched :func:`gbrfs`; refines every ``x`` in place.

    Every batched operand may arrive lane-major or batch-interleaved
    (SoA, docs/LAYOUTS.md) — refinement indexes per-lane views, so both
    run natively.
    """
    if batch is None:
        batch = len(a_orig_array)
    orig = as_matrix_list(a_orig_array, batch, arg_pos=5)
    fact = as_matrix_list(a_fact_array, batch, arg_pos=6)
    check_gb_args(n, n, kl, ku, orig, batch=batch)
    pivots = ensure_pivots(pv_array, batch, n, arg_pos=7)
    rhs = as_rhs_list(b_array, batch, n, nrhs, arg_pos=8)
    sols = as_rhs_list(x_array, batch, n, nrhs, arg_pos=9,
                       written=True)
    return [gbrfs(n, kl, ku, orig[k], fact[k], pivots[k], rhs[k], sols[k],
                  max_iter=max_iter) for k in range(batch)]


def gbsv_refined_batch(n: int, kl: int, ku: int, nrhs: int, a_array,
                       b_array, *, batch: int | None = None,
                       factor_dtype=np.float32,
                       device: DeviceSpec = H100_PCIE, stream=None,
                       max_iter: int = _MAX_REFINE):
    """Mixed-precision batched solve: low-precision factor + fp64 refine.

    Factors a ``factor_dtype`` copy of each matrix with the batched GPU
    factorization, solves, then refines against the original-precision
    matrices.  Returns ``(x, info, results)`` where ``x`` is a fresh
    ``(batch, n, nrhs)`` float64 array (inputs are left untouched) and
    ``results`` the per-problem :class:`RefinementResult`.

    Problems whose low-precision factorization is singular fall back to a
    full-precision factor+solve (reported with ``iterations == -1``).  A
    problem that is singular even in full precision raises
    :class:`~repro.errors.SingularMatrixError` — unlike the plain LAPACK
    drivers this routine promises a solution, so it cannot silently return
    one problem unsolved.
    """
    from .gbtrf import gbtrf_batch
    from .gbtrs import gbtrs_batch
    if batch is None:
        batch = len(a_array)
    mats = as_matrix_list(a_array, batch, arg_pos=5)
    check_gb_args(n, n, kl, ku, mats, batch=batch)
    rhs = as_rhs_list(b_array, batch, n, nrhs, arg_pos=6)

    low = [m.astype(factor_dtype) for m in mats]
    info = ensure_info(None, batch, arg_pos=7)
    pivots, info = gbtrf_batch(n, n, kl, ku, low, None, info, batch=batch,
                               device=device, stream=stream)
    x = np.stack([b.astype(np.float64) for b in rhs])
    ok = [k for k in range(batch) if info[k] == 0]
    if ok:
        xs_low = [x[k].astype(factor_dtype) for k in ok]
        gbtrs_batch(Trans.NO_TRANS, n, kl, ku, nrhs,
                    [low[k] for k in ok], pivots[ok],
                    xs_low, batch=len(ok), device=device, stream=stream)
        for j, k in enumerate(ok):
            x[k] = xs_low[j].astype(np.float64)

    results: list[RefinementResult] = [None] * batch  # type: ignore
    for k in range(batch):
        if info[k] != 0:
            # Low-precision factor failed: fall back to full precision.
            full = [mats[k].astype(np.float64)]
            xb = [x[k]]
            piv_k, info_k = gbtrf_batch(n, n, kl, ku, full, batch=1,
                                        device=device, stream=stream)
            if info_k[0] != 0:
                raise SingularMatrixError(k, int(info_k[0]))
            x[k] = rhs[k].astype(np.float64)
            gbtrs_batch(Trans.NO_TRANS, n, kl, ku, nrhs, full, piv_k,
                        [x[k]], batch=1, device=device, stream=stream)
            info[k] = 0
            results[k] = RefinementResult(iterations=-1,
                                          berr=np.full(nrhs, np.nan),
                                          converged=True)
        else:
            results[k] = gbrfs(n, kl, ku, mats[k], low[k], pivots[k],
                               rhs[k].astype(np.float64), x[k],
                               max_iter=max_iter)
    return x, info, results
