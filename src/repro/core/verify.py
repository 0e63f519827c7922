"""Verified solves: silent-data-corruption defense for the batched drivers.

Every fault the resilient dispatch survives announces itself — launch
errors, NaN/Inf lanes, device outages.  Real GPU fleets also produce
*silent* data corruption (SDC): finite-valued bit flips in compute or
transfer that sail through every NaN/Inf scan and return a confidently
wrong ``x``.  This module is the defense the ``verify=`` knob on the
batched drivers turns on:

* **Residual gates** — per-lane scaled residuals computed directly in band
  storage, vectorized across lanes (:func:`band_mv_batch`).  One gate
  evaluation costs O(n·k) per lane against the O(n·k²) factorization it
  guards, so verification is asymptotically cheaper than the work it
  checks.  ``gbsv`` verifies ``||A x - b||`` against snapshots of the
  original operands; ``gbtrf`` verifies the factors themselves by applying
  the reconstructed ``P L U`` to a deterministic probe vector
  (:func:`plu_apply_batch`); ``gbtrs`` replays ``P L U x`` from pristine
  factor snapshots against the pristine right-hand sides.
* **Operand digests** — read-only operands (the ``gbtrs`` factors and
  pivots) are fingerprinted at the stage boundary and re-verified after
  the stage; a mismatch restores the pristine snapshot and attributes the
  lane (``BatchReport.digest_mismatches``).  The serve layer applies the
  same digests to cached factors (:mod:`repro.serve.cache`).
* **Pivot-growth monitors** — ``max|U| / max|A|`` computed batched; the
  maximum is stamped on the report and feeds the condition-aware
  classification below.
* **Condition-aware escalation** — a lane failing its residual gate walks
  a recovery ladder that reuses the resilience machinery: snapshot
  recompute on the device → host reference path (``gbtf2`` /
  ``gbtrs_unblocked``, bit-identical by contract) → ``gbequ``/``laqgb``
  equilibrated refactor (``gbsv`` only) → ``gbrfs`` iterative refinement
  with berr/ferr bounds.  A lane that *still* fails is classified with
  ``gbcon``: ill-conditioned lanes (``rcond`` below the floor, or pivot
  growth past the threshold) are flagged *expected*-inaccurate
  (``BatchReport.ill_conditioned``) rather than corrupted; a
  well-conditioned lane that cannot be recovered raises
  :class:`~repro.errors.DataCorruptionError` (``on_fail='raise'``) or is
  flagged in ``BatchReport.unrecovered`` (``on_fail='flag'``).

Healthy lanes — lanes that pass their gate — are never touched, so a
verified call is bit-identical to an unverified one on every lane that
was not corrupted, across chunking, ``[vec]``/``[vec+soa]``/per-block
routes, pipelining and failover (the escalation wraps the driver
*outside* all of those stages; only the pristine snapshot and each
lane's score are taken per lane range, where the lanes run, see
:class:`~repro.core.stack.Staging`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..band.layout import ldab_for_factor
from ..band.ops import band_norm_1, solve_residual
from ..errors import DataCorruptionError, check_arg
from ..types import Trans
from .gbcon import gbcon
from .gbequ import gbequ, laqgb
from .gbrfs import gbrfs
from .gbtf2 import gbtf2
from .resilience import BatchReport
from .solve_blocks import gbtrs_unblocked
from .stack import IN, ExecConfig, convert_layout, govern

__all__ = [
    "VerifyPolicy",
    "as_verify_policy",
    "band_mv_batch",
    "plu_apply_batch",
    "band_norms_inf",
    "factor_norms_inf",
    "pivot_growth_batch",
    "operand_digest",
    "run_verified",
    "score_gbtrf",
    "score_gbtrs",
    "score_gbsv",
    "gate_gbtrf",
    "gate_gbtrs",
    "gate_gbsv",
]

_MODES = ("cheap", "full")
_ON_FAIL = ("raise", "flag")

#: Default residual-tolerance multiplier: a backward-stable banded solve
#: produces scaled residuals of a few ULP; 64·n·eps leaves generous slack
#: for legitimate rounding while any finite-magnitude flip of an operand
#: element lands orders of magnitude above it.
_TOL_SCALE = 64.0


@dataclass(frozen=True)
class VerifyPolicy:
    """Tunables for verified solves (the ``verify=`` knob).

    Attributes
    ----------
    mode:
        ``'cheap'`` (default) runs the residual gates and pivot-growth
        monitors only — the <10%-overhead configuration the benchmark
        gates.  ``'full'`` additionally fingerprints read-only operands
        (:func:`operand_digest`) and stamps a ``gbcon`` condition
        estimate on every lane (``BatchReport.rcond_min``).
    residual_tol:
        Scaled-residual acceptance threshold.  ``None`` (default) uses
        ``64 * n * eps`` of the operand dtype — comfortably above
        backward-stable rounding noise, orders of magnitude below any
        finite-magnitude element flip.
    growth_threshold:
        Pivot-growth ratio ``max|U| / max|A|`` above which a failing lane
        is classified *expected*-inaccurate rather than corrupted.
    rcond_floor:
        ``rcond`` below which a failing lane is classified
        ill-conditioned.  ``None`` (default) uses ``n * eps``.
    refine:
        Allow the :func:`~repro.core.gbrfs.gbrfs` refinement rung on
        lanes the exact recompute rungs could not bring under tolerance.
    max_refine:
        Iteration cap for that refinement rung.
    on_fail:
        ``'raise'`` (default) raises
        :class:`~repro.errors.DataCorruptionError` for a well-conditioned
        lane that fails every rung; ``'flag'`` records it in
        ``BatchReport.unrecovered`` and returns.
    """

    mode: str = "cheap"
    residual_tol: float | None = None
    growth_threshold: float = 1e8
    rcond_floor: float | None = None
    refine: bool = True
    max_refine: int = 2
    on_fail: str = "raise"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, "
                             f"got {self.mode!r}")
        if self.on_fail not in _ON_FAIL:
            raise ValueError(f"on_fail must be one of {_ON_FAIL}, "
                             f"got {self.on_fail!r}")
        if self.residual_tol is not None and not self.residual_tol > 0:
            raise ValueError(
                f"residual_tol must be > 0, got {self.residual_tol}")
        if self.rcond_floor is not None and not self.rcond_floor >= 0:
            raise ValueError(
                f"rcond_floor must be >= 0, got {self.rcond_floor}")
        if self.max_refine < 1:
            raise ValueError(
                f"max_refine must be >= 1, got {self.max_refine}")

    def tol_for(self, n: int, dtype) -> float:
        if self.residual_tol is not None:
            return float(self.residual_tol)
        return _TOL_SCALE * max(n, 1) * float(np.finfo(dtype).eps)

    def floor_for(self, n: int, dtype) -> float:
        if self.rcond_floor is not None:
            return float(self.rcond_floor)
        return max(n, 1) * float(np.finfo(dtype).eps)


def as_verify_policy(verify) -> VerifyPolicy | None:
    """Canonicalise a ``verify=`` knob value.

    ``None``/``False`` → no verification; ``True`` → default policy;
    ``'cheap'``/``'full'`` → that mode; a :class:`VerifyPolicy` passes
    through.
    """
    if verify is None or verify is False:
        return None
    if verify is True:
        return VerifyPolicy()
    if isinstance(verify, VerifyPolicy):
        return verify
    if isinstance(verify, str):
        check_arg(verify in _MODES, 0,
                  f"verify must be one of {_MODES}, a VerifyPolicy, "
                  f"True or None, got {verify!r}")
        return VerifyPolicy(mode=verify)
    check_arg(False, 0,
              f"verify must be one of {_MODES}, a VerifyPolicy, True or "
              f"None, got {verify!r}")


# --- batched band kernels of the gate --------------------------------------

def band_mv_batch(ab3: np.ndarray, x3: np.ndarray, n: int, kl: int,
                  ku: int, *, offset: int | None = None) -> np.ndarray:
    """``y[k] = A_k @ x[k]`` over a band stack, one pass per diagonal.

    ``ab3`` is a ``(batch, rows, n)`` band stack (factor layout by
    default: diagonal on row ``kl+ku``), ``x3`` a ``(batch, n, nrhs)``
    stack.  The per-diagonal accumulation order matches
    :func:`repro.band.ops.gbmv` exactly, so each lane's result is
    bit-identical to the single-matrix routine.
    """
    if offset is None:
        offset = kl + ku
    y = np.zeros(x3.shape, dtype=np.result_type(ab3.dtype, x3.dtype))
    for d in range(-kl, ku + 1):
        row = offset - d
        lo, hi = max(0, d), n + min(0, d)
        if hi <= lo:
            continue
        y[:, lo - d:hi - d, :] += ab3[:, row, lo:hi, None] * x3[:, lo:hi, :]
    return y


def plu_apply_batch(fact3: np.ndarray, piv2: np.ndarray,
                    x3: np.ndarray, n: int, kl: int, ku: int) -> np.ndarray:
    """``y[k] = P_k L_k U_k @ x[k]`` reconstructed from ``gbtrf`` factors.

    Inverts the solve's forward elimination: first ``y = U x`` (``U``
    occupies rows ``0..kl+ku`` of the factor layout), then for each
    column ``j`` *descending* the multiplier column is added back and the
    row interchange re-applied — the exact reverse of the (swap, update)
    pairs :func:`~repro.core.solve_blocks.gbtrs_unblocked` performs.
    O(n·k) per lane, vectorized across the batch.
    """
    kv = kl + ku
    y = band_mv_batch(fact3, x3, n, 0, kv, offset=kv)
    if kl > 0:
        bidx = np.arange(fact3.shape[0])
        for j in range(n - 2, -1, -1):
            lm = min(kl, n - j - 1)
            if lm > 0:
                y[:, j + 1:j + 1 + lm, :] += (
                    fact3[:, kv + 1:kv + 1 + lm, j][:, :, None]
                    * y[:, j, :][:, None, :])
            pp = np.asarray(piv2)[:, j]
            rowj = y[:, j].copy()
            rowp = y[bidx, pp].copy()
            y[:, j] = rowp
            y[bidx, pp] = rowj
    return y


def band_norms_inf(ab3: np.ndarray, n: int, kl: int, ku: int, *,
                   offset: int | None = None) -> np.ndarray:
    """Per-lane infinity norms of a band stack (max absolute row sums)."""
    if offset is None:
        offset = kl + ku
    sums = np.zeros((ab3.shape[0], n), dtype=np.float64)
    for d in range(-kl, ku + 1):
        row = offset - d
        lo, hi = max(0, d), n + min(0, d)
        if hi <= lo:
            continue
        sums[:, lo - d:hi - d] += np.abs(ab3[:, row, lo:hi])
    if sums.size == 0:
        return np.zeros(ab3.shape[0])
    return sums.max(axis=1)


def factor_norms_inf(fact3: np.ndarray, n: int, kl: int,
                     ku: int) -> np.ndarray:
    """Per-lane ``||U||_inf`` from a ``gbtrf`` factor stack.

    ``U`` has bandwidth ``kl+ku`` after pivoting and occupies rows
    ``0..kl+ku`` of the factor layout.
    """
    return band_norms_inf(fact3, n, 0, kl + ku, offset=kl + ku)


def pivot_growth_batch(fact3: np.ndarray, orig3: np.ndarray, kl: int,
                       ku: int) -> np.ndarray:
    """Per-lane pivot growth ``max|U| / max|A|``, 0 for all-zero inputs."""
    if fact3.shape[0] == 0 or fact3.shape[2] == 0:
        return np.zeros(fact3.shape[0])
    sub = fact3[:, :kl + ku + 1]
    if np.iscomplexobj(sub) or np.iscomplexobj(orig3):
        num = np.abs(sub).max(axis=(1, 2))
        den = np.abs(orig3).max(axis=(1, 2))
    else:
        # max|x| as max(max, -min): two allocation-free reductions instead
        # of materialising |stack| (tens of MB at paper scale).
        num = np.maximum(sub.max(axis=(1, 2)), -sub.min(axis=(1, 2)))
        den = np.maximum(orig3.max(axis=(1, 2)), -orig3.min(axis=(1, 2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        growth = np.where(den > 0, num / den, 0.0)
    return growth


def operand_digest(*arrays) -> str:
    """Content fingerprint of one lane's operands (blake2b-128).

    Shapes and dtypes join the hash so a reinterpretation of the same
    bytes cannot collide; strided views are serialised contiguously.
    """
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.shape}:{a.dtype.str};".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# --- shared ladder pieces --------------------------------------------------

def _finite_max(values) -> float:
    vals = np.asarray(values, dtype=np.float64)
    vals = vals[np.isfinite(vals)]
    return float(vals.max()) if vals.size else 0.0


def _ratio(num, denom) -> np.ndarray:
    """Scaled residuals ``num / denom``; ``num`` where ``denom`` is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0, num / denom, num)


def _over(tol, residuals, lanes, scaled) -> list[int]:
    """Record each lane's residual; return the lanes failing the gate
    (residual above tolerance or non-finite)."""
    still = []
    for k, s in zip(lanes, scaled):
        residuals[k] = float(s)
        if not np.isfinite(s) or s > tol:
            still.append(k)
    return still


def _rcond_of(rcond, k) -> float:
    try:
        return rcond(k)
    except Exception:
        return 0.0


def _lower_rcond(report, rconds) -> None:
    rmin = min(rconds)
    report.rcond_min = (rmin if report.rcond_min is None
                        else min(report.rcond_min, rmin))


def _add_lanes(report, field: str, lanes) -> None:
    """Union ``lanes`` into one of the report's sorted lane tuples."""
    setattr(report, field,
            tuple(sorted(set(getattr(report, field)) | set(lanes))))


def _recompute(report, spec, ops, snap, run):
    """An exact rung: rewind lanes to their pristine inputs, re-run them."""
    def rung(ks):
        spec.restore(ops, snap, ks, inputs=True)
        sub = ops.take(ks)
        run(sub)
        ops.put_back(ks, sub, spec)
        report.recomputes += len(ks)
    return rung


# --- the verify layer --------------------------------------------------------

def run_verified(spec, cfg, ops):
    """Run the layers below behind ``spec``'s residual gate.

    Sets up the pristine snapshot once (the resilience quarantine and the
    pipeline failover reuse the same copy) and the per-lane score, both
    filled lane range by lane range in whichever process runs the lanes
    (:class:`~repro.core.stack.Staging`: a forked pipeline shard
    snapshots and scores its own lanes), runs the call unchanged
    (layout, governance, pipelining and resilience included), then
    escalates every lane whose score fails the gate.  Healthy lanes are
    bit-identical to an unverified call.  Returns the call's report.
    """
    vp = cfg.verify
    active = not spec.empty(ops) and (ops.rhs is None or ops.nrhs > 0)
    if active:
        staging = ops.call.staged(ops.batch)
        snap = ops.call.pristine = staging.snapshot(spec, ops)
        scores = tuple(staging.empty(ops.batch, dtype)
                       for dtype in (np.float64, np.float64, bool))
        staging.scorer = _scorer(spec, cfg, snap, scores)
    report = convert_layout(spec, cfg, ops)
    if report is None:
        report = BatchReport(spec.name, ops.batch,
                             method_requested=cfg.method, info=ops.info)
    report.verify_mode = vp.mode
    if active:
        # Non-finite lanes (singular factors, poisoned results) are what
        # the gate exists to classify, not floating-point accidents.
        with np.errstate(invalid="ignore", over="ignore"):
            _gate(spec, report, cfg, ops, snap, scores)
    return report


def _scorer(spec, cfg, snap, scores):
    """``score(ops, lo, hi)``: ``spec.score`` of lanes ``lo..hi-1`` into
    the call's per-lane ``(scaled, growth, mismatch)`` arrays."""
    def score(ops, lo, hi):
        lanes = range(lo, hi)
        with np.errstate(invalid="ignore", over="ignore"):
            parts = spec.score(cfg, ops.take(lanes), snap.take(lanes))
        for out, part in zip(scores, parts):
            out[lo:hi] = part
    return score


def _gate(spec, report, cfg, ops, snap, scores) -> None:
    """The residual gate and its escalation ladder, for any operation.

    ``scores`` holds every lane's scaled residual, pivot growth and digest
    mismatch, as ``spec.score`` took them where the lanes ran;
    ``spec.gate`` supplies the rest of what differs per operation (see
    :class:`~repro.core.stack.OpSpec`); everything else happens here.
    Lanes are eligible when not already unrecovered and, for an op that
    factors, ``info == 0``.  Failing lanes walk the exact rungs — a
    recompute from their pristine snapshots through the plain stack
    (every design is bit-identical), then the host reference (``gbtf2`` /
    ``gbtrs_unblocked``, bit-identical to the reference kernels) — and
    then the op's own rungs, re-scored after each.  Lanes that still fail
    are classified with ``gbcon``: ill-conditioned (``rcond`` below the
    floor, or pivot growth past the threshold) or corrupted.
    """
    vp, info = cfg.verify, ops.info
    scaled, growth, mismatch = scores
    rescore, rcond, rungs = spec.gate(report, cfg, ops, snap,
                                      np.flatnonzero(mismatch).tolist())
    factors = spec.roles["pivots"] != IN
    live = lambda ks: [k for k in ks if not factors or info[k] == 0]
    healthy = live(range(ops.batch))
    skip = set(report.unrecovered)
    eligible = [k for k in healthy if k not in skip]
    report.verified_lanes += len(eligible)
    report.residual_max = max(report.residual_max,
                              _finite_max(scaled[eligible]))
    report.growth_max = max(report.growth_max, _finite_max(growth[eligible]))
    if factors and vp.mode == "full" and healthy:
        _lower_rcond(report, [rcond(k) for k in healthy])

    tol = vp.tol_for(ops.n, snap["a"].dtype)
    residuals = {}
    failing = _over(tol, residuals, eligible, scaled[eligible])
    if not failing:
        return
    _add_lanes(report, "sdc_detected", failing)
    plain = ExecConfig(device=cfg.device, stream=cfg.stream,
                       method=cfg.method)
    still = failing
    for rung in (_recompute(report, spec, ops, snap,
                            lambda sub: govern(spec, plain, sub)),
                 _recompute(report, spec, ops, snap, spec.host), *rungs):
        rung(still)
        ks = live(still)
        still = _over(tol, residuals, ks, rescore(ks) if ks else [])
        if not still:
            break

    recovered = [k for k in failing if k not in still and info[k] == 0]
    _add_lanes(report, "sdc_recovered", recovered)
    if not still:
        return
    rconds = {k: _rcond_of(rcond, k) for k in still}
    _lower_rcond(report, list(rconds.values()))
    floor = vp.floor_for(ops.n, snap["a"].dtype)
    ill = [k for k in still if rconds[k] < floor or (
        np.isfinite(growth[k]) and growth[k] > vp.growth_threshold)]
    corrupt = [k for k in still if k not in ill]
    _add_lanes(report, "ill_conditioned", ill)
    if not corrupt:
        return
    if vp.on_fail == "raise":
        raise DataCorruptionError(
            report.operation, sorted(corrupt), device=cfg.device.name,
            residual=_finite_max([residuals[k] for k in corrupt]))
    _add_lanes(report, "unrecovered", corrupt)


# --- the per-operation gates -------------------------------------------------
#
# Each operation has two parts.  ``score_*(cfg, ops, snap)`` runs on any
# lane range, where the lanes ran, and returns the range's ``(scaled,
# growth, mismatch)``: every lane's scaled residual, its pivot growth and
# whether a read-only operand lost its digest.  ``gate_*(report, cfg,
# ops, snap, mismatched)`` runs on the whole call once every lane is
# scored and back in the caller's storage; it repairs the ``mismatched``
# lanes and returns ``(rescore, rcond, rungs)``: ``rescore(lanes)`` for
# the residuals of lanes after a rung, ``rcond(lane)`` and the op's own
# rungs after the exact ones (each ``rung(lanes)`` works on the failing
# lanes).

def _growth(ops, snap_a):
    """Pivot growth of every lane of ``ops`` against the pristine band
    rows ``snap_a``."""
    rows = ldab_for_factor(ops.kl, ops.ku)
    return pivot_growth_batch(ops.mats[:, :rows], snap_a, ops.kl, ops.ku)


def _rcond(ops, snap_a):
    """``rcond(lane)``: the ``gbcon`` estimate of one lane's factors."""
    n, kl, ku = ops.n, ops.kl, ops.ku
    rows = ldab_for_factor(kl, ku)
    return lambda k: gbcon(
        "1", n, kl, ku, ops.mats[k][:rows], ops.pivots[k],
        float(band_norm_1(snap_a[k], n, kl, ku)))


def _rows(ops, snap):
    """The pristine band rows of ``A`` the kernels work on."""
    return snap["a"][:, :ldab_for_factor(ops.kl, ops.ku)]


def score_gbsv(cfg, ops, snap):
    """``gbsv`` score: ``||A x - b||`` against the pristine ``A`` and
    ``b``, scaled by ``||A|| ||x|| + ||b||``."""
    n, kl, ku, batch = ops.n, ops.kl, ops.ku, ops.batch
    snap_a, snap_b, rhs = _rows(ops, snap), snap["b"], ops.rhs
    anorms = band_norms_inf(snap_a, n, kl, ku)
    r3 = band_mv_batch(snap_a, rhs, n, kl, ku) - snap_b
    rmax = np.abs(r3).reshape(batch, -1).max(axis=1)
    xmax = np.abs(rhs).reshape(batch, -1).max(axis=1)
    bmax = np.abs(snap_b).reshape(batch, -1).max(axis=1)
    return (_ratio(rmax, anorms * xmax + bmax), _growth(ops, snap_a),
            np.zeros(batch, dtype=bool))


def gate_gbsv(report, cfg, ops, snap, mismatched):
    """``gbsv`` escalation: after the exact rungs, failing lanes go
    through an equilibrated refactor and then iterative refinement."""
    vp, n, kl, ku = cfg.verify, ops.n, ops.kl, ops.ku
    mats, pivots, rhs = ops.mats, ops.pivots, ops.rhs
    rows = ldab_for_factor(kl, ku)
    snap_a, snap_b = _rows(ops, snap), snap["b"]
    tol = vp.tol_for(n, snap_a.dtype)
    rcond = _rcond(ops, snap_a)

    def equilibrate(ks):
        """gbequ equilibrate + refactor on scratch copies.  The caller's
        factors keep the host rung's state (factors of the original A);
        only an equilibrated solution that passes the gate is written
        back."""
        for k in ks:
            scratch = snap_a[k].copy()
            r, c, rowcnd, colcnd, _amax, einfo = gbequ(n, n, kl, ku,
                                                       scratch)
            if einfo != 0:
                continue
            equed = laqgb(n, n, kl, ku, scratch, r, c, rowcnd, colcnd)
            if equed == "N":
                continue
            piv_s = np.zeros(n, dtype=np.int64)
            _, inf = gbtf2(n, n, kl, ku, scratch, piv_s)
            if inf != 0:
                continue
            y = snap_b[k].astype(np.result_type(snap_b.dtype, np.float64))
            if equed in ("R", "B"):
                y = y * r[:, None]
            gbtrs_unblocked(Trans.NO_TRANS, n, kl, ku, scratch, piv_s, y)
            if equed in ("C", "B"):
                y = y * c[:, None]
            report.recomputes += 1
            s = solve_residual(snap_a[k], y, snap_b[k], kl, ku)
            if np.isfinite(s) and s <= tol:
                rhs[k][...] = y.astype(snap_b.dtype, copy=False)

    def refine(ks):
        """gbrfs iterative refinement against the pristine operands."""
        for k in ks:
            res = gbrfs(n, kl, ku, snap_a[k], mats[k][:rows], pivots[k],
                        snap_b[k], rhs[k], max_iter=vp.max_refine)
            report.berr_max = max(report.berr_max, _finite_max(res.berr))
        _add_lanes(report, "refined", ks)
        eps = float(np.finfo(snap_a.dtype).eps)
        for k in ks:
            rc = _rcond_of(rcond, k)
            _lower_rcond(report, [rc])
            if report.berr_max > 0:
                report.ferr_max = max(
                    report.ferr_max, report.berr_max / max(rc, eps))

    return (lambda ks: [solve_residual(snap_a[k], rhs[k], snap_b[k], kl, ku)
                        for k in ks],
            rcond, (equilibrate, refine) if vp.refine else (equilibrate,))


def _probe_scaled(ops, snap_a, idx):
    """Scaled probe residuals ``|PLU w - A w|`` of lanes ``idx`` of
    ``ops`` (every lane when ``idx`` is ``None``).

    The probe is deterministic (gbcon's alternating ramp): it exercises
    every column with O(1) dynamic range, so a flipped element anywhere in
    the factors perturbs the probe image proportionally.
    """
    n, kl, ku = ops.n, ops.kl, ops.ku
    rows = ldab_for_factor(kl, ku)
    if idx is None:     # every lane: read views, not gathered copies
        f3, piv, a3 = ops.mats[:, :rows], ops.pivots, snap_a
    else:
        f3, piv, a3 = ops.mats[idx, :rows], ops.pivots[idx], snap_a[idx]
    w = np.array([(-1.0) ** i * (1.0 + i / max(n - 1, 1))
                  for i in range(n)])[:, None]
    w3 = np.broadcast_to(w, (len(f3), n, 1))
    got = plu_apply_batch(f3, piv, w3, n, kl, ku)
    ref = band_mv_batch(a3, w3, n, kl, ku)
    unorms = factor_norms_inf(f3, n, kl, ku)
    anorms = band_norms_inf(a3, n, kl, ku)
    num = np.abs(got - ref).reshape(len(f3), -1).max(axis=1)
    return _ratio(num, ((1.0 + kl) * unorms + anorms)
                  * float(np.abs(w).max()))


def score_gbtrf(cfg, ops, snap):
    """``gbtrf`` score: the factor probe.

    With no right-hand side to check, the factors are verified directly:
    ``P L U`` (reconstructed by :func:`plu_apply_batch`) applied to a
    deterministic probe vector must reproduce ``A`` applied to the same
    vector to within the residual tolerance.
    """
    snap_a = _rows(ops, snap)
    return (_probe_scaled(ops, snap_a, None), _growth(ops, snap_a),
            np.zeros(ops.batch, dtype=bool))


def gate_gbtrf(report, cfg, ops, snap, mismatched):
    """``gbtrf`` escalation: re-probe after each exact rung."""
    snap_a = _rows(ops, snap)
    return (lambda ks: _probe_scaled(ops, snap_a, list(ks)),
            _rcond(ops, snap_a), ())


def score_gbtrs(cfg, ops, snap):
    """``gbtrs`` score: ``P L U x`` from the pristine factors against
    ``b``.

    Without the original ``A``, the residual is checked against the
    reconstructed operator, and there is no pivot growth to monitor.  In
    ``'full'`` mode the read-only factors and pivots are also
    fingerprinted across the stage (:func:`operand_digest`).
    """
    batch, rows = ops.batch, ldab_for_factor(ops.kl, ops.ku)
    snap_a, snap_p = _rows(ops, snap), snap["pivots"]
    mismatch = np.zeros(batch, dtype=bool)
    if cfg.verify.mode == "full":
        mismatch[:] = [operand_digest(ops.mats[k][:rows], ops.pivots[k])
                       != operand_digest(snap_a[k], snap_p[k])
                       for k in range(batch)]
    return (_trs_scaled(ops, snap, slice(None), ops.rhs), np.zeros(batch),
            mismatch)


def _trs_scaled(ops, snap, idx, x):
    """Scaled residuals ``|PLU x - b|`` of lanes ``idx``."""
    n, kl, ku = ops.n, ops.kl, ops.ku
    snap_a, snap_p, snap_b = _rows(ops, snap)[idx], snap["pivots"][idx], \
        snap["b"][idx]
    got = plu_apply_batch(snap_a, snap_p, x, n, kl, ku)
    num = np.abs(got - snap_b).reshape(len(x), -1).max(axis=1)
    xm = np.abs(x).reshape(len(x), -1).max(axis=1)
    unorms = factor_norms_inf(snap_a, n, kl, ku)
    bmax = np.abs(snap_b).reshape(len(x), -1).max(axis=1)
    return _ratio(num, (1.0 + kl) * unorms * xm + bmax)


def gate_gbtrs(report, cfg, ops, snap, mismatched):
    """``gbtrs`` escalation.

    Digest-only mismatches (result fine, operand corrupted in flight) are
    repaired here, restoring the caller's factors and pivots from the
    snapshot; residual failures escalate through the ladder.
    """
    n, kl, ku = ops.n, ops.kl, ops.ku
    mats, pivots, rhs = ops.mats, ops.pivots, ops.rhs
    rows = ldab_for_factor(kl, ku)
    snap_a, snap_p = _rows(ops, snap), snap["pivots"]
    if mismatched:
        _add_lanes(report, "digest_mismatches", mismatched)
        _add_lanes(report, "sdc_detected", mismatched)
        if mats.flags.writeable:
            mats[mismatched, :rows] = snap_a[mismatched]
        if pivots.flags.writeable:
            pivots[mismatched] = snap_p[mismatched]

    # No original A here: bound ||A||_1 by (1+kl)·||U||_1 (unit
    # multipliers) for the condition classification.
    def rcond(k):
        anorm1 = (1.0 + kl) * band_norm_1(snap_a[k], n, 0, kl + ku,
                                          factor_layout=False)
        return gbcon("1", n, kl, ku, snap_a[k], snap_p[k], float(anorm1))

    return (lambda ks: _trs_scaled(ops, snap, list(ks), rhs[list(ks)]),
            rcond, ())
