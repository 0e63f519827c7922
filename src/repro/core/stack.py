"""The layer stack behind the batched drivers, written once.

Every batched driver (``gbtrf_batch``, ``gbtrs_batch``, ``gbsv_batch`` and
the two vbatch drivers) validates its arguments once, packs its knobs into
an :class:`ExecConfig` and its operands into :class:`Operands`, and hands
both to :func:`run` together with the operation's :class:`OpSpec`.
:func:`run` walks the layers in a fixed order, each written once over
``OpSpec`` and living in the module named for it:

1. **verify** (:func:`repro.core.verify.run_verified`) — residual gates and
   the recompute rungs, outside everything else;
2. **layout** (:func:`convert_layout`, here) — the one batch-boundary
   storage conversion;
3. **govern** (:func:`repro.core.memory_plan.run_governed`) — admission
   control, chunking and the pipelined multi-device executor;
4. **heal** (:func:`repro.core.resilience.run_resilient`) — the retry /
   design-ladder / quarantine dispatch;
5. **dispatch** (``OpSpec.dispatch``) — the kernel launches of one design.

A layer calls the next one directly (:func:`convert_layout`,
:func:`govern`, :func:`heal`); no layer re-enters a public driver, so
arguments are validated once and nothing needs a re-entrancy guard.
Layers return the call's :class:`~repro.core.resilience.BatchReport`
when ``resilient=True`` (``None`` otherwise); the drivers shape it into
their LAPACK-style return values.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from ..band.layout import ldab_for_factor, normalize_layout
from ..errors import check_arg
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..gpusim.kernel import ConversionCharge
from ..types import Trans
from .batch_args import convert_batch_layout

__all__ = ["ExecConfig", "Operands", "OpSpec", "Snapshot", "stacked",
           "check_execution", "run", "convert_layout", "govern", "heal"]

IN, OUT, INOUT = "in", "out", "inout"


@dataclass(frozen=True)
class ExecConfig:
    """Every execution knob of one batched call (see ``gbtrf_batch``).

    ``verify`` holds the canonical :class:`~repro.core.verify.VerifyPolicy`
    (or ``None``); everything else is the driver keyword of the same name
    (``policy`` is the :class:`~repro.core.resilience.ResiliencePolicy`).
    """

    device: DeviceSpec = H100_PCIE
    stream: object = None
    method: str = "auto"
    nb: int | None = None
    threads: int | None = None
    execute: bool = True
    vectorize: bool | None = None
    resilient: bool = False
    policy: object = None
    max_resident_bytes: int | None = None
    chunk_hint: int | None = None
    streams: int | None = None
    devices: object = None
    layout: str | None = None
    verify: object = None

    @property
    def reports(self) -> bool:
        """Does the driver return a report for this configuration?"""
        return self.resilient or self.verify is not None


def _positive_int(x) -> bool:
    return isinstance(x, Integral) and not isinstance(x, bool) and x >= 1


def check_execution(cfg: ExecConfig, pos: int) -> None:
    """Validate the execution knobs once, whatever route the call takes.

    Verified and resilient calls need full functional execution; the
    governance knobs must be valid even on routes that ignore them
    (``execute=False`` or graph-captured calls).
    """
    if cfg.verify is not None:
        check_arg(cfg.execute, pos, "verify requires full functional "
                                    "execution (execute=True)")
    if cfg.resilient:
        check_arg(cfg.execute, pos, "resilient=True requires full "
                                    "functional execution (execute=True)")
    for name in ("max_resident_bytes", "chunk_hint", "streams"):
        value = getattr(cfg, name)
        check_arg(value is None or _positive_int(value), pos,
                  f"{name} must be a positive integer, got {value!r}")
    devices = cfg.devices
    if devices is None or _positive_int(devices):
        return
    check_arg(not isinstance(devices, (Integral, float, str)) and all(
        isinstance(d, DeviceSpec) for d in devices), pos,
        f"devices must be a positive integer or a list of devices, got "
        f"{devices!r}")
    names = [d.name for d in devices]
    check_arg(len(names) >= 1, pos, "devices must not be empty")
    check_arg(len(set(names)) == len(names), pos,
              f"device names must be unique (pools and fault injectors "
              f"key on them), got {names}")


class _Call:
    """Per-call state shared by every sub-batch of one driver call."""

    __slots__ = ("conversion", "pristine", "escalate")

    def __init__(self):
        #: Layout-conversion bytes awaiting the call's first launch.
        self.conversion = ConversionCharge()
        #: :class:`Snapshot` of the pristine operands over the root lanes
        #: (taken once per call by whichever layer first needs one).
        self.pristine = None
        #: Device-lost and hang errors escape the resilience ladders to
        #: the pipeline's failover (set when that fault domain is armed).
        self.escalate = False


class Operands:
    """Canonical operands of one call (or of a sub-batch of it).

    ``mats``/``rhs`` are the caller's 3-D stacks (or lane slices of them)
    when the call passed stacks, else lists of per-lane views; ``rhs`` is
    ``None`` for ``gbtrf``.  ``pivots`` is a list of per-lane vectors and
    ``info`` the status array.  ``lanes`` maps each lane to its index in
    the root call, which keys the call's pristine snapshot.
    """

    __slots__ = ("m", "n", "kl", "ku", "nrhs", "trans", "mats", "pivots",
                 "rhs", "info", "lanes", "call")

    def __init__(self, m, n, kl, ku, mats, pivots, info, *, nrhs=0,
                 rhs=None, trans=Trans.NO_TRANS, lanes=None, call=None):
        self.m, self.n, self.kl, self.ku = m, n, kl, ku
        self.nrhs, self.trans = nrhs, trans
        self.mats, self.pivots, self.rhs, self.info = mats, pivots, rhs, info
        self.lanes = range(len(mats)) if lanes is None else lanes
        self.call = _Call() if call is None else call

    @property
    def batch(self) -> int:
        return len(self.mats)

    def take(self, idx) -> "Operands":
        """Sub-batch over local lanes ``idx``.

        A ``range`` slices (a stack stays a stack, and ``info`` stays a
        view of the parent's); a list gathers per-lane views, with a
        fresh zeroed ``info`` the caller copies back.
        """
        if isinstance(idx, range):
            sl = slice(idx.start, idx.stop)
            info = self.info[sl]
            pick = lambda seq: seq[sl]
        else:
            info = np.zeros(len(idx), dtype=np.int64)
            pick = lambda seq: [seq[k] for k in idx]
        return Operands(self.m, self.n, self.kl, self.ku, pick(self.mats),
                        pick(self.pivots), info, nrhs=self.nrhs,
                        rhs=None if self.rhs is None else pick(self.rhs),
                        trans=self.trans, lanes=pick(self.lanes),
                        call=self.call)

    def relayout(self, a, b) -> "Operands":
        """The same lanes with matrices/right-hand sides from ``a``/``b``."""
        return Operands(self.m, self.n, self.kl, self.ku, a, self.pivots,
                        self.info, nrhs=self.nrhs, rhs=b, trans=self.trans,
                        lanes=self.lanes, call=self.call)

    def finite_factors(self) -> np.ndarray:
        """Per-lane mask: the lane's band rows are all finite.

        Rows past ``2*kl + ku + 1`` are caller padding the kernels never
        touch; scanning them would flag lanes for garbage we did not
        produce.
        """
        return _finite_lanes(self.mats, ldab_for_factor(self.kl, self.ku))

    def finite_solution(self) -> np.ndarray:
        """Per-lane mask: the lane's right-hand side is all finite."""
        if self.rhs is None:
            return np.ones(self.batch, dtype=bool)
        return _finite_lanes(self.rhs)


def _finite_lanes(seq, rows=None) -> np.ndarray:
    """Per-lane ``all(isfinite)`` over each lane's first ``rows`` rows:
    one reduction over a stack, one check per lane of a list."""
    if isinstance(seq, np.ndarray):
        return np.isfinite(seq[:, :rows]).all(axis=(1, 2))
    return np.array([bool(np.all(np.isfinite(a[:rows]))) for a in seq],
                    dtype=bool)


def stacked(seq) -> np.ndarray:
    """Contiguous ``(batch, ...)`` copy of one operand's lanes.

    ``np.array`` (not ``ascontiguousarray``): a snapshot must never alias
    the live batch.
    """
    if isinstance(seq, np.ndarray):
        return np.array(seq, order="C")
    return np.stack([np.asarray(x) for x in seq])


class Snapshot(dict):
    """Contiguous ``(lanes, ...)`` copies of a batch's operands, by name."""

    def take(self, idx) -> "Snapshot":
        """Narrow to lanes ``idx`` (without copying for a ``range``)."""
        idx = (slice(idx.start, idx.stop) if isinstance(idx, range)
               else list(idx))
        return Snapshot({k: v[idx] for k, v in self.items()})


@dataclass(frozen=True)
class OpSpec:
    """Everything the layers need to know about one batched operation.

    ``roles`` maps operand names to :data:`IN`/:data:`OUT`/:data:`INOUT`;
    snapshots, restores, lane footprints and layout write-backs follow
    from it.  ``designs`` is the degradation ladder, ``resolve`` picks
    the design ``'auto'`` means on a device, ``kernels`` builds a design's
    kernels (for dispatch and the multi-device throughput probes),
    ``dispatch`` runs one design, ``host`` is the host reference over
    every lane, and ``gate`` is the operation's part of the verify
    layer's residual gate (every lane's scaled residual, a re-score
    function, pivot growth, a per-lane ``rcond`` and the op's own rungs;
    see :mod:`repro.core.verify`).  A composed operation (``gbsv``) lists
    its ``stages`` (factor, then solve on the ``info == 0`` lanes); its
    own ``designs`` hold the single-kernel alternative that degrades to
    them.
    """

    name: str
    roles: dict
    designs: tuple
    resolve: Callable
    kernels: Callable
    dispatch: Callable
    host: Callable
    gate: Callable
    stages: tuple = ()

    # -- designs --------------------------------------------------------

    def ladder(self, method: str, device, ops) -> tuple:
        """Design ladder from ``method`` (``'auto'`` resolved on device)."""
        if method == "auto":
            method = self.resolve(device, ops)
        return self.designs[self.designs.index(method):]

    def probe_stages(self, device, cfg, ops) -> list:
        """One-lane cost triples of the design ``cfg.method`` picks on
        ``device`` (empty for the reference design, which has no single
        representative kernel)."""
        one = ops.take(range(0, 1))
        return [(k.block_cost(), k.threads(), k.smem_bytes())
                for k in self.kernels(device, cfg.method, cfg, one) or ()]

    # -- operands -------------------------------------------------------

    def _names(self, inputs: bool) -> list:
        return [name for name, role in self.roles.items()
                if inputs or role != IN]

    def snapshot(self, ops, *, inputs: bool = False) -> Snapshot:
        """Copy the operands the op writes (plus its inputs if asked)."""
        seqs = {"a": ops.mats, "b": ops.rhs, "pivots": ops.pivots,
                "info": ops.info}
        return Snapshot({name: stacked(seqs[name])
                         for name in self._names(inputs)})

    def restore(self, ops, snap: Snapshot, ks=None, *,
                inputs: bool = False) -> None:
        """Rewind lanes ``ks`` (all by default) from ``snap``.

        ``inputs=True`` also rewinds the op's input operands, skipping
        read-only ones (e.g. the serve layer's cached factors, which an
        in-place write could never have corrupted).
        """
        ks = range(ops.batch) if ks is None else ks
        seqs = {"a": ops.mats, "pivots": ops.pivots, "b": ops.rhs}
        for name in self._names(inputs):
            src = snap[name]
            if name == "info":
                for k in ks:
                    ops.info[k] = src[k]
                continue
            seq = seqs[name]
            guard = self.roles[name] == IN
            for k in ks:
                if guard and not seq[k].flags.writeable:
                    continue
                seq[k][...] = src[k]

    def lane_bytes(self, ops) -> int:
        """Exact resident device bytes of one lane of ``ops``."""
        from .memory_plan import lane_footprint
        rhs = ops.rhs[0] if ops.rhs is not None and ops.nrhs else None
        return lane_footprint(*(np.asarray(x).nbytes for x in
                                (ops.mats[0], ops.pivots[0], rhs)
                                if x is not None))

    def empty(self, ops) -> bool:
        """Nothing to compute: LAPACK quick return."""
        if ops.batch == 0 or min(ops.m, ops.n) == 0:
            return True
        # A pure solve with no right-hand sides has nothing to do; a
        # factor-and-solve still factors.
        return self.roles["a"] == IN and ops.nrhs == 0


# --- the layers --------------------------------------------------------------

def run(spec: OpSpec, cfg: ExecConfig, ops: Operands):
    """Run one validated batched call through the layer stack."""
    if cfg.verify is not None:
        from .verify import run_verified
        return run_verified(spec, cfg, ops)
    return convert_layout(spec, cfg, ops)


def convert_layout(spec: OpSpec, cfg: ExecConfig, ops: Operands):
    """The layout layer: convert once at the batch boundary, then govern.

    Quick-return calls stop here (with an empty report when resilient).
    """
    target = normalize_layout(cfg.layout)
    if spec.empty(ops):
        if not cfg.resilient:
            return None
        from .resilience import BatchReport
        return BatchReport(spec.name, ops.batch,
                           method_requested=cfg.method, info=ops.info)
    if target is not None:
        conv = convert_batch_layout(
            target, (ops.mats, ops.rhs), batch=ops.batch,
            outputs=(spec.roles["a"] != IN, True))
        if conv is not None:
            (a, b), writeback, moved = conv
            ops.call.conversion.add(moved)
            report = govern(spec, cfg, ops.relayout(a, b))
            writeback()
            return report
    return govern(spec, cfg, ops)


def govern(spec: OpSpec, cfg: ExecConfig, ops: Operands):
    """The governance layer, for outermost functional calls only."""
    from . import memory_plan
    if memory_plan.governance_active(execute=cfg.execute, stream=cfg.stream):
        return memory_plan.run_governed(spec, cfg, ops)
    return heal(spec, cfg, ops)


def heal(spec: OpSpec, cfg: ExecConfig, ops: Operands):
    """The resilience layer when asked for, else a plain dispatch."""
    if cfg.resilient:
        from .resilience import run_resilient
        return run_resilient(spec, cfg, ops)
    spec.dispatch(cfg.method, cfg, ops, cfg.vectorize)
    return None
