"""The layer stack behind the batched drivers, written once.

Every batched driver (``gbtrf_batch``, ``gbtrs_batch``, ``gbsv_batch`` and
the two vbatch drivers) validates its arguments once, packs its knobs into
an :class:`ExecConfig` and its operands into :class:`Operands`, and hands
both to :func:`run` together with the operation's :class:`OpSpec`.
:func:`run` makes each operand one array, then plans the call:
:func:`plan_call` makes every route decision once, before any lane
moves, into a frozen :class:`CallPlan` that lives on the call
(``ops.call.plan``).  The plan names the quick return, each planned
device's design, the layout target, whether the call is governed and
pipelined (on which devices, with how many buffers), and whether verify
and resilience run.  Then only the layers the plan makes active are
entered, in a fixed order, each written once over ``OpSpec`` and living
in the module named for it:

1. **verify** (:func:`repro.core.verify.run_verified`) — residual gates and
   the recompute rungs, outside everything else;
2. **layout** (:func:`convert_layout`, here) — the one batch-boundary
   storage conversion, when the plan names a target;
3. **govern** (:func:`govern`, then
   :func:`repro.core.memory_plan.run_governed` for a governed call) —
   admission control, chunking and the pipelined multi-device executor;
4. **resilience** (:func:`repro.core.resilience.run_resilient`) — the
   retry / design-ladder / quarantine dispatch;
5. **dispatch** (``OpSpec.dispatch``) — the kernel launches of the
   plan's design.

No layer below :func:`run` resolves ``method='auto'`` or re-derives a
decision from the :class:`ExecConfig`; each reads it from the plan.  A
layer calls the next one directly; no layer re-enters a public driver,
so arguments are validated once and nothing needs a re-entrancy guard.
Layers return the call's :class:`~repro.core.resilience.BatchReport`
when ``resilient=True`` (``None`` otherwise); the drivers shape it into
their LAPACK-style return values.  What stays decided at run time is
what depends on the live state: the launch rung, the narrow engine, the
chunk size against the live pool, the fork count, failover and hedging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable

import numpy as np

from ..band.layout import INTERLEAVED, LANE_MAJOR, copy_lanes, \
    is_column_interleaved, ldab_for_factor, normalize_layout
from ..errors import check_arg
from ..gpusim import ahead
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..gpusim.kernel import ConversionCharge
from ..gpusim.multidevice import replicate_device
from ..types import Trans
from .arena import Leases
from .batch_args import convert_batch_layout, is_interleaved_stack, \
    lane_stack, stack_layouts

__all__ = ["ExecConfig", "CallPlan", "Operands", "OpSpec", "Snapshot",
           "Staging", "check_execution", "plan_call", "plan_devices", "run",
           "convert_layout", "govern", "launch_kernels", "lane_runs"]

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


@dataclass(frozen=True)
class CallPlan:
    """Every route decision of one driver call (see :func:`plan_call`).

    ``designs`` maps each planned device's name to the op's design there,
    and ``stage_designs`` to a composed op's factor-stage design (empty
    for a single-stage op).  ``layout`` is the layout the layout layer
    converts the batch to (``None``: the layer is not entered).
    ``devices`` are the devices the call's lanes run on (``cfg.device``
    alone unless ``pipelined``) and ``buffers`` the chunk buffers each
    shard keeps live.
    """

    empty: bool = False
    designs: dict = field(default_factory=dict)
    stage_designs: dict = field(default_factory=dict)
    layout: str | None = None
    governed: bool = False
    pipelined: bool = False
    devices: tuple = ()
    buffers: int = 1
    verify: bool = False
    resilient: bool = False

    def design(self, device: DeviceSpec) -> str:
        """The op's design on ``device``."""
        return self.designs[device.name]

    def stage(self, device: DeviceSpec) -> str:
        """A composed op's factor-stage design on ``device``."""
        return self.stage_designs[device.name]


def plan_devices(cfg: ExecConfig) -> tuple:
    """The devices a pipelined call shards across: ``cfg.device`` alone,
    that many renamed replicas of it for an int ``devices=``, else the
    given specs (validated by :func:`check_execution`)."""
    if isinstance(cfg.devices, Integral) and cfg.devices > 1:
        return tuple(replicate_device(cfg.device, cfg.devices))
    return (cfg.device,) if cfg.devices in (None, 1) else tuple(cfg.devices)


class _Call:
    """Per-call state shared by every sub-batch of one driver call."""

    __slots__ = ("plan", "conversion", "pristine", "escalate", "leases",
                 "staging")

    def __init__(self):
        #: The call's :class:`CallPlan` (set by :func:`run`).
        self.plan = None
        #: Layout-conversion bytes awaiting the call's first launch.
        self.conversion = ConversionCharge()
        #: :class:`Snapshot` of the pristine operands over the root lanes
        #: (set up once per call by whichever layer first needs one, and
        #: filled lane range by lane range; see :class:`Staging`).
        self.pristine = None
        #: Device-lost and hang errors escape the resilience ladders to
        #: the pipeline's failover (set when that fault domain is armed).
        self.escalate = False
        #: Shared host buffers the call holds (:mod:`repro.core.arena`):
        #: the pristine snapshot, layout working copies, per-lane scores
        #: and operands staged for forked shards.
        self.leases = Leases()
        #: The call's per-lane-range steps, while any are open.
        self.staging = None

    def staged(self, batch: int) -> "Staging":
        """The call's :class:`Staging` record, opened on first use."""
        if self.staging is None:
            self.staging = Staging(batch, self.leases)
        return self.staging

    def finish(self, ops: "Operands") -> None:
        """Finish every lane no shard finished (:meth:`Staging.finish`)
        and close the record; later sub-batch runs (the verify layer's
        recompute rungs) stage nothing."""
        if self.staging is not None:
            self.staging.finish(ops)
            self.staging = None


def lane_runs(mask: np.ndarray, ranges) -> list:
    """The maximal ``(lo, hi)`` runs of ``mask``'s true lanes inside
    ``ranges``, in order."""
    runs = []
    for lo, hi in ranges:
        edges = np.flatnonzero(np.diff(mask[lo:hi], prepend=False,
                                       append=False)) + lo
        runs += zip(edges[::2].tolist(), edges[1::2].tolist())
    return runs


class Staging:
    """Per-lane-range steps of one call, and which lanes have had them.

    The layers set their per-lane work up here without touching a lane:
    the verify layer's pristine snapshot and residual score, the layout
    layer's working copies, the pipeline's shared mirrors and a resilient
    call's pristine snapshot.  Each step then runs on lane ranges, in the
    process that runs those lanes:

    * :meth:`prepare` runs every ``fill(lo, hi)`` (in the order they were
      added) on lanes not yet prepared, once per lane and before anything
      touches them;
    * :meth:`score` takes the verify layer's per-lane score of finished
      lanes (their results are final);
    * :meth:`write_back` runs every ``back(lo, hi)`` (last added first),
      copying finished lanes into the caller's storage; only the calling
      process can, so a forked shard's lanes go back once it is collected;
    * :meth:`finish` prepares, writes back and scores every lane not
      scored yet: lanes the host net ran, lanes a hedge re-ran, or all of
      them when no shard ran (an ungoverned call).

    Its buffers, the ``prepared`` and ``scored`` masks included, are
    leased from the call's arena leases, so what a forked shard does is
    seen by the parent; a buffer past the arena's bound is private and
    clears :attr:`shared`, which keeps the call's rounds in turn.
    """

    __slots__ = ("batch", "leases", "shared", "fills", "backs", "scorer",
                 "caller_mats", "prepared", "scored")

    def __init__(self, batch: int, leases: Leases):
        self.batch, self.leases = batch, leases
        #: Every buffer is in the arena (a forked shard may use them).
        self.shared = True
        self.fills, self.backs = [], []
        #: ``scorer(ops, lo, hi)``: the verify layer's per-range score.
        self.scorer = None
        #: Read-only matrices the layout layer converted: the caller's
        #: copy, which the score reads (the kernels' working copy is never
        #: written back, so the caller never sees it).
        self.caller_mats = None
        self.prepared = self.empty(batch, bool)
        self.scored = self.empty(batch, bool)
        self.prepared[:] = self.scored[:] = False

    def empty(self, shape, dtype) -> np.ndarray:
        """An unfilled array in the call's arena leases, else private."""
        arr = self.leases.empty(shape, dtype)
        if arr is None:
            self.shared = False
            arr = np.empty(shape, dtype)
        return arr

    def like(self, src: np.ndarray) -> np.ndarray:
        """An unfilled array laid out as ``src`` (its strides, so its
        memory order), in the call's arena leases, else private."""
        arr = self.leases.like(src)
        if arr is None:
            self.shared = False
            arr = np.empty_like(src)
        return arr

    def add(self, fill, back=None) -> None:
        """Add a per-range fill (and the write-back that undoes it)."""
        self.fills.append(fill)
        if back is not None:
            self.backs.append(back)

    def snapshot(self, spec: "OpSpec", ops: "Operands") -> Snapshot:
        """A :class:`Snapshot` of every operand of ``spec`` as ``ops``
        holds it before any lane is touched, filled per range.  Each copy
        keeps its operand's memory order, so filling it and restoring
        from it are straight copies (a column-interleaved stack is not
        transposed)."""
        named = ops.named()
        snap = Snapshot({name: self.like(named[name])
                         for name in spec._names(inputs=True)})

        def fill(lo, hi):
            for name, copy in snap.items():
                copy[lo:hi] = named[name][lo:hi]

        self.add(fill)
        return snap

    def prepare(self, ranges) -> None:
        """Fill the lanes of ``ranges`` no earlier call prepared."""
        for lo, hi in lane_runs(~self.prepared, ranges):
            for fill in self.fills:
                fill(lo, hi)
            self.prepared[lo:hi] = True

    def score(self, ops: "Operands", ranges) -> None:
        """Score finished lanes ``ranges`` of ``ops`` (the call's root
        lanes, as the layers below the layout layer hold them)."""
        if self.scorer is not None and self.caller_mats is not None:
            ops = ops.relayout(mats=self.caller_mats)
        for lo, hi in ranges:
            if self.scorer is not None:
                self.scorer(ops, lo, hi)
            self.scored[lo:hi] = True

    def unscore(self, lo: int, hi: int) -> None:
        """Lanes ``lo..hi-1`` changed after they were scored."""
        self.scored[lo:hi] = False

    def write_back(self, ranges) -> None:
        """Copy finished lanes ``ranges`` into the caller's storage."""
        for lo, hi in ranges:
            for back in reversed(self.backs):
                back(lo, hi)

    def finish(self, ops: "Operands") -> None:
        """Prepare, write back and score every lane not yet scored;
        ``ops`` are the caller's operands, which hold the results once
        written back."""
        rest = lane_runs(~self.scored, [(0, self.batch)])
        self.prepare(rest)
        self.write_back(rest)
        self.score(ops, rest)


class Operands:
    """Canonical operands of one call (or of a sub-batch of it).

    Below :func:`run` every operand is one ``(batch, ...)`` array (a
    pointer array becomes one where :func:`run` is entered): ``mats``
    and ``rhs`` are 3-D stacks (``rhs`` is ``None`` for ``gbtrf``),
    ``pivots`` is one ``(batch, mn)`` integer array and ``info`` the
    status array.  ``lanes`` maps each lane to its index in the root
    call, which keys the call's pristine snapshot.
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

    def named(self) -> dict:
        """The operands by their :attr:`OpSpec.roles` names."""
        return {"a": self.mats, "b": self.rhs, "pivots": self.pivots,
                "info": self.info}

    def take(self, idx) -> "Operands":
        """Sub-batch over local lanes ``idx``.

        A ``range`` slices: every operand stays a view of the parent's.
        Any other index gathers a copy of each operand's lanes, in the
        operand's own layout (a column-interleaved stack into a
        column-interleaved copy), which :meth:`put_back` scatters back.
        """
        idx = _lane_index(idx)
        lanes = (self.lanes[idx] if isinstance(idx, slice)
                 else [self.lanes[k] for k in idx])
        rhs = None if self.rhs is None else _gather(self.rhs, idx)
        return Operands(self.m, self.n, self.kl, self.ku,
                        _gather(self.mats, idx), self.pivots[idx],
                        self.info[idx], nrhs=self.nrhs, rhs=rhs,
                        trans=self.trans, lanes=lanes, call=self.call)

    def put_back(self, idx, sub: "Operands", spec: "OpSpec") -> None:
        """Scatter ``sub = self.take(idx)`` back: every operand ``spec``
        writes.  A ``range`` took views, so there is nothing to copy."""
        if isinstance(idx, range):
            return
        mine, theirs = self.named(), sub.named()
        for name in spec._names(inputs=False):
            mine[name][idx] = theirs[name]

    def relayout(self, **arrays) -> "Operands":
        """The same lanes with the operand arrays named in ``arrays``
        (``mats``, ``rhs``, ``pivots``, ``info``) replaced."""
        new = Operands(self.m, self.n, self.kl, self.ku, self.mats,
                       self.pivots, self.info, nrhs=self.nrhs, rhs=self.rhs,
                       trans=self.trans, lanes=self.lanes, call=self.call)
        for name, arr in arrays.items():
            setattr(new, name, arr)
        return new

    def finite_factors(self) -> np.ndarray:
        """Per-lane mask: the lane's band rows are all finite.

        Rows past ``2*kl + ku + 1`` are caller padding the kernels never
        touch; scanning them would flag lanes for garbage we did not
        produce.
        """
        rows = ldab_for_factor(self.kl, self.ku)
        return np.isfinite(self.mats[:, :rows]).all(axis=(1, 2))

    def finite_solution(self) -> np.ndarray:
        """Per-lane mask: the lane's right-hand side is all finite."""
        if self.rhs is None:
            return np.ones(self.batch, dtype=bool)
        return np.isfinite(self.rhs).all(axis=(1, 2))


class Snapshot(dict):
    """Contiguous ``(lanes, ...)`` copies of a batch's operands, by name."""

    def take(self, idx) -> "Snapshot":
        """Narrow to lanes ``idx`` (without copying for a ``range``)."""
        idx = _lane_index(idx)
        return Snapshot({k: v[idx] for k, v in self.items()})


def _gather(stack: np.ndarray, idx) -> np.ndarray:
    """``stack[idx]``; a gather from a column-interleaved stack is made
    column-interleaved too, so the kernels run on it in place
    (``[vec+soa]``) as on the stack."""
    sub = stack[idx]
    if is_column_interleaved(stack) and not is_column_interleaved(sub):
        return np.asfortranarray(sub)
    return sub


def _lane_index(idx):
    """Lanes ``idx`` as an array index: a ``range`` as a slice (a view),
    anything else as a list (a gather)."""
    return (slice(idx.start, idx.stop) if isinstance(idx, range)
            else list(idx))


@dataclass(frozen=True)
class OpSpec:
    """Everything the layers need to know about one batched operation.

    ``roles`` maps operand names to :data:`IN`/:data:`OUT`/:data:`INOUT`;
    snapshots, restores, lane footprints and layout write-backs follow
    from it.  ``designs`` is the degradation ladder, ``resolve`` picks
    the design ``'auto'`` means on a device (only :func:`plan_call` asks
    it), ``kernels`` builds a design's kernels (for dispatch and the
    multi-device throughput probes), ``dispatch(design, cfg, ops)`` runs
    one design's launches (the launcher picks each launch's execution
    rung from the operands;
    :func:`repro.gpusim.ahead.launcher` gives the one in use), ``host``
    is the host reference over every lane, and ``score`` and ``gate``
    are the operation's parts of the verify layer's residual gate: ``score`` the per-lane-range part
    (scaled residuals, pivot growth, digest checks), ``gate`` the
    escalation inputs (a re-score function, a per-lane ``rcond`` and the
    op's own rungs; see :mod:`repro.core.verify`).  A composed operation
    (``gbsv``) lists its ``stages`` (factor, then solve on the ``info ==
    0`` lanes); its own ``designs`` hold the single-kernel alternative
    that degrades to them.
    """

    name: str
    roles: dict
    designs: tuple
    resolve: Callable
    kernels: Callable
    dispatch: Callable
    host: Callable
    score: Callable
    gate: Callable
    stages: tuple = ()

    # -- designs --------------------------------------------------------

    def ladder(self, design: str) -> tuple:
        """Design ladder from ``design`` down."""
        return self.designs[self.designs.index(design):]

    def probe_stages(self, device, cfg, ops) -> list:
        """One-lane cost triples of the call's planned design on
        ``device`` (empty for the reference design, which has no single
        representative kernel)."""
        one = ops.take(range(0, 1))
        design = ops.call.plan.design(device)
        return [(k.block_cost(), k.threads(), k.smem_bytes())
                for k in self.kernels(device, design, cfg, one) or ()]

    # -- operands -------------------------------------------------------

    def _names(self, inputs: bool) -> list:
        return [name for name, role in self.roles.items()
                if inputs or role != IN]

    def restore(self, ops, snap: Snapshot, ks=None, *,
                inputs: bool = False) -> None:
        """Rewind lanes ``ks`` (all by default) from ``snap``.

        ``inputs=True`` also rewinds the op's input operands, skipping
        read-only ones (e.g. a caller's read-only factor stack, which an
        in-place write could never have corrupted).  A rewind ends the
        accounting of lanes computed ahead (:mod:`repro.gpusim.ahead`):
        whatever re-runs them computes.
        """
        ahead.end()
        idx = slice(None) if ks is None else _lane_index(ks)
        named = ops.named()
        for name in self._names(inputs):
            if named[name].flags.writeable or self.roles[name] != IN:
                named[name][idx] = snap[name][idx]

    def lane_bytes(self, ops) -> int:
        """Exact resident device bytes of one lane of ``ops``."""
        from .memory_plan import lane_footprint
        rhs = ops.rhs[0] if ops.rhs is not None and ops.nrhs else None
        return lane_footprint(*(x.nbytes for x in
                                (ops.mats[0], ops.pivots[0], rhs)
                                if x is not None))


# --- the plan ----------------------------------------------------------------

def plan_call(spec: OpSpec, cfg: ExecConfig, ops: Operands) -> CallPlan:
    """Make every route decision of one call, once, before any lane moves.

    A pure function of the op, the operands' shapes, dtypes and layouts,
    and the configuration:

    * an empty call (LAPACK quick return) decides nothing else;
    * a call is governed when it executes now: not ``execute=False`` and
      not on a capturing stream (a replay must not re-plan);
    * a governed call is pipelined when ``streams`` > 1 or ``devices`` is
      set: it shards across :func:`plan_devices`, each shard keeping up
      to ``streams`` chunk buffers live (three unset; more buys nothing,
      there are three engines to keep busy); any other call runs on
      ``cfg.device``;
    * on each planned device, the op's design (``method``, or the
      device's choice for ``'auto'``; a composed op with no right-hand
      side runs its stages) and a composed op's factor-stage design, each
      resolver asked once per device;
    * the layout target: ``layout`` when given, else the interleaved
      layout for a governed lane-major batch factored by the sliding
      window (its column steps then run in place, which saves more host
      time than the conversion costs; docs/LAYOUTS.md); none when every
      operand already runs in it;
    * verify runs when asked and there is a result to check, resilience
      when asked.

    A captured composed op that runs its stages on right-hand sides is
    refused (:class:`~repro.errors.ArgumentError`) before any operand
    changes: the lanes its solve skips depend on the factorization's
    ``info``, which capture cannot know, so a replay would solve the
    singular lanes too.  A captured fused ``gbsv`` is one kernel and
    replays faithfully.
    """
    # A pure solve with no right-hand side has nothing to do; a
    # factor-and-solve still factors.
    if (ops.batch == 0 or min(ops.m, ops.n) == 0
            or spec.roles["a"] == IN and not ops.nrhs):
        return CallPlan(empty=True)
    capturing = getattr(cfg.stream, "_capturing", False)
    governed = cfg.execute and not capturing
    pipelined = governed and (cfg.devices is not None
                              or (cfg.streams or 1) > 1)
    devices = plan_devices(cfg) if pipelined else (cfg.device,)
    designs, stages = {}, {}
    for dev in devices:
        design = spec.resolve(dev, ops) if cfg.method == "auto" else cfg.method
        if spec.stages:
            stages[dev.name] = spec.stages[0].resolve(dev, ops)
            if not ops.nrhs:    # the single kernel needs a right-hand side
                design = spec.designs[-1]
        designs[dev.name] = design
    lead = devices[0].name       # the caller's device when capturing
    staged = spec.stages and designs[lead] == spec.designs[-1]
    check_arg(not (capturing and staged and ops.nrhs), 11,    # the stream
              f"a captured {spec.name} cannot replay its stages faithfully "
              f"(its solve skips singular lanes); capture them one by one")
    factor = stages[lead] if staged else designs[lead]
    target = None if cfg.layout is None else normalize_layout(cfg.layout)
    if (target is None and governed and factor == "window"
            and stack_layouts(ops.mats) == {LANE_MAJOR}):
        target = INTERLEAVED
    if target is not None and all(
            x is None or is_interleaved_stack(x) == (target == INTERLEAVED)
            for x in (ops.mats, ops.rhs)):
        target = None           # nothing to convert
    return CallPlan(
        designs=designs, stage_designs=stages, layout=target,
        governed=governed, pipelined=pipelined, devices=devices,
        buffers=min(cfg.streams or 3, 3) if pipelined else 1,
        verify=cfg.verify is not None and (ops.rhs is None or ops.nrhs > 0),
        resilient=cfg.resilient)


# --- the layers --------------------------------------------------------------

def run(spec: OpSpec, cfg: ExecConfig, ops: Operands):
    """Run one validated batched call through the layer stack.

    Each pointer-array operand becomes one array here, once, for every
    layer below (:func:`~repro.core.batch_args.lane_stack`); a gathered
    operand the call writes goes back into the caller's lanes when the
    call returns or raises.  Then :func:`plan_call` plans the call, and
    only the layers the plan makes active run: an empty call returns at
    once (with an empty report when the driver reports).  The call's
    arena leases go back when it ends, either way.
    """
    def stacked(operand, name):
        return lane_stack(operand, write_back=cfg.execute
                          and spec.roles.get(name, IN) != IN)

    try:
        with stacked(ops.mats, "a") as ops.mats, \
                stacked(ops.rhs, "b") as ops.rhs, \
                stacked(ops.pivots, "pivots") as ops.pivots:
            from .verify import run_verified
            plan = ops.call.plan = plan_call(spec, cfg, ops)
            layers = run_verified if plan.verify else run_layers
            report = None if plan.empty else layers(spec, cfg, ops)
            if cfg.reports:
                report = report or empty_report(spec, cfg, ops)
                report.verify_mode = cfg.verify.mode if cfg.verify else ""
            return report
    finally:
        ops.call.leases.release()


def empty_report(spec: OpSpec, cfg: ExecConfig, ops: Operands):
    """A :class:`~repro.core.resilience.BatchReport` of nothing yet."""
    from .resilience import BatchReport
    return BatchReport(spec.name, ops.batch, method_requested=cfg.method,
                       info=ops.info)


def run_layers(spec: OpSpec, cfg: ExecConfig, ops: Operands):
    """The layers below verify: the layout layer when the plan names a
    target, else govern directly; then every lane no shard finished is
    prepared, written back and scored (:meth:`_Call.finish`)."""
    layer = convert_layout if ops.call.plan.layout is not None else govern
    report = layer(spec, cfg, ops)
    ops.call.finish(ops)
    return report


def convert_layout(spec: OpSpec, cfg: ExecConfig, ops: Operands):
    """The layout layer: convert once at the batch boundary, then govern.

    Entered only when the plan names a layout some operand is not in.  If
    the layers below raise, every lane already copied into the working
    copies goes back into the caller's storage, as a gathered pointer
    array's lanes do (:func:`~repro.core.batch_args.lane_stack`).
    """
    (a, b), writeback, moved = convert_batch_layout(
        ops.call.plan.layout, (ops.mats, ops.rhs), batch=ops.batch,
        outputs=(spec.roles["a"] != IN, True), leases=ops.call.leases)
    ops.call.conversion.add(moved)
    inner = ops.relayout(mats=a, rhs=b)
    # The working copies are filled from the caller's operands per lane
    # range, and written back the same way.
    staging = ops.call.staged(ops.batch)
    pairs = [(src, work) for src, work in ((ops.mats, inner.mats),
                                           (ops.rhs, inner.rhs))
             if work is not src]
    if not all(ops.call.leases.holds(work) for _, work in pairs):
        staging.shared = False
    if spec.roles["a"] == IN and inner.mats is not ops.mats:
        staging.caller_mats = ops.mats

    def fill(lo, hi):
        for src, work in pairs:
            copy_lanes(work, src, lo, hi)

    staging.add(fill, writeback)
    try:
        return govern(spec, cfg, inner)
    except BaseException:
        for lo, hi in lane_runs(staging.prepared, [(0, ops.batch)]):
            writeback(lo, hi)
        raise


def launch_kernels(cfg: ExecConfig, ops: Operands, kernels) -> None:
    """Launch ``kernels`` in turn on ``cfg``'s device and stream, through
    the launcher in use (:func:`repro.gpusim.ahead.launcher`); the first
    launch takes the call's layout-conversion charge."""
    run = ahead.launcher()
    for kernel in kernels:
        run(cfg.device, kernel, stream=cfg.stream, execute=cfg.execute,
            conversion=ops.call.conversion)


def govern(spec: OpSpec, cfg: ExecConfig, ops: Operands):
    """The governance layer: a governed call is leased, chunked and
    pipelined (:func:`repro.core.memory_plan.run_governed`); any other
    runs its whole batch at once, through the resilience layer when the
    plan says so, else as one dispatch of the plan's design.

    A resilient call's pristine snapshot (which its retries, quarantine
    and failover rewind from) is registered here unless the verify layer
    already did, and is filled per lane range like every other
    :class:`Staging` step.
    """
    plan = ops.call.plan
    if plan.resilient and ops.call.pristine is None:
        ops.call.pristine = ops.call.staged(ops.batch).snapshot(spec, ops)
    if plan.governed:
        from .memory_plan import run_governed
        return run_governed(spec, cfg, ops)
    if ops.call.staging is not None:
        ops.call.staging.prepare([(0, ops.batch)])
    if plan.resilient:
        from .resilience import run_resilient
        return run_resilient(spec, cfg, ops)
    return spec.dispatch(plan.design(cfg.device), cfg, ops)     # no report
