"""Span tracer for the ``repro`` stack, applied from outside the library.

:class:`Tracer` wraps functions of ``repro.*`` without touching ``src/``:
every module attribute bound to a traced function object (the defining
module's own name plus every ``from x import f`` re-binding) is rebound
to a timing wrapper, a few class methods are replaced on their class,
and everything is restored on exit.

Each call of a traced function records one :class:`Span` (name, layer,
start, end, thread, parent, call id).  The parent is the innermost span
still open on the same thread; a span's *self time* is its duration minus
its children's durations, so the self times of all spans add up exactly
to the durations of the root spans (one set per thread).  Spans are
folded into per-thread totals as they close and the first ones are kept
in memory; :meth:`Tracer.chrome_trace` turns those into a Chrome/Perfetto
trace with absolute timestamps and one track per thread.

:func:`layer_metrics` reduces the totals and the hook counters to the
per-layer metrics listed in :data:`PER_LAYER`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter

# Every public function defined in one of these modules is traced under
# the module's layer.
MODULE_LAYERS = {
    "repro.core.gbsv": "driver",
    "repro.core.gbtrf": "driver",
    "repro.core.gbtrs": "driver",
    "repro.core.batched": "driver",
    "repro.core.gbtf2": "gbtf2",
    "repro.core.gbtrf_window": "window",
    "repro.core.solve_blocks": "solve_blocks",
    "repro.gpusim.kernel": "launch",
    "repro.core.batch_args": "batch_args",
    "repro.band.layout": "layout",
    "repro.core.memory_plan": "memory_plan",
    "repro.core.pipeline": "pipeline",
    "repro.core.resilience": "resilience",
    "repro.core.verify": "verify",
    "repro.serve.service": "serve",
    "repro.serve.cache": "serve",
}

# Functions whose layer is not their module's, and private functions that
# mark a layer boundary (the pipeline's per-device worker body).
FUNCTION_LAYERS = {
    "repro.core.batch_args.convert_batch_layout": "layout",
    "repro.core.verify.band_mv_batch": "verify_gate",
    "repro.core.verify.plu_apply_batch": "verify_gate",
    "repro.core.verify.band_norms_inf": "verify_gate",
    "repro.core.verify.factor_norms_inf": "verify_gate",
    "repro.core.verify.pivot_growth_batch": "verify_gate",
    "repro.serve.cache.operand_digest": "serve_digest",
    "repro.core.pipeline._run_shard": "pipeline",
}

# Class methods traced in place: the service's public entry points and
# its flush (a flush is one "call" of the serve workload).
METHOD_LAYERS = {
    "repro.serve.service.SolverService": (
        "serve", ("submit", "poll", "flush", "_flush_locked")),
}

# Kernel bodies (every ``repro`` subclass of ``gpusim.kernel.Kernel``).
KERNEL_METHODS = ("run_block", "run_batch_vectorized")

# Spans kept in full however many there are (the serve metrics need every
# flush's start and end).
FLUSH = "service.SolverService._flush_locked"
RETAIN = (FLUSH,)

# Kernels reported one by one (``kernel.<name>.*``).
KERNELS = ("gbtrf_window", "gbtrf_fused", "gbtrs_fwd_blocked",
           "gbtrs_bwd_blocked", "gbsv_fused")

GBTF2_OPS = ("rank_one_update", "swap_right", "scale_column",
             "pivot_search")

# Layer -> self-time metric, for layers without a finer split.
SELF_METRIC = {
    "window": "window.self_us",
    "kernel": "kernel.self_us",
    "launch": "launch.self_us",
    "batch_args": "batch_args.self_us",
    "driver": "driver.self_us",
    "layout": "layout.convert_us",
    "memory_plan": "memory_plan.self_us",
    "resilience": "resilience.self_us",
    "verify": "verify.self_us",
    "verify_gate": "verify.gate_us",
    "serve": "serve.self_us",
    "serve_digest": "serve.digest_us",
}

# Self-time metrics: together they partition the root-span time.
SELF_METRICS = (
    [f"gbtf2.{op}_us" for op in GBTF2_OPS] + ["gbtf2.other_us"]
    + ["solve_blocks.forward_us", "solve_blocks.backward_us",
       "solve_blocks.other_us", "pipeline.self_us", "pipeline.shard_us"]
    + sorted(set(SELF_METRIC.values())))

PER_SOLVE = "us/solve"
MODELED = "modeled_us/solve"    # simulated device time, not host time
PER_CALL = "1/call"

# Every per-layer metric, with its unit.  A "call" is one timed driver
# call on the batch workloads and one flush on serve_mixed.
PER_LAYER = (
    [(m, PER_SOLVE) for m in SELF_METRICS]
    + [(f"kernel.{k}.{what}", unit) for k in KERNELS
       for what, unit in (("host_us", PER_SOLVE), ("modeled_us", MODELED),
                          ("gflop", "GFLOP/call"), ("dram_mb", "MB/call"))]
    + [("gpusim.modeled_us", MODELED),
       ("launch.count", PER_CALL), ("launch.vec_frac", "fraction"),
       ("launch.rung_direct", PER_CALL), ("launch.rung_soa", PER_CALL),
       ("launch.rung_pack", PER_CALL), ("launch.rung_block", PER_CALL),
       ("launch.pack_mb", "MB/call"),
       ("driver.calls", PER_CALL),
       ("layout.soa_mb", "MB/call"),
       ("memory_plan.chunks", PER_CALL), ("memory_plan.pool_peak_mb", "MB"),
       ("pipeline.worker_us", PER_SOLVE),
       ("pipeline.parallel_eff", "fraction"),
       ("pipeline.makespan_us", MODELED),
       ("pipeline.h2d_mb", "MB/call"), ("pipeline.d2h_mb", "MB/call"),
       ("resilience.retries", PER_CALL), ("resilience.fallbacks", PER_CALL),
       ("verify.lanes", PER_CALL), ("verify.recomputes", PER_CALL),
       ("serve.queue_ms_p50", "ms"), ("serve.queue_ms_p99", "ms"),
       ("serve.flush_ms_p50", "ms"), ("serve.group_mean", "requests"),
       ("serve.hit_rate", "fraction"), ("serve.factorizations", PER_CALL),
       ("serve.evictions", PER_CALL),
       ("loadgen.late_ms_p99", "ms"),
       ("trace.overhead_frac", "ratio"), ("trace.root_coverage", "fraction"),
       ("trace.root_us", PER_SOLVE),
       ("check.residual_max", "scaled_residual")])

_TRACED = "__stack_tracer_original__"


class Span:
    """One traced call.  Times are ``perf_counter_ns`` values."""

    __slots__ = ("name", "layer", "start", "end", "thread", "parent",
                 "call", "child")

    def __init__(self, name, layer, thread, parent, call):
        self.name = name
        self.layer = layer
        self.thread = thread
        self.parent = parent
        self.call = call
        self.child = 0          # summed duration of direct children
        self.start = self.end = 0

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child


class Tracer:
    """Context manager that traces the ``repro`` stack while active.

    ``call`` is the call id stamped on spans as they open; the harness
    sets it before each timed call (the serve flush hook advances it).

    Every span is folded into per-thread totals as it closes
    (:meth:`totals`); the first ``KEEP`` spans are also retained for the
    Chrome trace, and spans named in :data:`RETAIN` are always retained
    (``retained[name]``).  Memory stays bounded however long the run.
    """

    KEEP = 100_000

    def __init__(self):
        self.spans: list[Span] = []
        self.retained: dict[str, list] = {name: [] for name in RETAIN}
        self.counts: Counter = Counter()
        self.lock = threading.Lock()
        self.call = -1
        self.main_thread = threading.get_ident()
        self.thread_names: dict[int, str] = {}
        self.layer_of: dict[str, str] = {}
        self._thread_totals: list[tuple] = []
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- patching --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        """Rebind every traced function and method to its wrapper."""
        wrappers = {}
        for fn, name, layer in _traced_functions():
            wrappers[id(fn)] = (fn, self.wrap(fn, name, layer))
        for mod in _repro_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        for cls, attr, fn, name, layer in _traced_methods():
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(fn, name, layer))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` changed.

        Also unwraps any wrapper a module picked up by importing a patched
        name while tracing was active, so no wrapper outlives the tracer.
        """
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for mod in _repro_modules():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and _TRACED in val.__dict__:
                    setattr(mod, attr, val.__dict__[_TRACED])

    def wrap(self, fn, name: str, layer: str):
        """Return ``fn`` wrapped so each call records a :class:`Span`."""
        tracer = self
        local = self._local
        spans = self.spans
        keep = self.KEEP
        retained = self.retained.get(name)
        clock = time.perf_counter_ns
        hook = EXIT_HOOKS.get(name)
        enter = ENTER_HOOKS.get(name)
        self.layer_of[name] = layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = tracer._thread_state()
            if enter is not None:
                enter(tracer)
            parent = stack[-1] if stack else None
            span = Span(name, layer, local.tid, parent, tracer.call)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = span.end = clock()
                stack.pop()
                dur = end - span.start
                acc = local.totals.get(name)
                if acc is None:
                    acc = local.totals[name] = [0, 0, 0, 0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - span.child
                if parent is None:
                    acc[3] += dur
                else:
                    parent.child += dur
                if len(spans) < keep:
                    spans.append(span)
                if retained is not None:
                    retained.append(span)
            if hook is not None:
                result = hook(tracer, span, args, result)
            return result

        setattr(traced, _TRACED, fn)
        return traced

    def _thread_state(self) -> list:
        local = self._local
        local.stack = []
        local.totals = {}
        local.tid = threading.get_ident()
        self.thread_names[local.tid] = threading.current_thread().name
        self._thread_totals.append((local.tid, local.totals))
        return local.stack

    def totals(self) -> dict:
        """``{(span name, on main thread): [count, total ns, self ns, root
        ns]}`` summed over threads."""
        out = {}
        for tid, per_name in list(self._thread_totals):
            main = tid == self.main_thread
            for name, acc in list(per_name.items()):
                cur = out.setdefault((name, main), [0, 0, 0, 0])
                for i, v in enumerate(acc):
                    cur[i] += v
        return out

    def add(self, **counts) -> None:
        """Accumulate hook counters (hooks also run on pipeline workers)."""
        with self.lock:
            self.counts.update(counts)

    # -- export ----------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Chrome/Perfetto trace of the retained spans: absolute
        timestamps (µs on the ``perf_counter`` clock), one track per
        thread."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        tids = {}
        for tid in [self.main_thread] + [s.thread for s in self.spans]:
            tids.setdefault(tid, len(tids))
        events = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": t,
                   "args": {"name": self.thread_names.get(tid, "main")}}
                  for tid, t in tids.items()]
        for i, s in enumerate(self.spans):
            events.append({
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
                "tid": tids[s.thread], "ts": s.start / 1e3,
                "dur": s.duration / 1e3,
                "args": {"span": i, "call": s.call,
                         "parent": index.get(id(s.parent)),
                         "self_us": s.self_ns / 1e3}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def _short(modname: str) -> str:
    return modname.rsplit(".", 1)[-1]


def _traced_functions():
    """(function, span name, layer) for every traced module function."""
    out = []
    for modname, layer in MODULE_LAYERS.items():
        mod = importlib.import_module(modname)
        for attr, val in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(val)
                    or val.__module__ != modname):
                continue
            out.append((val, f"{_short(modname)}.{attr}",
                        FUNCTION_LAYERS.get(f"{modname}.{attr}", layer)))
    for path, layer in FUNCTION_LAYERS.items():
        modname, attr = path.rsplit(".", 1)
        if attr.startswith("_"):
            fn = getattr(importlib.import_module(modname), attr)
            out.append((fn, f"{_short(modname)}.{attr}", layer))
    return out


def _traced_methods():
    """(class, attribute, function, span name, layer) for traced methods."""
    out = []
    for path, (layer, names) in METHOD_LAYERS.items():
        modname, clsname = path.rsplit(".", 1)
        cls = getattr(importlib.import_module(modname), clsname)
        for attr in names:
            out.append((cls, attr, cls.__dict__[attr],
                        f"{_short(modname)}.{clsname}.{attr}", layer))
    kernel = importlib.import_module("repro.gpusim.kernel").Kernel
    seen, todo = set(), [kernel]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub in seen or not sub.__module__.startswith("repro."):
                continue
            seen.add(sub)
            todo.append(sub)
            for attr in KERNEL_METHODS:
                fn = sub.__dict__.get(attr)
                if inspect.isfunction(fn):
                    out.append((sub, attr, fn,
                                f"kernel.{sub.__name__}.{attr}", "kernel"))
    return out


def _outermost(span: Span, layer: str) -> bool:
    p = span.parent
    while p is not None:
        if p.layer == layer:
            return False
        p = p.parent
    return True


# -- hooks ------------------------------------------------------------------
#
# Exit hooks run after the span closed, so their own cost lands in the
# parent's self time (it is part of the measured tracing overhead).

def _on_launch(tracer, span, args, record):
    kernel = args[1]
    grid = kernel.grid()
    cost = kernel.block_cost()
    if not record.vectorized:
        rung = "block"
    elif record.soa:
        rung = "soa"
    elif record.packed:
        rung = "pack"
    else:
        rung = "direct"
    k = record.kernel_name
    tracer.add(**{f"kernel.{k}.host_ns": span.duration,
                  f"kernel.{k}.modeled_s": record.time,
                  f"kernel.{k}.flop": grid * cost.flops,
                  f"kernel.{k}.dram_bytes": grid * cost.dram_traffic,
                  "launch.count": 1, f"launch.rung_{rung}": 1,
                  "launch.pack_bytes": record.pack_bytes})
    return record


def _on_pipeline(tracer, span, args, result):
    presult = result[-1]
    tracer.add(**{"pipeline.makespan_s": presult.makespan,
                  "pipeline.h2d_bytes": presult.h2d_bytes,
                  "pipeline.d2h_bytes": presult.d2h_bytes,
                  "pipeline.device_ns": len(presult.devices) * span.duration})
    return result


def _on_plan(tracer, span, args, plan):
    tracer.add(**{"memory_plan.chunks": plan.num_chunks})
    return plan


def _on_convert(tracer, span, args, result):
    if result is None:
        return None
    converted, writeback, moved = result
    tracer.add(**{"layout.bytes": moved})
    # The write-back closure runs later, in the driver; trace it as layout.
    return converted, tracer.wrap(writeback, span.name + ".writeback",
                                  "layout"), moved


def _on_flush_enter(tracer):
    tracer.call += 1


def _on_resilient(tracer, span, args, result):
    report = result[-1]
    if _outermost(span, "resilience"):
        tracer.add(**{"resilience.retries": report.retries,
                      "resilience.fallbacks": len(report.fallbacks)})
    return result


def _on_verified(tracer, span, args, result):
    report = result[-1]
    if _outermost(span, "verify"):
        tracer.add(**{"verify.lanes": report.verified_lanes,
                      "verify.recomputes": report.recomputes})
    return result


# Span name -> hook(tracer, span, args, result) run after the span closes.
# ``gb*_batch_resilient`` and ``verified_gb*_batch`` return
# ``(..., report)``.
EXIT_HOOKS = {
    "kernel.launch": _on_launch,
    "pipeline.execute_pipelined": _on_pipeline,
    "memory_plan.plan_batch": _on_plan,
    "batch_args.convert_batch_layout": _on_convert,
    **{f"resilience.{op}_batch_resilient": _on_resilient
       for op in ("gbtrf", "gbtrs", "gbsv")},
    **{f"verify.verified_{op}_batch": _on_verified
       for op in ("gbtrf", "gbtrs", "gbsv")},
}

# Span name -> hook(tracer) run before the span opens.
ENTER_HOOKS = {FLUSH: _on_flush_enter}


# -- reduction --------------------------------------------------------------

def self_metric(name: str, layer: str, main: bool) -> str:
    """The self-time metric a span's self time counts towards."""
    fn = name.rsplit(".", 1)[-1]
    if layer == "gbtf2":
        for op in GBTF2_OPS:
            if fn.startswith(op):
                return f"gbtf2.{op}_us"
        return "gbtf2.other_us"
    if layer == "solve_blocks":
        for part in ("forward", "backward"):
            if fn.startswith(part):
                return f"solve_blocks.{part}_us"
        return "solve_blocks.other_us"
    if layer == "pipeline":
        return "pipeline.self_us" if main else "pipeline.shard_us"
    return SELF_METRIC[layer]


def layer_metrics(tracer: Tracer, *, solves: int, calls: int) -> dict:
    """Per-layer metrics from the totals and counters of a traced phase.

    ``solves`` is the number of systems solved while tracing and
    ``calls`` the number of timed calls (flushes on serve_mixed).
    Returns ``{name: value}`` for every tracer-derived name in
    :data:`PER_LAYER`; the harness fills in the rest.
    """
    per_solve = 1e-3 / max(solves, 1)          # ns -> us per solve
    per_call = 1.0 / max(calls, 1)
    out = {m: 0.0 for m in SELF_METRICS}
    roots = 0
    driver_calls = 0
    worker_ns = 0
    for (name, main), (count, total, self_ns, root) in tracer.totals().items():
        layer = tracer.layer_of[name]
        out[self_metric(name, layer, main)] += self_ns * per_solve
        roots += root
        if layer == "driver":
            driver_calls += count
        if name == "pipeline._run_shard":
            worker_ns += total
    c = tracer.counts
    for k in KERNELS:
        out[f"kernel.{k}.host_us"] = c[f"kernel.{k}.host_ns"] * per_solve
        out[f"kernel.{k}.modeled_us"] = (c[f"kernel.{k}.modeled_s"] * 1e6
                                         / max(solves, 1))
        out[f"kernel.{k}.gflop"] = c[f"kernel.{k}.flop"] / 1e9 * per_call
        out[f"kernel.{k}.dram_mb"] = (c[f"kernel.{k}.dram_bytes"] / 1e6
                                      * per_call)
    launches = c["launch.count"]
    out["launch.count"] = launches * per_call
    out["launch.vec_frac"] = ((launches - c["launch.rung_block"])
                              / launches if launches else 0.0)
    for rung in ("direct", "soa", "pack", "block"):
        out[f"launch.rung_{rung}"] = c[f"launch.rung_{rung}"] * per_call
    out["launch.pack_mb"] = c["launch.pack_bytes"] / 1e6 * per_call
    out["driver.calls"] = driver_calls * per_call
    out["layout.soa_mb"] = c["layout.bytes"] / 1e6 * per_call
    out["memory_plan.chunks"] = c["memory_plan.chunks"] * per_call
    out["pipeline.worker_us"] = worker_ns * per_solve
    out["pipeline.parallel_eff"] = (worker_ns / c["pipeline.device_ns"]
                                    if c["pipeline.device_ns"] else 0.0)
    out["pipeline.makespan_us"] = (c["pipeline.makespan_s"] * 1e6
                                   / max(solves, 1))
    out["pipeline.h2d_mb"] = c["pipeline.h2d_bytes"] / 1e6 * per_call
    out["pipeline.d2h_mb"] = c["pipeline.d2h_bytes"] / 1e6 * per_call
    for key in ("resilience.retries", "resilience.fallbacks",
                "verify.lanes", "verify.recomputes"):
        out[key] = c[key] * per_call
    out["trace.root_us"] = roots * per_solve
    return out


def main_root_ns(tracer: Tracer) -> int:
    """Summed duration of the root spans on the main thread."""
    return sum(acc[3] for (_, main), acc in tracer.totals().items() if main)
