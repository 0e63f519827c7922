"""The four workloads of the stack benchmark, run inside one worker process.

:func:`run_workload` makes the inputs from the seed with numpy alone (the
library only ever sees the generated arrays), sets the stack up, measures
for the given number of seconds, checks every output and returns a
JSON-ready result.  ``run.py`` runs each workload in a fresh process;
``test_stack.py`` calls :func:`run_workload` in-process with
``quick=True``.

Workloads (fp64, H100 model):

* ``paper_gbsv``  -- the paper's headline configuration: batch=1000,
  n=256, kl=ku=8, one right-hand side, default knobs (window gbtrf +
  blocked gbtrs).  The plain single-threaded baseline of ``full_stack``.
* ``small_fused`` -- batch=1000, n=32, kl=2, ku=3: the small-size regime
  where the fused gbsv kernel runs and fixed per-call cost dominates.
* ``full_stack``  -- ``paper_gbsv``'s operands through every layer
  (layout, verify, resilience, chunking, 2-device pipeline).  Its
  difference from ``paper_gbsv`` is the cost of the stack.
* ``serve_mixed`` -- ``SolverService`` traffic at n=64, kl=ku=3: 90% of
  requests reuse one of 8 hot operators, 10% bring a fresh one.  Poisson
  open loop at 1000 req/s, then a back-to-back burst for capacity.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import platform
import resource
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgbcon, dgbsv

import repro
import tracer as tr
from repro import H100_PCIE, BatchingPolicy, SolverService, Stream, VerifyPolicy
from repro.gpusim.memory import memory_pool
from repro.gpusim.multidevice import replicate_device


@dataclass(frozen=True)
class BatchWorkload:
    """A closed loop of ``gbsv_batch`` calls by one caller."""

    batch: int
    n: int
    kl: int
    ku: int
    knobs: tuple = ()       # extra gbsv_batch keywords, as (name, value)
    warmup: int = 2         # untimed calls counted as set-up


@dataclass(frozen=True)
class ServeWorkload:
    """Open-loop then burst traffic into one ``SolverService``."""

    n: int = 64
    kl: int = 3
    ku: int = 3
    rate: float = 1000.0    # open-loop Poisson arrivals per second
    hot: int = 8            # operators most requests reuse
    fresh: float = 0.1      # share of requests bringing a new operator
    rhs_pool: int = 32      # right-hand sides requests draw from
    max_group: int = 32
    max_delay: float = 0.002
    cache_entries: int = 32
    warmup: int = 256       # untimed requests counted as set-up
    open_share: float = 0.75   # of --seconds; the burst gets the rest
    burst_rate: float = 8000.0  # sizes the request plan, not the burst


FULL_STACK_KNOBS = (("layout", "soa"), ("verify", "cheap"),
                    ("resilient", True), ("chunk_hint", 125), ("devices", 2))

WORKLOADS = {
    "paper_gbsv": BatchWorkload(batch=1000, n=256, kl=8, ku=8),
    "small_fused": BatchWorkload(batch=1000, n=32, kl=2, ku=3),
    "full_stack": BatchWorkload(batch=1000, n=256, kl=8, ku=8,
                                knobs=FULL_STACK_KNOBS),
    "serve_mixed": ServeWorkload(),
}

# Tiny sizes with the same code paths, for the tests.
QUICK = {
    "paper_gbsv": replace(WORKLOADS["paper_gbsv"], batch=8),
    "small_fused": replace(WORKLOADS["small_fused"], batch=8),
    "full_stack": replace(WORKLOADS["full_stack"], batch=8,
                          knobs=FULL_STACK_KNOBS[:3]
                          + (("chunk_hint", 2), ("devices", 2))),
    "serve_mixed": replace(WORKLOADS["serve_mixed"], rate=300.0,
                           warmup=32, burst_rate=2000.0),
}

END_TO_END = (("setup_s", "s"), ("solves_per_s", "1/s"),
              ("latency_ms_p50", "ms"), ("latency_ms_tail", "ms"),
              ("peak_rss_mb", "MiB"))

ORACLE_LANES = 16
MIN_CALLS = 3
# Latency percentile reported as ``latency_ms_tail``: the batch loops
# collect tens of calls, the serve loop over ten thousand requests (p99
# of the open loop follows the host's stalls more than the service).
BATCH_TAIL = 75
SERVE_TAIL = 90
# Output digests of the serve workload cover its first requests.
SERVE_DIGEST_REQUESTS = 64
# Polling period of the open-loop generator while it waits for the next
# arrival: well under the service's 2 ms max_delay.
POLL_INTERVAL = 0.0001
# The open loop runs in this many segments, with a host-speed
# calibration between them.
OPEN_SEGMENTS = 6


class HostSpeed:
    """Host-speed calibration: fixed numpy kernels timed between
    measurements.

    The host this benchmark runs on (a shared VM) goes through phases,
    seconds to tens of seconds long, in which the same code runs 10% to
    2x slower.  Timing fixed kernels that do not touch ``repro`` at most
    every ``EVERY_S`` seconds and multiplying each measured time by the
    speed they show (reference time / kernel time) reports times at a
    constant reference speed: the phases cancel, changes to ``repro`` do
    not.

    The phases slow memory-bound and interpreter-bound code by different
    amounts, so the speed is the geometric mean of two kernels:
    ``"stream"`` (elementwise ops on 1 MB arrays, like the 1000-lane slabs
    of the n=256 workloads) and ``"small"`` (many ops on 64-element
    arrays, like per-call and per-request overheads).  ``REFERENCE`` holds
    each kernel's best-of-three time in the fast phase of the 2-vCPU VM
    the baseline in ``results/`` was recorded on.  A workload computing on
    ``threads`` threads times ``"stream"`` on as many threads at once and
    takes the slowest, since a slow phase may hit one vCPU only.
    """

    REFERENCE = {"stream": 0.0045, "small": 0.003}
    EVERY_S = 0.5

    def __init__(self, threads: int = 1):
        rng = np.random.default_rng(0)

        def operands(shape):
            return rng.random(shape), rng.random(shape), np.empty(shape)

        self.stream = [operands((1000, 128)) for _ in range(threads)]
        self.small = operands((64,))
        self.samples: list[float] = []
        self.scale = 1.0
        self._at = -np.inf

    @staticmethod
    def _kernel(kernel: str, a, b, c) -> float:
        """Best-of-three time of one kernel."""
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            if kernel == "stream":
                for _ in range(20):
                    np.multiply(a, b, out=c)
                    np.subtract(c, a, out=c)
                    np.add(b, c, out=c)
            else:
                for i in range(3000):
                    np.multiply(a, b, out=c)
                    np.add(c, a, out=c)
                    int(c.argmax())
                    c[i % 64] = 0.5
            best = min(best, time.perf_counter() - t0)
        return best

    def measure(self) -> float:
        """Measure the host speed now; returns it (the new scale).

        ``"stream"`` runs on every thread at once (numpy releases the GIL
        inside its loops) and the slowest thread counts; ``"small"`` holds
        the GIL, so it runs on the calling thread only.
        """
        times = [0.0] * len(self.stream)

        def run(i):
            times[i] = self._kernel("stream", *self.stream[i])

        workers = [threading.Thread(target=run, args=(i,))
                   for i in range(len(times))]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        stream = self.REFERENCE["stream"] / max(times)
        small = self.REFERENCE["small"] / self._kernel("small", *self.small)
        self.scale = (stream * small) ** 0.5
        self.samples.append(self.scale)
        self._at = time.perf_counter()
        return self.scale

    def refresh(self) -> float:
        """Measure again if the last measurement is ``EVERY_S`` old."""
        if time.perf_counter() - self._at >= self.EVERY_S:
            self.measure()
        return self.scale

    @property
    def speed(self) -> float:
        """Median host speed relative to the reference host."""
        return float(np.median(self.samples))


# -- inputs -----------------------------------------------------------------

def band_operands(rng, count: int, n: int, kl: int, ku: int) -> np.ndarray:
    """``count`` random band operators in LAPACK factor layout.

    Shape ``(count, 2*kl+ku+1, n)``; entries inside the band are uniform
    in [-1, 1], the fill-in rows and the unused corners are zero.
    """
    ldab = 2 * kl + ku + 1
    r = np.arange(ldab)[:, None]
    row = r - (kl + ku) + np.arange(n)[None, :]   # dense row of each slot
    inside = (r >= kl) & (row >= 0) & (row < n)
    return rng.uniform(-1.0, 1.0, size=(count, ldab, n)) * inside


def digest(*arrays) -> str:
    """Content digest of arrays (shape, dtype and bytes)."""
    h = hashlib.sha1()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.shape}{a.dtype.str};".encode())
        h.update(memoryview(a).cast("B"))
    return h.hexdigest()


# -- checks -----------------------------------------------------------------

def scaled_residuals(ab, x, b, kl: int, ku: int) -> np.ndarray:
    """Per-system ``||A x - b|| / (||A|| ||x|| + ||b||)`` (infinity norms).

    The scaled residual of ``repro.solve_residual``, computed for a whole
    stack at once: ``ab`` is ``(count, ldab, n)`` in factor layout and
    ``x``/``b`` are ``(count, n, nrhs)``.
    """
    count, _, n = ab.shape
    kv = kl + ku
    r = -np.array(b, dtype=np.float64)
    rowsum = np.zeros((count, n))
    for d in range(-kl, ku + 1):           # d = column - row
        lo, hi = max(0, d), n + min(0, d)
        if hi <= lo:
            continue
        a = ab[:, kv - d, lo:hi]
        r[:, lo - d:hi - d, :] += a[:, :, None] * x[:, lo:hi, :]
        rowsum[:, lo - d:hi - d] += np.abs(a)
    num = np.abs(r).max(axis=(1, 2))
    den = (rowsum.max(axis=1) * np.abs(x).max(axis=(1, 2))
           + np.abs(b).max(axis=(1, 2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, num / den, num)


def lapack_mismatch(ab, b, x, kl: int, ku: int, tol: float, *,
                    pivots=None, info=None) -> str | None:
    """Compare one solve with LAPACK's ``dgbsv``; ``None`` when it agrees.

    Pivots and ``info`` must match exactly; the solution must have a
    scaled residual within ``tol`` and differ from LAPACK's by at most
    ``tol / rcond`` (relative, infinity norm).
    """
    lub, lpiv, lx, linfo = dgbsv(kl, ku, ab, b)
    if info is not None and int(info) != int(linfo):
        return f"info {int(info)} != LAPACK {int(linfo)}"
    if pivots is not None and not np.array_equal(pivots, lpiv):
        return "pivots differ from LAPACK"
    berr = scaled_residuals(ab[None], x[None], b[None], kl, ku)[0]
    if not berr <= tol:
        return f"scaled residual {berr:.3g} > {tol:.3g}"
    anorm = float(np.abs(ab[kl:]).sum(axis=0).max())
    rcond, _ = dgbcon(kl, ku, lub, lpiv, anorm)
    fwd = float(np.abs(x - lx).max() / np.abs(lx).max())
    if not fwd <= tol / max(rcond, np.finfo(np.float64).eps):
        return f"solution differs from LAPACK by {fwd:.3g} (rcond {rcond:.3g})"
    return None


def _pools() -> list:
    """The device memory pools the workloads use."""
    return [memory_pool(d)
            for d in [H100_PCIE] + replicate_device(H100_PCIE, 2)]


def pools_in_use() -> int:
    """Bytes still charged to the device pools."""
    return sum(pool.in_use for pool in _pools())


def pool_peak_mb() -> float:
    return max(pool.peak for pool in _pools()) / 1e6


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Failure accounting: ``failed`` counts solves that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.residual_max = 0.0

    def fail(self, count: int, problem: str) -> None:
        self.failed += int(count)
        self.problems.append(problem)


# -- batch workloads ----------------------------------------------------------

@dataclass
class BatchOutput:
    factors: np.ndarray
    pivots: np.ndarray
    info: np.ndarray
    x: np.ndarray
    modeled_s: float

    def digest(self) -> str:
        return digest(self.factors, self.pivots, self.info, self.x)


def batch_call(spec: BatchWorkload, A, B, knobs: dict):
    """One ``gbsv_batch`` call on fresh operand copies; returns (s, output)."""
    a, b = A.copy(), B.copy()
    stream = Stream(H100_PCIE)
    t0 = time.perf_counter()
    res = repro.gbsv_batch(spec.n, spec.kl, spec.ku, 1, a, None, b,
                           stream=stream, **knobs)
    dt = time.perf_counter() - t0
    return dt, BatchOutput(a, np.asarray(res[0]), np.asarray(res[1]), b,
                           stream.elapsed)


@dataclass
class CallLoop:
    lat: list           # call seconds, wall clock
    norm: list          # call seconds at the reference host speed
    digests: set
    modeled: set        # modeled device seconds per call
    first: BatchOutput


def _timed_calls(spec, A, B, knobs, seconds, speed: HostSpeed,
                 tracer=None) -> CallLoop:
    """Closed loop of ``gbsv_batch`` calls for ``seconds``."""
    loop = CallLoop([], [], set(), set(), None)
    deadline = time.perf_counter() + seconds
    while len(loop.lat) < MIN_CALLS or time.perf_counter() < deadline:
        scale = speed.refresh()
        if tracer is not None:
            tracer.call = len(loop.lat)
        dt, out = batch_call(spec, A, B, knobs)
        loop.lat.append(dt)
        loop.norm.append(dt * scale)
        loop.digests.add(out.digest())
        loop.modeled.add(out.modeled_s)
        if loop.first is None:
            loop.first = out
    return loop


def check_batch(spec, A, B, out: BatchOutput, checks: Checks, calls: int,
                rng) -> None:
    """Residual gate on every lane and LAPACK on sampled lanes."""
    tol = VerifyPolicy().tol_for(spec.n, np.float64)
    resid = scaled_residuals(A, out.x, B, spec.kl, spec.ku)
    checks.residual_max = float(np.nanmax(resid))
    bad = set(np.flatnonzero(out.info).tolist())
    bad.update(np.flatnonzero(~(resid <= tol)).tolist())
    if bad:
        checks.problems.append(
            f"info != 0 or residual gate failed on lanes {sorted(bad)[:5]}")
    for k in rng.choice(spec.batch, size=min(ORACLE_LANES, spec.batch),
                        replace=False):
        why = lapack_mismatch(A[k], B[k], out.x[k], spec.kl, spec.ku, tol,
                              pivots=out.pivots[k], info=out.info[k])
        if why is not None:
            bad.add(int(k))
            checks.problems.append(f"lane {int(k)}: {why}")
    # Every timed call repeats the same inputs, so a lane that fails in
    # the checked output fails in every call.
    if bad:
        checks.fail(len(bad) * calls, f"{len(bad)} lanes failed")


def run_batch(name, spec: BatchWorkload, seed, seconds, trace, import_s,
              setup_only, trace_path):
    rng = np.random.default_rng(seed)
    A = band_operands(rng, spec.batch, spec.n, spec.kl, spec.ku)
    B = rng.uniform(-1.0, 1.0, size=(spec.batch, spec.n, 1))
    inputs = digest(A, B)
    knobs = dict(spec.knobs)

    setup_s = import_s
    warm = set()
    for _ in range(spec.warmup):
        dt, out = batch_call(spec, A, B, knobs)
        setup_s += dt
        warm.add(out.digest())
    # The pipeline computes on one worker thread per device.
    speed = HostSpeed(threads=knobs.get("devices", 1))
    setup = {"setup_s": setup_s * speed.measure(), "raw_setup_s": setup_s}
    if setup_only:
        return setup

    checks = Checks()
    if not trace:
        loop = _timed_calls(spec, A, B, knobs, seconds, speed)
        rss = peak_rss_mib()
        calls = len(loop.lat)

        def timings(lat):
            return {
                "solves_per_s": (spec.batch / np.median(lat), calls),
                "latency_ms_p50": (np.percentile(lat, 50) * 1e3, calls),
                "latency_ms_tail": (np.percentile(lat, BATCH_TAIL) * 1e3,
                                    calls)}

        metrics = {"setup_s": (setup["setup_s"], 1), **timings(loop.norm),
                   "peak_rss_mb": (rss, 1)}
        raw = {"setup_s": (setup_s, 1), **timings(loop.lat)}
    else:
        loop = _timed_calls(spec, A, B, knobs, seconds / 2, speed)
        with tr.Tracer() as tracer:
            traced = _timed_calls(spec, A, B, knobs, seconds / 2, speed,
                                  tracer)
        calls = len(traced.lat)
        layers = tr.layer_metrics(tracer, solves=spec.batch * calls,
                                  calls=calls)
        layers["gpusim.modeled_us"] = max(loop.modeled) * 1e6 / spec.batch
        layers["memory_plan.pool_peak_mb"] = pool_peak_mb()
        layers["trace.overhead_frac"] = (np.percentile(traced.norm, 50)
                                         / np.percentile(loop.norm, 50))
        layers["trace.root_coverage"] = (tr.main_root_ns(tracer)
                                         / (sum(traced.lat) * 1e9))
        metrics = per_layer(layers, calls)
        raw = {}
        calls += len(loop.lat)
        loop.digests |= traced.digests
        loop.modeled |= traced.modeled
        if trace_path:
            write_trace(tracer, trace_path)

    checks.attempted = spec.batch * calls
    first = loop.first
    if len(loop.digests | warm) != 1:
        checks.fail(checks.attempted,
                    f"{len(loop.digests | warm)} distinct output digests")
    if len(loop.modeled) != 1:
        checks.problems.append(
            f"modeled time varies: {sorted(loop.modeled)}")
    check_batch(spec, A, B, first, checks, calls,
                np.random.default_rng([seed, 1]))
    route = None
    if knobs:
        # Bit-identity across execution routes: the plain default-knob
        # call must produce the same bytes as the full stack.
        _, plain = batch_call(spec, A, B, {})
        route = plain.digest()
        if route != first.digest():
            checks.fail(checks.attempted,
                        "full-stack output differs from the plain route")
    leaked = pools_in_use()
    if leaked:
        checks.fail(spec.batch, f"{leaked} bytes left in the memory pools")
    if trace:
        metrics["check.residual_max"] = (checks.residual_max, 1)
    return _result(name, seed, metrics, checks, inputs, first.digest(),
                   route, speed, raw)


# -- serve workload -----------------------------------------------------------

class RequestPlan:
    """The seeded request sequence: operator, right-hand side, arrival."""

    def __init__(self, spec: ServeWorkload, seed, seconds: float):
        rng = np.random.default_rng(seed)
        n, kl, ku = spec.n, spec.kl, spec.ku
        self.hot = band_operands(rng, spec.hot, n, kl, ku)
        self.rhs = rng.uniform(-1.0, 1.0, size=(spec.rhs_pool, n))
        open_s = seconds * spec.open_share
        size = (spec.warmup + int(spec.rate * open_s * 1.3) + 64
                + int(spec.burst_rate * seconds * (1 - spec.open_share)))
        fresh = rng.random(size) < spec.fresh
        self.op = rng.integers(0, spec.hot, size)
        self.op[fresh] = spec.hot + np.arange(int(fresh.sum()))
        self.fresh = band_operands(rng, int(fresh.sum()), n, kl, ku)
        self.rhs_id = rng.integers(0, spec.rhs_pool, size)
        self.gap = rng.exponential(1.0 / spec.rate, size)
        self.size = size
        self.hot_count = spec.hot

    def operator(self, k: int) -> np.ndarray:
        op = self.op[k]
        return self.hot[op] if op < self.hot_count else self.fresh[
            op - self.hot_count]

    def digest(self) -> str:
        return digest(self.hot, self.fresh, self.rhs, self.op, self.rhs_id,
                      self.gap)


class ServeRun:
    """One service plus the bookkeeping of the requests sent to it."""

    def __init__(self, spec: ServeWorkload, plan: RequestPlan):
        self.spec = spec
        self.plan = plan
        self.stream = Stream(H100_PCIE)
        self.service = SolverService(
            policy=BatchingPolicy(max_group=spec.max_group,
                                  max_delay=spec.max_delay),
            cache_entries=spec.cache_entries, clock=time.perf_counter,
            stream=self.stream)
        self.next = 0
        self.lib_s = 0.0            # time spent inside service calls
        self.handles = []           # (plan index, due time, handle)

    def submit(self, due: float | None = None):
        k = self.next
        self.next += 1
        t0 = time.perf_counter()
        h = self.service.submit(self.spec.kl, self.spec.ku,
                                self.plan.operator(k),
                                self.plan.rhs[self.plan.rhs_id[k]])
        self.lib_s += time.perf_counter() - t0
        self.handles.append((k, t0 if due is None else due, h))
        return h

    def call(self, method):
        t0 = time.perf_counter()
        out = method()
        self.lib_s += time.perf_counter() - t0
        return out

    def open_loop(self, seconds: float, speed: HostSpeed):
        """Poisson arrivals, in ``OPEN_SEGMENTS`` segments.

        Between segments the service is flushed and the host speed
        measured.  The rate is offered at the reference speed: a segment's
        arrival gaps are divided by the speed measured before it, so a
        slow phase does not push the service toward saturation, and its
        latencies are scaled by the mean of the measurements around it.
        Returns ``(latencies, scaled latencies, lateness, first handle
        index)``; latency runs from each request's due time.
        """
        start = len(self.handles)
        lat, norm, late = [], [], []
        scale = speed.measure()
        for _ in range(OPEN_SEGMENTS):
            first = len(self.handles)
            late += self._open_segment(seconds / OPEN_SEGMENTS, scale)
            seg = [h.completed_at - d for _, d, h in self.handles[first:]]
            after = speed.measure()
            lat += seg
            norm += [x * (scale + after) / 2 for x in seg]
            scale = after
        return lat, norm, late, start

    def _open_segment(self, seconds: float, speed: float) -> list:
        """The generator spins until each arrival is due and polls the
        service (firing age flushes) every ``POLL_INTERVAL`` seconds while
        it waits.  Returns the lateness of each submit."""
        t_end = time.perf_counter() + seconds
        due = next_poll = time.perf_counter()
        late = []
        clock = time.perf_counter
        poll = self.service.poll
        while True:
            due += self.plan.gap[self.next] / speed
            if due >= t_end or self.next >= self.plan.size:
                break
            now = clock()
            while now < due:
                if now >= next_poll:
                    self.call(poll)
                    next_poll = now + POLL_INTERVAL
                now = clock()
            late.append(now - due)
            self.submit(due)
        self.call(self.service.flush)
        return late

    def burst(self, seconds: float, speed: HostSpeed):
        """Back-to-back submits for ``seconds``, then a flush.

        Every ``max_group`` submits end in a size flush; the time of each
        such cycle is recorded, and the host speed is measured between
        cycles.  Returns ``(requests, cycle seconds, scaled cycle seconds,
        modeled s)``; capacity is ``max_group`` over the median cycle,
        which a host stall of a few cycles does not move.
        """
        m0 = self.stream.elapsed
        first = self.next
        cycles, norm = [], []
        scale = speed.measure()
        t0 = t_cycle = time.perf_counter()
        while self.next < self.plan.size:
            self.submit()
            if (self.next - first) % self.spec.max_group == 0:
                now = time.perf_counter()
                cycles.append(now - t_cycle)
                norm.append((now - t_cycle) * scale)
                if now - t0 >= seconds:
                    break
                scale = speed.refresh()
                t_cycle = time.perf_counter()
        self.call(self.service.flush)
        return self.next - first, cycles, norm, self.stream.elapsed - m0


def check_serve(spec, run: ServeRun, checks: Checks, first: int, rng):
    """Residual gate on every timed request, LAPACK on a sample, and
    bit-identity of repeated (operator, right-hand side) pairs."""
    plan = run.plan
    timed = run.handles[first:]
    n = spec.n
    tol = VerifyPolicy().tol_for(n, np.float64)
    bad = set()
    for i, (_, _, h) in enumerate(timed):
        if h.shed or h.info != 0 or h.solution is None:
            bad.add(i)
    ok = [i for i in range(len(timed)) if i not in bad]
    resid_max = 0.0
    for lo in range(0, len(ok), 2048):
        part = ok[lo:lo + 2048]
        ks = [timed[i][0] for i in part]
        ab = np.stack([plan.operator(k) for k in ks])
        x = np.stack([timed[i][2].solution for i in part])[:, :, None]
        b = plan.rhs[plan.rhs_id[ks]][:, :, None]
        resid = scaled_residuals(ab, x, b, spec.kl, spec.ku)
        resid_max = max(resid_max, float(np.nanmax(resid)))
        bad.update(part[j] for j in np.flatnonzero(~(resid <= tol)))
    checks.residual_max = resid_max
    if bad:
        checks.problems.append(f"{len(bad)} requests failed the gate")
    for i in rng.choice(len(ok), size=min(ORACLE_LANES, len(ok)),
                        replace=False):
        k, _, h = timed[ok[i]]
        why = lapack_mismatch(plan.operator(k),
                              plan.rhs[plan.rhs_id[k]][:, None],
                              h.solution[:, None], spec.kl, spec.ku, tol)
        if why is not None:
            bad.add(ok[i])
            checks.problems.append(f"request {int(k)}: {why}")
    solutions = defaultdict(set)
    for i, (k, _, h) in enumerate(timed):
        if i not in bad:
            solutions[(plan.op[k], plan.rhs_id[k])].add(h.solution.tobytes())
    split = [key for key, sols in solutions.items() if len(sols) > 1]
    for i, (k, _, _) in enumerate(timed):
        if (plan.op[k], plan.rhs_id[k]) in split:
            bad.add(i)
    if split:
        checks.problems.append(
            f"{len(split)} (operator, rhs) pairs gave differing solutions")
    if bad:
        checks.fail(len(bad), f"{len(bad)} requests failed")


def run_serve(name, spec: ServeWorkload, seed, seconds, trace, import_s,
              setup_only, trace_path):
    plan = RequestPlan(spec, seed, seconds)
    inputs = plan.digest()

    t0 = time.perf_counter()
    run = ServeRun(spec, plan)
    for _ in range(spec.warmup):
        run.submit()
    run.service.flush()
    setup_s = import_s + time.perf_counter() - t0
    speed = HostSpeed()
    setup = {"setup_s": setup_s * speed.measure(), "raw_setup_s": setup_s}
    if setup_only:
        run.service.close()
        return setup

    first = len(run.handles)
    checks = Checks()
    open_s = seconds * spec.open_share
    burst_s = seconds - open_s
    if not trace:
        lat, norm, late, _ = run.open_loop(open_s, speed)
        _, cycles, ncycles, _ = run.burst(burst_s, speed)
        rss = peak_rss_mib()

        def timings(lat, cycles):
            return {
                "solves_per_s": (spec.max_group / np.median(cycles),
                                 len(cycles)),
                "latency_ms_p50": (np.percentile(lat, 50) * 1e3, len(lat)),
                "latency_ms_tail": (np.percentile(lat, SERVE_TAIL) * 1e3,
                                    len(lat))}

        metrics = {"setup_s": (setup["setup_s"], 1), **timings(norm, ncycles),
                   "peak_rss_mb": (rss, 1)}
        raw = {"setup_s": (setup_s, 1), **timings(lat, cycles)}
        late_ms_p99 = np.percentile(late, 99) * 1e3
    else:
        base = run.service.report()
        lib0 = run.lib_s
        with tr.Tracer() as tracer:
            _, _, late, open_first = run.open_loop(open_s * 2 / 3, speed)
            open_handles = run.handles[open_first:]
            count1, _, ncycles1, modeled = run.burst(burst_s / 2, speed)
        lib_s = run.lib_s - lib0
        rep = run.service.report()
        _, _, ncycles0, _ = run.burst(burst_s / 2, speed)
        solves = len(open_handles) + count1
        flushes = tracer.retained[tr.FLUSH]
        layers = tr.layer_metrics(tracer, solves=solves,
                                  calls=len(flushes))
        layers.update(serve_layer_metrics(base, rep, flushes, open_handles))
        layers["gpusim.modeled_us"] = modeled * 1e6 / count1
        layers["memory_plan.pool_peak_mb"] = pool_peak_mb()
        layers["loadgen.late_ms_p99"] = np.percentile(late, 99) * 1e3
        layers["trace.overhead_frac"] = (np.median(ncycles1)
                                         / np.median(ncycles0))
        layers["trace.root_coverage"] = tr.main_root_ns(tracer) / (lib_s
                                                                  * 1e9)
        metrics = per_layer(layers, solves)
        raw = {}
        late_ms_p99 = layers["loadgen.late_ms_p99"]
        if trace_path:
            write_trace(tracer, trace_path)

    run.service.close()
    checks.attempted = len(run.handles) - first
    check_serve(spec, run, checks, first, np.random.default_rng([seed, 1]))
    leaked = pools_in_use()
    if leaked:
        checks.fail(1, f"{leaked} bytes left in the memory pools")
    if trace:
        metrics["check.residual_max"] = (checks.residual_max, 1)
    head = run.handles[first:first + SERVE_DIGEST_REQUESTS]
    out = digest(*[h.solution for _, _, h in head])
    result = _result(name, seed, metrics, checks, inputs, out, None, speed,
                     raw)
    result["checks"]["late_ms_p99"] = float(late_ms_p99)
    return result


def serve_layer_metrics(base, rep, flushes, handles) -> dict:
    """Serve-layer metrics of a traced phase from report deltas and the
    flush spans (``queue``: due time to the start of the dispatching
    flush)."""
    nflush = max(len(flushes), 1)
    starts = [s.start for s in flushes]
    ends = [s.end for s in flushes]
    queue = []
    for _, due, h in handles:
        done = int(h.completed_at * 1e9)
        i = bisect.bisect_left(ends, done)
        if i < len(flushes) and starts[i] <= done:
            queue.append(starts[i] / 1e9 - due)
    hits = rep.cache_hits - base.cache_hits
    misses = rep.cache_misses - base.cache_misses
    groups = rep.dispatch_groups - base.dispatch_groups
    return {
        "serve.queue_ms_p50": np.percentile(queue, 50) * 1e3 if queue else 0.0,
        "serve.queue_ms_p99": np.percentile(queue, 99) * 1e3 if queue else 0.0,
        "serve.flush_ms_p50": np.percentile([s.duration for s in flushes],
                                            50) / 1e6 if flushes else 0.0,
        "serve.group_mean": ((rep.dispatched_lanes - base.dispatched_lanes)
                             / groups if groups else 0.0),
        "serve.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serve.factorizations": (rep.factorizations
                                 - base.factorizations) / nflush,
        "serve.evictions": (rep.cache_evictions
                            - base.cache_evictions) / nflush,
    }


# -- results --------------------------------------------------------------------

def write_trace(tracer, path) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(tracer.chrome_trace(), f)


def per_layer(layers: dict, samples: int) -> dict:
    """Every per-layer metric; layers the workload never entered read 0."""
    return {name: (layers.get(name, 0.0), samples) for name, _ in tr.PER_LAYER}


def stamp() -> dict:
    return {"cpu_count": os.cpu_count(), "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine()}


def _result(name, seed, metrics, checks: Checks, inputs, outputs, route,
            speed: HostSpeed, raw: dict):
    """JSON-ready result; ``raw`` holds the timing metrics before the
    host-speed scaling."""
    units = dict(END_TO_END) | dict(tr.PER_LAYER)
    return {
        "workload": name,
        "seed": seed,
        "correct": checks.failed == 0 and not checks.problems,
        "attempted": int(checks.attempted),
        "failed": int(checks.failed),
        "metrics": {k: {"value": float(v), "unit": units[k], "n": int(n)}
                    for k, (v, n) in metrics.items()},
        "checks": {"error_rate": checks.failed / max(checks.attempted, 1),
                   "residual_max": checks.residual_max,
                   "problems": checks.problems},
        "input_digest": inputs,
        "output_digest": outputs,
        "route_digest": route,
        "host": {"speed": speed.speed,
                 "calibrations": len(speed.samples),
                 "raw": {k: float(v) for k, (v, _) in raw.items()}},
        "stamp": stamp(),
    }


def run_workload(name: str, *, seed: int = 2023, seconds: float = 20.0,
                 trace: bool = False, quick: bool = False,
                 import_s: float = 0.0, setup_only: bool = False,
                 trace_path: str | None = None) -> dict:
    """Run one workload; see the module docstring."""
    spec = (QUICK if quick else WORKLOADS)[name]
    runner = run_serve if isinstance(spec, ServeWorkload) else run_batch
    return runner(name, spec, seed, seconds, trace, import_s, setup_only,
                  trace_path)
