"""Memory-governance overhead: planning + pool lease when the batch fits.

Every outermost functional driver call now routes through the memory
governor (``core/memory_plan.py``): a footprint plan against the device
pool, one lease/release pair, and — only when chunking actually happens —
staging transfers.  For a batch that fits comfortably this must be
bookkeeping, not work.  This benchmark times a paper-scale ``gbsv_batch``
workload (batch 1000, n=256, kl=ku=8, fp64) on the governed path versus
the same operands dispatched directly in the design their call plan names
(``repro.core.stack.plan_call``, then ``OpSpec.dispatch``, with no layer
around it), checks that the two produce bit-identical factors/solutions,
and asserts the overhead stays under 5%.

Runnable standalone (``python benchmarks/bench_memory_governance.py
[--quick]``) for the CI memory-pressure job; ``--quick`` shrinks the
workload and only verifies bit-identity, since timing ratios at small
scale are noise.
"""

import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from repro.band.generate import random_band_batch, random_rhs
from repro.core import gbsv_batch
from repro.core.batch_args import as_rhs_list
from repro.core.gbsv import GBSV
from repro.core.stack import ExecConfig, Operands, plan_call
from repro.gpusim.memory import reset_memory_pools

from _util import emit, run_once

N, KL, KU, BATCH, NRHS = 256, 8, 8, 1000, 1

# Acceptance ceiling is 5%; the measured slack is one footprint plan and
# one pool lease against ~0.5 s of factorization work (no staging — a
# fitting batch runs as a single chunk, so no transfers are modeled).
CEILING = 1.05


def _run(governed, a, b, n, kl, ku, batch):
    mats, rhs = a.copy(), b.copy()
    reset_memory_pools()
    t0 = perf_counter()
    if governed:
        piv, info = gbsv_batch(n, kl, ku, NRHS, mats, None, rhs,
                               batch=batch)
    else:
        piv = np.zeros((batch, n), dtype=np.int64)
        info = np.zeros(batch, dtype=np.int64)
        cfg = ExecConfig()
        ops = Operands(n, n, kl, ku, mats, piv, info, nrhs=NRHS,
                       rhs=as_rhs_list(rhs, batch, n, NRHS, arg_pos=7))
        ops.call.plan = plan_call(GBSV, cfg, ops)
        GBSV.dispatch(ops.call.plan.design(cfg.device), cfg, ops)
    dt = perf_counter() - t0
    assert (np.asarray(info) == 0).all()
    return dt, mats, rhs, piv


def measure(*, n=N, kl=KL, ku=KU, batch=BATCH, repeats=5):
    """Best-of-``repeats`` wall-clock for both paths, plus their outputs.

    The two paths are interleaved within each repeat (rather than timed
    back to back) so allocator and page-cache warm-up costs land on both
    sides equally — the first full-size run of a process is measurably
    slower regardless of which path it takes — and best-of-``repeats``
    damps scheduler noise on loaded CI machines.
    """
    a = random_band_batch(batch, n, kl, ku, seed=21)
    b = random_rhs(n, NRHS, batch=batch, seed=22)
    labels = (("ungoverned", False), ("governed", True))
    seconds, outputs = {}, {}
    _run(True, a, b, n, kl, ku, batch)             # full-size warmup
    for _ in range(max(1, repeats)):
        for label, governed in labels:
            dt, mats, rhs, piv = _run(governed, a, b, n, kl, ku, batch)
            prev = seconds.get(label)
            seconds[label] = dt if prev is None else min(prev, dt)
            outputs[label] = (mats, rhs, piv)
    return seconds, outputs


def _check_bit_identity(outputs):
    """Governance on a fitting batch is a pass-through, bit for bit."""
    for part, name in zip(range(3), ("factors", "solution", "pivots")):
        plain = outputs["ungoverned"][part]
        gov = outputs["governed"][part]
        assert plain.tobytes() == gov.tobytes(), (
            f"governed path changed {name} for a batch that fits")


def _check_chunked_identity(*, n, kl, ku, batch):
    """Forced chunking (chunk_hint) must also be bit-identical."""
    a = random_band_batch(batch, n, kl, ku, seed=23)
    b = random_rhs(n, NRHS, batch=batch, seed=24)
    a1, b1 = a.copy(), b.copy()
    reset_memory_pools()
    piv0, _ = gbsv_batch(n, kl, ku, NRHS, a, None, b, batch=batch)
    reset_memory_pools()
    piv1, _ = gbsv_batch(n, kl, ku, NRHS, a1, None, b1, batch=batch,
                         chunk_hint=max(1, batch // 3))
    assert a.tobytes() == a1.tobytes(), "chunked factors diverge"
    assert b.tobytes() == b1.tobytes(), "chunked solution diverges"
    assert np.stack(piv0).tobytes() == np.stack(piv1).tobytes(), (
        "chunked pivots diverge")


def _render(seconds, *, n, batch):
    ratio = seconds["governed"] / seconds["ungoverned"]
    return ratio, "\n".join([
        "Memory-governance overhead, batch fits in device memory "
        f"(gbsv_batch, batch={batch}, n={n}, kl=ku={KL}, fp64)",
        f"  ungoverned path:   {seconds['ungoverned']:8.3f} s",
        f"  governed path:     {seconds['governed']:8.3f} s",
        f"  overhead:          {(ratio - 1) * 100:8.1f} %   (ceiling 5%)",
    ])


def test_governance_overhead(benchmark):
    seconds, outputs = run_once(benchmark, measure)
    _check_bit_identity(outputs)
    _check_chunked_identity(n=96, kl=KL, ku=KU, batch=48)
    ratio, text = _render(seconds, n=N, batch=BATCH)
    emit("memory_governance_overhead", text)
    assert ratio <= CEILING, (
        f"governed path {(ratio - 1) * 100:.1f}% slower than ungoverned "
        f"for a fitting batch (ceiling {(CEILING - 1) * 100:.0f}%)")


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    if quick:
        seconds, outputs = measure(n=96, batch=64, repeats=1)
        _check_bit_identity(outputs)
        _check_chunked_identity(n=96, kl=KL, ku=KU, batch=48)
        _, text = _render(seconds, n=96, batch=64)
        print(text)
        print("bit-identity OK (quick mode: ratio not asserted)")
    else:
        seconds, outputs = measure()
        _check_bit_identity(outputs)
        _check_chunked_identity(n=96, kl=KL, ku=KU, batch=48)
        ratio, text = _render(seconds, n=N, batch=BATCH)
        emit("memory_governance_overhead", text)
        if ratio > CEILING:
            sys.exit(f"overhead {(ratio - 1) * 100:.1f}% exceeds ceiling")
