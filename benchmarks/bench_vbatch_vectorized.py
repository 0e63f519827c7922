"""Bucketed vectorization of a mixed-shape batch: host wall-clock speedup.

Companion to ``bench_vectorized_speedup.py`` for *non-uniform* batches:
a paper-scale batch of 1000 problems drawn from six configurations is
grouped by configuration as ``gbtrf_vbatch`` groups it, and each group
is factored on the per-block path and on the batch-interleaved path,
which advances the whole group through the window schedule together.
The two paths must produce bit-identical factors (and ``gbtrf_vbatch``
the bits of ``gbtf2`` per lane); the target here is a >= 5x host
wall-clock win on the mixed batch.
"""

import numpy as np

from repro.band.generate import random_band
from repro.bench import wallclock_vbatch_paths
from repro.core.batched import gbtrf_vbatch
from repro.core.gbtf2 import gbtf2
from repro.gpusim import H100_PCIE, Stream

from _util import emit, run_once

# Six configurations, n in 96..256 with small bands — the irregular-batch
# regime the paper's Section 9 extension targets.  1000 lanes total.
CONFIGS = [(96, 2, 3), (128, 1, 2), (128, 4, 4), (160, 2, 2),
           (192, 3, 1), (256, 2, 3)]
LANES_PER_CONFIG = [250, 200, 150, 150, 150, 100]
BATCH = sum(LANES_PER_CONFIG)

# Regression floor: below the 5x acceptance target for slack against noisy
# CI neighbours, but far above what a de-vectorized bucket loop reaches.
FLOOR = 5.0


def _mixed_configs():
    lanes = []
    for cfg, count in zip(CONFIGS, LANES_PER_CONFIG):
        lanes += [cfg] * count
    # Interleave configurations so buckets are scattered across the batch,
    # not pre-sorted runs (the dispatch must do the grouping, not us).
    order = np.random.default_rng(3).permutation(len(lanes))
    return [lanes[i] for i in order]


def test_vbatch_paths_bit_identical():
    """``gbtrf_vbatch`` runs every group ``[vec]`` and gives the bits of
    the scalar reference ``gbtf2`` on every lane."""
    lanes = _mixed_configs()[:60]
    rng = np.random.default_rng(9)
    mats = [random_band(n, kl, ku, seed=rng) for n, kl, ku in lanes]
    ns = [c[0] for c in lanes]
    kls = [c[1] for c in lanes]
    kus = [c[2] for c in lanes]
    ref = [a.copy() for a in mats]
    refs = [gbtf2(n, n, kl, ku, a) for a, (n, kl, ku) in zip(ref, lanes)]
    vec = [a.copy() for a in mats]
    stream = Stream(H100_PCIE)
    # Lane-major groups, as given: by default each window group would be
    # converted to the interleaved layout ([vec+soa]).
    piv_vec, info_vec = gbtrf_vbatch(ns, ns, kls, kus, vec, stream=stream,
                                     layout="aos")
    assert all(r.display_name.endswith("[vec]") for r in stream.records)
    for k, (piv_ref, info_ref) in enumerate(refs):
        assert vec[k].tobytes() == ref[k].tobytes()
        assert piv_vec[k].tobytes() == piv_ref.tobytes()
        assert info_vec[k] == info_ref


def test_vbatch_vectorized_speedup(benchmark):
    lanes = _mixed_configs()
    assert len(lanes) == BATCH
    r = run_once(benchmark, lambda: wallclock_vbatch_paths(
        lanes, repeats=2, warmup=True))
    text = "\n".join([
        "Bucketed batch-interleaved speedup on a mixed-shape batch "
        f"(gbtrf_vbatch, batch={BATCH}, {len(CONFIGS)} configurations, "
        "fp64)",
        "  configurations (n, kl, ku) x lanes: " + ", ".join(
            f"{cfg} x{cnt}"
            for cfg, cnt in zip(CONFIGS, LANES_PER_CONFIG)),
        f"  per-block path:    {r.per_block:8.3f} s",
        f"  vectorized path:   {r.vectorized:8.3f} s",
        f"  speedup:           {r.speedup:8.1f} x   (target >= 5x)",
    ])
    emit("vbatch_vectorized", text)
    assert r.speedup >= FLOOR, (
        f"bucketed vectorized path only {r.speedup:.1f}x faster "
        f"(floor {FLOOR}x)")
