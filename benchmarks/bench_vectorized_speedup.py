"""Batch-interleaved vs per-block execution: host wall-clock speedup.

Unlike the modeled exhibits (which time the simulated *device*), this
benchmark times the *simulator itself*: how long the host takes to
functionally execute a paper-scale ``gbtrf_batch`` workload (batch 1000,
n=256, kl=ku=8, fp64) on the per-block reference path versus the
batch-interleaved vectorized path, and that the vectorized path
reproduces the scalar references bit for bit.  The vectorized path is the reason the full test
suite runs in half the seed's time; the target here is a >= 10x speedup
at the paper's workload scale.

Runnable standalone (``python benchmarks/bench_vectorized_speedup.py
[--quick]``).  ``--quick`` only checks that vectorized ``gbtrf`` and
``gbtrs`` (trans N and T) give the bits of ``gbtf2`` per lane and
``gbtrs_unblocked`` at n=256, kl=ku=8, batch 32 (no wall-clock gate);
without it the speedup is measured, archived and gated as in the pytest
run.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from repro.band.generate import random_band_batch, random_rhs
from repro.bench import wallclock_gbtrf_paths
from repro.core import gbtrf_batch, gbtrs_batch
from repro.core.gbtf2 import gbtf2
from repro.core.solve_blocks import gbtrs_unblocked

from _util import emit, run_once

N, KL, KU, BATCH = 256, 8, 8, 1000

# Regression floor for the asserted ratio: below the 10x target so a noisy
# CI neighbour cannot flake the suite, but far above anything a
# reintroduced per-column gather/scatter path could reach.
FLOOR = 6.0


def check_bit_identity(batch: int = 32) -> None:
    """Vectorized gbtrf, and gbtrs with trans N and T, give the bytes of
    the scalar references ``gbtf2`` (per lane) and ``gbtrs_unblocked``
    (the blocked solves cross their nb=34 block edges)."""
    a = random_band_batch(batch, N, KL, KU, seed=7)
    a_ref, a_vec = a.copy(), a.copy()
    piv_ref = np.zeros((batch, N), dtype=np.int64)
    info_ref = np.zeros(batch, dtype=np.int64)
    for k in range(batch):
        piv_ref[k], info_ref[k] = gbtf2(N, N, KL, KU, a_ref[k])
    piv_vec, info_vec = gbtrf_batch(N, N, KL, KU, a_vec, vectorize=True)
    assert a_vec.tobytes() == a_ref.tobytes()
    assert np.stack(piv_vec).tobytes() == piv_ref.tobytes()
    assert info_vec.tobytes() == info_ref.tobytes()
    b = random_rhs(N, 1, batch=batch, seed=8)
    for trans in "NT":
        b_ref, b_vec = b.copy(), b.copy()
        for k in range(batch):
            gbtrs_unblocked(trans, N, KL, KU, a_ref[k], piv_ref[k],
                            b_ref[k])
        gbtrs_batch(trans, N, KL, KU, 1, a_ref, piv_ref, b_vec,
                    vectorize=True)
        assert b_vec.tobytes() == b_ref.tobytes(), trans


def measure_and_gate() -> None:
    """Time both paths at the paper's scale, archive, gate the ratio."""
    r = wallclock_gbtrf_paths(N, KL, KU, batch=BATCH, repeats=2,
                              warmup=True)
    text = "\n".join([
        "Batch-interleaved execution speedup "
        f"(gbtrf_batch, batch={BATCH}, n={N}, kl=ku={KL}, fp64)",
        f"  per-block path:    {r.per_block:8.3f} s",
        f"  vectorized path:   {r.vectorized:8.3f} s",
        f"  speedup:           {r.speedup:8.1f} x   (target >= 10x)",
    ])
    emit("vectorized_speedup", text)
    assert r.speedup >= FLOOR, (
        f"vectorized path only {r.speedup:.1f}x faster "
        f"(floor {FLOOR}x)")


def test_vectorized_paths_bit_identical():
    check_bit_identity()


def test_vectorized_speedup(benchmark):
    run_once(benchmark, measure_and_gate)


if __name__ == "__main__":
    check_bit_identity()
    if "--quick" in sys.argv[1:]:
        print(f"vectorized gbtrf and gbtrs (N, T) bit-identical to gbtf2 "
              f"and gbtrs_unblocked (n={N}, kl=ku={KL}, batch 32); quick "
              "mode: wall-clock not asserted")
    else:
        measure_and_gate()
