"""Info-code parity across execution paths (per-block vs [vec]).

LAPACK ``info`` semantics must not depend on how the batch executes: a
singular or NaN-poisoned lane has to report the same code on the
batch-interleaved path (uniform stacks, lane-step stacks the kernels run
in place, and scattered pointer arrays the call gathers once at entry) as
on the per-block reference path.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.band.convert import dense_to_band
from repro.band.generate import random_band_batch, random_rhs
from repro.core.gbsv import gbsv_batch
from repro.core.gbtf2 import gbtf2
from repro.core.gbtrf import gbtrf_batch
from repro.core.gbtrs import gbtrs_batch
from repro.gpusim import H100_PCIE, Stream

N, KL, KU, BATCH = 24, 2, 3, 10


def _poisoned_batch(seed=0):
    """A batch with healthy, singular and NaN lanes mixed together."""
    a = random_band_batch(BATCH, N, KL, KU, seed=seed)
    a[2, :, :] = 0.0                       # singular from column 1
    dense = np.diag(np.arange(float(N)))   # zero pivot at column 1 only
    dense += np.diag(np.ones(N - 1), 1)
    ab = dense_to_band(dense, KL, KU)
    a[5, :ab.shape[0], :] = ab
    a[7, KL + KU, 4] = np.nan              # NaN on the diagonal
    return a


def _expected_info(a):
    """Ground truth from the host reference algorithm, lane by lane."""
    out = np.zeros(BATCH, dtype=np.int64)
    for k in range(BATCH):
        _, out[k] = gbtf2(N, N, KL, KU, a[k].copy())
    return out


def _lane_step(a):
    """``a`` in every other lane of a stack twice as tall (runs in
    place)."""
    buf = np.zeros((2 * len(a),) + a.shape[1:], dtype=a.dtype)
    buf[::2] = a
    return buf[::2]


def _variants(a, per_block):
    """(label, matrices, path) triples covering all execution paths; each
    ``path`` is the context its call runs in."""
    scattered = [np.array(a[k]) for k in range(BATCH)]   # separate allocs
    return [
        ("per-block", list(a.copy()), per_block()),
        ("vec", list(a.copy()), nullcontext()),
        ("lane-step", _lane_step(a), nullcontext()),
        ("scattered", scattered, nullcontext()),
    ]


class TestGbtrfInfoParity:
    @pytest.mark.parametrize("method", ["fused", "window"])
    def test_all_paths_agree(self, method, per_block):
        a = _poisoned_batch()
        expected = _expected_info(a)
        assert expected[2] == 1 and expected[5] == 1   # singular lanes
        factors = {}
        for label, mats, path in _variants(a, per_block):
            stream = Stream(H100_PCIE)
            with path:
                piv, info = gbtrf_batch(N, N, KL, KU, mats, batch=BATCH,
                                        method=method, stream=stream,
                                        layout="aos")
            assert np.array_equal(np.asarray(info), expected), (
                f"{method}/{label}: info={list(info)} expected="
                f"{list(expected)}")
            factors[label] = np.stack(mats).tobytes()
            suffix = "" if label == "per-block" else "[vec]"
            assert stream.records[-1].display_name == (
                stream.records[-1].kernel_name + suffix)
        assert len(set(factors.values())) == 1

    def test_reference_matches_host(self):
        a = _poisoned_batch()
        expected = _expected_info(a)
        piv, info = gbtrf_batch(N, N, KL, KU, list(a.copy()), batch=BATCH,
                                method="reference")
        assert np.array_equal(np.asarray(info), expected)


class TestGbsvInfoParity:
    @pytest.mark.parametrize("method", ["fused", "standard"])
    def test_all_paths_agree(self, method, per_block):
        a = _poisoned_batch()
        expected = _expected_info(a)
        b = random_rhs(N, 1, batch=BATCH, seed=1)
        results = {}
        for label, mats, path in _variants(a, per_block):
            rhs = [b[k].copy() for k in range(BATCH)]
            with path:
                piv, info = gbsv_batch(N, KL, KU, 1, mats, None, rhs,
                                       batch=BATCH, method=method)
            results[label] = np.asarray(info).copy()
            assert np.array_equal(results[label], expected), (
                f"{method}/{label}")
            # singular lanes leave B untouched on every path
            for k in (2, 5):
                assert np.array_equal(rhs[k], b[k]), f"{method}/{label}/{k}"
        assert np.array_equal(results["vec"], results["per-block"])
        assert np.array_equal(results["lane-step"], results["per-block"])
        assert np.array_equal(results["scattered"], results["per-block"])


class TestGbtrsInfoParity:
    def test_info_zero_on_all_paths(self, per_block):
        """gbtrs never reports numerical trouble — on any path, even when
        the factors carry NaN lanes (LAPACK semantics: validation only)."""
        a = random_band_batch(BATCH, N, KL, KU, seed=3)
        piv, info_f = gbtrf_batch(N, N, KL, KU, a)
        assert (info_f == 0).all()
        a[7, KL + KU, 4] = np.nan      # poison one factored lane
        b = random_rhs(N, 2, batch=BATCH, seed=4)
        for label, mats, path in _variants(a, per_block):
            for method in ("blocked",):
                rhs = [b[k].copy() for k in range(BATCH)]
                with path:
                    info = gbtrs_batch("N", N, KL, KU, 2, mats, piv, rhs,
                                       batch=BATCH, method=method)
                assert (np.asarray(info) == 0).all(), f"{label}/{method}"
                # NaN stays confined to the poisoned lane
                for k in range(BATCH):
                    finite = np.isfinite(np.asarray(rhs[k])).all()
                    assert finite == (k != 7), f"{label}/{method}/{k}"
        info_ref = gbtrs_batch("N", N, KL, KU, 2, list(a.copy()), piv,
                               [b[k].copy() for k in range(BATCH)],
                               batch=BATCH, method="reference")
        assert (np.asarray(info_ref) == 0).all()
