"""Non-uniform batches (the paper's Section 9 extension)."""

import numpy as np
import pytest

from repro.band.convert import band_to_dense
from repro.band.generate import random_band, random_rhs
from repro.core.batched import gbsv_vbatch, gbtrf_vbatch
from repro.core.gbtrf_vbatch_kernel import gbtrf_vbatch_fused
from repro.core.gbtf2 import gbtf2
from repro.errors import ArgumentError
from repro.gpusim import MI250X_GCD, Stream


def _mixed_problems(seed=0):
    configs = [(12, 1, 1), (20, 2, 3), (12, 1, 1), (30, 10, 7),
               (20, 2, 3), (7, 0, 2)]
    rng = np.random.default_rng(seed)
    mats = [random_band(n, kl, ku, seed=rng) for n, kl, ku in configs]
    return configs, mats


class TestGbtrfVbatch:
    def test_matches_per_problem_factorization(self):
        configs, mats = _mixed_problems()
        refs = []
        for (n, kl, ku), m in zip(configs, mats):
            ab = m.copy()
            piv, info = gbtf2(n, n, kl, ku, ab)
            refs.append((ab, piv, info))
        pivots, info = gbtrf_vbatch(
            [c[0] for c in configs], [c[0] for c in configs],
            [c[1] for c in configs], [c[2] for c in configs], mats)
        for k, (ab_ref, piv_ref, info_ref) in enumerate(refs):
            np.testing.assert_allclose(mats[k], ab_ref, atol=0)
            np.testing.assert_array_equal(pivots[k], piv_ref)
            assert info[k] == info_ref

    def test_info_order_preserved_across_groups(self):
        """info must land at the original problem index, not group order."""
        n = 10
        ok = random_band(n, 1, 1, seed=1)
        singular = np.zeros((4, n))          # zero matrix: info = 1
        mats = [ok.copy(), singular.copy(), ok.copy()]
        pivots, info = gbtrf_vbatch([n] * 3, [n] * 3, [1, 1, 1], [1, 1, 1],
                                    mats)
        assert info[0] == 0 and info[2] == 0
        assert info[1] == 1

    def test_length_mismatch_rejected(self):
        configs, mats = _mixed_problems()
        with pytest.raises(ArgumentError):
            gbtrf_vbatch([8], [8, 8], [1, 1], [1, 1], mats[:2])

    def test_stream_device_used(self):
        configs, mats = _mixed_problems()
        stream = Stream(MI250X_GCD)
        gbtrf_vbatch([c[0] for c in configs], [c[0] for c in configs],
                     [c[1] for c in configs], [c[2] for c in configs],
                     mats, stream=stream)
        # One kernel launch per distinct configuration.
        distinct = len({(c[0], c[0], c[1], c[2]) for c in configs})
        assert stream.launch_count() == distinct


class TestGbsvVbatch:
    def test_solves_mixed_configurations(self):
        configs, mats = _mixed_problems(seed=3)
        originals = [m.copy() for m in mats]
        rng = np.random.default_rng(4)
        nrhss = [1, 2, 1, 3, 2, 1]
        rhs = [random_rhs(n, r, seed=rng)
               for (n, _, _), r in zip(configs, nrhss)]
        b_orig = [b.copy() for b in rhs]
        pivots, info = gbsv_vbatch(
            [c[0] for c in configs], [c[1] for c in configs],
            [c[2] for c in configs], nrhss, mats, rhs)
        assert (info == 0).all()
        for k, (n, kl, ku) in enumerate(configs):
            dense = band_to_dense(originals[k], n, kl, ku)
            np.testing.assert_allclose(dense @ rhs[k], b_orig[k],
                                       atol=1e-10)

    def test_1d_rhs_accepted(self):
        n = 14
        mats = [random_band(n, 2, 3, seed=7)]
        orig = mats[0].copy()
        b = random_rhs(n, 1, seed=8)[:, 0]
        rhs = [b.copy()]
        pivots, info = gbsv_vbatch([n], [2], [3], [1], mats, rhs)
        # The internal (n, 1) view shares memory with the caller's 1-D
        # array, so the solution lands in place.
        dense = band_to_dense(orig, n, 2, 3)
        assert rhs[0].ndim == 1
        np.testing.assert_allclose(dense @ rhs[0], b, atol=1e-11)

    def test_singularity_reported_per_problem(self):
        n = 10
        ok = random_band(n, 1, 1, seed=9)
        singular = np.zeros((4, n))
        mats = [ok.copy(), singular]
        rhs = [random_rhs(n, 1, seed=10), random_rhs(n, 1, seed=11)]
        b1_orig = rhs[1].copy()
        pivots, info = gbsv_vbatch([n, n], [1, 1], [1, 1], [1, 1], mats,
                                   rhs)
        assert info[0] == 0
        assert info[1] > 0
        np.testing.assert_array_equal(rhs[1], b1_orig)


def _vbatch_call(driver, n=8, batch=2, **over):
    """Positional arguments of a well-formed ``driver`` call on ``batch``
    tridiagonal problems of order ``n``, with entries of ``over``
    replaced by name."""
    rng = np.random.default_rng(3)
    args = {"ms": [n] * batch, "ns": [n] * batch, "kls": [1] * batch,
            "kus": [1] * batch, "nrhss": [1] * batch,
            "a_array": [random_band(n, 1, 1, seed=rng)
                        for _ in range(batch)],
            "b_array": [np.ones(n) for _ in range(batch)],
            "pv_array": [np.zeros(n, dtype=np.int64) for _ in range(batch)],
            "info": np.zeros(batch, dtype=np.int64)}
    args.update(over)
    names = (("ns", "kls", "kus", "nrhss", "a_array", "b_array",
              "pv_array", "info") if driver is gbsv_vbatch else
             ("ms", "ns", "kls", "kus", "a_array", "pv_array", "info"))
    return [args[name] for name in names]


VBATCH_DRIVERS = [gbtrf_vbatch, gbsv_vbatch, gbtrf_vbatch_fused]
VBATCH_IDS = ["gbtrf_vbatch", "gbsv_vbatch", "gbtrf_vbatch_fused"]


class TestVbatchArguments:
    """Each vbatch driver validates its arguments once, at its own
    positions: ``(ms, ns, kls, kus, a_array, pv_array, info)``, and
    ``gbsv_vbatch(ns, kls, kus, nrhss, a_array, b_array, pv_array,
    info)``."""

    @pytest.mark.parametrize("driver", VBATCH_DRIVERS, ids=VBATCH_IDS)
    def test_nested_list_matrices_rejected(self, driver):
        """The factors are written into each ``a_array`` entry, so a
        nested list (which would be factored into a temporary and
        dropped) is rejected at position 5."""
        args = _vbatch_call(driver)
        a = args[4]
        args[4] = [x.tolist() for x in a]
        with pytest.raises(ArgumentError) as err:
            driver(*args)
        assert err.value.position == 5

    def test_nested_list_rhs_rejected(self):
        args = _vbatch_call(gbsv_vbatch, b_array=[[1.0] * 8] * 2)
        with pytest.raises(ArgumentError) as err:
            gbsv_vbatch(*args)
        assert err.value.position == 6

    @pytest.mark.parametrize("driver,name,value,pos", [
        (gbtrf_vbatch, "pv_array", [np.zeros(8, dtype=np.int64),
                                    np.zeros(7, dtype=np.int64)], 6),
        (gbtrf_vbatch, "info", np.zeros(5, dtype=np.int64), 7),
        (gbtrf_vbatch_fused, "pv_array", [np.zeros(8, dtype=np.int64),
                                          np.zeros(7, dtype=np.int64)], 6),
        (gbtrf_vbatch_fused, "info", np.zeros(5, dtype=np.int64), 7),
        (gbsv_vbatch, "b_array", [np.ones(8), np.ones(7)], 6),
        (gbsv_vbatch, "pv_array", [np.zeros(8, dtype=np.int64),
                                   np.zeros(8)], 7),
        (gbsv_vbatch, "info", np.zeros(5, dtype=np.int64), 8),
        (gbsv_vbatch, "kls", [1, -1], 2),
        (gbtrf_vbatch, "kus", [1, -1], 4),
    ], ids=["gbtrf-pv", "gbtrf-info", "fused-pv", "fused-info", "gbsv-b",
            "gbsv-pv", "gbsv-info", "gbsv-kls", "gbtrf-kus"])
    def test_argument_positions(self, driver, name, value, pos):
        args = _vbatch_call(driver, **{name: value})
        a_before = [x.copy() for x in args[4]]
        with pytest.raises(ArgumentError) as err:
            driver(*args)
        assert err.value.position == pos
        assert all(x.tobytes() == y.tobytes()
                   for x, y in zip(args[4], a_before))
