"""RCM reordering, batched GBMV kernel, and the occupancy advisor."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.band import (
    BandedSystem,
    band_to_dense,
    bandwidth_after,
    rcm_ordering,
    sparse_to_band,
    unpermute,
)
from repro.band.generate import random_band_batch, random_rhs
from repro.core import gbmv_batch, gbsv
from repro.errors import ArgumentError, SharedMemoryError
from repro.gpusim import H100_PCIE, MI250X_GCD, Stream, occupancy, suggest_block_size


def _shuffled_banded(n=50, width=3, seed=0):
    """A banded SPD-ish matrix hidden behind a random permutation."""
    rng = np.random.default_rng(seed)
    diags = [rng.standard_normal(n - abs(d)) for d in range(-width, 1)]
    base = sp.diags(diags, list(range(-width, 1)), shape=(n, n)).tocsr()
    base = base + base.T + sp.eye(n) * (2 * width + 4)
    shuffle = rng.permutation(n)
    return sp.csr_matrix(base.toarray()[np.ix_(shuffle, shuffle)]), width


class TestRcm:
    def test_recovers_hidden_band(self):
        a, width = _shuffled_banded()
        natural = bandwidth_after(a, np.arange(a.shape[0]))
        perm = rcm_ordering(a)
        reordered = bandwidth_after(a, perm)
        assert max(reordered) <= 2 * width       # near-optimal
        assert max(natural) > 4 * width          # the shuffle was real

    def test_perm_is_permutation(self):
        a, _ = _shuffled_banded(seed=1)
        perm = rcm_ordering(a)
        assert sorted(perm) == list(range(a.shape[0]))

    def test_accepts_dense_input(self):
        a, _ = _shuffled_banded(seed=2)
        perm_s = rcm_ordering(a)
        perm_d = rcm_ordering(a.toarray())
        np.testing.assert_array_equal(perm_s, perm_d)

    def test_bandwidth_after_empty(self):
        assert bandwidth_after(sp.csr_matrix((4, 4)), np.arange(4)) == (0, 0)


class TestSparseToBand:
    def test_end_to_end_solve(self):
        a, _ = _shuffled_banded(seed=3)
        n = a.shape[0]
        system = sparse_to_band(a)
        assert isinstance(system, BandedSystem)
        b = np.random.default_rng(4).standard_normal(n)
        x_p, piv, info = gbsv(system.n, system.kl, system.ku,
                              system.ab.copy(),
                              system.permute_rhs(b).copy())
        assert info == 0
        x = system.unpermute_solution(x_p)
        np.testing.assert_allclose(a @ x, b, atol=1e-10)

    def test_band_values_match_permuted_matrix(self):
        a, _ = _shuffled_banded(seed=5)
        system = sparse_to_band(a)
        dense = band_to_dense(system.ab, system.n, system.kl, system.ku)
        expected = a.toarray()[np.ix_(system.perm, system.perm)]
        np.testing.assert_allclose(dense, expected, atol=0)

    def test_reorder_false_keeps_natural_order(self):
        a, _ = _shuffled_banded(seed=6)
        system = sparse_to_band(a, reorder=False)
        np.testing.assert_array_equal(system.perm, np.arange(a.shape[0]))

    def test_fill_ratio_guard(self):
        # A bordered matrix (dense last row/col) is not band-compressible.
        n = 40
        a = sp.eye(n).tolil()
        a[n - 1, :] = 1.0
        a[:, n - 1] = 1.0
        with pytest.raises(ArgumentError, match="band-compressible"):
            sparse_to_band(sp.csr_matrix(a), max_fill_ratio=2.0)

    def test_unpermute_roundtrip(self):
        perm = np.random.default_rng(7).permutation(9)
        x = np.arange(9.0)
        np.testing.assert_array_equal(unpermute(x[perm], perm), x)


class TestGbmvBatch:
    def test_matches_dense(self):
        batch, n, kl, ku = 4, 14, 2, 3
        a = random_band_batch(batch, n, kl, ku, seed=8)
        x = [random_rhs(n, 1, seed=10 + k)[:, 0] for k in range(batch)]
        y = [random_rhs(n, 1, seed=20 + k)[:, 0] for k in range(batch)]
        y0 = [v.copy() for v in y]
        gbmv_batch("N", n, n, kl, ku, 1.5, a, x, -0.5, y)
        for k in range(batch):
            dense = band_to_dense(a[k], n, kl, ku)
            np.testing.assert_allclose(
                y[k], 1.5 * (dense @ x[k]) - 0.5 * y0[k], atol=1e-12)

    def test_trans_and_blocks(self):
        batch, n, kl, ku, nrhs = 3, 10, 1, 2, 2
        a = random_band_batch(batch, n, kl, ku, seed=9)
        x = [random_rhs(n, nrhs, seed=30 + k) for k in range(batch)]
        y = [np.zeros((n, nrhs)) for _ in range(batch)]
        gbmv_batch("T", n, n, kl, ku, 1.0, a, x, 0.0, y)
        dense = band_to_dense(a[0], n, kl, ku)
        np.testing.assert_allclose(y[0], dense.T @ x[0], atol=1e-12)

    def test_memory_bound_cost(self):
        from repro.core.gbmv_batch import BatchedGbmvKernel
        from repro.types import Trans
        n, kl, ku = 1024, 2, 3
        a = [np.zeros((8, n))] * 1000
        x = [np.zeros(n)] * 1000
        k = BatchedGbmvKernel(Trans.NO_TRANS, n, n, kl, ku, 1.0, a, x,
                              0.0, x)
        timing = k.timing(H100_PCIE)
        assert not timing.latency_bound

    def test_shape_validation(self):
        a = random_band_batch(2, 8, 1, 1, seed=11)
        with pytest.raises(ArgumentError):
            gbmv_batch("N", 8, 8, 1, 1, 1.0, a, [np.zeros(7)] * 2, 0.0,
                       [np.zeros(8)] * 2)

    def test_y_entries_must_be_arrays(self):
        """``y`` is written in place, so an entry that is a Python list is
        rejected at y's position before anything runs."""
        a = random_band_batch(2, 8, 1, 1, seed=11)
        x = [np.ones(8)] * 2
        y = [[1.0] * 8, [2.0] * 8]
        stream = Stream(H100_PCIE)
        with pytest.raises(ArgumentError) as err:
            gbmv_batch("N", 8, 8, 1, 1, 1.0, a, x, 0.0, y, stream=stream)
        assert err.value.position == 10
        assert stream.records == [] and y == [[1.0] * 8, [2.0] * 8]

    def test_residual_use_case(self):
        """The gbrfs-style device-side residual: r = b - A x."""
        from repro.core import gbsv_batch
        batch, n, kl, ku = 3, 24, 2, 3
        a = random_band_batch(batch, n, kl, ku, seed=12)
        b = random_rhs(n, 1, batch=batch, seed=13)
        x = b.copy()
        orig = a.copy()
        gbsv_batch(n, kl, ku, 1, a, None, x)
        r = [b[k].copy() for k in range(batch)]
        gbmv_batch("N", n, n, kl, ku, -1.0, orig, [x[k] for k in range(batch)],
                   1.0, r)
        assert max(np.abs(v).max() for v in r) < 1e-11


class TestSuggestBlockSize:
    def test_tiny_smem_saturates_the_sm(self):
        threads, blocks = suggest_block_size(H100_PCIE, 1024)
        # With negligible shared memory the SM fills completely: the block
        # limit (32) times the block size reaches the 2048-thread cap.
        assert blocks == H100_PCIE.max_blocks_per_sm
        assert threads * blocks == H100_PCIE.max_threads_per_sm

    def test_huge_smem_forces_one_block(self):
        threads, blocks = suggest_block_size(MI250X_GCD, 40 * 1024)
        assert blocks == 1
        assert threads == MI250X_GCD.max_threads_per_block

    def test_respects_min_threads(self):
        threads, _ = suggest_block_size(H100_PCIE, 1024, min_threads=100)
        assert threads >= 100
        assert threads % H100_PCIE.warp_size == 0

    def test_over_limit_raises(self):
        with pytest.raises(SharedMemoryError):
            suggest_block_size(MI250X_GCD, 100 * 1024)

    def test_suggestion_is_optimal_among_warp_multiples(self):
        smem = 20 * 1024
        threads, blocks = suggest_block_size(MI250X_GCD, smem)
        best = blocks * threads
        t = MI250X_GCD.warp_size
        while t <= MI250X_GCD.max_threads_per_block:
            occ = occupancy(MI250X_GCD, t, smem)
            assert occ.blocks_per_sm * t <= best
            t += MI250X_GCD.warp_size
