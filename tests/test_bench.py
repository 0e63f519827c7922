"""Benchmark harness internals: timing entry points, streams, reporting."""

import math

import numpy as np
import pytest

from repro.bench import (
    FigureResult,
    SpeedupRow,
    fig3,
    format_figure,
    format_speedup_table,
    geomean,
    run_streamed,
    time_cpu_gbsv,
    time_cpu_gbtrf,
    time_gbsv,
    time_gbtrf,
    time_gbtrs,
)
from repro.bench.harness import shape_only_batch
from repro.errors import SharedMemoryError
from repro.gpusim import H100_PCIE, MI250X_GCD
from repro.gpusim.blas_kernels import GemvKernel


class TestHarness:
    def test_shape_only_batch_aliases(self):
        mats = shape_only_batch(16, 2, 3, 100)
        assert len(mats) == 100
        assert mats.strides[0] == 0 and np.shares_memory(mats[0], mats[99])
        assert not mats.flags.writeable
        assert mats[0].shape == (8, 16)

    def test_time_gbtrf_positive_and_deterministic(self):
        t1 = time_gbtrf(H100_PCIE, 128, 2, 3)
        t2 = time_gbtrf(H100_PCIE, 128, 2, 3)
        assert t1 == t2 > 0

    def test_time_scales_with_batch(self):
        small = time_gbtrf(H100_PCIE, 512, 2, 3, batch=500)
        large = time_gbtrf(H100_PCIE, 512, 2, 3, batch=4000)
        assert large > small

    def test_window_time_linear_in_n(self):
        t1 = time_gbtrf(H100_PCIE, 256, 2, 3, method="window")
        t2 = time_gbtrf(H100_PCIE, 1024, 2, 3, method="window")
        assert 2.5 < t2 / t1 < 5.5

    def test_fused_raises_when_unlaunchable(self):
        with pytest.raises(SharedMemoryError):
            time_gbtrf(MI250X_GCD, 2048, 2, 3, method="fused")

    def test_gbtrs_time_scales_with_nrhs(self):
        t1 = time_gbtrs(H100_PCIE, 256, 2, 3, 1)
        t10 = time_gbtrs(H100_PCIE, 256, 2, 3, 10)
        assert t1 < t10 < 10 * t1

    def test_gbsv_standard_is_sum_of_parts(self):
        n = 256
        t_sv = time_gbsv(H100_PCIE, n, 2, 3, 1, method="standard")
        t_trf = time_gbtrf(H100_PCIE, n, 2, 3)
        t_trs = time_gbtrs(H100_PCIE, n, 2, 3, 1)
        assert t_sv == pytest.approx(t_trf + t_trs, rel=1e-9)

    def test_cpu_times_positive(self):
        assert time_cpu_gbtrf(128, 2, 3) > 0
        assert time_cpu_gbsv(128, 2, 3, 1) > 0


class TestStreamedExecutor:
    def _kernels(self, n, count):
        a = np.zeros((n, n))
        x = np.zeros(n)
        return [GemvKernel(a, x, x)] * count

    def test_host_dispatch_serialises(self):
        res = run_streamed(H100_PCIE, self._kernels(64, 100),
                           num_streams=16)
        assert res.host_time == pytest.approx(
            100 * H100_PCIE.launch_overhead)
        assert res.makespan >= res.host_time

    def test_more_streams_never_slower(self):
        ks = self._kernels(512, 64)
        t4 = run_streamed(H100_PCIE, ks, num_streams=4).makespan
        t16 = run_streamed(H100_PCIE, ks, num_streams=16).makespan
        assert t16 <= t4 * 1.001

    def test_dram_floor_enforced(self):
        ks = self._kernels(2048, 64)
        res = run_streamed(H100_PCIE, ks, num_streams=16)
        total_dram = sum(k.grid() * k.block_cost().dram_traffic for k in ks)
        assert res.makespan >= total_dram / H100_PCIE.dram_bandwidth

    def test_invalid_stream_count(self):
        with pytest.raises(ValueError):
            run_streamed(H100_PCIE, [], num_streams=0)

    def test_functional_execution_option(self):
        a = np.arange(16.0).reshape(4, 4)
        x = np.ones(4)
        y = np.zeros(4)
        run_streamed(H100_PCIE, [GemvKernel(a, x, y)], execute=True)
        np.testing.assert_allclose(y, a @ x)


class TestReporting:
    def test_figure_add_validates_length(self):
        fig = FigureResult(title="t", xlabel="n", xs=[1, 2, 3])
        with pytest.raises(ValueError):
            fig.add("bad", [1.0, 2.0])

    def test_series_lookup(self):
        fig = FigureResult(title="t", xlabel="n", xs=[1])
        fig.add("a", [1.0])
        assert fig.series_by_label("a").times == [1.0]
        with pytest.raises(KeyError):
            fig.series_by_label("b")

    def test_format_figure_marks_failures(self):
        fig = FigureResult(title="T", xlabel="n", xs=[1, 2])
        fig.add("dev", [1e-3, float("nan")])
        text = format_figure(fig)
        assert "failed" in text
        assert "1.0000" in text

    def test_format_speedup_table(self):
        rows = [SpeedupRow("cfg", [1.0, 2.0, 3.0], 1.5, 2.5, 2.0)]
        text = format_speedup_table("T", rows)
        assert "1.00" in text and "3.00" in text and "2.00" in text
        assert "paper" in text

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert math.isnan(geomean([]))

    def test_fig3_quick(self):
        fig = fig3(2, 3, sizes=[64, 448])
        assert len(fig.series) == 3
        assert all(len(s.times) == 2 for s in fig.series)


@pytest.fixture
def launch_spy(monkeypatch):
    """Every launch the wall-clock harness makes, with the display name
    and executed blocks of its record and the bytes the kernel left in
    its factors, pivots and info."""
    from repro.bench import harness
    real, seen = harness.launch, []

    def spy(device, kernel, **kwargs):
        rec = real(device, kernel, **kwargs)
        seen.append((rec.display_name, rec.executed_blocks,
                     [np.asarray(x).tobytes()
                      for x in (kernel.mats, kernel.pivots, kernel.info)]))
        return rec

    monkeypatch.setattr(harness, "launch", spy)
    return seen


@pytest.mark.parametrize("n", [24, 64], ids=["fused", "window"])
def test_wallclock_gbtrf_paths_per_block_against_vec(launch_spy, n):
    """One side launches per block, the other ``[vec]``; both leave the
    same factor, pivot and info bytes."""
    from repro.bench import wallclock_gbtrf_paths
    r = wallclock_gbtrf_paths(n, 2, 3, batch=6)
    assert r.batch == 6 and r.per_block > 0 and r.vectorized > 0
    (blk_name, blk_blocks, blk_out), (vec_name, _, vec_out) = launch_spy
    assert vec_name == blk_name + "[vec]" and blk_blocks == 6
    assert blk_out == vec_out


def test_wallclock_vbatch_paths_per_block_against_vec(launch_spy):
    """Each configuration's group is one launch per side: per block,
    then ``[vec]``, with the same bytes."""
    from repro.bench import wallclock_vbatch_paths
    configs = [(24, 2, 3), (40, 1, 2), (24, 2, 3), (40, 1, 2), (24, 2, 3)]
    r = wallclock_vbatch_paths(configs)
    assert r.batch == 5
    assert [(name.endswith("[vec]"), blocks)
            for name, blocks, _ in launch_spy] == [
        (False, 3), (False, 2), (True, 3), (True, 2)]
    assert [out for *_, out in launch_spy[:2]] == \
        [out for *_, out in launch_spy[2:]]
