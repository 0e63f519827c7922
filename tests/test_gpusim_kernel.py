"""Unit tests for kernels, launches, shared memory, streams, and traces."""

import numpy as np
import pytest

from repro.errors import SharedMemoryError
from repro.gpusim import (
    BlockCost,
    H100_PCIE,
    Kernel,
    MI250X_GCD,
    SharedMemory,
    Stream,
    format_trace,
    launch,
    summarize,
)


class AddOneKernel(Kernel):
    """Adds one to its slice of an array; used to probe launch mechanics."""

    name = "add_one"

    def __init__(self, data, smem_request=256, nthreads=32):
        self.data = data
        self.smem_request = smem_request
        self.nthreads = nthreads

    def grid(self):
        return self.data.shape[0]

    def threads(self):
        return self.nthreads

    def smem_bytes(self):
        return self.smem_request

    def block_cost(self):
        return BlockCost(flops=self.data.shape[1], smem_traffic=64,
                         dram_traffic=self.data.shape[1] * 16, syncs=1,
                         threads=self.nthreads)

    def run_block(self, block_id, smem):
        scratch = smem.alloc(self.data.shape[1])
        scratch[...] = self.data[block_id]
        self.data[block_id] = scratch + 1.0


class GreedyKernel(AddOneKernel):
    """Allocates more shared memory than it declared."""

    name = "greedy"

    def run_block(self, block_id, smem):
        smem.alloc(self.smem_request * 10)


class TestSharedMemory:
    def test_alloc_within_budget(self):
        smem = SharedMemory(1024)
        arr = smem.alloc(64)           # 512 bytes
        assert arr.shape == (64,) and not arr.any()
        smem.alloc(64)

    def test_alloc_over_budget_raises(self):
        smem = SharedMemory(100)
        with pytest.raises(SharedMemoryError):
            smem.alloc(100)

    def test_cumulative_budget(self):
        smem = SharedMemory(1024)
        smem.alloc(100)
        with pytest.raises(SharedMemoryError):
            smem.alloc(100)

    def test_dtype_sizes_counted(self):
        smem = SharedMemory(1024)
        smem.alloc(256, dtype=np.float32)   # exactly 1024 bytes
        with pytest.raises(SharedMemoryError):
            smem.alloc(1, dtype=np.float32)


class TestLaunch:
    def test_functional_execution(self):
        data = np.zeros((5, 8))
        rec = launch(H100_PCIE, AddOneKernel(data))
        assert (data == 1.0).all()
        assert rec.executed_blocks == 5
        assert rec.grid == 5

    def test_execute_false_times_only(self):
        data = np.zeros((5, 8))
        rec = launch(H100_PCIE, AddOneKernel(data), execute=False)
        assert not data.any()
        assert rec.executed_blocks == 0
        assert rec.time > 0

    def test_kernel_exceeding_declaration_fails(self):
        data = np.zeros((2, 8))
        with pytest.raises(SharedMemoryError):
            launch(H100_PCIE, GreedyKernel(data))

    def test_unlaunchable_kernel_raises_before_execution(self):
        data = np.zeros((2, 8))
        k = AddOneKernel(data, smem_request=300 * 1024)
        with pytest.raises(SharedMemoryError):
            launch(H100_PCIE, k)
        assert not data.any()

    def test_timing_has_floor(self):
        data = np.zeros((1, 1))
        rec = launch(H100_PCIE, AddOneKernel(data), execute=False)
        assert rec.timing.exec_time >= H100_PCIE.min_kernel_time


class TestStream:
    def test_accumulates_time_in_order(self):
        stream = Stream(H100_PCIE)
        data = np.zeros((4, 8))
        launch(H100_PCIE, AddOneKernel(data), stream=stream)
        t1 = stream.elapsed
        launch(H100_PCIE, AddOneKernel(data), stream=stream)
        assert stream.elapsed > t1
        assert stream.launch_count() == 2
        assert stream.synchronize() == stream.elapsed

    def test_events(self):
        stream = Stream(H100_PCIE)
        e0 = stream.record_event()
        launch(H100_PCIE, AddOneKernel(np.zeros((4, 8))), stream=stream)
        e1 = stream.record_event()
        assert e1.elapsed_since(e0) > 0

    def test_events_cross_device_rejected(self):
        from repro.errors import DeviceError
        s1, s2 = Stream(H100_PCIE), Stream(MI250X_GCD)
        with pytest.raises(DeviceError):
            s2.record_event().elapsed_since(s1.record_event())

    def test_reset(self):
        stream = Stream(H100_PCIE)
        launch(H100_PCIE, AddOneKernel(np.zeros((4, 8))), stream=stream)
        stream.reset()
        assert stream.elapsed == 0.0
        assert stream.launch_count() == 0


class TestTrace:
    def test_summarize_groups_by_kernel(self):
        stream = Stream(H100_PCIE)
        for _ in range(3):
            launch(H100_PCIE, AddOneKernel(np.zeros((4, 8))), stream=stream)
        summaries = summarize([stream])
        assert len(summaries) == 1
        s = summaries[0]
        assert s.name == "add_one"
        assert s.launches == 3
        assert s.total_blocks == 12
        assert s.min_time <= s.mean_time <= s.max_time

    def test_format_trace_renders(self):
        stream = Stream(H100_PCIE)
        launch(H100_PCIE, AddOneKernel(np.zeros((2, 8))), stream=stream)
        text = format_trace([stream])
        assert "add_one" in text
        assert "launches" in text


class TestChromeTrace:
    def test_events_layout(self, tmp_path):
        import json
        from repro.gpusim import chrome_trace, save_chrome_trace
        stream = Stream(H100_PCIE, name="work")
        for _ in range(3):
            launch(H100_PCIE, AddOneKernel(np.zeros((4, 8))),
                   stream=stream)
        events = chrome_trace([stream])
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 1 and "work" in meta[0]["args"]["name"]
        assert len(spans) == 3
        # Back-to-back layout: each span starts where the previous ended.
        for a, b in zip(spans, spans[1:]):
            assert b["ts"] == pytest.approx(a["ts"] + a["dur"])
        # Total duration matches the stream clock (in microseconds).
        assert spans[-1]["ts"] + spans[-1]["dur"] == pytest.approx(
            stream.elapsed * 1e6)
        path = tmp_path / "trace.json"
        save_chrome_trace([stream], path)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 4

    def test_multiple_streams_get_tracks(self):
        from repro.gpusim import chrome_trace
        s1, s2 = Stream(H100_PCIE, "a"), Stream(MI250X_GCD, "b")
        launch(H100_PCIE, AddOneKernel(np.zeros((2, 4))), stream=s1)
        launch(MI250X_GCD, AddOneKernel(np.zeros((2, 4))), stream=s2)
        events = chrome_trace([s1, s2])
        tids = {e["tid"] for e in events}
        assert tids == {0, 1}
