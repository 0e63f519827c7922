"""Execution-graph capture and replay (CUDA Graphs / HIP graphs analogue).

The paper's reference designs are crippled by per-launch overhead — two
kernel launches per matrix column (paper Section 5.1).  Real CUDA offers a
mitigation the paper's future work gestures at: capture the launch sequence
once into a graph, then replay the whole DAG with a *single* host-side
submission.  This module reproduces that trade:

* capture: launches on a capturing stream execute nothing and charge no
  time; the kernels accumulate as nodes of an :class:`ExecGraph`;
* replay: launching the graph costs one host launch overhead plus a small
  per-node device-side dispatch, and runs every node's functional body
  against the arrays it holds — so a captured pipeline can be replayed
  repeatedly on updated in-place data, the CUDA-graph usage pattern.

Replay does *not* remove redundant memory traffic — so a graph-captured
reference factorization gets much cheaper but still loses to the sliding
window design, which is the ablation shipped in the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DeviceError
from .costmodel import KernelTiming
from .device import DeviceSpec
from .kernel import Kernel, LaunchRecord, launch
from .stream import Stream

__all__ = ["ExecGraph", "GraphCapture", "capture_graph"]

# Device-side scheduling cost per graph node: orders of magnitude below a
# host launch (the whole point of graphs).
NODE_DISPATCH_COST = 2.5e-7


@dataclass
class ExecGraph:
    """A captured, replayable sequence of kernel launches."""

    device: DeviceSpec
    nodes: list[Kernel] = field(default_factory=list)
    _timings: list[KernelTiming] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def replay_time(self) -> float:
        """Modeled seconds for one replay: one host launch, device-side
        node dispatch, and every node's execution time."""
        exec_time = sum(t.exec_time for t in self._timings)
        return (self.device.launch_overhead
                + self.num_nodes * NODE_DISPATCH_COST
                + exec_time)

    def launch(self, *, stream: Stream | None = None,
               execute: bool = True) -> LaunchRecord:
        """Replay the graph; returns a single aggregate launch record."""
        if not self.nodes:
            raise DeviceError("cannot launch an empty graph")
        if execute:
            for kernel in self.nodes:
                launch(self.device, kernel, execute=True)
        total = self.replay_time()
        first = self._timings[0]
        record = LaunchRecord(
            kernel_name=f"graph[{self.num_nodes}]",
            grid=sum(k.grid() for k in self.nodes),
            threads=max(k.threads() for k in self.nodes),
            smem_bytes=max(k.smem_bytes() for k in self.nodes),
            timing=KernelTiming(
                launch_overhead=self.device.launch_overhead,
                block_time=total - self.device.launch_overhead,
                waves=1,
                dram_time=sum(t.dram_time for t in self._timings),
                occupancy=first.occupancy,
                min_kernel_time=0.0,
            ),
            executed_blocks=sum(k.grid() for k in self.nodes)
            if execute else 0,
        )
        if stream is not None:
            stream.record(record)
        return record


class GraphCapture(Stream):
    """A stream in capture mode: launches accumulate into a graph.

    Use as a context manager::

        with capture_graph(device) as g:
            gbtrf_batch(..., stream=g.stream, ...)
        graph = g.graph
        graph.launch(stream=real_stream)

    As on real hardware, nothing executes during capture — the kernels'
    functional bodies (and their time) run at replay.
    """

    def __init__(self, device: DeviceSpec):
        super().__init__(device, name="graph-capture")
        self.graph = ExecGraph(device=device)
        self._capturing = True

    def record(self, record: LaunchRecord) -> None:  # noqa: D102
        if not self._capturing:
            raise DeviceError("capture already ended")
        # Swallow the timeline cost; remember the node for replay.
        self.records.append(record)

    def add_node(self, kernel: Kernel) -> None:
        self.graph.nodes.append(kernel)
        self.graph._timings.append(kernel.timing(self.device))

    def end(self) -> ExecGraph:
        self._capturing = False
        return self.graph


class _CaptureContext:
    def __init__(self, device: DeviceSpec):
        self.stream = GraphCapture(device)

    @property
    def graph(self) -> ExecGraph:
        return self.stream.graph

    def __enter__(self) -> "_CaptureContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stream.end()


def capture_graph(device: DeviceSpec) -> _CaptureContext:
    """Begin capturing launches into an :class:`ExecGraph`."""
    return _CaptureContext(device)
