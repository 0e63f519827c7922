"""Simulated GPU execution model: devices, occupancy, kernels, streams.

This package is the substitution for real CUDA/HIP hardware documented in
DESIGN.md Section 2: kernels execute functionally on shared-memory-sized
numpy workspaces while an analytic cost model (occupancy x waves x per-block
latency, with a DRAM-bandwidth floor) supplies the clock.
"""

from .graph import ExecGraph, GraphCapture, capture_graph
from .costmodel import BlockCost, KernelTiming, estimate_block_time, estimate_kernel_time
from .device import (
    H100_PCIE, MI250X_GCD, DeviceHealth, DeviceSpec, device_health,
    get_device, list_devices, register_device, reset_device_health,
)
from .faults import (
    FaultEvent, FaultInjector, FaultPlan,
    active_injector, arm_faults, disarm_faults, fault_injection,
)
from .kernel import Kernel, LaunchRecord, SharedMemory, launch
from .memory import (
    DeviceBuffer, MemoryPool, PointerArray, TrafficCounter,
    memory_pool, reset_memory_pools,
)
from .multidevice import (
    CircuitBreaker, DevicePartition, MultiDeviceRun, replicate_device,
    run_multi_device, split_batch, throughput_weights,
)
from .occupancy import Occupancy, occupancy, suggest_block_size, waves_for_grid
from .stream import Event, Stream, TimelineEntry
from .transfer import (
    TransferRecord, batch_upload_time, memcpy_d2h, memcpy_h2d,
    stage_chunk, transfer_time,
)
from .trace import KernelSummary, chrome_trace, format_trace, save_chrome_trace, summarize

__all__ = [
    "BlockCost", "KernelTiming", "estimate_block_time", "estimate_kernel_time",
    "H100_PCIE", "MI250X_GCD", "DeviceHealth", "DeviceSpec",
    "device_health", "get_device", "list_devices", "register_device",
    "reset_device_health",
    "FaultEvent", "FaultInjector", "FaultPlan",
    "active_injector", "arm_faults", "disarm_faults", "fault_injection",
    "Kernel", "LaunchRecord", "SharedMemory", "launch",
    "CircuitBreaker", "DeviceBuffer", "DevicePartition", "MemoryPool",
    "MultiDeviceRun", "PointerArray",
    "TrafficCounter", "memory_pool",
    "replicate_device", "reset_memory_pools", "run_multi_device",
    "split_batch", "throughput_weights",
    "Occupancy", "occupancy", "suggest_block_size", "waves_for_grid",
    "Event", "ExecGraph", "GraphCapture", "Stream", "TimelineEntry",
    "capture_graph",
    "TransferRecord", "batch_upload_time", "memcpy_d2h", "memcpy_h2d",
    "stage_chunk", "transfer_time",
    "KernelSummary", "chrome_trace", "format_trace", "save_chrome_trace",
    "summarize",
]
