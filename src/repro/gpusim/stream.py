"""Streams (in-order queues) and events for the simulated device.

The paper's interface requires a user-provided stream/queue for every batched
call (paper Section 4).  A :class:`Stream` is an in-order timeline: launches
enqueued on it run back-to-back, and ``synchronize`` reports the accumulated
simulated time.

Multiple streams on the same device can overlap, and the scheduler here is
event-driven: every record lands on an *absolute* timeline (``start`` =
the stream's tail, pushed later by any cross-stream dependency installed
with :meth:`Stream.wait_event`).  This is what lets the pipelined chunk
executor (:mod:`repro.core.pipeline`) model double-buffered staging
honestly — while chunk *i* computes on the compute stream, chunk *i+1*
uploads on a copy stream, and the modeled makespan is the per-stream tail
maximum rather than the sum of every record.  The streamed one-kernel-
per-problem baseline of Figure 1 (bounded device concurrency, shared DRAM)
lives separately in :mod:`repro.bench.streams`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DeviceError, KernelHangError
from .device import DeviceSpec, device_health
from .kernel import LaunchRecord

__all__ = ["Stream", "Event", "TimelineEntry"]


@dataclass
class Event:
    """A marker in a stream's timeline (cudaEvent analogue)."""

    stream: "Stream"
    time: float

    def elapsed_since(self, earlier: "Event") -> float:
        """Seconds between two events (must be on the same device)."""
        if earlier.stream.device is not self.stream.device:
            raise DeviceError("events recorded on different devices")
        return self.time - earlier.time


@dataclass(frozen=True, slots=True)
class TimelineEntry:
    """One record placed on a stream's absolute timeline."""

    start: float
    end: float
    record: LaunchRecord

    @property
    def duration(self) -> float:
        return self.end - self.start


class Stream:
    """An in-order execution queue on one simulated device.

    Records are placed on an absolute timeline: each starts at the
    stream's current tail, or later when a :meth:`wait_event` dependency
    from another stream has not resolved yet (the gap models the engine
    sitting idle).  For a stream with no cross-stream waits the tail
    equals the sum of its record times — the original sequential model.
    """

    def __init__(self, device: DeviceSpec, name: str = "stream",
                 watchdog: float | None = None):
        self.device = device
        self.name = name
        #: Watchdog deadline in modeled seconds: a record whose duration
        #: exceeds it raises :class:`~repro.errors.KernelHangError`
        #: instead of landing on the timeline (a TDR-style reset).
        #: ``None`` disables hang detection.
        if watchdog is not None and watchdog <= 0.0:
            raise DeviceError(f"watchdog must be > 0, got {watchdog}")
        self.watchdog = watchdog
        self.records: list[LaunchRecord] = []
        self.timeline: list[TimelineEntry] = []
        self._time = 0.0        # absolute tail of the in-order queue
        self._ready = 0.0       # earliest start allowed by pending waits

    def record(self, record: LaunchRecord) -> None:
        """Append a completed launch to this stream's timeline.

        When a :attr:`watchdog` deadline is armed and the record's modeled
        duration exceeds it, the launch is treated as hung: the record is
        *not* appended (a recovered re-run replays on a clean timeline),
        the hang is logged on the device's health tracker, and
        :class:`~repro.errors.KernelHangError` propagates to the caller.
        """
        if self.watchdog is not None and record.time > self.watchdog:
            device_health(self.device).record_failure("hang")
            raise KernelHangError(
                kernel=record.kernel_name, device=self.device.name,
                elapsed=record.time, deadline=self.watchdog,
                injected=any(getattr(ev, "kind", "") == "kernel-hang"
                             for ev in record.faults))
        start = max(self._time, self._ready)
        end = start + record.time
        self.records.append(record)
        self.timeline.append(TimelineEntry(start, end, record))
        self._time = end

    def wait_event(self, event: Event) -> None:
        """Make all subsequent records wait for ``event`` (cross-stream).

        The cudaStreamWaitEvent analogue: the event must come from a
        stream on the same device (cross-device dependencies are host
        joins, not stream waits).
        """
        if event.stream.device is not self.device:
            raise DeviceError(
                f"cannot wait on an event from device "
                f"{event.stream.device.name!r} on a stream of "
                f"{self.device.name!r}")
        self._ready = max(self._ready, event.time)

    def record_event(self) -> Event:
        """Record an event at the stream's current tail."""
        return Event(self, self._time)

    def synchronize(self) -> float:
        """Block until the stream drains; returns total simulated seconds."""
        return self._time

    @property
    def elapsed(self) -> float:
        """Absolute tail of the stream's timeline, seconds.

        Equals the sum of record times for a stream that never waited on
        another stream; with cross-stream waits it includes idle gaps.
        """
        return self._time

    @property
    def busy_time(self) -> float:
        """Seconds this stream's engine actually spent executing records."""
        return sum(e.duration for e in self.timeline)

    def reset(self) -> None:
        """Clear the timeline (fresh timing region)."""
        self.records.clear()
        self.timeline.clear()
        self._time = 0.0
        self._ready = 0.0

    def launch_count(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return (f"Stream({self.name!r} on {self.device.name}, "
                f"{len(self.records)} launches, {self._time * 1e3:.3f} ms)")
