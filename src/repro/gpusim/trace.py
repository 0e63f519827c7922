"""Launch-trace reporting: a tiny profiler for the simulated device.

Collects :class:`~repro.gpusim.kernel.LaunchRecord` objects (from one or
more streams) and renders per-kernel summaries — the moral equivalent of
``nsys``/``rocprof`` output for the simulated runs, used when tuning and in
the benchmark harness's verbose mode.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .kernel import LaunchRecord
from .stream import Stream

__all__ = ["KernelSummary", "summarize", "format_trace",
           "chrome_trace", "save_chrome_trace"]


@dataclass(frozen=True)
class KernelSummary:
    """Aggregated statistics for one kernel name."""

    name: str
    launches: int
    total_time: float
    total_blocks: int
    min_time: float
    max_time: float
    # Injected fault events recorded on the launches (lane corruptions from
    # repro.gpusim.faults); 0 for fault-free runs.
    faults: int = 0

    @property
    def mean_time(self) -> float:
        return self.total_time / self.launches if self.launches else 0.0


def summarize(records) -> list[KernelSummary]:
    """Aggregate launch records (or streams) per kernel name.

    Accepts an iterable of :class:`LaunchRecord` and/or :class:`Stream`
    objects; returns summaries sorted by descending total time.
    """
    flat: list[LaunchRecord] = []
    for item in records:
        if isinstance(item, Stream):
            flat.extend(item.records)
        else:
            flat.append(item)
    groups: dict[str, list[LaunchRecord]] = defaultdict(list)
    for rec in flat:
        # Batch-interleaved launches group under "<name>[vec]" (or
        # "<name>[vec+pack]" when the vbatch kernel gathered its buckets,
        # "<name>[vec+soa]" when the kernel ran natively on an
        # interleaved stack) so the execution paths of the same kernel
        # stay separately attributable — the full label table lives in
        # docs/ARCHITECTURE.md.  (TransferRecords have no display_name.)
        groups[getattr(rec, "display_name", rec.kernel_name)].append(rec)
    out = []
    for name, recs in groups.items():
        times = [r.time for r in recs]
        out.append(KernelSummary(
            name=name,
            launches=len(recs),
            total_time=sum(times),
            total_blocks=sum(r.grid for r in recs),
            min_time=min(times),
            max_time=max(times),
            faults=sum(len(getattr(r, "faults", ())) for r in recs),
        ))
    out.sort(key=lambda s: -s.total_time)
    return out


def chrome_trace(streams) -> list[dict]:
    """Render streams as Chrome trace events (``chrome://tracing`` JSON).

    Each stream becomes a track (``tid``); launches become complete events
    (``ph: "X"``) laid out back-to-back from the stream's origin, with the
    launch metadata in ``args``.  Load the output in ``chrome://tracing``
    or Perfetto to inspect a simulated run visually.
    """
    events: list[dict] = []
    for tid, stream in enumerate(streams):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
            "args": {"name": f"{stream.name} ({stream.device.name})"},
        })
        t = 0.0
        for rec in stream.records:
            events.append({
                "name": getattr(rec, "display_name", rec.kernel_name),
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "ts": t * 1e6,                  # microseconds
                "dur": rec.time * 1e6,
                "args": {
                    "grid": rec.grid,
                    "threads": getattr(rec, "threads", None),
                    "smem_bytes": getattr(rec, "smem_bytes", None),
                    "vectorized": getattr(rec, "vectorized", False),
                    "packed": getattr(rec, "packed", False),
                    "pack_bytes": getattr(rec, "pack_bytes", 0),
                    "soa": getattr(rec, "soa", False),
                    "soa_bytes": getattr(rec, "soa_bytes", 0),
                    "faults": [f"{ev.kind}:lane{ev.lane}"
                               for ev in getattr(rec, "faults", ())],
                },
            })
            t += rec.time
    return events


def save_chrome_trace(streams, path) -> None:
    """Write :func:`chrome_trace` output as a JSON file."""
    import json
    from pathlib import Path

    Path(path).write_text(json.dumps(
        {"traceEvents": chrome_trace(streams)}, indent=1))


def format_trace(records, *, unit: str = "ms") -> str:
    """Render a human-readable per-kernel table."""
    scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
    summaries = summarize(records)
    show_faults = any(s.faults for s in summaries)
    header = (f"{'kernel':<28} {'launches':>8} {'blocks':>8} "
              f"{'total ' + unit:>12} {'mean ' + unit:>10} "
              f"{'min ' + unit:>10} {'max ' + unit:>10}"
              + (f" {'faults':>7}" if show_faults else ""))
    lines = [header, "-" * len(header)]
    for s in summaries:
        lines.append(
            f"{s.name:<28} {s.launches:>8d} {s.total_blocks:>8d} "
            f"{s.total_time * scale:>12.4f} {s.mean_time * scale:>10.4f} "
            f"{s.min_time * scale:>10.4f} {s.max_time * scale:>10.4f}"
            + (f" {s.faults:>7d}" if show_faults else ""))
    return "\n".join(lines)
