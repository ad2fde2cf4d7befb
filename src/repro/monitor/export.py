"""Export run results to standard tooling formats.

* :func:`to_chrome_trace` — Chrome/Perfetto trace-event JSON: one track
  per (node, vCPU slot), one complete event per executed job, so a run
  can be inspected in ``chrome://tracing`` exactly like the paper's Fig 2
  visualisation;
* :func:`metrics_to_csv` — mpstat/iostat-style series as CSV for
  spreadsheet or matplotlib post-processing;
* :func:`ascii_gantt` — a quick terminal rendering of the slot timeline.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Optional, Union

from repro.engines.base import EngineResult
from repro.monitor.metrics import NodeMetrics
from repro.monitor.timeline import slot_timeline

__all__ = ["to_chrome_trace", "metrics_to_csv", "ascii_gantt"]

_PathLike = Union[str, Path]


def to_chrome_trace(result: EngineResult, path: Optional[_PathLike] = None) -> dict:
    """Build (and optionally write) a Chrome trace-event document.

    pid = node index, tid = vCPU slot; timestamps are microseconds as the
    format requires.  Each job is a complete ("X") event carrying its
    phase breakdown as arguments.
    """
    events = []
    for seg in slot_timeline(result):
        events.append(
            {
                "name": seg.task_type,
                "cat": "job",
                "ph": "X",
                "pid": seg.node,
                "tid": seg.slot,
                "ts": seg.start * 1e6,
                "dur": seg.duration * 1e6,
                "args": {
                    "job_id": seg.job_id,
                    "compute_s": round(seg.compute_time, 4),
                    "io_s": round(seg.io_time, 4),
                },
            }
        )
    for node_index, node in enumerate(result.cluster.nodes):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": node_index,
                "args": {"name": node.name},
            }
        )
    # Injected faults as instant events: node-scoped when the fault names
    # a node (kills, spot notices, degradations), global otherwise
    # (broker chaos, dead letters).
    for fault in result.fault_events:
        event = {
            "name": fault.kind,
            "cat": "fault",
            "ph": "i",
            "ts": fault.time * 1e6,
            "s": "g" if fault.node is None else "p",
            "pid": 0 if fault.node is None else fault.node,
            "args": {"detail": fault.detail},
        }
        events.append(event)
    # Journaled runs: mark every compaction checkpoint as a global
    # instant event, so the points a restart restores from can be
    # located on the timeline next to the faults they interact with.
    journal = getattr(result, "journal", None)
    if journal is not None:
        for seq, time in journal.checkpoint_history:
            events.append(
                {
                    "name": "journal-checkpoint",
                    "cat": "recovery",
                    "ph": "i",
                    "ts": time * 1e6,
                    "s": "g",
                    "pid": 0,
                    "args": {"seq": seq},
                }
            )
    other = {
        "engine": result.engine,
        "cluster": result.spec.name,
        "makespan_s": result.makespan,
    }
    if journal is not None:
        other["journal"] = {
            "records": len(journal),
            "checkpoints": len(journal.checkpoint_history),
            "crashes": journal.crashes,
        }
    if result.integrity_stats:
        other["integrity"] = dict(result.integrity_stats)
    if getattr(result, "liveness_stats", None):
        other["liveness"] = dict(result.liveness_stats)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }
    if path is not None:
        Path(path).write_text(json.dumps(document))
    return document


def metrics_to_csv(metrics: NodeMetrics, path: Optional[_PathLike] = None) -> str:
    """Serialize a metrics series to CSV (paper's 3-second samples)."""
    buffer = io.StringIO()
    buffer.write("time_s,cpu_util_pct,disk_write_mb_s,disk_read_mb_s,threads\n")
    for t, cpu, w, r, th in zip(
        metrics.times,
        metrics.cpu_util,
        metrics.disk_write,
        metrics.disk_read,
        metrics.threads,
    ):
        buffer.write(f"{t:.1f},{cpu:.2f},{w:.2f},{r:.2f},{th:.2f}\n")
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def ascii_gantt(result: EngineResult, width: int = 78, max_slots: int = 16) -> str:
    """Terminal rendering of the per-slot timeline (Fig 2 at a glance).

    Each row is one vCPU slot; ``#`` marks busy time.  Rows beyond
    ``max_slots`` per node are elided.
    """
    segments = slot_timeline(result)
    if not segments:
        return "(empty timeline)"
    t_end = max(seg.end for seg in segments)
    scale = (width - 20) / t_end if t_end > 0 else 1.0
    lines = [f"0{' ' * (width - 22)}{t_end:,.0f}s"]
    by_lane: dict = {}
    for seg in segments:
        by_lane.setdefault((seg.node, seg.slot), []).append(seg)
    for (node, slot), segs in sorted(by_lane.items()):
        if slot >= max_slots:
            continue
        row = [" "] * (width - 20)
        for seg in segs:
            lo = int(seg.start * scale)
            hi = max(lo + 1, int(seg.end * scale))
            for i in range(lo, min(hi, len(row))):
                row[i] = "#"
        lines.append(f"n{node:02d}.s{slot:02d} |" + "".join(row))
    return "\n".join(lines)
