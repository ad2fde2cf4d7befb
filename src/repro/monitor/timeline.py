"""Per-vCPU-slot execution timelines (paper Fig 2).

Fig 2 plots, for every vCPU slot of every node, the alternation of
compute time and data-staging (communication) time.  The DES does not pin
jobs to slots (neither does the worker daemon), so the timeline assigns
each job record to the lowest-numbered slot of its node that is free at
the job's start — the same greedy packing a Gantt renderer would use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.engines.base import EngineResult, JobRecord
from repro.generators.montage import MONTAGE_BLOCKING_TYPES

__all__ = ["SlotSegment", "slot_timeline", "stage_windows"]


@dataclass(frozen=True)
class SlotSegment:
    """One job execution on one vCPU slot."""

    node: int
    slot: int
    job_id: str
    task_type: str
    start: float
    end: float
    compute_time: float
    io_time: float  # staging/read/write (Fig 2's "communication time")

    @property
    def duration(self) -> float:
        return self.end - self.start


def slot_timeline(result: EngineResult) -> List[SlotSegment]:
    """Greedy slot assignment of job records; sorted by (node, slot, start)."""
    if not result.records:
        raise ValueError(
            "run has no job records (RunConfig.record_jobs was False?)"
        )
    by_node: Dict[int, List[JobRecord]] = {}
    for rec in result.records:
        by_node.setdefault(rec.node, []).append(rec)
    segments: List[SlotSegment] = []
    for node_index, recs in by_node.items():
        recs.sort(key=lambda r: (r.start, r.end))
        slot_free_at: List[float] = []
        for rec in recs:
            slot = next(
                (i for i, free in enumerate(slot_free_at) if free <= rec.start + 1e-9),
                None,
            )
            if slot is None:
                slot = len(slot_free_at)
                slot_free_at.append(0.0)
            slot_free_at[slot] = rec.end
            segments.append(
                SlotSegment(
                    node=node_index,
                    slot=slot,
                    job_id=rec.job_id,
                    task_type=rec.task_type,
                    start=rec.start,
                    end=rec.end,
                    compute_time=rec.compute_time,
                    io_time=rec.read_time + rec.write_time + rec.overhead_time,
                )
            )
    segments.sort(key=lambda s: (s.node, s.slot, s.start))
    return segments


def stage_windows(result: EngineResult):
    """Start/end of the blocking window (Montage stage 2: the
    :data:`~repro.generators.montage.MONTAGE_BLOCKING_TYPES` jobs) per
    workflow.

    Returns ``{workflow: (stage2_start, stage2_end)}`` from the job
    records; used to verify the paper's "stage 2 is ~40% of the makespan"
    observation (Fig 2) and the three-stage pattern (Fig 4).
    """
    windows: Dict[str, List[float]] = {}
    for rec in result.records:
        if rec.task_type in MONTAGE_BLOCKING_TYPES:
            window = windows.setdefault(rec.workflow, [float("inf"), 0.0])
            window[0] = min(window[0], rec.start)
            window[1] = max(window[1], rec.end)
    return {name: (w[0], w[1]) for name, w in windows.items()}
