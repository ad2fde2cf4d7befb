"""Workflow structure analysis.

Utilities the provisioning planner and the evaluation harness rely on:
topological levels, critical-path length (a lower bound on makespan on any
number of homogeneous workers), blocking-job detection (paper §II calls
mConcatFit/mBgModel *blocking jobs* because no other job is eligible while
they run), and the three-stage decomposition of Montage-like workflows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.workflow.dag import Job, Workflow

__all__ = [
    "WorkflowStats",
    "topological_levels",
    "critical_path",
    "blocking_jobs",
    "stage_decomposition",
    "summarize",
]


def topological_levels(workflow: Workflow) -> Dict[str, int]:
    """Level of each job: roots are 0, otherwise 1 + max(parent levels)."""
    levels: Dict[str, int] = {}
    for job in workflow.topological_order():
        if job.parents:
            levels[job.id] = 1 + max(levels[p] for p in job.parents)
        else:
            levels[job.id] = 0
    return levels


def critical_path(workflow: Workflow) -> Tuple[float, List[str]]:
    """Longest runtime-weighted path; returns ``(length_seconds, job_ids)``.

    This is the makespan lower bound with unlimited homogeneous workers
    and free data movement.
    """
    best: Dict[str, float] = {}
    best_parent: Dict[str, str] = {}
    order = workflow.topological_order()
    for job in order:
        start = 0.0
        for parent_id in job.parents:
            if best[parent_id] > start:
                start = best[parent_id]
                best_parent[job.id] = parent_id
        best[job.id] = start + job.runtime
    if not best:
        return 0.0, []
    end_id = max(best, key=best.__getitem__)
    path = [end_id]
    while path[-1] in best_parent:
        path.append(best_parent[path[-1]])
    path.reverse()
    return best[end_id], path


def blocking_jobs(workflow: Workflow) -> List[str]:
    """Jobs that serialize the workflow (paper §II).

    A job is *blocking* when every leaf-reaching path passes through it —
    i.e. it is an articulation point of the precedence order.  We use the
    equivalent level-occupancy criterion: a job is blocking if it is alone
    on its topological level and every job on later levels descends from
    it.  For layered scientific workflows (Montage, LIGO) this reduces to
    "alone on its level and not a root/leaf fan stage", which is cheap to
    test and matches mConcatFit/mBgModel exactly.
    """
    levels = topological_levels(workflow)
    by_level: Dict[int, List[str]] = {}
    for job_id, level in levels.items():
        by_level.setdefault(level, []).append(job_id)
    max_level = max(by_level) if by_level else -1
    out = []
    for level in sorted(by_level):
        members = by_level[level]
        if len(members) != 1:
            continue
        only = members[0]
        job = workflow.job(only)
        # Must actually gate later work: it has successors and predecessors.
        if job.parents and job.children and level not in (0, max_level):
            out.append(only)
    return out


def stage_decomposition(workflow: Workflow) -> Dict[str, List[str]]:
    """Split jobs into the paper's three stages (§II).

    * ``stage1`` — parallel fan before the first blocking job;
    * ``stage2`` — the blocking jobs themselves;
    * ``stage3`` — everything after the last blocking job.

    Workflows with no blocking jobs get everything in ``stage1``.
    """
    blockers = blocking_jobs(workflow)
    levels = topological_levels(workflow)
    if not blockers:
        return {"stage1": list(workflow.jobs), "stage2": [], "stage3": []}
    # Stage 2 is the *first* consecutive run of blocking levels
    # (mConcatFit -> mBgModel in Montage).  Later solitary jobs
    # (mImgTbl, mAdd, mShrink) belong to the stage-3 tail per §II.
    blocker_levels = sorted(levels[b] for b in blockers)
    lo = hi = blocker_levels[0]
    for level in blocker_levels[1:]:
        if level == hi + 1:
            hi = level
        else:
            break
    stages: Dict[str, List[str]] = {"stage1": [], "stage2": [], "stage3": []}
    for job_id, level in levels.items():
        if level < lo:
            stages["stage1"].append(job_id)
        elif level <= hi:
            stages["stage2"].append(job_id)
        else:
            stages["stage3"].append(job_id)
    return stages


@dataclass
class WorkflowStats:
    """Summary statistics used in reports and EXPERIMENTS.md tables."""

    name: str
    n_jobs: int
    n_edges: int
    n_levels: int
    total_runtime: float
    critical_path_length: float
    max_parallelism: int
    n_input_files: int
    n_intermediate_files: int
    n_output_files: int
    input_bytes: float
    intermediate_bytes: float
    output_bytes: float
    count_by_type: Dict[str, int] = field(default_factory=dict)

    @property
    def parallel_fraction(self) -> float:
        """1 - cp/total: how much of the work can overlap."""
        if self.total_runtime == 0:
            return 0.0
        return 1.0 - self.critical_path_length / self.total_runtime


def summarize(workflow: Workflow) -> WorkflowStats:
    """Compute a :class:`WorkflowStats` for ``workflow``."""
    levels = topological_levels(workflow)
    width: Dict[int, int] = {}
    for level in levels.values():
        width[level] = width.get(level, 0) + 1
    cp_length, _ = critical_path(workflow)
    files = workflow.skeleton().files
    by_kind = {"input": [0, 0.0], "intermediate": [0, 0.0], "output": [0, 0.0]}
    for f in files:
        by_kind[f.kind][0] += 1
        by_kind[f.kind][1] += f.size
    return WorkflowStats(
        name=workflow.name,
        n_jobs=len(workflow),
        n_edges=sum(len(job.children) for job in workflow),
        n_levels=(max(levels.values()) + 1) if levels else 0,
        total_runtime=sum(job.runtime for job in workflow),
        critical_path_length=cp_length,
        max_parallelism=max(width.values()) if width else 0,
        n_input_files=by_kind["input"][0],
        n_intermediate_files=by_kind["intermediate"][0],
        n_output_files=by_kind["output"][0],
        input_bytes=by_kind["input"][1],
        intermediate_bytes=by_kind["intermediate"][1],
        output_bytes=by_kind["output"][1],
        count_by_type=dict(Counter(job.task_type for job in workflow)),
    )
