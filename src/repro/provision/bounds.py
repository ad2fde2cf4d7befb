"""Makespan lower bounds for sanity-checking plans and runs.

Two classic bounds apply to any engine on any homogeneous cluster:

* **critical path** — the runtime-weighted longest path, unavoidable even
  with infinite workers (the Montage blocking stage is mostly this);
* **work bound** — total CPU seconds divided by total cores.

For an ensemble, the work bound sums members and the critical-path bound
takes the latest ``submit_time + cp`` over members.  Every simulated or
real run must respect ``makespan >= ensemble_lower_bound`` (asserted by
property tests), and a provisioning plan promising less than the bound is
infeasible regardless of the performance index — a cheap early check
before renting anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.cluster import ClusterSpec
from repro.workflow.analysis import critical_path
from repro.workflow.dag import Workflow
from repro.workflow.ensemble import Ensemble

__all__ = ["MakespanBounds", "workflow_bounds", "ensemble_lower_bound", "check_plan_feasible"]


@dataclass(frozen=True)
class MakespanBounds:
    """Lower bounds for one workload on one cluster."""

    critical_path: float
    work_bound: float

    @property
    def lower_bound(self) -> float:
        return max(self.critical_path, self.work_bound)


def workflow_bounds(workflow: Workflow, spec: ClusterSpec) -> MakespanBounds:
    """Bounds for a single workflow on ``spec`` (speed-adjusted)."""
    speeds = [t.cpu_speed for t in spec.node_itypes()]
    best_speed = max(speeds)
    effective_cores = sum(
        t.vcpus * t.cpu_speed for t in spec.node_itypes()
    )
    cp, _path = critical_path(workflow)
    return MakespanBounds(
        critical_path=cp / best_speed,
        work_bound=sum(job.runtime for job in workflow) / effective_cores,
    )


def ensemble_lower_bound(ensemble: Ensemble, spec: ClusterSpec) -> float:
    """Makespan lower bound for an ensemble with its submission plan."""
    speeds = [t.cpu_speed for t in spec.node_itypes()]
    best_speed = max(speeds)
    effective_cores = sum(t.vcpus * t.cpu_speed for t in spec.node_itypes())
    total_work = 0.0
    cp_bound = 0.0
    for submit_time, wf in ensemble:
        total_work += sum(job.runtime for job in wf)
        cp, _ = critical_path(wf)
        cp_bound = max(cp_bound, submit_time + cp / best_speed)
    return max(cp_bound, total_work / effective_cores)


def check_plan_feasible(
    workflow: Workflow, spec: ClusterSpec, workflows: int, deadline: float
) -> bool:
    """Can ``workflows`` copies possibly finish within ``deadline``?

    A necessary (not sufficient) condition; the planner's Eq. 2 estimate
    should always pass it, and a False here means no amount of index
    optimism will save the plan.
    """
    if workflows < 1:
        raise ValueError(f"workflows must be >= 1, got {workflows}")
    if deadline <= 0:
        raise ValueError(f"deadline must be positive, got {deadline}")
    bounds = workflow_bounds(workflow, spec)
    total_work_time = workflows * sum(job.runtime for job in workflow) / sum(
        t.vcpus * t.cpu_speed for t in spec.node_itypes()
    )
    return max(bounds.critical_path, total_work_time) <= deadline
