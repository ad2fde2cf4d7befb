"""Cluster planning under cost and deadline constraints (paper §V.B).

Given the converged node performance index of each candidate instance
type, Eq. 2 sizes the cluster for the target workload and deadline; the
planner then prices each design under hourly billing and reports them
(Table III).  The paper sets T = 3300 s (55 minutes) for W = 200 because
EC2 bills whole hours — finishing just inside the hour minimises cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cloud.cluster import ClusterSpec
from repro.cloud.instances import get_instance_type
from repro.cloud.pricing import cluster_cost
from repro.provision.index import required_nodes

__all__ = ["ClusterPlan", "plan_cluster", "plan_table", "PAPER_INDICES"]

#: The paper's estimated large-cluster node performance indices (§IV.B):
#: "0.0015, 0.0024, and 0.0026 for clusters with c3.8xlarge, r3.8xlarge,
#: and i2.8xlarge instance types".
PAPER_INDICES: Dict[str, float] = {
    "c3.8xlarge": 0.0015,
    "r3.8xlarge": 0.0024,
    "i2.8xlarge": 0.0026,
}


@dataclass(frozen=True)
class ClusterPlan:
    """One provisioning decision with its predicted cost."""

    spec: ClusterSpec
    workflows: int
    deadline: float
    performance_index: float
    predicted_time: float
    predicted_cost: float

    @property
    def meets_deadline(self) -> bool:
        return self.predicted_time <= self.deadline

    @property
    def price_per_workflow(self) -> float:
        return self.predicted_cost / self.workflows


def plan_cluster(
    instance_type: str,
    workflows: int,
    deadline: float,
    index: Optional[float] = None,
) -> ClusterPlan:
    """Size a cluster of ``instance_type`` for the workload (Eq. 2): on
    MooseFS, billed per started hour, as the paper's Table III."""
    if workflows < 1:
        raise ValueError(f"workflows must be >= 1, got {workflows}")
    itype = get_instance_type(instance_type)
    if index is None:
        index = PAPER_INDICES.get(instance_type)
        if index is None:
            raise ValueError(
                f"no performance index known for {instance_type!r}; "
                "profile it first (repro.provision.ProfilingCampaign)"
            )
    n_nodes = required_nodes(workflows, index, deadline)
    predicted_time = workflows / (index * n_nodes)
    return ClusterPlan(
        spec=ClusterSpec(instance_type, n_nodes, filesystem="moosefs"),
        workflows=workflows,
        deadline=deadline,
        performance_index=index,
        predicted_time=predicted_time,
        predicted_cost=cluster_cost(itype, n_nodes, predicted_time),
    )


def plan_table(workflows: int = 200, deadline: float = 3300.0) -> List[ClusterPlan]:
    """Regenerate Table III: one plan per instance type of
    :data:`PAPER_INDICES`, at its index.

    With W=200 and T=3300 s this yields 40 c3, 25 r3 and 23 i2 nodes.
    """
    return [
        plan_cluster(name, workflows, deadline, index)
        for name, index in PAPER_INDICES.items()
    ]
