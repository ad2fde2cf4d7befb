"""Profiling campaigns (paper §IV.A).

"We begin with small scale experiments to profile the resource
consumption patterns of the workflow ensemble.  Based on the small scale
testing results we derive the performance index of a worker node."

Two experiment families, mirroring the paper exactly:

* **single-node tests** — up to ``max_workflows`` copies of the template
  workflow on a one-node cluster (Fig 5a): execution time should grow
  linearly with the workload;
* **multi-node tests** — a fixed ``multi_node_workflows``-copy ensemble
  on 2..``max_nodes`` nodes (Fig 5b): execution time falls with cluster
  size but flattens; the node performance index per point (Fig 5c)
  converges to the value used for provisioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.cloud.cluster import ClusterSpec
from repro.engines.base import RunConfig
from repro.engines.pull import PullEngine
from repro.provision.index import converged_index, node_performance_index
from repro.workflow.dag import Workflow
from repro.workflow.ensemble import Ensemble

__all__ = ["SingleNodeProfile", "MultiNodeProfile", "ProfilingCampaign"]

#: Shared FS of the multi-node tests (the paper profiled on NFS).
FILESYSTEM = "nfs-nton"
#: Only makespans are read, so no per-job record is kept.
RUN_CONFIG = RunConfig(record_jobs=False)


@dataclass
class SingleNodeProfile:
    """Fig 5a data for one instance type."""

    instance_type: str
    workflow_counts: List[int]
    execution_times: List[float]


@dataclass
class MultiNodeProfile:
    """Fig 5b/5c data for one instance type."""

    instance_type: str
    workflows: int
    node_counts: List[int]
    execution_times: List[float]
    indices: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.indices:
            self.indices = [
                node_performance_index(self.workflows, n, t)
                for n, t in zip(self.node_counts, self.execution_times)
            ]

    @property
    def converged(self) -> float:
        """The large-cluster performance index (Fig 5c tail)."""
        return converged_index(self.indices)


class ProfilingCampaign:
    """Runs the paper's profiling experiments in the simulator with
    :class:`~repro.engines.pull.PullEngine`: one node on its local disk,
    several on :data:`FILESYSTEM`.

    Parameters
    ----------
    template:
        The workflow to profile (e.g. a 6.0-degree Montage).
    """

    def __init__(self, template: Workflow):
        self.template = template

    def _run(self, instance_type: str, n_nodes: int, n_workflows: int) -> float:
        fs = "local" if n_nodes == 1 else FILESYSTEM
        spec = ClusterSpec(instance_type, n_nodes, filesystem=fs)
        engine = PullEngine(spec, RUN_CONFIG)
        ensemble = Ensemble.replicated(self.template, n_workflows)
        return engine.run(ensemble).makespan

    def single_node(
        self, instance_type: str, workflow_counts: Sequence[int] = (1, 2, 4, 6, 8, 10)
    ) -> SingleNodeProfile:
        """Fig 5a: workload sweep on one node."""
        times = [self._run(instance_type, 1, w) for w in workflow_counts]
        return SingleNodeProfile(
            instance_type=instance_type,
            workflow_counts=list(workflow_counts),
            execution_times=times,
        )

    def multi_node(
        self,
        instance_type: str,
        node_counts: Sequence[int] = (2, 3, 4, 5, 6),
        workflows: int = 20,
    ) -> MultiNodeProfile:
        """Fig 5b/5c: cluster-size sweep at a fixed workload."""
        times = [self._run(instance_type, n, workflows) for n in node_counts]
        return MultiNodeProfile(
            instance_type=instance_type,
            workflows=workflows,
            node_counts=list(node_counts),
            execution_times=times,
        )
