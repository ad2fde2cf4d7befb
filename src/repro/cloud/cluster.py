"""Cluster specification and assembly.

:class:`ClusterSpec` is the *plan*: instance type, node count, shared-FS
flavour — what the provisioning planner emits (Table III).
:class:`SimCluster` is the *instantiation*: the DES nodes plus the shared
file system, ready for an execution engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.cloud.instances import InstanceType, get_instance_type
from repro.cloud.node import SimNode
from repro.cloud.pricing import BillingModel, cluster_cost
from repro.sim import Simulator
from repro.storage.base import SharedFileSystem
from repro.storage.moosefs import make_moosefs
from repro.storage.nfs import make_central_nfs, make_nton_nfs

__all__ = ["ClusterSpec", "SimCluster", "FS_KINDS", "default_filesystem"]

FS_KINDS = ("local", "nfs-central", "nfs-nton", "moosefs")


def default_filesystem(n_nodes: int) -> str:
    """What the paper deploys when nothing is asked for: one node works
    on its own disks, a cluster shares one MooseFS."""
    return "local" if n_nodes == 1 else "moosefs"


@dataclass(frozen=True)
class ClusterSpec:
    """A provisioning decision: what to rent and how to wire storage.

    The paper's clusters are always homogeneous — "a homogeneous
    environment can be achieved by launching all the worker nodes with
    the same instance type in the same placement group" (§III.A) — and
    that homogeneity is what makes pulling safe.  ``node_types`` allows
    deliberately *heterogeneous* clusters for the ablation that tests
    this design assumption (grid-style mixed hardware).
    """

    instance_type: str
    n_nodes: int
    filesystem: str = "moosefs"
    name: str = ""
    #: Optional per-node instance types (length == n_nodes); empty means
    #: homogeneous (every node is ``instance_type``).
    node_types: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        get_instance_type(self.instance_type)  # raises for unknown types
        if self.node_types:
            if len(self.node_types) != self.n_nodes:
                raise ValueError(
                    f"node_types has {len(self.node_types)} entries for "
                    f"{self.n_nodes} nodes"
                )
            for t in self.node_types:
                get_instance_type(t)
        if self.filesystem not in FS_KINDS:
            raise ValueError(
                f"unknown filesystem {self.filesystem!r}; choose from {FS_KINDS}"
            )
        if self.filesystem == "local" and self.n_nodes != 1:
            raise ValueError(
                f"'local' filesystem requires a single node, got {self.n_nodes}"
            )
        if not self.name:
            label = "mixed" if self.node_types else self.instance_type
            object.__setattr__(self, "name", f"{label} x{self.n_nodes}")

    @property
    def itype(self) -> InstanceType:
        return get_instance_type(self.instance_type)

    def node_itypes(self) -> Tuple[InstanceType, ...]:
        """Per-node instance types (homogeneous clusters repeat one)."""
        if self.node_types:
            return tuple(get_instance_type(t) for t in self.node_types)
        return (self.itype,) * self.n_nodes

    @property
    def total_vcpus(self) -> int:
        return sum(t.vcpus for t in self.node_itypes())

    @property
    def total_memory_gb(self) -> float:
        return sum(t.memory_gb for t in self.node_itypes())

    @property
    def total_storage_gb(self) -> float:
        return sum(t.storage_gb for t in self.node_itypes())

    @property
    def price_per_hour(self) -> float:
        return sum(t.price_per_hour for t in self.node_itypes())

    def cost(self, seconds: float, model: BillingModel = BillingModel.PER_HOUR) -> float:
        return sum(cluster_cost(t, 1, seconds, model) for t in self.node_itypes())


class SimCluster:
    """DES instantiation of a :class:`ClusterSpec`."""

    def __init__(self, sim: Simulator, spec: ClusterSpec):
        self.sim = sim
        self.spec = spec
        self.nodes = [
            SimNode(sim, i, itype) for i, itype in enumerate(spec.node_itypes())
        ]
        if spec.filesystem == "local":
            self.fs = SharedFileSystem(sim, self.nodes, name="local")
        elif spec.filesystem == "nfs-central":
            self.fs = make_central_nfs(sim, self.nodes)
        elif spec.filesystem == "nfs-nton":
            self.fs = make_nton_nfs(sim, self.nodes)
        else:
            self.fs = make_moosefs(sim, self.nodes)

    def __repr__(self) -> str:
        return f"SimCluster({self.spec.name}, fs={self.fs.name})"
