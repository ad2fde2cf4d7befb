"""Simulated EC2 lifecycle: launch, describe, terminate.

A thin control-plane model: instances
have ids, states and launch times; placement groups guarantee the
homogeneous, tightly coupled environment DEWE v2's design assumes (paper
§III.A: "a homogeneous environment can be achieved by launching all the
worker nodes with the same instance type in the same placement group").
Billing accrues per instance from launch to termination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cloud.instances import InstanceType, get_instance_type
from repro.cloud.pricing import BillingModel, cluster_cost

__all__ = ["Instance", "SimulatedEC2"]


@dataclass
class Instance:
    """One launched instance."""

    id: str
    itype: InstanceType
    placement_group: Optional[str]
    launch_time: float
    state: str = "running"
    termination_time: Optional[float] = None

    def runtime(self, now: float) -> float:
        end = self.termination_time if self.termination_time is not None else now
        return max(0.0, end - self.launch_time)


class SimulatedEC2:
    """In-memory EC2 control plane.

    ``clock`` is supplied by the caller (wall seconds or simulation time);
    the provider itself is time-agnostic.
    """

    def __init__(self, region: str = "us-east-1"):
        self.region = region
        self._ids = itertools.count(1)
        self.instances: Dict[str, Instance] = {}
        self.placement_groups: Dict[str, List[str]] = {}

    def create_placement_group(self, name: str) -> None:
        if name in self.placement_groups:
            raise ValueError(f"placement group {name!r} already exists")
        self.placement_groups[name] = []

    def launch(
        self,
        instance_type: str,
        count: int = 1,
        placement_group: Optional[str] = None,
        now: float = 0.0,
    ) -> List[Instance]:
        """Launch ``count`` instances of ``instance_type``."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        itype = get_instance_type(instance_type)
        if placement_group is not None and placement_group not in self.placement_groups:
            raise KeyError(f"unknown placement group {placement_group!r}")
        launched = []
        for _ in range(count):
            instance = Instance(
                id=f"i-{next(self._ids):08x}",
                itype=itype,
                placement_group=placement_group,
                launch_time=now,
            )
            self.instances[instance.id] = instance
            if placement_group is not None:
                self.placement_groups[placement_group].append(instance.id)
            launched.append(instance)
        return launched

    def terminate(self, instance_id: str, now: float = 0.0) -> Instance:
        instance = self.instances.get(instance_id)
        if instance is None:
            raise KeyError(f"unknown instance {instance_id!r}")
        if instance.state == "terminated":
            raise ValueError(f"instance {instance_id} already terminated")
        instance.state = "terminated"
        instance.termination_time = now
        return instance

    def describe(self, placement_group: Optional[str] = None) -> List[Instance]:
        if placement_group is None:
            return list(self.instances.values())
        ids = self.placement_groups.get(placement_group, [])
        return [self.instances[i] for i in ids]

    def running(self) -> List[Instance]:
        return [i for i in self.instances.values() if i.state == "running"]

    def accrued_cost(
        self, now: float, model: BillingModel = BillingModel.PER_HOUR
    ) -> float:
        """Total bill so far across all instances ever launched."""
        total = 0.0
        for instance in self.instances.values():
            total += cluster_cost(instance.itype, 1, instance.runtime(now), model)
        return total
