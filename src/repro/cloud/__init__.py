"""Simulated public-cloud provider.

Replaces the paper's Amazon EC2 testbed (see DESIGN.md §1).  The instance
catalogue transcribes the paper's Table I (specs, prices) and Table II
(RAID-0 disk I/O capacity); :mod:`~repro.cloud.pricing`
implements the charge-by-hour model (and the charge-by-minute model the
paper mentions for Google Compute Engine); :class:`~repro.cloud.node.SimNode`
assembles a node's DES resources from its instance type.
"""

from repro.cloud.cluster import ClusterSpec, SimCluster
from repro.cloud.instances import (
    INSTANCE_TYPES,
    DiskProfile,
    InstanceType,
    get_instance_type,
)
from repro.cloud.node import SimNode
from repro.cloud.pricing import BillingModel, cluster_cost, price_per_workflow

__all__ = [
    "BillingModel",
    "ClusterSpec",
    "DiskProfile",
    "INSTANCE_TYPES",
    "InstanceType",
    "SimCluster",
    "SimNode",
    "cluster_cost",
    "get_instance_type",
    "price_per_workflow",
]
