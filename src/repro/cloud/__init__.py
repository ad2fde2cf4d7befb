"""Simulated public-cloud provider.

Replaces the paper's Amazon EC2 testbed (see DESIGN.md §1).  The instance
catalogue transcribes the paper's Table I (specs, prices) and Table II
(RAID-0 disk I/O capacity); :mod:`~repro.cloud.pricing`
implements the charge-by-hour model (and the charge-by-minute model the
paper mentions for Google Compute Engine); :class:`~repro.cloud.node.SimNode`
assembles a node's DES resources from its instance type.
"""

from repro import lazy_exports

# Lazy, so that ``repro.storage.disk`` can import ``repro.cloud.instances``
# without this package importing ``cloud.node``, which imports the disk.
__getattr__, __all__ = lazy_exports(__name__, {
    "repro.cloud.cluster": "ClusterSpec SimCluster",
    "repro.cloud.instances": "INSTANCE_TYPES DiskProfile InstanceType "
                             "get_instance_type",
    "repro.cloud.node": "SimNode",
    "repro.cloud.pricing": "BillingModel cluster_cost",
})
