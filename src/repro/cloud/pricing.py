"""Cloud billing models.

The paper's cost analysis is built around EC2's 2015 charge-by-hour model:
"users pay for EC2 instances by the hour, and any partial hour usage will
be charged as a full hour" (§V.B).  That quantisation is why the clusters
are designed to finish the 200-workflow ensemble within 55 minutes, and
why Fig 11c's price-per-workflow falls as the workload grows.  The
charge-by-minute model (Google Compute Engine) that the paper mentions for
dynamic provisioning is included for the ablation study.
"""

from __future__ import annotations

import math
from enum import Enum

import repro.analysis.sanitizer as _sanitizer
from repro.cloud.instances import InstanceType

__all__ = [
    "BillingModel",
    "billed_hours",
    "spot_billed_hours",
    "cluster_cost",
]


class BillingModel(Enum):
    """Billing granularity for rented instances."""

    PER_HOUR = "per-hour"      # AWS EC2 (2015): partial hours round up
    PER_MINUTE = "per-minute"  # GCE-style: partial minutes round up
    PER_SECOND = "per-second"  # idealised continuous billing


def billed_hours(seconds: float, model: BillingModel = BillingModel.PER_HOUR) -> float:
    """Billable hours for a rental of ``seconds`` under ``model``."""
    if seconds < 0:
        raise ValueError(f"rental duration must be >= 0, got {seconds}")
    if seconds == 0:
        hours = 0.0
    elif model is BillingModel.PER_HOUR:
        hours = float(math.ceil(seconds / 3600.0))
    elif model is BillingModel.PER_MINUTE:
        hours = math.ceil(seconds / 60.0) / 60.0
    else:
        hours = seconds / 3600.0
    san = _sanitizer._ACTIVE
    if san is not None:
        san.check_billing(model, seconds, hours)
    return hours


def spot_billed_hours(
    seconds: float, model: BillingModel = BillingModel.PER_HOUR
) -> float:
    """Billable hours when the *provider* reclaims the instance mid-lease.

    EC2's 2015 spot rule is the mirror image of :func:`billed_hours`: "if
    your Spot instance is interrupted by Amazon EC2, you will not be
    charged for a partial hour of usage" — the final partial billing
    quantum is free, so hours round *down*.  Leases the user terminates
    keep the ordinary round-up rule.
    """
    if seconds < 0:
        raise ValueError(f"rental duration must be >= 0, got {seconds}")
    if model is BillingModel.PER_HOUR:
        hours = float(math.floor(seconds / 3600.0))
    elif model is BillingModel.PER_MINUTE:
        hours = math.floor(seconds / 60.0) / 60.0
    else:
        hours = seconds / 3600.0
    san = _sanitizer._ACTIVE
    if san is not None:
        san.check_spot_billing(model, seconds, hours)
    return hours


def cluster_cost(
    instance_type: InstanceType,
    n_nodes: int,
    seconds: float,
    model: BillingModel = BillingModel.PER_HOUR,
) -> float:
    """USD cost of renting ``n_nodes`` instances for ``seconds``."""
    if n_nodes < 0:
        raise ValueError(f"n_nodes must be >= 0, got {n_nodes}")
    return n_nodes * instance_type.price_per_hour * billed_hours(seconds, model)
