"""Multi-tenant workload builder for the service soak harness.

Each simulated tenant owns an SLA class, an open-loop arrival process
and (optionally) a quota; :func:`build_workload` merges their arrival
traces into one :class:`~repro.workflow.ensemble.Ensemble` whose member
names encode the owning tenant, plus the tag registry the
:class:`~repro.liveness.ServiceAdmissionPolicy` needs.  Members share
the template's job skeletons (``relabel``), so a multi-hour trace with
hundreds of members stays cheap to build.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.liveness.policy import ServiceAdmissionPolicy, TokenBucket, tenant_tag
from repro.service.arrivals import OnOffArrivals, PoissonArrivals
from repro.workflow.dag import Workflow
from repro.workflow.ensemble import Ensemble, SubmissionPlan

__all__ = ["TenantSpec", "ServiceWorkload", "build_workload"]

ArrivalProcess = "PoissonArrivals | OnOffArrivals"


@dataclass(frozen=True)
class TenantSpec:
    """One simulated tenant of the service.

    ``quota_rate``/``quota_burst`` configure the tenant's token bucket
    (``None`` rate means unmetered).  ``weight`` scales the tenant's
    fair-share bound.
    """

    tenant: str
    sla: str
    arrivals: object  # PoissonArrivals | OnOffArrivals
    quota_rate: Optional[float] = None
    quota_burst: float = 10.0
    weight: float = 1.0

    def quota(self) -> Optional[TokenBucket]:
        if self.quota_rate is None:
            return None
        return TokenBucket(rate=self.quota_rate, burst=self.quota_burst)


def _tenant_seed(seed: int, tenant: str) -> int:
    """Salt the run seed per tenant so traces are independent but each
    is a pure function of ``(seed, tenant)``."""
    return (seed * 1_000_003 + zlib.crc32(tenant.encode())) & 0x7FFFFFFF


@dataclass
class ServiceWorkload:
    """The merged ensemble plus everything the policy needs to run it."""

    ensemble: Ensemble
    #: member workflow name -> (tenant, sla), in submission order.
    tags: Dict[str, Tuple[str, str]]
    tenants: Tuple[TenantSpec, ...]

    def wire(self, policy: ServiceAdmissionPolicy) -> ServiceAdmissionPolicy:
        """Register every tenant (with its quota and weight) and every
        member workflow on ``policy``; returns it for chaining."""
        for spec in self.tenants:
            policy.add_tenant(spec.tenant, quota=spec.quota(), weight=spec.weight)
        for name, (tenant, sla) in self.tags.items():
            policy.register(name, tenant, sla)
        return policy

    @property
    def per_tenant_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for tenant, _sla in self.tags.values():
            counts[tenant] = counts.get(tenant, 0) + 1
        return counts


def build_workload(
    tenants: Sequence[TenantSpec],
    template: Workflow,
    horizon: float,
    seed: int,
    name: str = "service",
) -> ServiceWorkload:
    """Merge per-tenant arrival traces into one submission-ordered ensemble.

    Ties in arrival time break on tenant id then per-tenant index, so the
    merged order — and therefore everything downstream — is a pure
    function of ``(tenants, horizon, seed)``.
    """
    if not tenants:
        raise ValueError("need at least one tenant")
    ids = [spec.tenant for spec in tenants]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate tenant ids: {ids}")
    arrivals: list = []  # (time, tenant, k)
    for spec in tenants:
        trace = spec.arrivals.times(horizon, _tenant_seed(seed, spec.tenant))
        arrivals.extend((t, spec.tenant, k) for k, t in enumerate(trace))
    if not arrivals:
        raise ValueError(f"no arrivals within horizon={horizon}")
    arrivals.sort()
    by_id = {spec.tenant: spec for spec in tenants}
    workflows = []
    tags: Dict[str, Tuple[str, str]] = {}
    for t, tenant, k in arrivals:
        member = template.relabel(f"{tenant}.{k:04d}")
        workflows.append(member)
        tags[member.name] = tenant_tag(tenant, by_id[tenant].sla)
    plan = SubmissionPlan(times=tuple(t for t, _tenant, _k in arrivals))
    return ServiceWorkload(
        ensemble=Ensemble(workflows, plan, name=name),
        tags=tags,
        tenants=tuple(tenants),
    )
