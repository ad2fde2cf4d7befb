"""The multi-tenant open-loop service front end (ROADMAP item 1).

The paper's Fig 8 experiments vary the submission interval of ensemble
members, but always in a closed, single-owner loop.  A service that
serves many parties must instead survive *open-loop* arrivals — offered
load that can exceed capacity indefinitely — which turns admission from
a binary gate into a graceful-degradation ladder
(:class:`~repro.liveness.ServiceAdmissionPolicy`; docs/FAULTS.md,
"Overload and graceful degradation").

This package holds the workload side of that story:

* :mod:`~repro.service.arrivals` — seeded open-loop arrival processes
  (Poisson and burst/ON-OFF), byte-deterministic per seed;
* :mod:`~repro.service.workload` — N simulated tenants, each with an
  SLA class, quota and arrival process, merged into one
  :class:`~repro.workflow.ensemble.Ensemble` plus the policy registry;
* :mod:`~repro.service.soak` — the ``repro-service`` soak harness: a
  multi-hour simulated trace through the DES pull engine reporting
  per-tenant, per-class p50/p99 slowdown, shed counts and cost.
"""

from repro.service.arrivals import OnOffArrivals, PoissonArrivals
from repro.service.soak import (
    SoakConfig,
    SoakReport,
    SoakSetup,
    build_soak,
    run_soak,
)
from repro.service.workload import ServiceWorkload, TenantSpec, build_workload

__all__ = [
    "OnOffArrivals",
    "PoissonArrivals",
    "ServiceWorkload",
    "SoakConfig",
    "SoakReport",
    "SoakSetup",
    "TenantSpec",
    "build_soak",
    "build_workload",
    "run_soak",
]
