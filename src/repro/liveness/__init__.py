"""Liveness protocol: heartbeat leases, admission control, master failover.

The paper's DEWE v2 master assumes workers that stop acking are *dead*
(spot terminations, PR 2) and that a master that dies is restarted
*offline* from the journal (PR 3).  Real public clouds add the failure
modes Juve & Deelman's EC2 studies report around the edges of that
model: hung-but-not-dead nodes, network partitions, and overload.  This
package holds the engine-agnostic pieces of the answer:

* :class:`~repro.liveness.lease.LeaseConfig` /
  :class:`~repro.liveness.lease.LeaseTable` — the heartbeat/lease
  failure detector with monotonic fencing epochs;
* :class:`~repro.liveness.admission.AdmissionControl` — the master-side
  admission gate (reject-new before degrade-running);
* :class:`~repro.liveness.failover.MasterFailoverModel` — the seeded
  primary-death/standby-takeover schedule for warm-standby failover;
* :class:`~repro.liveness.policy.ServiceAdmissionPolicy` — the
  multi-tenant generalization of the admission gate: per-tenant
  token-bucket quotas, weighted fair share, and a brownout controller
  that degrades by SLA class under sustained overload
  (docs/FAULTS.md, "Overload and graceful degradation").

Both halves of the stack consume these: the deterministic DES pull
engine (`repro.engines.pull`, simulated time) and the threaded
`repro.dewe` daemons (`time.monotonic()` wall clock).  The table itself
never reads a clock or takes a lock — callers pass ``now`` and
serialize access — so one implementation serves both worlds.
"""

from repro.liveness.admission import AdmissionControl, AdmissionDecision
from repro.liveness.failover import MasterFailoverModel
from repro.liveness.lease import (
    MISS_THRESHOLD,
    LeaseConfig,
    LeaseTable,
    new_liveness_stats,
)
from repro.liveness.policy import (
    DEFAULT_CLASSES,
    BrownoutController,
    ServiceAdmissionPolicy,
    ShedRecord,
    SlaClass,
    TokenBucket,
)

__all__ = [
    "AdmissionControl",
    "AdmissionDecision",
    "BrownoutController",
    "DEFAULT_CLASSES",
    "LeaseConfig",
    "LeaseTable",
    "MISS_THRESHOLD",
    "MasterFailoverModel",
    "ServiceAdmissionPolicy",
    "ShedRecord",
    "SlaClass",
    "TokenBucket",
    "new_liveness_stats",
]
