"""Tenant/class-aware admission policy: quotas, fair share, brownout.

PR 7's :class:`~repro.liveness.admission.AdmissionControl` is a binary,
class-blind backlog gate — correct for one owner, wrong for a service.
Under open-loop arrivals from many tenants, overload is not an error to
reject uniformly but a *regime* to degrade through gracefully.  This
module holds the engine-agnostic policy ladder (docs/FAULTS.md,
"Overload and graceful degradation"):

1. **quota** — per-tenant token buckets bound each tenant's submission
   rate regardless of cluster state;
2. **fair share** — no tenant may hold more than a weighted share of
   the admitted-but-unsettled backlog;
3. **brownout** — under *sustained* backlog overshoot a level ladder
   degrades by SLA class: shed ``best_effort`` first, stretch
   ``silver`` deadlines, protect ``gold``;
4. **admission shed** — the PR 7 backlog gate remains the class-blind
   backstop for non-gold work (the bounded broker topics behind it are
   the hard backstop for everything).

Everything here is inert and deterministic: no clocks (callers pass
``now``), no locks (callers serialize), no RNG.  Counters accumulate
into a caller-supplied stats dict (:func:`new_liveness_stats` schema)
so a standby master continues the same run-level counters after
failover — the policy object itself lives *outside* master incarnations,
which is how quota and fair-share state survive a takeover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Dict, List, Optional, Sequence, Tuple

from repro.liveness.admission import (
    AdmissionControl, AdmissionDecision, install_door,
)

__all__ = [
    "SlaClass",
    "DEFAULT_CLASSES",
    "BROWNOUT_RELEASE",
    "BROWNOUT_STRETCH",
    "MAX_SHARE",
    "TokenBucket",
    "BrownoutController",
    "ShedRecord",
    "ServiceAdmissionPolicy",
]


@dataclass(frozen=True)
class SlaClass:
    """One deadline-slack tier of the service.

    ``rank`` orders sheddability: 0 is the most protected class and is
    never brownout- or backlog-shed (quota and fair share still bound
    it).  ``deadline_factor`` scales the engine's default job timeout at
    admission — gold buys tight deadlines, best-effort rides with slack.
    """

    name: str
    rank: int
    deadline_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        if not 0 < self.deadline_factor < inf:
            raise ValueError("deadline_factor must be finite and positive")


#: The service's three-tier ladder.
DEFAULT_CLASSES: Tuple[SlaClass, ...] = (
    SlaClass("gold", rank=0, deadline_factor=1.0),
    SlaClass("silver", rank=1, deadline_factor=1.5),
    SlaClass("best_effort", rank=2, deadline_factor=3.0),
)
_CLASSES: Dict[str, SlaClass] = {c.name: c for c in DEFAULT_CLASSES}

#: A brownout level releases once the overshoot falls below this share
#: of its threshold (hysteresis).
BROWNOUT_RELEASE = 0.75
#: Factor on silver's deadline at brownout level 2 and above.
BROWNOUT_STRETCH = 2.0
#: The largest share of the outstanding backlog an average-weight
#: tenant may hold (scaled by its weight).
MAX_SHARE = 0.5


class TokenBucket:
    """Deterministic per-tenant rate limiter.

    Pure arithmetic over a caller-supplied ``now`` — refill is a
    function of elapsed time, never of a clock read — so two buckets fed
    the same operation sequence hold byte-identical state.
    """

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float):
        if not 0 < rate < inf:
            raise ValueError("rate must be finite and positive")
        if not 1 <= burst < inf:
            raise ValueError("burst must be finite and >= 1")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = 0.0

    def refill(self, now: float) -> None:
        if now > self.updated:
            self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
            self.updated = now

    def try_take(self, now: float, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; refills first."""
        self.refill(now)
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


class BrownoutController:
    """Level ladder driven by *sustained* backlog overshoot.

    ``observe(overshoot, now)`` returns the active level given the
    current dispatch-backlog overshoot ratio (backlog / admission
    bound).  Escalation to a higher level requires the overshoot to sit
    at or above that level's threshold for ``sustain`` seconds — a burst
    shorter than the hold window never browns out.  De-escalation is
    hysteretic: the overshoot must fall below :data:`BROWNOUT_RELEASE`
    times the level's threshold (again sustained) before the level
    drops, so the controller does not flap around a threshold.

    Levels (with :data:`DEFAULT_CLASSES` semantics):

    * 0 — normal operation;
    * 1 — shed rank >= 2 (``best_effort``);
    * 2 — also stretch rank-1 (``silver``) deadlines by
      :data:`BROWNOUT_STRETCH`;
    * 3 — shed every rank >= 1; only rank 0 (``gold``) is admitted.
    """

    __slots__ = ("thresholds", "sustain", "level", "transitions", "_pending", "_since")

    def __init__(
        self,
        thresholds: Sequence[float] = (1.0, 1.5, 2.0),
        sustain: float = 5.0,
    ):
        if (
            not thresholds
            or list(thresholds) != sorted(thresholds)
            or not all(-inf < bound < inf for bound in thresholds)
        ):
            raise ValueError("thresholds must be non-empty, finite and sorted")
        if not 0 <= sustain < inf:
            raise ValueError("sustain must be finite and >= 0")
        self.thresholds = tuple(thresholds)
        self.sustain = sustain
        self.level = 0
        #: ``(time, level)`` history of every level change (diagnostics).
        self.transitions: List[Tuple[float, int]] = []
        self._pending: Optional[int] = None
        self._since = 0.0

    def _target(self, overshoot: float) -> int:
        """Instantaneous level the overshoot asks for, with hysteresis:
        levels at or below the current one only release below
        ``BROWNOUT_RELEASE * threshold``."""
        target = 0
        for i, bound in enumerate(self.thresholds):
            level = i + 1
            keep = bound * (BROWNOUT_RELEASE if level <= self.level else 1.0)
            if overshoot >= keep:
                target = level
        return target

    def observe(self, overshoot: float, now: float) -> int:
        """Feed one backlog sample; returns the (possibly new) level."""
        target = self._target(overshoot)
        if target == self.level:
            self._pending = None
            return self.level
        if self._pending != target:
            self._pending = target
            self._since = now
        if now - self._since >= self.sustain:
            self.level = target
            self._pending = None
            self.transitions.append((now, target))
        return self.level


@dataclass(frozen=True)
class ShedRecord:
    """One shed submission, attributed for post-mortems."""

    time: float
    workflow: str
    tenant: str
    sla: str
    reason: str
    retry_after: float


@dataclass
class _TenantAccount:
    bucket: Optional[TokenBucket] = None
    weight: float = 1.0
    #: Admitted-but-unsettled jobs currently charged to the tenant.
    outstanding: int = 0
    admitted: int = 0
    shed: int = 0


class ServiceAdmissionPolicy:
    """The multi-tenant front door: quota -> fair share -> brownout ->
    backlog gate, in that order (cheapest and most local first).

    Workflow names are tagged with ``(tenant, sla)`` via
    :meth:`register` before submission.  Installed as a pull run's
    front door, it is asked :meth:`decide` once per arriving submission
    (a shed is final) and told :meth:`settle` when the workflow settles.
    All state lives on this object, outside any master incarnation, so
    failover preserves quota/fair-share state — the journal records each
    decision (``service-shed`` / ``submit`` records carry the tenant and
    class) for post-mortem replay.
    """

    def __init__(
        self,
        admission: Optional[AdmissionControl] = None,
        brownout: Optional[BrownoutController] = None,
        fair_share_floor: int = 8,
    ):
        if fair_share_floor < 0:
            raise ValueError("fair_share_floor must be >= 0")
        self.admission = admission or AdmissionControl()
        self.brownout = brownout or BrownoutController()
        #: Fair share only binds once this many jobs are outstanding in
        #: total — with an empty service any share is 100%.
        self.fair_share_floor = fair_share_floor
        self._tenants: Dict[str, _TenantAccount] = {}
        #: workflow name -> (tenant, sla)
        self._tags: Dict[str, Tuple[str, str]] = {}
        #: workflow name -> jobs charged at admission (for settle()).
        self._charged: Dict[str, int] = {}
        self.sheds: List[ShedRecord] = []
        self.total_outstanding = 0
        self.peak_backlog = 0
        #: Counter sink; :meth:`install` rebinds this to the run-level
        #: stats dict (``new_liveness_stats`` schema).
        self.stats: Dict[str, int] = {}

    # -- registration -------------------------------------------------------
    def add_tenant(
        self,
        tenant: str,
        quota: Optional[TokenBucket] = None,
        weight: float = 1.0,
    ) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._tenants[tenant] = _TenantAccount(bucket=quota, weight=weight)

    def register(self, workflow_name: str, tenant: str, sla: str) -> None:
        """Tag one workflow-to-be-submitted with its tenant and class."""
        if sla not in _CLASSES:
            raise ValueError(f"unknown SLA class {sla!r}")
        if tenant not in self._tenants:
            self._tenants[tenant] = _TenantAccount()
        self._tags[workflow_name] = (tenant, sla)

    def tag_of(self, workflow_name: str) -> Tuple[str, str]:
        """``(tenant, sla)`` of a registered workflow ("", "") if untagged."""
        return self._tags.get(workflow_name, ("", ""))

    # -- the ladder ---------------------------------------------------------
    def _bump(self, key: str) -> None:
        self.stats[key] = self.stats.get(key, 0) + 1

    def _shed(
        self, now: float, name: str, tenant: str, sla: str,
        reason: str, retry_after: float, counter: str,
    ) -> AdmissionDecision:
        self._bump("shed_submissions")
        if counter != "shed_submissions":
            self._bump(counter)
        self._bump(f"shed_{sla}")
        self._tenants[tenant].shed += 1
        self.sheds.append(
            ShedRecord(now, name, tenant, sla, reason, retry_after)
        )
        return AdmissionDecision(
            admit=False, reason=reason, retry_after=retry_after
        )

    def decide(
        self, workflow_name: str, n_jobs: int, backlog: int, now: float
    ) -> AdmissionDecision:
        """Run one submission through the ladder; charges quota and fair
        share on admission (sheds consume nothing)."""
        if backlog > self.peak_backlog:
            self.peak_backlog = backlog
        tenant, sla = self.tag_of(workflow_name)
        cls = _CLASSES.get(sla)
        if cls is None:
            raise ValueError(f"workflow {workflow_name!r} is not registered")
        account = self._tenants[tenant]
        overshoot = backlog / self.admission.max_pending_jobs
        level = self.brownout.observe(overshoot, now)
        # 1. quota: the tenant's own submission budget.
        bucket = account.bucket
        if bucket is not None and not bucket.try_take(now):
            # Retry after: seconds until the empty bucket holds a token.
            return self._shed(
                now, workflow_name, tenant, sla, "quota",
                (1.0 - bucket.tokens) / bucket.rate, "quota_sheds",
            )
        # 2. fair share: bound the tenant's slice of outstanding work.
        total = self.total_outstanding
        if total + n_jobs > self.fair_share_floor:
            weight_sum = sum(a.weight for a in self._tenants.values())
            share_bound = MAX_SHARE * account.weight * len(self._tenants) / weight_sum
            share = (account.outstanding + n_jobs) / (total + n_jobs)
            if share > min(1.0, share_bound):
                if bucket is not None:
                    bucket.tokens = min(bucket.burst, bucket.tokens + 1.0)
                return self._shed(
                    now, workflow_name, tenant, sla, "fair-share",
                    self.admission.retry_hint(backlog), "fair_share_sheds",
                )
        # 3. brownout: degrade by class under sustained overload.
        if cls.rank >= 1 and (
            (level >= 1 and cls.rank >= 2) or (level >= 3 and cls.rank >= 1)
        ):
            if bucket is not None:
                bucket.tokens = min(bucket.burst, bucket.tokens + 1.0)
            return self._shed(
                now, workflow_name, tenant, sla, f"brownout-l{level}",
                self.admission.retry_hint(backlog), "brownout_sheds",
            )
        # 4. backlog gate: the PR 7 class-blind backstop; rank 0 bypasses
        # it — protecting gold is the whole point of shedding the rest.
        if cls.rank >= 1 and not self.admission.admits(backlog):
            if bucket is not None:
                bucket.tokens = min(bucket.burst, bucket.tokens + 1.0)
            return self._shed(
                now, workflow_name, tenant, sla, "admission",
                self.admission.retry_hint(backlog), "shed_submissions",
            )
        # Admitted: charge fair share and compute the deadline slack.
        account.outstanding += n_jobs
        account.admitted += 1
        self.total_outstanding += n_jobs
        self._charged[workflow_name] = n_jobs
        factor = cls.deadline_factor
        if level >= 2 and cls.rank == 1:
            factor *= BROWNOUT_STRETCH
            self._bump("deadline_stretches")
        return AdmissionDecision(admit=True, timeout_factor=factor)

    def settle(self, workflow_name: str) -> None:
        """Release the fair-share charge of a settled workflow.

        Idempotent (the charge is popped), so duplicate settlement
        notifications after a failover cannot drive shares negative.
        """
        n_jobs = self._charged.pop(workflow_name, None)
        if n_jobs is None:
            return
        tenant, _sla = self.tag_of(workflow_name)
        account = self._tenants.get(tenant)
        if account is not None:
            account.outstanding = max(0, account.outstanding - n_jobs)
        self.total_outstanding = max(0, self.total_outstanding - n_jobs)

    def install(self, run) -> None:
        """Controller protocol (``PullEngine(controllers=[...])``): the
        run's open-loop front door, counting into the run's stats."""
        install_door(run, self)
        self.stats = run.stats

    # -- inspection ---------------------------------------------------------
    def tenant_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant admitted/shed/outstanding counters, sorted."""
        return {
            tenant: {
                "admitted": account.admitted,
                "shed": account.shed,
                "outstanding": account.outstanding,
            }
            for tenant, account in sorted(self._tenants.items())
        }
