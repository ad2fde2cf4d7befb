"""Heartbeat leases with fencing epochs.

The failure detector at the heart of the partition-tolerant control
plane.  Every worker holds a time-bounded *lease* identified by a
monotonically increasing *epoch*; it renews the lease by heartbeating
every ``heartbeat_interval``.  When :data:`MISS_THRESHOLD` consecutive
beats are missing the master declares the worker suspect, *fences* the
epoch, and requeues its in-flight jobs.  Any settlement stamped with a
fenced (stale) epoch is rejected, which is what makes redispatch safe:
a hung or partitioned worker that comes back cannot double-settle work
the master already handed to someone else.

The table is deliberately inert infrastructure: no clocks (callers pass
``now``), no locks (callers serialize — the DES is single-threaded, the
threaded master holds ``_state_lock``), no I/O.  Counters accumulate
into a caller-supplied ``stats`` dict so a standby master's fresh table
continues the same run-level counters after failover.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, Hashable, List, Optional

__all__ = ["MISS_THRESHOLD", "LeaseConfig", "LeaseTable", "new_liveness_stats"]

#: Consecutive missed beats before a lease is fenced.
MISS_THRESHOLD = 3


def new_liveness_stats() -> Dict[str, int]:
    """A zeroed counter dict shared by a run's successive lease tables.

    The service-plane counters (``quota_sheds`` … ``shed_best_effort``)
    are part of the same stable schema, so a run without the
    multi-tenant front end reports zeros, not missing keys.
    """
    return {
        "heartbeat_misses": 0,
        "lease_fencings": 0,
        "lease_regrants": 0,
        "stale_epoch_acks": 0,
        "shed_submissions": 0,
        "failovers": 0,
        "partitions": 0,
        # -- multi-tenant service plane (repro.liveness.policy) --------
        "quota_sheds": 0,
        "fair_share_sheds": 0,
        "brownout_sheds": 0,
        "deadline_stretches": 0,
        "shed_gold": 0,
        "shed_silver": 0,
        "shed_best_effort": 0,
    }


@dataclass(frozen=True)
class LeaseConfig:
    """Tuning knob of the heartbeat/lease protocol.

    ``heartbeat_interval``
        Seconds between worker beats (and between master sweeps).  The
        lease timeout is ``heartbeat_interval * MISS_THRESHOLD``.
    """

    heartbeat_interval: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.heartbeat_interval < inf:
            raise ValueError("heartbeat_interval must be finite and positive")

    @property
    def lease_timeout(self) -> float:
        return self.heartbeat_interval * MISS_THRESHOLD


class LeaseTable:
    """Per-worker lease state: epoch, last beat, fenced flag.

    Workers are any hashable key (node indices in the DES, daemon names
    in the threaded path).  ``epoch_floor`` seeds the epoch counter
    above every epoch a previous incarnation issued, so a standby
    master taking over can fence the whole primary era at once.
    """

    __slots__ = ("config", "stats", "_epoch", "_last_beat", "_fenced",
                 "_missed", "_max_epoch")

    def __init__(
        self,
        config: LeaseConfig,
        epoch_floor: int = 0,
        stats: Optional[Dict[str, int]] = None,
    ):
        self.config = config
        self.stats = new_liveness_stats() if stats is None else stats
        self._epoch: Dict[Hashable, int] = {}
        self._last_beat: Dict[Hashable, float] = {}
        self._fenced: Dict[Hashable, bool] = {}
        self._missed: Dict[Hashable, int] = {}
        self._max_epoch = epoch_floor

    # -- granting and renewal -------------------------------------------
    def grant(self, worker: Hashable, now: float) -> int:
        """Issue a fresh lease (a new epoch) to ``worker``.

        Re-granting after a fence is how a recovered worker rejoins; it
        counts as a regrant.  Epochs are globally monotonic across all
        workers so a single fencing token orders every incarnation.
        """
        if worker in self._epoch:
            self.stats["lease_regrants"] += 1
        self._max_epoch += 1
        self._epoch[worker] = self._max_epoch
        self._last_beat[worker] = now
        self._fenced[worker] = False
        self._missed[worker] = 0
        return self._max_epoch

    def beat(self, worker: Hashable, epoch: int, now: float) -> bool:
        """Renew ``worker``'s lease.  False if unknown, fenced or stale."""
        if not self.valid(worker, epoch):
            return False
        self._last_beat[worker] = now
        self._missed[worker] = 0
        return True

    def observe(self, worker: Hashable, now: float) -> Optional[int]:
        """Renew on *any* contact; grant a fresh epoch when needed.

        The threaded daemons use this renew-on-contact variant (their
        messages don't carry epochs on the wire): a beat or ack from a
        live worker renews; contact from an unknown or fenced worker
        re-admits it under a new epoch, returned so the caller can log
        it.  Returns ``None`` when the existing lease was simply renewed.
        """
        epoch = self._epoch.get(worker)
        if epoch is not None and not self._fenced[worker]:
            self._last_beat[worker] = now
            self._missed[worker] = 0
            return None
        return self.grant(worker, now)

    # -- queries ---------------------------------------------------------
    def valid(self, worker: Hashable, epoch: int) -> bool:
        """True iff ``epoch`` is ``worker``'s current, unfenced lease."""
        return self._epoch.get(worker) == epoch and not self._fenced[worker]

    @property
    def max_epoch(self) -> int:
        """Highest epoch ever issued (the fencing floor for a successor)."""
        return self._max_epoch

    # -- expiry ----------------------------------------------------------
    def expire(self, now: float) -> List[Hashable]:
        """Workers whose live lease has lapsed, in deterministic order.

        Also advances the ``heartbeat_misses`` counter: each sweep
        charges the beats that went missing since the previous sweep,
        so the counter is deterministic for a fixed sweep schedule.
        The caller is expected to :meth:`fence` every returned worker.
        """
        lapsed: List[Hashable] = []
        interval = self.config.heartbeat_interval
        timeout = self.config.lease_timeout
        for worker in sorted(self._epoch):
            if self._fenced[worker]:
                continue
            age = now - self._last_beat[worker]
            missed = min(int(age / interval), MISS_THRESHOLD)
            if missed > self._missed[worker]:
                self.stats["heartbeat_misses"] += missed - self._missed[worker]
                self._missed[worker] = missed
            if age > timeout:
                lapsed.append(worker)
        return lapsed

    def fence(self, worker: Hashable, now: float) -> int:
        """Fence ``worker``'s lease; its epoch becomes permanently stale.

        Returns the fenced epoch.  Settlements stamped with it must be
        rejected from now on; the worker rejoins only via a fresh
        :meth:`grant`.
        """
        epoch = self._epoch.get(worker, 0)
        if not self._fenced.get(worker, True):
            self._fenced[worker] = True
            self.stats["lease_fencings"] += 1
        return epoch
