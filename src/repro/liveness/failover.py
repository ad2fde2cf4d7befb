"""Warm-standby master failover schedule.

A warm standby tails the write-ahead journal, notices the primary's
heartbeat lapse ``detection`` seconds after it dies at ``at``, fences
the journal epoch (the journal's owner-token guard extended into
monotonic fencing tokens — see :meth:`repro.recovery.journal.Journal.fence`)
and takes over mid-run from the last durable checkpoint.  A revived old
primary cannot split-brain: its journal appends carry a stale epoch and
are refused.  A journal crash (``Journal(crash_after=N)``) recovers
through the same takeover, with the master restarting in place of a
standby.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MasterFailoverModel"]


@dataclass(frozen=True)
class MasterFailoverModel:
    """Kill the primary master at ``at``; standby takes over after ``detection``.

    ``at``
        Simulated time at which the primary dies (all its scheduler
        loops stop; nothing more is journaled under its epoch).
    ``detection``
        The standby's failure-detection latency — the gap between the
        primary's death and the takeover, during which acks pile up
        unprocessed in the broker.
    """

    at: float
    detection: float = 1.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("failover time must be non-negative")
        if self.detection <= 0:
            raise ValueError("detection latency must be positive")

    def install(self, run) -> None:
        """Controller protocol (``PullEngine(controllers=[...])``): the
        standby tails the journal, so a run without one is refused."""
        if run.journal is None:
            raise ValueError("master failover requires a write-ahead journal")
        run.report_liveness = True
        run.sim.schedule_call(self.at, run.primary_die)
        run.sim.schedule_call(self.at + self.detection, run.standby_takeover)
