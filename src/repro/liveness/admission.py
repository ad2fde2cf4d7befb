"""Master-side admission control (reject-new before degrade-running).

The first concrete slice of the multi-tenant service direction
(ROADMAP item 1): when the dispatch backlog exceeds a bound, *new*
workflow submissions are shed with a deterministic retry-after hint
instead of letting the queue grow without bound and degrade every
running ensemble.  Pairs with the bounded broker topics in
:mod:`repro.mq` (broker-level shedding) — admission is the polite
front door, topic capacity the hard backstop.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

__all__ = ["AdmissionControl"]


@dataclass(frozen=True)
class AdmissionControl:
    """Bound on the dispatch backlog a master will accept new work into.

    ``max_pending_jobs``
        Admit a new workflow only while the dispatch backlog is below
        this many queued jobs.
    ``retry_after``
        Seconds a shed submitter should wait before retrying; surfaced
        in the shed record so clients can implement honest backoff.
    """

    max_pending_jobs: int = 64
    retry_after: float = 1.0

    def __post_init__(self) -> None:
        if self.max_pending_jobs < 1:
            raise ValueError("max_pending_jobs must be at least 1")
        if not 0 < self.retry_after < inf:
            raise ValueError("retry_after must be finite and positive")

    def admits(self, backlog: int) -> bool:
        """True iff a submission may enter given the current backlog."""
        return backlog < self.max_pending_jobs

    def retry_hint(self, backlog: int) -> float:
        """Retry-after hint for a submission shed at ``backlog``.

        Scales ``retry_after`` with the backlog *overshoot* — a client
        shed at twice the bound is told to wait twice as long as one
        shed right at it — so honest backoff spreads retries in
        proportion to how deep the overload actually is, instead of the
        thundering-herd a flat constant invites.  Deterministic: same
        backlog, same hint.
        """
        return self.retry_after * max(1.0, backlog / self.max_pending_jobs)
