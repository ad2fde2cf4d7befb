"""Master-side admission control (reject-new before degrade-running).

When the dispatch backlog exceeds a bound, *new* workflow submissions
are shed with a deterministic retry-after hint instead of letting the
queue grow without bound and degrade every running ensemble.  A pull
run has at most one such *front door*, installed as a controller
(:func:`install_door`) and asked once per arrival through ``decide``:
this closed-loop gate (a shed submission waits its hint and asks
again) or the open-loop
:class:`~repro.liveness.policy.ServiceAdmissionPolicy` (a shed is final).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

__all__ = ["AdmissionControl", "AdmissionDecision", "install_door"]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one submission at a front door.

    ``timeout_factor`` scales the engine's default job timeout for an
    admitted workflow (SLA deadline slack, plus the brownout stretch for
    silver under level >= 2).  ``retry_after`` is the deterministic
    backoff hint recorded with a shed.
    """

    admit: bool
    reason: str = "admitted"
    retry_after: float = 0.0
    timeout_factor: float = 1.0


_ADMITTED = AdmissionDecision(admit=True)


def install_door(run, door) -> None:
    """Make ``door`` the run's front door (both admission policies'
    ``install``); a run has one, so a second is refused before the run
    starts."""
    if run.door is not None:
        raise ValueError(
            f"a run has one front door: {type(run.door).__name__} is "
            f"installed, {type(door).__name__} is refused"
        )
    run.door = door
    run.report_liveness = True


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

    def decide(
        self, workflow_name: str, n_jobs: int, backlog: int, now: float
    ) -> AdmissionDecision:
        """The gate as a front door: admit below the bound, else shed
        with :meth:`retry_hint` (the run holds the submission that long
        and asks again)."""
        if self.admits(backlog):
            return _ADMITTED
        return AdmissionDecision(
            admit=False, reason="admission", retry_after=self.retry_hint(backlog)
        )

    def settle(self, workflow_name: str) -> None:
        """A settled workflow releases what its admission charged; the
        gate charges nothing."""

    def install(self, run) -> None:
        """Controller protocol (``PullEngine(controllers=[...])``)."""
        install_door(run, self)
