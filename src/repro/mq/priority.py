"""Priority bands and the live-reprioritization scoring policy.

The dispatch topic is a priority queue (ROADMAP item 2).  Priorities are
structured as **SLA bands plus a bounded heuristic score**:

* the SLA class of a workflow fixes its *band* — gold rides structurally
  above silver above best-effort above untagged work
  (:func:`base_band`); a score can never promote a best-effort job over
  a gold one because scores are clamped to less than half a band;
* within a band, :class:`RepriorityPolicy` scores each queued job from
  the two heuristics the ensemble papers motivate (Juve et al.,
  "Scientific Workflow Applications on Amazon EC2"): the *critical-path
  length remaining* below the job (long poles first) and the member's
  *deadline slack* (less slack → more urgent);
* a starvation-avoidance *aging* term grows with queue age, so a job
  that keeps losing ties eventually outranks fresher work of its band.

Scores are recomputed as completions land (the OSPREY
``asynch_repriority`` pattern: finish tasks, re-score the still-queued
ones, retag them broker-side with ``reprioritize(topic, workflow,
job_id, priority)``) — everything is a pure function of simulated time and the
workflow structure, so runs stay byte-deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Optional

__all__ = [
    "PRIORITY_BAND",
    "base_band",
    "RepriorityPolicy",
]

#: Width of one SLA priority band.  Heuristic scores are clamped to
#: strictly less than half a band in magnitude, so bands never invert.
PRIORITY_BAND = 1000.0

#: Ranks at or beyond this collapse into the lowest band (just above
#: untagged work at priority 0).
_MAX_RANK = 3


def base_band(rank: Optional[int]) -> float:
    """Base priority for an SLA sheddability rank (0 = most protected).

    ``None`` (untagged, single-tenant work) stays at the FIFO default
    0.0; ranked work sits whole bands above it, most-protected highest.
    """
    if rank is None:
        return 0.0
    return (_MAX_RANK - min(rank, _MAX_RANK)) * PRIORITY_BAND


@dataclass(frozen=True)
class RepriorityPolicy:
    """How queued jobs are scored, and when they are re-scored.

    ``score`` combines critical-path urgency, deadline slack and queue
    age into a bounded within-band offset:

    ``cp_remaining - slack + aging_rate * age``

    clamped to ``±(PRIORITY_BAND / 2 - 1)``.  All three inputs are in
    simulated seconds: a job one minute deeper on the critical path
    outranks a sibling by 60 points, and a member whose deadline slack
    has evaporated (positive slack lowers priority, negative slack —
    already late — raises it) gains priority symmetrically.

    ``interval > 0`` additionally runs a periodic master sweep that
    re-scores *every* queued job (this is where aging takes effect —
    without a sweep, age is only observed when a completion already
    triggers a re-score).

    Installed as a pull run's controller
    (``PullEngine(controllers=[...])``), it turns the dispatching topic
    into a live priority queue: without it every publish stays at
    priority 0.0, which is FIFO order.
    """

    #: Priority points per second a job has been waiting in the queue.
    aging_rate: float = 0.0
    #: Period of the re-score/aging sweep (simulated seconds); 0
    #: disables the sweep, leaving completion-triggered re-scores only.
    interval: float = 0.0

    def __post_init__(self) -> None:
        # NaN fails every comparison, so ``not`` refuses it too (a NaN
        # interval would fail ``interval > 0`` and silently disable the
        # sweep).
        for name in ("aging_rate", "interval"):
            if not 0 <= getattr(self, name) < inf:
                raise ValueError(f"{name} must be finite and >= 0")

    def score(self, cp_remaining: float, slack: float, age: float) -> float:
        """Bounded within-band score for one queued job."""
        raw = cp_remaining - slack + self.aging_rate * age
        clamp = PRIORITY_BAND / 2.0 - 1.0
        if raw > clamp:
            return clamp
        if raw < -clamp:
            return -clamp
        return raw

    def install(self, run) -> None:
        """Controller protocol: the run's master scores every dispatch
        with this policy."""
        run.repriority = self
        run.report_liveness = True
