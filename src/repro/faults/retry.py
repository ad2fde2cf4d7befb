"""Unified retry policy: backoff, attempt budgets, dead-lettering.

The paper's master daemon resubmits a timed-out job forever (§III.B) —
fine for the scripted kill/restart experiments of §V.A.3, fatal for a
*poison* job that fails on every node: the ensemble livelocks while the
master republishes it until the heat death of the cluster.  This module
is the single retry discipline shared by the threaded master daemon
(:mod:`repro.dewe.master`) and the simulated pull engine
(:mod:`repro.engines.pull`):

* **attempt budget** — after ``max_attempts`` deliveries the job is
  *dead-lettered* instead of republished; descendants that can now never
  become eligible are dead-lettered too, so the workflow still settles;
* **exponential backoff with deterministic jitter** — re-dispatches wait
  ``base_delay * backoff_factor**(n-1)`` seconds (capped at
  ``max_delay``), spread by a jitter derived from a CRC of the job key so
  that fault traces are bit-reproducible (no hidden RNG state);
* **dispatch-loss deadlines** — with ``redispatch_lost`` the deadline is
  armed when the job is *published*, not only when its running ack
  arrives, so a dispatch message eaten by a lossy broker is recovered by
  the same timeout machinery.

``RetryPolicy()`` (all defaults) reproduces the paper's behaviour
exactly: unlimited attempts, immediate resubmission, deadlines armed by
running acks only.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

__all__ = ["RetryPolicy", "DeadLetterEntry", "DeadLetterQueue"]


@dataclass(frozen=True)
class RetryPolicy:
    """How the master treats failed and timed-out job deliveries.

    Attributes
    ----------
    max_attempts:
        Delivery budget per job; ``0`` means unlimited (the paper's
        behaviour).  A job whose ``max_attempts``-th delivery fails or
        times out is dead-lettered.
    base_delay:
        Backoff before re-dispatching after the first failed delivery;
        ``0`` re-dispatches immediately.
    backoff_factor:
        Multiplier applied per additional failed delivery (>= 1).
    max_delay:
        Backoff cap in seconds.
    jitter:
        Fractional spread of the backoff (0..1): the delay is scaled by a
        factor in ``[1 - jitter, 1 + jitter]`` chosen deterministically
        from the job key and attempt number.
    redispatch_lost:
        Arm the completion deadline at *dispatch* time (not just at the
        running ack), so dispatch messages lost in the broker are
        resubmitted.  Off by default: with a reliable broker a queued job
        is merely waiting for a free slot, and re-publishing it would
        inflate the resubmission count of long backlogs.
    """

    max_attempts: int = 0
    base_delay: float = 0.0
    backoff_factor: float = 2.0
    max_delay: float = 300.0
    jitter: float = 0.0
    redispatch_lost: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise ValueError(f"max_attempts must be >= 0, got {self.max_attempts}")
        # ``not x >= 0`` refuses NaN as well, in the bytecodes of ``x < 0``:
        # every WorkflowState built without a policy builds the default
        # one, and tests/test_bytecode_budget.py counts those exactly.
        if not self.base_delay >= 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not self.max_delay >= 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def exhausted(self, attempts: int) -> bool:
        """True when ``attempts`` deliveries have used up the budget."""
        return self.max_attempts > 0 and attempts >= self.max_attempts

    def backoff(self, attempts: int, key: str = "") -> float:
        """Delay before re-dispatching after ``attempts`` failed deliveries.

        The jitter is a pure function of ``(key, attempts)`` — a CRC32
        mapped to ``[-1, 1]`` — so two runs of the same scenario produce
        byte-identical schedules (``random.Random`` would need shared
        state between the master and the harness; a hash needs none).
        """
        if self.base_delay <= 0:
            return 0.0
        delay = self.base_delay * self.backoff_factor ** max(0, attempts - 1)
        delay = min(delay, self.max_delay)
        if self.jitter > 0:
            crc = zlib.crc32(f"{key}#{attempts}".encode())
            unit = crc / 0xFFFFFFFF  # [0, 1]
            delay *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return delay


@dataclass(frozen=True)
class DeadLetterEntry:
    """One poison job taken out of circulation.

    ``reason`` is ``"failed"`` (budget exhausted by failure acks),
    ``"timeout"`` (budget exhausted by missed deadlines) or
    ``"upstream-dead"`` (an ancestor was dead-lettered, so this job can
    never become eligible).  ``attempts`` is 0 for cascaded entries.

    ``tenant``/``sla`` attribute the loss in multi-tenant service runs
    (docs/FAULTS.md); both default empty so records from single-owner
    runs construct unchanged.
    """

    workflow: str
    job_id: str
    attempts: int
    reason: str
    time: float
    tenant: str = ""
    sla: str = ""

    def __str__(self) -> str:
        who = f" [{self.tenant}/{self.sla}]" if self.tenant else ""
        return (
            f"{self.workflow}/{self.job_id}{who}: {self.reason} after "
            f"{self.attempts} attempt(s) at t={self.time:g}"
        )


@dataclass
class DeadLetterQueue:
    """Run-level aggregation of dead-lettered jobs across workflows."""

    entries: List[DeadLetterEntry] = field(default_factory=list)

    def add(self, entry: DeadLetterEntry) -> None:
        self.entries.append(entry)

    def extend(self, entries) -> None:
        self.entries.extend(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[DeadLetterEntry]:
        return iter(self.entries)

    def jobs(self) -> List[Tuple[str, str]]:
        """``(workflow, job_id)`` pairs, in dead-letter order."""
        return [(e.workflow, e.job_id) for e in self.entries]

    def by_workflow(self) -> Dict[str, List[DeadLetterEntry]]:
        out: Dict[str, List[DeadLetterEntry]] = {}
        for entry in self.entries:
            out.setdefault(entry.workflow, []).append(entry)
        return out

    def poisoned(self) -> List[DeadLetterEntry]:
        """Entries that exhausted a budget themselves (not cascade)."""
        return [e for e in self.entries if e.reason != "upstream-dead"]
