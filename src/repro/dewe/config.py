"""Configuration for the real DEWE v2 daemons."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

from repro.liveness import AdmissionControl, LeaseConfig

__all__ = ["DeweConfig"]


@dataclass(frozen=True)
class DeweConfig:
    """Tunables for the master and worker daemons.

    Attributes
    ----------
    default_timeout:
        System-wide job timeout in seconds (paper §III.B); a job whose
        completion ack misses it is resubmitted.
    master_poll_interval:
        Sleep between master loop iterations when all topics are idle.
    worker_poll_interval:
        Worker's blocking-consume timeout on the dispatch topic.
    max_concurrent_jobs:
        Worker thread cap; ``0`` means one per CPU (paper §III.D: "the
        worker daemon stops pulling ... when the number of concurrent job
        execution threads equals the number of CPUs").
    liveness:
        Heartbeat leases (docs/FAULTS.md): workers beat every
        ``heartbeat_interval`` and the master fences a worker's lease
        after ``miss_threshold`` consecutive missed beats, requeueing its
        in-flight jobs.  ``None`` disables the protocol (the paper's
        behaviour: only the job timeout recovers lost workers).  The
        same :class:`~repro.liveness.LeaseConfig` the DES engine takes.
    admission:
        Admission control: reject new workflow submissions while the
        dispatch backlog is at or above ``max_pending_jobs`` queued jobs
        (reject-new before degrade-running), recording a retry-after
        hint with each.  ``None`` disables the gate.  The same
        :class:`~repro.liveness.AdmissionControl` the DES engine takes.
    """

    default_timeout: float = 600.0
    master_poll_interval: float = 0.01
    worker_poll_interval: float = 0.02
    max_concurrent_jobs: int = 0
    liveness: Optional[LeaseConfig] = None
    admission: Optional[AdmissionControl] = None

    def __post_init__(self) -> None:
        # As RunConfig: a nan timeout never expires a job.
        for name in (
            "default_timeout", "master_poll_interval", "worker_poll_interval"
        ):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.max_concurrent_jobs < 0:
            raise ValueError("max_concurrent_jobs must be >= 0")

    @property
    def worker_slots(self) -> int:
        if self.max_concurrent_jobs > 0:
            return self.max_concurrent_jobs
        return os.cpu_count() or 1
