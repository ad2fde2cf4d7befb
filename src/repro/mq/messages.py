"""Message schemas for the three DEWE v2 topics (paper §III.C)."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.workflow.dag import Job, Workflow

__all__ = [
    "TOPIC_SUBMIT",
    "TOPIC_DISPATCH",
    "TOPIC_ACK",
    "TOPIC_HEARTBEAT",
    "AckKind",
    "WorkflowSubmission",
    "JobDispatch",
    "JobAck",
    "WorkerHeartbeat",
]

TOPIC_SUBMIT = "workflow-submission"
TOPIC_DISPATCH = "job-dispatching"
TOPIC_ACK = "job-acknowledgment"
#: Liveness plane (not in the paper, which assumes reachable workers):
#: workers renew their heartbeat leases here (docs/FAULTS.md).
TOPIC_HEARTBEAT = "worker-heartbeat"


class AckKind(Enum):
    """Worker-daemon acknowledgment types (paper §III.D)."""

    RUNNING = "running"      # job checked out and started
    COMPLETED = "completed"  # job finished successfully
    FAILED = "failed"        # job raised; master decides on retry


@dataclass(frozen=True, slots=True)
class WorkflowSubmission:
    """Submission application -> master: meta data about the workflow
    ("the name of the workflow, as well as the path to the related folder
    on the shared file system", §III.C).

    ``tenant``/``sla`` are the multi-tenant service tags (empty for the
    paper's single-owner submissions): the master stamps them onto the
    workflow's state so shed records and dead letters stay attributable.
    """

    workflow: Workflow
    folder: str = ""
    tenant: str = ""
    sla: str = ""


@dataclass(frozen=True, slots=True)
class JobDispatch:
    """Master -> workers: meta data about one eligible job ("the location
    of the binary executable with input and output parameters", §III.C).

    ``attempt`` counts deliveries: 1 for the first dispatch, +1 per
    timeout resubmission.
    """

    workflow_name: str
    job_id: str
    attempt: int = 1
    #: The job payload itself.  Workers are stateless (paper §III.D) so
    #: the dispatch message must be self-contained; in the real system
    #: this is "the location of the binary executable with input and
    #: output parameters", here it is the Job object.
    job: Optional["Job"] = None


@dataclass(frozen=True, slots=True)
class JobAck:
    """Worker -> master: job status transition."""

    workflow_name: str
    job_id: str
    kind: AckKind
    worker: str = ""
    attempt: int = 1
    error: Optional[str] = None


@dataclass(frozen=True, slots=True)
class WorkerHeartbeat:
    """Worker -> master: lease renewal.

    ``seq`` counts the worker's beats (diagnostics only); ``epoch`` is
    the lease epoch the worker believes it holds — the threaded daemons
    leave it 0 and rely on the master-side renew-on-contact variant of
    the protocol (:meth:`repro.liveness.lease.LeaseTable.observe`).
    """

    worker: str
    epoch: int = 0
    seq: int = 0
