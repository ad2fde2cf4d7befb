"""DAG state machine shared by the real master daemon and the simulated
pull engine.

Tracks, per job: remaining unfinished parents, lifecycle status, delivery
attempt counter and completion deadline.  The logic implements the paper's
at-least-once execution discipline:

* a job becomes **eligible** when its last parent completes and is then
  published (QUEUED);
* a **running** ack arms the job's timeout ("a job can have a user-defined
  timeout value or a system-wide default timeout value", §III.B) — with a
  ``redispatch_lost`` retry policy the deadline is armed already at
  dispatch, so lost dispatch messages are recovered too;
* if the completion ack misses the deadline, the job is **resubmitted**
  with an incremented attempt counter;
* a completion ack from *any* attempt completes the job (the original
  worker may still finish after a resubmission — first ack wins, duplicates
  are ignored and counted in ``duplicate_acks``);
* a :class:`~repro.faults.retry.RetryPolicy` attempt budget turns a job
  that keeps failing or timing out into a **dead letter** instead of
  livelocking the workflow; descendants that can never become eligible are
  cascaded into the dead-letter list, and the workflow *settles* once
  every job is completed or dead.

Time is an argument everywhere, so the same class serves wall-clock
threads and the DES.

**Arena storage** (docs/PERFORMANCE.md): the dense per-job state — status,
dependency count, attempt counter — lives in flat per-member arrays
(``bytearray`` / ``array``) indexed through the shared
:class:`~repro.workflow.dag.SkeletonArena`, not in per-job dict entries.
A 200 x 6.0-degree Montage ensemble holds 1.7M jobs; three dicts per
member cost hundreds of MB and a dict-build per member at admission,
while the arenas cost ~9 bytes per job and one ``memcpy``-speed copy.
The public ``status`` / ``pending`` / ``attempt`` attributes remain
mapping-shaped *views* over the arrays, so the sanitizer, repriority
layer and tests keep their dict idioms unchanged.  The sparse maps —
armed ``deadline`` entries, ``queued_at`` ages — stay real dicts: they
hold only in-flight jobs, never all of them.

**Checkpoints** are that copy: :meth:`WorkflowState.snapshot` returns a
:class:`StateSnapshot` holding the three arenas as ``bytes`` and the
sparse maps as tuples, and :meth:`WorkflowState.restore` writes the bytes
back into a fresh state's arrays.  The job-keyed JSON form (journal
export, checkpoint digest) is built only by :meth:`StateSnapshot.to_dict`.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

import repro.analysis.concurrency.recorder as _conc
import repro.analysis.sanitizer as _sanitizer
from repro.faults.retry import DeadLetterEntry, RetryPolicy
from repro.workflow.dag import Workflow
from repro.workflow.validation import validate_workflow

__all__ = ["JobStatus", "StateSnapshot", "WorkflowState"]


class JobStatus(Enum):
    WAITING = "waiting"      # has unfinished parents
    QUEUED = "queued"        # published to the job-dispatching topic
    RUNNING = "running"      # checked out by a worker (running ack seen)
    COMPLETED = "completed"
    DEAD = "dead"            # dead-lettered: attempt budget exhausted


# Arena status codes (bytearray cells).  WAITING must be 0 so a fresh
# ``bytearray(n)`` is "every job waiting" without an initialisation pass.
_WAITING, _QUEUED, _RUNNING, _COMPLETED, _DEAD = range(5)
_STATUS_BY_CODE: Tuple[JobStatus, ...] = (
    JobStatus.WAITING,
    JobStatus.QUEUED,
    JobStatus.RUNNING,
    JobStatus.COMPLETED,
    JobStatus.DEAD,
)
_VALUE_BY_CODE: Tuple[str, ...] = tuple(s.value for s in _STATUS_BY_CODE)


def _counts(status) -> Dict[str, int]:
    """Jobs per status value of one status arena (array or bytes)."""
    return {value: status.count(code) for code, value in enumerate(_VALUE_BY_CODE)}


class _ArenaView(Mapping):
    """Mapping-shaped view of one per-member arena array (job id -> cell).

    Only the three primitives live here; ``get`` / ``keys`` / ``values`` /
    ``items`` / ``__contains__`` / ``__eq__`` are the
    :class:`collections.abc.Mapping` mixins.  No view call is on a
    per-job path — the state machine itself indexes the arrays directly.
    """

    __slots__ = ("_arr", "_index_of", "_job_ids")

    def __init__(self, arr, arena):
        self._arr = arr
        self._index_of = arena.index_of
        self._job_ids = arena.job_ids

    def __getitem__(self, job_id: str):
        return self._arr[self._index_of[job_id]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._job_ids)

    def __len__(self) -> int:
        return len(self._arr)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


class _StatusView(_ArenaView):
    """The status bytearray, cells decoded to :class:`JobStatus`."""

    __slots__ = ()

    def __getitem__(self, job_id: str) -> JobStatus:
        return _STATUS_BY_CODE[self._arr[self._index_of[job_id]]]


class WorkflowState:
    """Execution state of one submitted workflow."""

    def __init__(
        self,
        workflow: Workflow,
        default_timeout: float = 600.0,
        validate: bool = True,
        retry: Optional[RetryPolicy] = None,
        tenant: str = "",
        sla: str = "",
    ):
        if default_timeout <= 0:
            raise ValueError(f"default_timeout must be positive, got {default_timeout}")
        if validate:
            validate_workflow(workflow)
        self.workflow = workflow
        self.name = workflow.name
        self.default_timeout = default_timeout
        self.retry = retry or RetryPolicy()
        #: Service-plane attribution (empty for single-owner runs):
        #: stamped on every dead-letter entry so post-mortems can say
        #: *whose* work was lost and at which SLA class.
        self.tenant = tenant
        self.sla = sla
        self.deadline: Dict[str, float] = {}
        self.resubmissions = 0
        #: Completion (or running) acks ignored as duplicates/stale —
        #: nonzero under at-least-once delivery with duplicated messages.
        self.duplicate_acks = 0
        self.dead_letters: List[DeadLetterEntry] = []
        #: Jobs re-run (or inputs re-staged) to regenerate lost/corrupt
        #: data files — the data-aware recovery counter.
        self.data_recoveries = 0
        #: producer job id -> consumers WAITING on its re-completion to
        #: regenerate a lost/corrupt intermediate file.
        self.regen_waiters: Dict[str, Set[str]] = {}
        #: Live-reprioritization inputs (set by the engine at admission;
        #: only priority-aware runs read them).  ``arrival`` anchors the
        #: member's deadline — ``arrival + deadline_factor * cp_total``
        #: — and ``queued_at`` records each job's first dispatch time
        #: for the starvation-avoidance aging term.  ``queued_at`` is
        #: deliberately not snapshotted: after a failover ages restart
        #: from the takeover, which is deterministic within a run.
        #: ``track_queue_age`` is flipped *off* by engines running
        #: without a repriority policy: nothing ever reads the ages
        #: there, so they skip the per-dispatch dict write entirely.
        self.arrival = 0.0
        self.deadline_factor = 1.0
        self.track_queue_age = True
        self.queued_at: Dict[str, float] = {}
        self._cp_total: Optional[float] = None
        self._n_completed = 0
        self._n_dead = 0
        # Copy-on-write per-member state: the shared skeleton arena
        # provides the structure and the initial dependency counts once
        # per jobs table; each member gets its own flat mutable arrays
        # (never aliased — sanitizer-checked).
        skeleton = workflow.skeleton()
        arena = skeleton.arena()
        self._arena = arena
        self._status_arr = bytearray(arena.n)  # all cells _WAITING
        self._pending_arr = array("i", arena.initial_pending)
        self._attempt_arr = array("I", bytes(4 * arena.n))
        self.status = _StatusView(self._status_arr, arena)
        self.pending = _ArenaView(self._pending_arr, arena)
        self.attempt = _ArenaView(self._attempt_arr, arena)
        san = _sanitizer._ACTIVE
        if san is not None:
            san.check_cow_isolation(self, skeleton)

    def _trace(self, op: str, site: str) -> None:
        """Report a status-map access to the race recorder, if any.

        The state machine itself is lock-free by design (its callers —
        master daemon, pull engine — serialize access); registering the
        accesses lets the happens-before detector prove that claim for
        every recorded run instead of trusting it.
        """
        rec = _conc.active()
        if rec is not None:
            hook = rec.on_read if op == "read" else rec.on_write
            hook("wfstate.status", id(self), site)

    # -- lifecycle ---------------------------------------------------------
    def initial_ready(self) -> List[str]:
        """Jobs eligible at submission; marks them QUEUED."""
        if _conc._ACTIVE is not None:
            self._trace("write", "state.initial_ready")
        ready = []
        status_arr = self._status_arr
        attempt_arr = self._attempt_arr
        job_ids = self._arena.job_ids
        for i in self._arena.root_indices:
            if status_arr[i] == _WAITING:
                status_arr[i] = _QUEUED
                attempt_arr[i] = 1
                ready.append(job_ids[i])
        return ready

    def _exhausted_at(self, i: int) -> bool:
        limit = self._arena.max_attempts[i]
        attempts = self._attempt_arr[i]
        if limit >= 0:
            return limit > 0 and attempts >= limit
        return self.retry.exhausted(attempts)

    def mark_dispatched(self, job_id: str, now: float, force: bool = False) -> None:
        """Arm the dispatch-loss deadline when the policy asks for it.

        Called by the master/engine right before publishing the job.  A
        ``redispatch_lost`` policy treats "published but never reported
        running" exactly like "running but never reported completed", so
        a dispatch message swallowed by a lossy broker is resubmitted by
        the ordinary timeout sweep.

        ``force`` arms the deadline regardless of the policy: the lease
        protocol requires it, because a worker pulling through an
        asymmetric partition consumes deliveries whose running acks are
        then rejected as stale — without a deadline such a job would
        stay QUEUED forever (it never reaches the fencing requeue, which
        only covers validly-acked assignments).
        """
        if _conc._ACTIVE is not None:
            self._trace("write", "state.mark_dispatched")
        if self.track_queue_age:
            # First dispatch time, kept across resubmissions: the aging
            # term measures how long the job has been waiting overall.
            self.queued_at.setdefault(job_id, now)
        if not (force or self.retry.redispatch_lost):
            return
        arena = self._arena
        i = arena.index_of[job_id]
        if self._status_arr[i] == _QUEUED:
            # The job's own timeout when it has one, else the default.
            timeout = arena.timeouts[i]
            self.deadline[job_id] = now + (
                timeout if timeout > 0.0 else self.default_timeout
            )

    # -- live reprioritization ---------------------------------------------
    def queued_jobs(self) -> List[str]:
        """Job ids currently QUEUED (published, not yet running), in the
        deterministic jobs-table insertion order."""
        if _conc._ACTIVE is not None:
            self._trace("read", "state.queued_jobs")
        job_ids = self._arena.job_ids
        return [
            job_ids[i]
            for i, code in enumerate(self._status_arr)
            if code == _QUEUED
        ]

    def job_priority(self, job_id: str, now: float, policy, base: float = 0.0) -> float:
        """Current priority of one queued job under ``policy``.

        ``base`` is the SLA band (:func:`repro.mq.priority.base_band`);
        the policy adds a bounded score from the job's critical-path
        seconds remaining, the member's deadline slack
        (``arrival + deadline_factor * cp_total - now - cp_remaining``)
        and the job's queue age.  Pure function of simulated time and
        structure — same seed, same priorities.
        """
        skeleton = self.workflow.skeleton()
        cp_remaining = skeleton.critical_path().get(job_id, 0.0)
        total = self._cp_total
        if total is None:
            total = self._cp_total = skeleton.critical_path_total()
        slack = (self.arrival + self.deadline_factor * total) - now - cp_remaining
        age = now - self.queued_at.get(job_id, now)
        return base + policy.score(cp_remaining, slack, age)

    def on_running(self, job_id: str, attempt: int, now: float) -> bool:
        """Handle a running ack; returns False for stale/duplicate acks."""
        if _conc._ACTIVE is not None:
            self._trace("write", "state.on_running")
        arena = self._arena
        i = arena.index_of[job_id]
        status_arr = self._status_arr
        code = status_arr[i]
        if code == _COMPLETED or code == _DEAD:
            self.duplicate_acks += 1
            return False
        # A state rewound to a checkpoint (standby-master takeover) may
        # see late acks for jobs it has not dispatched yet — attempt 0
        # means every real attempt number is stale.
        if attempt != self._attempt_arr[i]:
            self.duplicate_acks += 1
            return False  # ack from a superseded delivery
        status_arr[i] = _RUNNING
        # The job's own timeout when it has one, else the default.
        timeout = arena.timeouts[i]
        self.deadline[job_id] = now + (
            timeout if timeout > 0.0 else self.default_timeout
        )
        return True

    def on_completed(self, job_id: str, attempt: int) -> List[str]:
        """Handle a completion ack; returns newly eligible job ids (QUEUED).

        Completion is accepted from any attempt — with at-least-once
        delivery the first finisher wins and later duplicates are no-ops.
        A completion for a job already dead-lettered is likewise dropped:
        its descendants have been cascaded and must not be revived.
        """
        if _conc._ACTIVE is not None:
            self._trace("write", "state.on_completed")
        arena = self._arena
        i = arena.index_of[job_id]
        status_arr = self._status_arr
        code = status_arr[i]
        if code == _COMPLETED or code == _DEAD:
            self.duplicate_acks += 1
            return []
        status_arr[i] = _COMPLETED
        self.deadline.pop(job_id, None)
        if self.queued_at:
            self.queued_at.pop(job_id, None)
        self._n_completed += 1
        newly_ready: List[str] = []
        pending_arr = self._pending_arr
        if self.regen_waiters:
            waiters = self.regen_waiters.pop(job_id, None)
            if waiters is not None:
                # Re-completion of a producer re-run to regenerate a data
                # file: only the registered waiters were re-blocked on it —
                # its ordinary children already had their pending count
                # decremented at the first completion.  Waiters keep their
                # (bumped) attempt number so stale pre-recovery acks stay
                # stale.
                index_of = arena.index_of
                for child_id in sorted(waiters):
                    ci = index_of[child_id]
                    pending_arr[ci] -= 1
                    if pending_arr[ci] == 0 and status_arr[ci] == _WAITING:
                        status_arr[ci] = _QUEUED
                        newly_ready.append(child_id)
                return newly_ready
        attempt_arr = self._attempt_arr
        job_ids = arena.job_ids
        for ci in arena.children[i]:
            remaining = pending_arr[ci] - 1
            pending_arr[ci] = remaining
            if remaining == 0 and status_arr[ci] == _WAITING:
                status_arr[ci] = _QUEUED
                attempt_arr[ci] = 1
                newly_ready.append(job_ids[ci])
        return newly_ready

    def on_failed(self, job_id: str, attempt: int, now: float = 0.0) -> Optional[str]:
        """Handle a failure ack: resubmit (attempt + 1) or dead-letter.

        Returns the job id to republish, or ``None`` for stale acks and
        for jobs whose attempt budget is exhausted (the caller should
        then check :attr:`is_settled`).
        """
        if _conc._ACTIVE is not None:
            self._trace("write", "state.on_failed")
        i = self._arena.index_of[job_id]
        status_arr = self._status_arr
        code = status_arr[i]
        if code == _COMPLETED or code == _DEAD:
            return None
        if attempt != self._attempt_arr[i]:
            return None  # stale ack (superseded, or state rewound)
        if self._requeue_or_bury(i, job_id, "failed", now):
            return job_id
        return None

    def on_corrupt(
        self,
        job_id: str,
        attempt: int,
        producers: List[str],
        now: float = 0.0,
    ) -> Optional[List[str]]:
        """Handle a data-integrity ack: a worker found the consumer's
        input files corrupt or missing.

        ``producers`` are the jobs whose outputs must be regenerated
        (deduplicated, in detection order); files with no producer (raw
        inputs) are re-staged by the caller and need no entry here.
        Returns ``None`` for stale/duplicate acks, else the job ids to
        (re)publish: the consumer itself when only raw inputs were lost,
        else the minimal set of completed producers to re-run — the
        consumer goes back to WAITING on them and is re-queued by
        :meth:`on_completed`'s regeneration path.
        """
        if _conc._ACTIVE is not None:
            self._trace("write", "state.on_corrupt")
        arena = self._arena
        index_of = arena.index_of
        i = index_of[job_id]
        status_arr = self._status_arr
        attempt_arr = self._attempt_arr
        code = status_arr[i]
        if code == _COMPLETED or code == _DEAD:
            self.duplicate_acks += 1
            return None
        if attempt != attempt_arr[i]:
            self.duplicate_acks += 1
            return None  # stale ack (superseded, or state rewound)
        self.data_recoveries += 1
        # Bump the consumer's attempt so acks from the aborted delivery
        # (or duplicated broker messages) are dropped as stale.
        attempt_arr[i] += 1
        self.deadline.pop(job_id, None)
        self.resubmissions += 1
        if not producers:
            status_arr[i] = _QUEUED
            return [job_id]
        status_arr[i] = _WAITING
        to_dispatch: List[str] = []
        for producer_id in producers:
            pi = index_of[producer_id]
            waiters = self.regen_waiters.setdefault(producer_id, set())
            if job_id not in waiters:
                waiters.add(job_id)
                self._pending_arr[i] += 1
            producer_code = status_arr[pi]
            if producer_code == _COMPLETED:
                if self._exhausted_at(pi):
                    # Cannot regenerate within the attempt budget: the
                    # producer dead-letters and the cascade takes the
                    # WAITING consumer down as upstream-dead.  It is no
                    # longer completed — its data is gone for good.
                    self._n_completed -= 1
                    self._dead_letter(producer_id, "data-loss", now)
                    continue
                # Un-complete the producer: it re-runs to rewrite its
                # outputs.  Its ordinary children keep their state; only
                # the registered waiters block on the re-completion.
                status_arr[pi] = _QUEUED
                self._n_completed -= 1
                attempt_arr[pi] += 1
                self.resubmissions += 1
                to_dispatch.append(producer_id)
            elif producer_code == _DEAD:
                self._dead_letter_waiters(producer_id, now)
            # QUEUED / RUNNING / WAITING: already being (re)generated —
            # the waiter registration above is all that is needed.
        return to_dispatch

    def on_lease_expired(
        self, job_id: str, attempt: int, now: float = 0.0
    ) -> Optional[str]:
        """The worker holding ``job_id``'s delivery lost its lease.

        The liveness plane's recovery transition (docs/FAULTS.md): the
        master fenced the worker's heartbeat lease, so the delivery is
        presumed lost — hung worker, network partition, silent death —
        and the job is re-QUEUED with a fresh attempt number, making any
        late ack from the fenced delivery stale.  Returns the job id to
        republish; ``None`` for stale calls, already-settled jobs, and
        exhausted attempt budgets (dead-letter ``lease-expired``).
        """
        if _conc._ACTIVE is not None:
            self._trace("write", "state.on_lease_expired")
        i = self._arena.index_of[job_id]
        status_arr = self._status_arr
        code = status_arr[i]
        if code != _RUNNING and code != _QUEUED:
            return None
        if attempt != self._attempt_arr[i]:
            return None
        if self._requeue_or_bury(i, job_id, "lease-expired", now):
            return job_id
        return None

    def requeue_in_flight(self, now: float = 0.0) -> List[str]:
        """Requeue every QUEUED/RUNNING job with a fresh attempt number.

        The master-restart path: after restoring from a checkpoint, any
        job that was in flight at the crash may or may not still be held
        by a worker — at-least-once semantics make blind redelivery
        safe (a late completion from the old delivery is absorbed as a
        duplicate).  Jobs out of attempt budget dead-letter instead.
        """
        if _conc._ACTIVE is not None:
            self._trace("write", "state.requeue_in_flight")
        out: List[str] = []
        status_arr = self._status_arr
        job_ids = self._arena.job_ids
        for i, code in enumerate(status_arr):
            if code == _QUEUED or code == _RUNNING:
                job_id = job_ids[i]
                if self._requeue_or_bury(i, job_id, "master-crash", now):
                    out.append(job_id)
        return out

    def expired(self, now: float) -> List[str]:
        """Jobs whose completion ack missed its deadline; re-QUEUED with a
        fresh attempt number, ready to be republished.  Jobs that exhaust
        their attempt budget are dead-lettered instead (and not returned)."""
        if _conc._ACTIVE is not None:
            self._trace("write", "state.expired")
        out = []
        index_of = self._arena.index_of
        status_arr = self._status_arr
        for job_id, deadline in list(self.deadline.items()):
            i = index_of[job_id]
            code = status_arr[i]
            if now >= deadline and (code == _RUNNING or code == _QUEUED):
                if self._requeue_or_bury(i, job_id, "timeout", now):
                    out.append(job_id)
        return out

    def _requeue_or_bury(self, i: int, job_id: str, reason: str, now: float) -> bool:
        """The one recovery transition: re-QUEUE under a fresh attempt
        number (acks of the old delivery go stale), or dead-letter with
        ``reason`` once the attempt budget is spent.  ``True`` means
        republish."""
        if self._exhausted_at(i):
            self._dead_letter(job_id, reason, now)
            return False
        self._attempt_arr[i] += 1
        self._status_arr[i] = _QUEUED
        self.deadline.pop(job_id, None)
        self.resubmissions += 1
        return True

    def _dead_letter(self, job_id: str, reason: str, now: float) -> None:
        """Take ``job_id`` out of circulation and cascade to descendants.

        A dead parent never completes, so any WAITING descendant can
        never become eligible; cascading it keeps the workflow able to
        *settle* (completed + dead == all jobs) instead of hanging.
        """
        if _conc._ACTIVE is not None:
            self._trace("write", "state.dead_letter")
        arena = self._arena
        i = arena.index_of[job_id]
        status_arr = self._status_arr
        status_arr[i] = _DEAD
        self.deadline.pop(job_id, None)
        self._n_dead += 1
        self.dead_letters.append(
            DeadLetterEntry(
                self.name, job_id, self._attempt_arr[i], reason, now,
                self.tenant, self.sla,
            )
        )
        self._dead_letter_waiters(job_id, now)
        job_ids = arena.job_ids
        children = arena.children
        stack = list(children[i])
        while stack:
            ci = stack.pop()
            if status_arr[ci] != _WAITING:
                continue
            status_arr[ci] = _DEAD
            self._n_dead += 1
            self.dead_letters.append(
                DeadLetterEntry(
                    self.name, job_ids[ci], 0, "upstream-dead", now,
                    self.tenant, self.sla,
                )
            )
            self._dead_letter_waiters(job_ids[ci], now)
            stack.extend(children[ci])

    def _dead_letter_waiters(self, producer_id: str, now: float) -> None:
        """A producer that can never re-complete takes its regeneration
        waiters down with it (they are its DAG descendants, but guard
        here too in case the cascade visited them in a different order)."""
        if not self.regen_waiters:
            return
        index_of = self._arena.index_of
        status_arr = self._status_arr
        for waiter_id in sorted(self.regen_waiters.pop(producer_id, ())):
            wi = index_of[waiter_id]
            if status_arr[wi] == _WAITING:
                status_arr[wi] = _DEAD
                self._n_dead += 1
                self.dead_letters.append(
                    DeadLetterEntry(
                        self.name, waiter_id,
                        self._attempt_arr[wi], "upstream-dead", now,
                        self.tenant, self.sla,
                    )
                )
                self._dead_letter_waiters(waiter_id, now)

    # -- inspection ----------------------------------------------------------
    @property
    def n_jobs(self) -> int:
        return self._arena.n

    @property
    def n_completed(self) -> int:
        return self._n_completed

    @property
    def is_complete(self) -> bool:
        """Every job completed (no dead letters)."""
        return self._n_completed == self._arena.n

    @property
    def is_settled(self) -> bool:
        """No job will ever change state again: completed or dead-lettered.

        This is the termination condition under a bounded retry policy —
        a workflow with a poison job never *completes* but must still
        *settle* so the rest of the ensemble can be accounted for.
        """
        return self._n_completed + self._n_dead == self._arena.n

    def current_attempt(self, job_id: str) -> int:
        return self._attempt_arr[self._arena.index_of[job_id]]

    def counts(self) -> Dict[str, int]:
        return _counts(self._status_arr)

    # -- checkpoint / restore ------------------------------------------------
    def snapshot(self) -> "StateSnapshot":
        """Immutable copy of the full scheduler state for this workflow —
        everything needed to resume after a master crash.  The three
        arenas are copied as bytes (9 B per job); the job-keyed JSON form
        is built only by :meth:`StateSnapshot.to_dict`."""
        if _conc._ACTIVE is not None:
            self._trace("read", "state.snapshot")
        return StateSnapshot(
            self.name, self.tenant, self.sla, self._arena.job_ids,
            bytes(self._status_arr), self._attempt_arr.tobytes(),
            self._pending_arr.tobytes(), tuple(self.deadline.items()),
            self.resubmissions, self.duplicate_acks, self.data_recoveries,
            tuple(self.dead_letters),
            tuple((j, tuple(sorted(w))) for j, w in self.regen_waiters.items()),
        )

    @classmethod
    def restore(
        cls,
        workflow: Workflow,
        snapshot: "StateSnapshot",
        default_timeout: float = 600.0,
        retry: Optional[RetryPolicy] = None,
    ) -> "WorkflowState":
        """Rebuild a state machine from a :meth:`snapshot`.

        The workflow structure itself is not checkpointed — the caller
        supplies the same DAG that produced the snapshot.  A snapshot of
        another workflow (other name, or other jobs) is refused before
        anything is built; the arenas are then filled in place, so the
        restored state owns its arrays and aliases nothing.
        """
        snapshot.check_fits(workflow)
        state = cls(
            workflow, default_timeout=default_timeout,
            validate=False, retry=retry,
            tenant=snapshot.tenant, sla=snapshot.sla,
        )
        for arr, data in (
            (state._status_arr, snapshot.status),
            (state._attempt_arr, snapshot.attempt),
            (state._pending_arr, snapshot.pending),
        ):
            memoryview(arr).cast("B")[:] = data
        state.deadline = dict(snapshot.deadline)
        state.resubmissions = snapshot.resubmissions
        state.duplicate_acks = snapshot.duplicate_acks
        state.data_recoveries = snapshot.data_recoveries
        state.dead_letters = list(snapshot.dead_letters)
        state.regen_waiters = {j: set(w) for j, w in snapshot.regen_waiters}
        state._n_completed = snapshot.status.count(_COMPLETED)
        state._n_dead = snapshot.status.count(_DEAD)
        return state


@dataclass(frozen=True, slots=True)
class StateSnapshot:
    """One :class:`WorkflowState` at a checkpoint, as immutable values.

    ``job_ids`` is the skeleton arena's tuple, held by reference;
    ``status`` / ``attempt`` / ``pending`` are the three arenas' bytes
    (1 + 4 + 4 per job), indexed like ``job_ids``.  The sparse parts are
    tuples in their dicts' order.  Nothing in a snapshot can change after
    it is taken, so a digest computed from it later equals one computed at
    checkpoint time.
    """

    name: str
    tenant: str
    sla: str
    job_ids: Tuple[str, ...]
    status: bytes
    attempt: bytes
    pending: bytes
    deadline: Tuple[Tuple[str, float], ...]
    resubmissions: int
    duplicate_acks: int
    data_recoveries: int
    dead_letters: Tuple[DeadLetterEntry, ...]
    regen_waiters: Tuple[Tuple[str, Tuple[str, ...]], ...]

    @property
    def is_settled(self) -> bool:
        """Every job completed or dead: :attr:`WorkflowState.is_settled`
        at the checkpoint, and for good (no transition leaves it)."""
        status = self.status
        return status.count(_COMPLETED) + status.count(_DEAD) == len(status)

    def counts(self) -> Dict[str, int]:
        """Jobs per status value, as :meth:`WorkflowState.counts`."""
        return _counts(self.status)

    def check_fits(self, workflow: Workflow) -> None:
        """Refuse a snapshot of another workflow: another name, or other
        jobs."""
        job_ids = workflow.skeleton().arena().job_ids
        if self.name != workflow.name:
            raise ValueError(
                f"snapshot is for workflow {self.name!r}, "
                f"got {workflow.name!r}"
            )
        if self.job_ids is not job_ids and self.job_ids != job_ids:
            raise ValueError(
                f"snapshot of {self.name!r} does not fit its workflow: "
                f"{len(self.job_ids)} job(s) in the snapshot, "
                f"{len(job_ids)} in the workflow"
            )

    def to_dict(self) -> Dict[str, Any]:
        """The job-keyed JSON form: what the journal export writes and
        the checkpoint digest hashes.  The only place it is built."""
        job_ids = self.job_ids
        return {
            "name": self.name,
            "tenant": self.tenant,
            "sla": self.sla,
            "status": {
                j: _VALUE_BY_CODE[c] for j, c in zip(job_ids, self.status)
            },
            "attempt": {
                j: a
                for j, a in zip(job_ids, memoryview(self.attempt).cast("I"))
                if a
            },
            "pending": dict(zip(job_ids, memoryview(self.pending).cast("i"))),
            "deadline": dict(self.deadline),
            "resubmissions": self.resubmissions,
            "duplicate_acks": self.duplicate_acks,
            "data_recoveries": self.data_recoveries,
            "dead_letters": [
                [e.workflow, e.job_id, e.attempts, e.reason, e.time,
                 e.tenant, e.sla]
                for e in self.dead_letters
            ],
            "regen_waiters": {j: list(w) for j, w in self.regen_waiters},
        }
