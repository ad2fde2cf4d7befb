"""The DEWE v2 master daemon (real, threaded).

The master "only manages the progress of the workflow, and publishes jobs
that are eligible to run to a message queue.  It has no knowledge about
the worker nodes" (paper §III.B).  One background thread services all
three topics:

* submissions — parse/validate the DAG, store a
  :class:`~repro.dewe.state.WorkflowState`, publish the initially
  eligible jobs;
* acknowledgments — update job status; completions may make children
  eligible, which are published immediately (jobs of *different*
  workflows share the one dispatch topic, so ensembles run in parallel);
* timeouts — periodically republish jobs whose completion ack is overdue.

What to do with each message is decided by the
:class:`~repro.dewe.core.MasterCore` this daemon drives — the same core
the DES :class:`~repro.engines.pull.PullEngine` drives.  The daemon is
the thread driver around it: the loop, the locks, completion events,
checkpoints, a wall-clock backoff heap, and the lease ack-gate
(renew-on-contact ``observe``, where the DES checks epoch-stamped acks).

A :class:`~repro.faults.retry.RetryPolicy` governs re-dispatches: failed
and timed-out jobs back off exponentially (with deterministic jitter)
before republication, and a job that exhausts its attempt budget is
dead-lettered instead of republished forever — the workflow then
*settles* (every job completed or dead) and waiters are released, so one
poison job cannot livelock an ensemble.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Dict, List, Optional, Tuple

import repro.analysis.concurrency.recorder as _conc
import repro.analysis.sanitizer as _sanitizer
from repro.analysis.concurrency import shims as _shims
from repro.dewe.config import DeweConfig
from repro.dewe.core import COMPLETED, FAILED, RUNNING, Admission, MasterCore
from repro.dewe.state import WorkflowState
from repro.faults.retry import DeadLetterEntry, RetryPolicy
from repro.liveness import LeaseTable, new_liveness_stats
from repro.mq.broker import Broker
from repro.mq.priority import RepriorityPolicy
from repro.mq.messages import (
    TOPIC_ACK,
    TOPIC_DISPATCH,
    TOPIC_HEARTBEAT,
    TOPIC_SUBMIT,
    AckKind,
    JobAck,
    JobDispatch,
    WorkflowSubmission,
)
from repro.workflow.validation import validate_workflow

__all__ = ["MasterDaemon"]

_ACK_KINDS = {
    AckKind.RUNNING: RUNNING,
    AckKind.COMPLETED: COMPLETED,
    AckKind.FAILED: FAILED,
}


class MasterDaemon:
    """Manages workflow progress over the broker; start()/stop() lifecycle.

    Locking discipline (lint CL005 enforces the ``_guarded_by_`` map):
    all scheduler state is guarded by ``_state_lock`` so that
    :meth:`checkpoint` — callable from *any* thread — always sees a
    consistent cut between message handlers; the completion-event
    registry has its own ``_events_lock`` (never nested with the state
    lock).  Private handlers document ``Requires: ``_state_lock``​``
    instead of re-acquiring it.
    """

    _guarded_by_ = {
        "states": "_state_lock",
        "makespans": "_state_lock",
        "rejected": "_state_lock",
        "dropped_acks": "_state_lock",
        "_submit_times": "_state_lock",
        "_delayed": "_state_lock",
        "_delayed_seq": "_state_lock",
        "_core": "_state_lock",
        "_last_sweep": "_state_lock",
        "liveness": "_state_lock",
        "shed_submissions": "_state_lock",
        "_events": "_events_lock",
    }

    def __init__(
        self,
        broker: Broker,
        config: Optional[DeweConfig] = None,
        retry: Optional[RetryPolicy] = None,
        repriority: Optional[RepriorityPolicy] = None,
    ):
        self.broker = broker
        self.config = config or DeweConfig()
        self.retry = retry or RetryPolicy()
        #: Wall-clock time of the last aging sweep (``_check_timeouts``).
        self._last_sweep = time.monotonic()
        #: Rejected submissions: name -> reason (duplicate, invalid DAG...).
        self.rejected: Dict[str, str] = {}
        self.makespans: Dict[str, float] = {}
        #: Acks for unknown workflows, dropped on arrival.  A nonzero
        #: count flags misrouted traffic (a worker pool shared by two
        #: masters, a submission that raced ahead of its acks...).
        self.dropped_acks = 0
        self._submit_times: Dict[str, float] = {}
        #: Backoff queue: (due_time, seq, fn) — ``fn(now)`` redispatches.
        self._delayed: List[Tuple[float, int, object]] = []
        self._delayed_seq = 0
        #: Liveness counters (docs/FAULTS.md), shared with the lease table.
        self.liveness: Dict[str, int] = new_liveness_stats()
        #: Heartbeat/lease failure detector, or ``None`` when the
        #: protocol is off (``config.liveness is None``).  The
        #: *reference* is set once here and never rebound; the table's
        #: contents are only touched under ``_state_lock``.
        self._lease: Optional[LeaseTable] = (
            LeaseTable(self.config.liveness, stats=self.liveness)
            if self.config.liveness is not None
            else None
        )
        #: Admission-shed submissions: name -> retry-after hint (seconds,
        #: scaled with backlog overshoot — see AdmissionControl.retry_hint).
        self.shed_submissions: Dict[str, float] = {}
        self._events: Dict[str, threading.Event] = {}
        self._events_lock = _shims.make_lock("master.events")
        #: Guards scheduler state (states/makespans/_delayed/_submit_times)
        #: so :meth:`checkpoint` sees a consistent cut between handlers.
        self._state_lock = _shims.make_lock("master.state")
        self._stop = _shims.make_event("master.stop")
        self._thread: Optional[threading.Thread] = None
        #: Every scheduling decision; only touched under ``_state_lock``.
        self._core = MasterCore(
            self.config.default_timeout,
            self.retry,
            publish=self._publish,
            reprioritize=self._reprioritize,
            call_later=self._call_later,
            on_settled=self._settled,
            repriority=repriority,
            liveness=self.config.liveness,
        )
        #: The core's state table (same dict object, same lock).
        self.states: Dict[str, WorkflowState] = self._core.states

    def _trace(self, op: str, site: str) -> None:
        """Report a scheduler-state access to the race recorder, if any."""
        rec = _conc.active()
        if rec is not None:
            hook = rec.on_read if op == "read" else rec.on_write
            hook("master.state", id(self), site)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "MasterDaemon":
        if self._thread is not None:
            raise RuntimeError("master daemon already started")
        self._thread = _shims.new_thread(self._loop, "dewe-master")
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "MasterDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- public queries ------------------------------------------------------
    def completion_event(self, workflow_name: str) -> threading.Event:
        with self._events_lock:
            event = self._events.get(workflow_name)
            if event is None:
                event = _shims.make_event(f"master.done.{workflow_name}")
                self._events[workflow_name] = event
            return event

    def wait(self, workflow_name: str, timeout: Optional[float] = None) -> bool:
        """Block until ``workflow_name`` settles; True on settlement.

        Under an unbounded retry policy settlement equals completion;
        with an attempt budget a workflow may settle with dead letters —
        check :attr:`dead_letters` afterwards.
        """
        return self.completion_event(workflow_name).wait(timeout)

    def makespan(self, workflow_name: str) -> float:
        """Seconds from submission to settlement (raises if not done)."""
        with self._state_lock:
            self._trace("read", "master.makespan")
            return self.makespans[workflow_name]

    def liveness_stats(self) -> Dict[str, int]:
        """Snapshot of the robustness counters (docs/FAULTS.md):
        heartbeat misses, lease fencings/regrants, shed submissions."""
        with self._state_lock:
            self._trace("read", "master.liveness_stats")
            return dict(self.liveness)

    @property
    def dead_letters(self) -> List[DeadLetterEntry]:
        """Dead-lettered jobs across every submitted workflow."""
        with self._state_lock:
            self._trace("read", "master.dead_letters")
            return list(self._core.dead_letters)

    # -- checkpoint / restore ------------------------------------------------
    def checkpoint(self) -> "object":
        """A consistent snapshot of the whole scheduler state
        (:class:`~repro.recovery.checkpoint.MasterCheckpoint`).

        Taken under the state lock, so it falls between message
        handlers — the threaded analogue of the DES journal's
        checkpoint records.  Safe to call from any thread while the
        daemon runs.
        """
        from repro.recovery.checkpoint import MasterCheckpoint

        now = time.monotonic()
        with self._state_lock:
            self._trace("read", "master.checkpoint")
            return MasterCheckpoint(
                states={
                    name: (state.workflow, state.snapshot())
                    for name, state in self.states.items()
                },
                elapsed={
                    name: now - t for name, t in self._submit_times.items()
                },
                makespans=dict(self.makespans),
                rejected=dict(self.rejected),
                repriority=self._core.repriority,
            )

    @classmethod
    def from_checkpoint(
        cls,
        broker: Broker,
        checkpoint: "object",
        config: Optional[DeweConfig] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> "MasterDaemon":
        """Rebuild a master from a :meth:`checkpoint` after a crash.

        Completed jobs stay completed — nothing that settled before the
        checkpoint is re-run.  Every job that was in flight at the
        checkpoint is re-dispatched through the retry policy with a
        fresh attempt number (:meth:`MasterCore.restore`): the old
        delivery may still be held by a worker, and at-least-once
        idempotency absorbs whichever ack loses the race.  The master
        keeps the checkpointed ``repriority`` policy.  The caller still
        has to :meth:`start` the daemon.
        """
        master = cls(
            broker, config=config, retry=retry, repriority=checkpoint.repriority
        )
        now = time.monotonic()
        for name in checkpoint.states:
            master._submit_times[name] = now - checkpoint.elapsed.get(name, 0.0)
        master.makespans.update(checkpoint.makespans)
        master.rejected.update(checkpoint.rejected)
        for name in checkpoint.makespans:
            master.completion_event(name).set()
        master._core.restore(
            checkpoint.states,
            {name: Admission(t, 1.0) for name, t in master._submit_times.items()},
            now,
        )
        for name in sorted(master._core.finished):
            master._settled(master.states[name])
        return master

    # -- the core's ports ----------------------------------------------------
    def _publish(
        self, state: WorkflowState, job_id: str, attempt: int, priority: float
    ) -> None:
        """Publish one eligible job.

        Requires: ``_state_lock``
        """
        self.broker.publish(
            TOPIC_DISPATCH,
            JobDispatch(
                workflow_name=state.name,
                job_id=job_id,
                attempt=attempt,
                job=state.workflow.job(job_id),
            ),
            priority=priority,
        )

    def _reprioritize(self, name: str, job_id: str, priority: float) -> None:
        """Retag one still-queued dispatch broker-side.

        Requires: ``_state_lock``
        """
        self.broker.reprioritize(TOPIC_DISPATCH, name, job_id, priority)

    def _call_later(self, delay: float, fn) -> None:
        """Queue a backed-off redispatch; :meth:`_check_timeouts` fires it.

        Requires: ``_state_lock``
        """
        self._trace("write", "master.republish")
        self._delayed_seq += 1
        heapq.heappush(
            self._delayed, (time.monotonic() + delay, self._delayed_seq, fn)
        )

    def _settled(self, state: WorkflowState) -> None:
        """Record settlement and release waiters.

        Requires: ``_state_lock``
        """
        if state.name in self.makespans:
            return
        self._trace("write", "master.finish")
        self.makespans[state.name] = time.monotonic() - self._submit_times[state.name]
        self.completion_event(state.name).set()

    # -- message handlers ----------------------------------------------------
    def _handle_submission(self, msg: WorkflowSubmission) -> None:
        """Validate and admit one submitted workflow.

        Requires: ``_state_lock``
        """
        self._trace("write", "master.handle_submission")
        name = msg.workflow.name
        if name in self.states:
            raise ValueError(f"workflow {name!r} already submitted")
        admission = self.config.admission
        if admission is not None:
            backlog = self.broker.depth(TOPIC_DISPATCH)
            if not admission.admits(backlog):
                # Reject-new before degrade-running: shed the submission
                # with a retry-after hint scaled by the backlog overshoot
                # rather than letting the backlog grow and slow every
                # admitted ensemble down.
                self.liveness["shed_submissions"] += 1
                if msg.sla:
                    key = f"shed_{msg.sla}"
                    self.liveness[key] = self.liveness.get(key, 0) + 1
                retry_after = admission.retry_hint(backlog)
                self.shed_submissions[name] = retry_after
                raise RuntimeError(
                    f"admission: dispatch backlog {backlog} >= "
                    f"{admission.max_pending_jobs}; "
                    f"retry after {retry_after:g}s"
                )
        validate_workflow(msg.workflow)
        now = time.monotonic()
        self._submit_times[name] = now
        self._core.admit(msg.workflow, now, tenant=msg.tenant, sla=msg.sla)

    def _handle_ack(self, ack: JobAck) -> None:
        """Gate one worker acknowledgment and hand it to the core.

        Requires: ``_state_lock``
        """
        self._trace("write", "master.handle_ack")
        now = time.monotonic()
        worker = ack.worker if self._lease is not None and ack.worker else None
        if worker is not None:
            # Renew-on-contact: any ack from a live worker renews its
            # lease, and contact from a fenced or unknown worker
            # re-admits it under a fresh epoch *before* the ack is
            # applied.  Exactly-once settlement is carried by attempt
            # staleness — fencing bumped the attempt of everything the
            # worker held — so no settlement is ever applied from a
            # still-fenced lease (the sanitizer hook below verifies it).
            self._lease.observe(worker, now)
        if ack.workflow_name not in self.states:
            self.dropped_acks += 1
            return  # ack for an unknown workflow: drop (but count)
        if worker is not None and ack.kind is AckKind.COMPLETED:
            san = _sanitizer._ACTIVE
            if san is not None:
                san.check_lease_fencing(
                    ack.workflow_name, ack.job_id, worker,
                    stale=self._lease.is_fenced(worker),
                )
        self._core.on_ack(
            _ACK_KINDS[ack.kind], ack.workflow_name, ack.job_id,
            ack.attempt, worker, now,
        )

    def _check_timeouts(self) -> None:
        """Sweep deadlines, the backoff queue, leases and queue ages.

        Requires: ``_state_lock``
        """
        self._trace("write", "master.check_timeouts")
        now = time.monotonic()
        core = self._core
        core.sweep_timeouts(now)
        while self._delayed and self._delayed[0][0] <= now:
            heapq.heappop(self._delayed)[2](now)
        if self._lease is not None:
            for worker in self._lease.expire(now):
                # The liveness recovery path (docs/FAULTS.md): the worker
                # missed ``liveness.miss_threshold`` beats — hung,
                # partitioned, or dead — so every delivery it holds is
                # presumed lost and requeued by the core.  The worker
                # rejoins on its next contact under a fresh epoch.
                self._trace("write", "master.fence_worker")
                self._lease.fence(worker, now)
                core.fence(worker, now)
        policy = core.repriority
        if (
            policy is not None
            and policy.interval > 0
            and now - self._last_sweep >= policy.interval
        ):
            self._last_sweep = now
            core.sweep_priorities(now)

    def _reject(self, workflow_name: str, exc: Exception) -> None:
        """Record a rejected submission.

        Historically this wrote :attr:`rejected` with no lock, racing
        :meth:`checkpoint`'s snapshot of the same dict from the
        checkpointer thread — the race detector's fingerprint for it is
        pinned in ``tests/test_concurrency_detector.py``.
        """
        with self._state_lock:
            self._trace("write", "master.reject")
            self.rejected[workflow_name] = repr(exc)

    def _loop(self) -> None:
        broker = self.broker
        while not self._stop.is_set():
            busy = False
            msg = broker.consume(TOPIC_SUBMIT)
            if msg is not None:
                try:
                    with self._state_lock:
                        self._handle_submission(msg)
                except Exception as exc:  # noqa: BLE001
                    # A malformed or duplicate submission must not kill
                    # the daemon: record the rejection and keep serving.
                    self._reject(msg.workflow.name, exc)
                busy = True
            while True:
                ack = broker.consume(TOPIC_ACK)
                if ack is None:
                    break
                with self._state_lock:
                    self._handle_ack(ack)
                busy = True
            if self._lease is not None:
                while True:
                    beat = broker.consume(TOPIC_HEARTBEAT)
                    if beat is None:
                        break
                    with self._state_lock:
                        self._trace("write", "master.handle_heartbeat")
                        self._lease.observe(beat.worker, time.monotonic())
                    busy = True
            with self._state_lock:
                self._check_timeouts()
            if not busy:
                # Not a bare sleep (lint CL008): a stop() request must
                # wake the loop immediately.
                self._stop.wait(self.config.master_poll_interval)
