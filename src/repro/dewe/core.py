"""The DEWE v2 master's decisions, written once (sans-IO).

Paper §III makes the master daemon the only stateful component: one
small state machine that publishes eligible jobs, reacts to acks and
timeouts, and knows nothing about workers.  :class:`MasterCore` is that
state machine and nothing else — no simulator, no threads, no clock.
Callers pass ``now`` into every entry point and the core talks back
only through ports bound at construction:

``publish(state, job_id, attempt, priority)``
    put one eligible job on the dispatching topic;
``reprioritize(workflow, job_id, priority)``
    retag a still-queued dispatch broker-side;
``call_later(delay, fn)``
    run ``fn(now)`` after ``delay`` (retry backoff);
``log(kind, workflow, job_id, attempt, detail)``
    the write-ahead journal, written *before* the side effect it names
    (``None`` for a driver without a journal: nothing is called);
``trace(now, kind, node, detail)``
    the fault trace (:meth:`FaultTrace.record`; dead letters; optional);
``on_settled(state)``
    one workflow reached its terminal state, exactly once per core.

Two drivers feed it: :class:`repro.engines.pull.PullEngine` (DES
processes, simulated time) and :class:`repro.dewe.master.MasterDaemon`
(one thread, ``time.monotonic()``).  Only this module calls the
:class:`~repro.dewe.state.WorkflowState` transitions, so a recovery
feature wired here is wired for both stacks, and the race detector, the
crash matrix and the golden digests all exercise one body of logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional
from typing import Sequence, Set, Tuple

import repro.analysis.sanitizer as _sanitizer
from repro.dewe.state import JobStatus, StateSnapshot, WorkflowState
from repro.faults.retry import DeadLetterEntry, RetryPolicy
from repro.liveness import DEFAULT_CLASSES, LeaseConfig
from repro.mq.priority import RepriorityPolicy, base_band
from repro.storage.integrity import FileIntegrity
from repro.workflow.dag import Workflow

__all__ = ["Admission", "MasterCore", "RUNNING", "COMPLETED", "FAILED", "CORRUPT"]

#: Worker acknowledgment kinds, as the core's ``on_ack`` takes them.
RUNNING = 0
COMPLETED = 1
FAILED = 2
CORRUPT = 3    # worker found the job's input files corrupt/missing

#: SLA class name -> its priority band; untagged work ("") rides at 0.0.
_BANDS = {cls.name: base_band(cls.rank) for cls in DEFAULT_CLASSES}


class Admission(NamedTuple):
    """When a workflow was admitted and with what deadline slack.

    Remembered outside :meth:`WorkflowState.snapshot` (whose format the
    checkpoint digests pin) so a standby or a restarted master rebuilds
    each state as it was admitted, not with defaults.
    """

    arrival: float
    deadline_factor: float


@dataclass(slots=True, eq=False, repr=False)
class MasterCore:
    """Workflow progress, retry, fencing recovery and settlement.

    The first six fields are required: the timeout/retry policy and the
    four ports every driver must provide.
    """

    default_timeout: float
    retry: RetryPolicy
    publish: Callable[[WorkflowState, str, int, float], None]
    reprioritize: Callable[[str, str, float], None]
    call_later: Callable[[float, Callable[[float], None]], None]
    on_settled: Callable[[WorkflowState], None]
    log: Optional[Callable[[str, str, str, int, str], None]] = None
    trace: Optional[Callable[[float, str, Optional[int], str], object]] = None
    repriority: Optional[RepriorityPolicy] = None
    liveness: Optional[LeaseConfig] = None
    integrity: Optional[FileIntegrity] = None
    states: Dict[str, WorkflowState] = field(default_factory=dict)
    #: The not-yet-finished members of ``states``, in admission order:
    #: what the sweeps walk, so a long run does not revisit everything
    #: it ever settled on every tick.
    live: Dict[str, WorkflowState] = field(default_factory=dict)
    #: Names of settled workflows (``on_settled`` already fired, or
    #: restored as settled).
    finished: Set[str] = field(default_factory=set)
    #: Every dead letter, in the order the master learned of it.
    dead_letters: List[DeadLetterEntry] = field(default_factory=list)
    #: (workflow, job_id) -> (worker, attempt) for deliveries accepted
    #: as RUNNING under the lease protocol; drained by :meth:`fence`.
    assignments: Dict[Tuple[str, str], Tuple[object, int]] = field(default_factory=dict)
    admissions: Dict[str, Admission] = field(default_factory=dict)
    _dead_cursor: Dict[str, int] = field(default_factory=dict)

    # -- admission -----------------------------------------------------------
    def admit(self, workflow: Workflow, now: float, timeout_factor: float = 1.0,
              tenant: str = "", sla: str = "") -> WorkflowState:
        """Create and launch one workflow the caller validated and
        admitted; ``timeout_factor`` is its SLA class's deadline slack."""
        state = self._install(workflow, Admission(now, timeout_factor), tenant, sla)
        self._launch(state, now)
        return state

    def _install(self, workflow: Workflow, admission: Admission, tenant: str = "",
                 sla: str = "", snapshot: Optional[StateSnapshot] = None) -> WorkflowState:
        timeout = self.default_timeout * admission.deadline_factor
        if snapshot is None:
            state = WorkflowState(
                workflow, timeout, validate=False,
                retry=self.retry, tenant=tenant, sla=sla,
            )
        else:
            state = WorkflowState.restore(workflow, snapshot, timeout, self.retry)
        state.arrival, state.deadline_factor = admission
        # Only the repriority aging term reads queue ages; skip the
        # per-dispatch bookkeeping on plain runs.
        state.track_queue_age = self.repriority is not None
        self.admissions[state.name] = admission
        self.states[state.name] = state
        self.live[state.name] = state
        return state

    def _launch(self, state: WorkflowState, now: float) -> None:
        for job_id in state.initial_ready():
            self.dispatch(state, job_id, now)
        self._maybe_finish(state)  # degenerate empty-DAG guard

    def _journal(self, *record) -> None:
        """``log`` off the per-message path (dispatch and the two acks of
        a clean job test the port in their own frame)."""
        if self.log is not None:
            self.log(*record)

    # -- dispatch ------------------------------------------------------------
    def dispatch(self, state: WorkflowState, job_id: str, now: float) -> None:
        """Journal, arm the dispatch-loss deadline, score and publish."""
        san = _sanitizer._ACTIVE
        if san is not None:
            san.check_dispatch(
                state.name, job_id, state.status[job_id].value, time=now
            )
        # WorkflowState.current_attempt, read in this frame.
        attempt = state._attempt_arr[state._arena.index_of[job_id]]
        if self.log is not None:
            self.log("dispatch", state.name, job_id, attempt, "")
        # The lease protocol needs the deadline armed on every dispatch:
        # see WorkflowState.mark_dispatched.
        state.mark_dispatched(job_id, now, force=self.liveness is not None)
        policy = self.repriority
        priority = (
            state.job_priority(job_id, now, policy, self._band(state))
            if policy is not None else 0.0
        )
        self.publish(state, job_id, attempt, priority)

    def _band(self, state: WorkflowState) -> float:
        """The member's SLA priority band, read off the class it was
        admitted (or restored) with: 0.0 for untagged work."""
        return _BANDS.get(state.sla, 0.0)

    def rerank(self, state: WorkflowState, now: float) -> None:
        """Re-score the member's still-queued dispatches broker-side.

        Called as completions land and from the aging sweep (the OSPREY
        ``asynch_repriority`` pattern): each queued job's critical-path/
        slack/age score is recomputed at ``now`` and pushed into the
        priority topic as a retag — consumed-but-unsettled deliveries
        are naturally untouched (they are no longer in the topic).
        """
        base = self._band(state)
        for job_id in state.queued_jobs():
            self.reprioritize(
                state.name, job_id,
                state.job_priority(job_id, now, self.repriority, base),
            )

    def redispatch(self, state: WorkflowState, job_id: str, now: float) -> None:
        """Re-dispatch after the retry policy's backoff."""
        expected = state.current_attempt(job_id)
        delay = self.retry.backoff(expected - 1, key=f"{state.name}/{job_id}")
        if delay <= 0:
            self.dispatch(state, job_id, now)
            return

        def fire(then: float) -> None:
            # Only if this delivery is still the current one — a
            # completion or a newer resubmission supersedes it.
            if (
                state.status[job_id] is JobStatus.QUEUED
                and state.current_attempt(job_id) == expected
            ):
                self.dispatch(state, job_id, then)

        self.call_later(delay, fire)

    # -- settlement ----------------------------------------------------------
    def _collect_dead(self, state: WorkflowState, now: float) -> None:
        seen = self._dead_cursor.get(state.name, 0)
        if len(state.dead_letters) > seen:
            self._dead_cursor[state.name] = len(state.dead_letters)
            for entry in state.dead_letters[seen:]:
                self.dead_letters.append(entry)
                self._journal(
                    "dead-letter", entry.workflow, entry.job_id, entry.attempts,
                    entry.reason,
                )
                if self.trace is not None:
                    self.trace(
                        now, "dead-letter", None,
                        f"{entry.workflow}/{entry.job_id} "
                        f"({entry.reason}, {entry.attempts} attempts)",
                    )

    def _maybe_finish(self, state: WorkflowState) -> None:
        if state.name in self.finished or not state.is_settled:
            return
        self.finished.add(state.name)
        self.live.pop(state.name, None)
        self.on_settled(state)

    # -- acknowledgments -----------------------------------------------------
    def on_ack(self, kind: int, name: str, job_id: str, attempt: int,
               worker: Optional[object], now: float,
               bad_files: Sequence[str] = ()) -> None:
        """Apply one worker acknowledgment the driver's gate let through.

        ``worker`` identifies the sender under the lease protocol
        (``None`` without it); ``bad_files`` are the damaged inputs a
        :data:`CORRUPT` ack reports.
        """
        state = self.states[name]
        if kind == RUNNING:
            if self.log is not None:
                self.log("ack-running", name, job_id, attempt, "")
            accepted = state.on_running(job_id, attempt, now)
            if accepted and worker is not None:
                self.assignments[(name, job_id)] = (worker, attempt)
            return
        if self.assignments:
            self.assignments.pop((name, job_id), None)
        if kind == FAILED:
            self._journal("ack-failed", name, job_id, attempt, "")
            republish = state.on_failed(job_id, attempt, now)
            self._collect_dead(state, now)
            if republish is not None:
                self.redispatch(state, republish, now)
            else:
                self._maybe_finish(state)
        elif kind == CORRUPT:
            self._journal("ack-corrupt", name, job_id, attempt, ",".join(bad_files))
            self._on_corrupt(state, job_id, attempt, bad_files, now)
        else:
            if self.log is not None:
                self.log("ack-complete", name, job_id, attempt, "")
            for child_id in state.on_completed(job_id, attempt):
                self.dispatch(state, child_id, now)
            if self.repriority is not None and name not in self.finished:
                self.rerank(state, now)
            # WorkflowState.is_settled, read in this frame: all but a
            # member's last completion stop here.
            if state._n_completed + state._n_dead == state._arena.n:
                self._maybe_finish(state)

    def _on_corrupt(self, state: WorkflowState, job_id: str, attempt: int,
                    bad_files: Sequence[str], now: float) -> None:
        """Data-aware recovery: map damaged files to their producer
        jobs and re-execute the minimal ancestor set; producerless raw
        inputs are re-staged from the submit host."""
        # file name -> producer job id; built on first use and cached on
        # the skeleton, shared by all relabelled ensemble members.
        producer_of = state.workflow.skeleton().producer_of()
        producers: List[str] = []
        raw: List[str] = []
        for file_name in bad_files:
            producer_id = producer_of.get(file_name)
            if producer_id is None:
                raw.append(file_name)
            elif producer_id not in producers:
                producers.append(producer_id)
        to_dispatch = state.on_corrupt(job_id, attempt, producers, now)
        if to_dispatch is None:
            return  # stale/duplicate detection report
        if raw and self.integrity is not None:
            by_name = {f.name: f for f in state.workflow.job(job_id).inputs}
            for file_name in raw:
                self.integrity.restage(state.name, by_name[file_name], now)
        self._collect_dead(state, now)
        for regen_id in to_dispatch:
            self.dispatch(state, regen_id, now)
        self._maybe_finish(state)

    # -- sweeps --------------------------------------------------------------
    def sweep_timeouts(self, now: float) -> None:
        """Requeue every delivery whose ack missed its deadline."""
        for state in list(self.live.values()):  # _maybe_finish removes
            for job_id in state.expired(now):
                attempt = state.current_attempt(job_id)
                self._journal("timeout-requeue", state.name, job_id, attempt, "")
                self.redispatch(state, job_id, now)
            self._collect_dead(state, now)
            self._maybe_finish(state)

    def sweep_priorities(self, now: float) -> None:
        """Periodic re-score of every queued job (starvation avoidance):
        this is where the aging term takes effect — a job that keeps
        losing ties accrues age until it outranks fresher work of its
        band."""
        for name in sorted(self.live):
            self.rerank(self.live[name], now)

    def fence(self, worker: object, now: float) -> None:
        """A worker's lease was fenced: requeue its in-flight deliveries
        through the retry policy.  Any late ack from the fenced lease is
        now stale (exactly-once settlement is carried by the attempt
        bump here plus the driver's epoch gate)."""
        held = sorted(
            key for key, value in self.assignments.items() if value[0] == worker
        )
        for name, job_id in held:
            attempt = self.assignments.pop((name, job_id))[1]
            state = self.states[name]
            republish = state.on_lease_expired(job_id, attempt, now)
            if republish is not None:
                self._journal(
                    "lease-requeue", name, job_id, state.current_attempt(job_id), ""
                )
                self.redispatch(state, republish, now)
            else:
                self._collect_dead(state, now)
                self._maybe_finish(state)

    # -- checkpoint / restore ------------------------------------------------
    def snapshots(self) -> Dict[str, StateSnapshot]:
        """Name-sorted state snapshots: the journal's checkpoint payload."""
        return {name: self.states[name].snapshot() for name in sorted(self.states)}

    def restore(
        self,
        restored: Mapping[str, Tuple[Workflow, StateSnapshot]],
        admissions: Mapping[str, Admission],
        now: float,
        readmit: Sequence[Tuple[Workflow, str, str]] = (),
    ) -> None:
        """Rebuild a *fresh* core from the last durable checkpoint:
        standby takeover and threaded-master restart are this one method.

        ``restored`` maps name to ``(workflow, snapshot)`` (the DAGs are
        not checkpointed); ``readmit`` lists ``(workflow, tenant, sla)``
        admitted after that checkpoint, which start over (at-least-once
        execution; settlement stays exactly-once because the state
        machine absorbs duplicate acks); ``admissions`` is the previous
        incarnation's memory.  Completed jobs stay completed; every
        in-flight delivery is requeued through the retry policy under a
        fresh attempt number, so the old incarnation's acks go stale.
        """
        fallback = Admission(now, 1.0)
        for name in sorted(restored):
            workflow, snapshot = restored[name]
            state = self._install(
                workflow, admissions.get(name, fallback), snapshot=snapshot
            )
            # Rebuild the dead-letter ledger and settlement bookkeeping.
            self._dead_cursor[name] = len(state.dead_letters)
            self.dead_letters.extend(state.dead_letters)
            if state.is_settled:
                self.finished.add(name)
                del self.live[name]
        for workflow, tenant, sla in readmit:
            self._journal("submit", workflow.name, "", 0, f"jobs={len(workflow.jobs)}")
            self._install(
                workflow, admissions.get(workflow.name, fallback), tenant, sla
            )
        fresh = {workflow.name for workflow, _tenant, _sla in readmit}
        for name in sorted(self.states):
            state = self.states[name]
            if name in fresh:
                self._launch(state, now)
            elif name not in self.finished:
                for job_id in state.requeue_in_flight(now):
                    self._journal(
                        "requeue", name, job_id, state.current_attempt(job_id), ""
                    )
                    self.redispatch(state, job_id, now)
                self._collect_dead(state, now)
                self._maybe_finish(state)
