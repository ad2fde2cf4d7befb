"""The pulling execution engine — DEWE v2's coordination model in the DES.

Faithful to paper §III: the master daemon knows nothing about workers; it
publishes eligible jobs to the job-dispatching topic and reacts to acks.
Each node runs one worker-slot process per vCPU (the worker daemon stops
pulling at the concurrency cap, so vCPU slot processes are equivalent to
its pull loop + bounded thread pool).  Slots across all nodes wait on the
same topic, so jobs go to whichever slot asked first — first come, first
served, with zero scheduling decisions.

Fault injection (paper §V.A.3 and the chaos engine beyond it): the paper
disturbs a running cluster from outside — kill a daemon, restart it
elsewhere, add nodes — and so does everything here.  A *controller* is
any object with ``install(run)``; the engine calls it once with the
:class:`PullRun`, before the master or any worker starts, and the run's
public names are what it may touch:

* a :class:`~repro.faults.models.FaultSchedule` scripts every node
  disturbance: worker-daemon kills and restarts (killed slots
  acknowledge nothing, so interrupted jobs are recovered by the master's
  timeout resubmission), spot terminations with drain-on-notice,
  degraded straggler nodes and network partitions — written by hand or
  drawn by a seeded hazard of :mod:`repro.faults.models`;
* :func:`~repro.provision.autoscale.queue_depth_autoscaler` starts and
  drains worker daemons on queue depth;
* a :class:`~repro.liveness.MasterFailoverModel` kills the primary
  master and has the warm standby take over;
* inside the run, a :class:`~repro.faults.models.TransientFaultModel`
  fails job attempts, a :class:`~repro.mq.chaosbroker.MessageChaos` band
  drops, duplicates or delays messages, and the file-fault models damage
  files that workers then checksum.

The master's policies beyond the paper install the same way: an
admission gate or a tenant policy as the run's one front door
(:mod:`repro.liveness.admission`), and a dispatch scoring policy
(:class:`~repro.mq.priority.RepriorityPolicy`).

A :class:`~repro.faults.retry.RetryPolicy` governs recovery: backoff
before re-dispatch, attempt budgets, and dead-lettering of poison jobs.

Every injected fault is recorded on the run's
:class:`~repro.faults.models.FaultTrace` and exported as
``EngineResult.fault_events``, so a seeded run's fault history is
byte-reproducible.
"""

from __future__ import annotations

from math import nan
from typing import Dict, List, Optional, Sequence, Tuple

import repro.analysis.sanitizer as _sanitizer
from repro.cloud.cluster import ClusterSpec
from repro.dewe.core import COMPLETED, CORRUPT, FAILED, RUNNING, MasterCore
from repro.engines.base import (
    EngineBase, EngineResult, JobRecord, RunConfig, _reraise, execute_job,
    release,
)
from repro.faults.models import (
    DOWNLINK_CUT, UPLINK_CUT, FaultTrace, TransientFaultModel,
)
from repro.faults.retry import RetryPolicy
from repro.liveness import (
    MISS_THRESHOLD,
    LeaseConfig,
    LeaseTable,
    ServiceAdmissionPolicy,
    new_liveness_stats,
)
from repro.mq.simbroker import SimBroker
from repro.recovery.journal import Journal
from repro.sim import Interrupt, Process
from repro.storage.integrity import FileIntegrity
from repro.workflow.ensemble import Ensemble

__all__ = ["PullEngine", "PullRun"]

_DISPATCH = "job-dispatching"
_ACK = "job-acknowledgment"
_HEARTBEAT = "worker-heartbeat"
#: Seconds from a journal crash to the restarted master's takeover: the
#: default ``detection`` of :class:`~repro.liveness.MasterFailoverModel`.
_RESTART_DELAY = 1.0


class PullEngine(EngineBase):
    """DEWE v2 over the cluster simulator."""

    name = "dewe-v2"

    def __init__(
        self,
        spec: ClusterSpec,
        config: Optional[RunConfig] = None,
        broker_latency: float = 0.002,
        retry: Optional[RetryPolicy] = None,
        journal: Optional[Journal] = None,
        liveness: Optional[LeaseConfig] = None,
        controllers: Sequence = (),
    ):
        """``config`` is the :class:`~repro.engines.base.RunConfig` every
        engine takes (job timeout, timeout sweep interval, job records,
        cache draining).

        ``broker_latency`` is the one-way delay of every message through
        the simulated broker, seconds.

        ``retry`` is the re-dispatch policy: backoff before a failed or
        timed-out job goes back on the queue, the attempt budget, and
        dead-lettering once it is spent (default: unlimited immediate
        retries, the paper's behaviour).

        ``journal`` is a write-ahead
        :class:`~repro.recovery.journal.Journal` recording every master
        state transition.  With ``crash_after`` set it also injects a
        master crash, which the run recovers from in place: the master
        restarts one second later and restores from the last checkpoint,
        as a standby takeover does.

        ``liveness`` is a :class:`~repro.liveness.LeaseConfig` enabling
        the heartbeat/lease protocol (docs/FAULTS.md) — workers renew
        time-bounded leases and the master fences a silent worker's
        lease epoch, requeueing its in-flight jobs through the retry
        policy while stale-epoch acks are rejected for exactly-once
        settlement.

        ``controllers`` are every fault and master policy of the run
        beyond the paper: objects with ``install(run)``, called once in
        list order with the :class:`PullRun` before the master or any
        worker starts — the module docstring lists the ones the repo
        ships (:class:`~repro.liveness.MasterFailoverModel` needs
        ``journal``; a second front door is refused).  What the faults
        record lands in ``EngineResult.fault_events``.
        """
        super().__init__(spec, config)
        self.broker_latency = broker_latency
        self.retry = retry or RetryPolicy()
        self.journal = journal
        self.liveness = liveness
        self.controllers = tuple(controllers)

    def run(self, ensemble: Ensemble) -> EngineResult:
        return PullRun(self, ensemble).execute()


class PullRun:
    """One :meth:`PullEngine.run`: the DES driver around a
    :class:`~repro.dewe.core.MasterCore`.

    The master's decisions live in the core; this object owns everything
    with a simulated clock or a wire in it: the master's processes
    (submitter, ack/heartbeat consumers, timeout/lease/aging timers),
    the journal and failover wiring, the worker daemons (slots and
    heartbeat agents), network partitions and the result assembly.  A
    standby takeover swaps :attr:`core` for a fresh one restored from
    the journal's checkpoint; nothing else is rebuilt.

    The run is also its own control surface.  A controller's
    ``install(run)`` may read and call the names without an underscore
    that this list gives, and nothing else
    (``tests/test_master_structure.py`` walks the controller modules):

    * ``sim``, ``n_nodes``, ``trace``, ``journal`` — the simulator to
      schedule on, the cluster size to validate against, the
      :class:`~repro.faults.models.FaultTrace` to record on, and the
      write-ahead journal (``None`` without one);
    * ``initially_down`` — the set of nodes whose daemon is not started
      at t=0 (provisioned, not leased); controllers add to it;
    * :meth:`start_worker`, :meth:`stop_worker` (graceful drain),
      :meth:`kill_worker` (abrupt death) — the worker daemons;
    * :meth:`set_disk_factor`, :meth:`mark_spot_terminated` — a node's
      disk speed and its billing;
    * :meth:`begin_partition`, :meth:`end_partition` — a node's
      connectivity to the control plane;
    * :meth:`queue_depth`, :meth:`active_nodes`, :attr:`finished` — what
      a real controller could read off the broker's management interface;
    * :meth:`primary_die`, :meth:`standby_takeover` — the master itself
      (``report_liveness`` makes the result carry the liveness tallies
      even if the run ends before the takeover);
    * :meth:`spawn` — start a controller's own process, a generator
      yielding DES events;
    * ``broker``, ``transient``, ``integrity``, ``workflows`` — the
      transport a message band wraps, what every slot asks after each
      job (``None`` without a transient model or a file fault), and the
      members whose staged inputs the integrity plane records;
    * ``door``, ``stats``, ``repriority`` — the front door every arrival
      is asked at (``None``: all are admitted; one per run), the
      run-level liveness counters an open-loop door counts into, and the
      master's dispatch scoring policy (``None``: FIFO).
    """

    def __init__(self, engine: PullEngine, ensemble: Ensemble):
        sim, cluster, thread_logs = engine._setup(ensemble)
        self.engine = engine
        self.sim = sim
        self.cluster = cluster
        self.thread_logs = thread_logs
        self.trace = FaultTrace()
        self.broker = SimBroker(sim, engine.broker_latency)
        self.members = list(ensemble)
        #: What a dispatch message resolves against worker-side (the
        #: real message carries the job; workers never read master state).
        self.workflows = {wf.name: wf for _t, wf in self.members}
        self.spans: Dict[str, Tuple[float, float]] = {}
        self.records: List[JobRecord] = []
        self.done = sim.event()
        self.jobs_executed = 0
        #: Members the open-loop front door shed: they never run, so
        #: they count towards ``done`` without ever settling.
        self.shed: set = set()
        n_nodes = self.n_nodes = len(cluster.nodes)
        self.thread_counts = [0] * n_nodes
        self.node_slots: List[List[Process]] = [[] for _ in range(n_nodes)]

        # -- liveness / partition / backpressure plane -------------------------
        self.stats = new_liveness_stats()
        # Controllers of the liveness plane set it on install.
        self.report_liveness = engine.liveness is not None
        self.lease: Optional[LeaseTable] = (
            LeaseTable(engine.liveness, stats=self.stats)
            if engine.liveness is not None
            else None
        )
        #: Worker-side view of the node's current lease epoch; stamped on
        #: every outgoing ack so the master can reject stale deliveries.
        self.worker_epoch = [0] * n_nodes
        #: Per-node partition state: ``None`` (connected) or the active
        #: :data:`~repro.faults.models.PARTITION_MODES` entry.
        self.partition_mode: List[Optional[str]] = [None] * n_nodes
        #: Worker->master messages held in flight by an uplink partition,
        #: republished in order when it heals (heartbeats are dropped
        #: instead — a stale beat carries no information).
        self.pending_up: List[List[Tuple[str, tuple]]] = [[] for _ in range(n_nodes)]
        #: Master->worker lease grant held back by a downlink partition.
        self.pending_epoch: List[Optional[int]] = [None] * n_nodes
        self.heal_events: List = [sim.event() for _ in range(n_nodes)]
        self.hb_procs: List[Optional[Process]] = [None] * n_nodes
        self.master_procs: List[Process] = []

        # -- controllers' planes; their installs set them ----------------------
        self.transient: Optional[TransientFaultModel] = None
        self.integrity: Optional[FileIntegrity] = None
        self.door = None
        self.repriority = None

        # -- write-ahead journal ----------------------------------------------
        self.journal = engine.journal
        #: The current master incarnation's journal fencing epoch.
        self.epoch = 0
        if self.journal is not None:
            # This run is the journal's writer until it ends (see jlog).
            self.journal.owner = self
            self.epoch = self.journal.epoch
            self.journal.snapshot_provider = lambda: self.core.snapshots()
            self.journal.on_crash = self._on_crash

        # -- worker daemons ----------------------------------------------------
        # Rental accounting for elastic provisioning: a node's lease runs
        # from worker start until its last slot exits.
        self.leases: List[List[List[float]]] = [[] for _ in range(n_nodes)]
        self.initially_down: set = set()
        self.slot_alive = [0] * n_nodes
        self.draining: set = set()
        self.idle_waits: List[set] = [set() for _ in range(n_nodes)]
        self.spot_interrupted: Dict[int, List[int]] = {}
        self.disk_base = [
            (node.disk.read.capacity, node.disk.write.capacity)
            for node in cluster.nodes
        ]

    # -- the master core and its ports ---------------------------------------
    def _new_core(self) -> MasterCore:
        engine = self.engine
        return MasterCore(
            engine.config.default_timeout,
            engine.retry,
            publish=self._publish,
            reprioritize=self._reprioritize,
            call_later=self._call_later,
            on_settled=self._on_settled,
            log=self.jlog if self.journal is not None else None,
            trace=self.trace.record,
            repriority=self.repriority,
            liveness=engine.liveness,
            integrity=self.integrity,
        )

    def jlog(self, kind: str, workflow: str = "", job_id: str = "",
             attempt: int = 0, detail: str = "") -> None:
        """Append one record under the current incarnation's epoch."""
        journal = self.journal
        # A stale writer (a finished run, whose suspended generators
        # execute() finalises) must not touch the log: execute()
        # revokes ownership when the run ends.
        if journal is None or journal.owner is not self:
            return
        journal.append(
            self.sim.now, kind, workflow, job_id, attempt, detail,
            epoch=self.epoch,
        )

    def _on_crash(self) -> None:
        """The journal refused a write: the master process died.  A
        failover with no standby — the master restarts on its node one
        restart delay later and restores from the checkpoint."""
        self.report_liveness = True
        self.primary_die()
        self.sim.schedule_call(_RESTART_DELAY, self.standby_takeover)

    def spawn(self, generator) -> Process:
        """Start a process this run owns.  The kernel drops an exception
        raised in a process nobody waits on, and the sweep timers would
        then keep ``run_until(done)`` alive for ever — so the exit
        callback raises it out of the agenda instead."""
        proc = self.sim.process(generator)
        proc.callbacks.append(_reraise)
        return proc

    def _publish(self, state, job_id: str, attempt: int, priority: float) -> None:
        self.broker.publish(
            _DISPATCH, (state.name, job_id, attempt), priority=priority
        )

    def _reprioritize(self, name: str, job_id: str, priority: float) -> None:
        self.broker.reprioritize(_DISPATCH, name, job_id, priority)

    def _call_later(self, delay: float, fn) -> None:
        self.sim.schedule_call(delay, lambda: fn(self.sim.now))

    def _on_settled(self, state) -> None:
        if self.door is not None:
            self.door.settle(state.name)  # release the fair-share charge
        self.spans[state.name] = (self.spans[state.name][0], self.sim.now)
        self._check_done()

    def _check_done(self) -> None:
        if (
            len(self.core.finished) + len(self.shed) == len(self.members)
            and not self.done.triggered
        ):
            self.done.succeed()

    # -- master processes ------------------------------------------------------
    def _admit(self, wf, timeout_factor: float = 1.0,
               tenant: str = "", sla: str = "") -> None:
        now = self.sim.now
        self.spans.setdefault(wf.name, (now, nan))
        self.core.admit(wf, now, timeout_factor, tenant, sla)

    def submitter(self, skip_admitted: bool = False):
        """Submit each member at its time, asking the front door (if
        any) once per arrival.  A closed-loop gate's shed holds the
        arrival for the retry-after hint, then asks again; an open-loop
        door's shed is final (offered load is not ours to pause)."""
        sim = self.sim
        door = self.door
        open_loop = isinstance(door, ServiceAdmissionPolicy)
        decided: set = set()
        if skip_admitted:
            # What the failed-over primary admitted or shed stays decided.
            decided.update(self.core.states)
            decided.update(self.shed)
        try:
            for submit_time, wf in self.members:
                if wf.name in decided:
                    continue
                if submit_time > sim.now:
                    yield sim.timeout(submit_time - sim.now)
                while door is not None:
                    decision = door.decide(
                        wf.name, len(wf.jobs), self.broker.depth(_DISPATCH), sim.now
                    )
                    if decision.admit or open_loop:
                        break
                    hint = decision.retry_after
                    self.stats["shed_submissions"] += 1
                    self._refuse(wf.name, "admission-shed", f"retry_after={hint:g}")
                    yield sim.timeout(hint)
                if not open_loop:
                    self.jlog("submit", wf.name, detail=f"jobs={len(wf.jobs)}")
                    self._admit(wf)
                    continue
                tenant, sla = door.tag_of(wf.name)
                if decision.admit:
                    factor = decision.timeout_factor
                    self.jlog(
                        "submit", wf.name,
                        detail=f"jobs={len(wf.jobs)} tenant={tenant} "
                        f"sla={sla} factor={factor:g}",
                    )
                    self._admit(wf, factor, tenant, sla)
                    continue
                self._refuse(
                    wf.name, "service-shed",
                    f"tenant={tenant} sla={sla} reason={decision.reason} "
                    f"retry_after={decision.retry_after:g}",
                )
                self.shed.add(wf.name)
                self._check_done()
        except Interrupt:
            return  # primary master failed mid-submission

    def _refuse(self, name: str, kind: str, detail: str) -> None:
        """Trace and journal one shed arrival."""
        self.trace.record(self.sim.now, kind, detail=f"{name} {detail}")
        self.jlog(kind, name, detail=detail)

    def _handle_ack(self, msg) -> None:
        """One ack under the liveness protocol: it carries the sender's
        (node, lease epoch), and an ack from a fenced or superseded
        lease is rejected before it can settle a delivery the master
        already redispatched."""
        kind, name, job_id, attempt = msg[:4]
        lease = self.lease
        worker, ack_epoch = msg[-2], msg[-1]
        if not lease.valid(worker, ack_epoch):
            self.stats["stale_epoch_acks"] += 1
            self.trace.record(
                self.sim.now, "stale-epoch-ack", worker,
                f"{name}/{job_id}#{attempt} epoch={ack_epoch}",
            )
            return
        san = _sanitizer._ACTIVE
        if san is not None and kind == COMPLETED:
            # Structural tripwire: the epoch check above must have
            # rejected any settlement from a fenced lease.
            san.check_lease_fencing(
                name, job_id, self.cluster.nodes[worker].name,
                stale=not lease.valid(worker, ack_epoch),
                time=self.sim.now,
            )
        self.core.on_ack(
            kind, name, job_id, attempt, worker, self.sim.now,
            msg[4] if kind == CORRUPT else (),
        )

    def _on_beat(self, msg) -> None:
        """Apply one heartbeat: renew the lease, or re-grant it when
        the beat is stale (fenced worker back from a partition, or a
        standby master that inherited no lease state)."""
        node_index, epoch = msg
        now = self.sim.now
        if self.lease.beat(node_index, epoch, now):
            return
        if self.slot_alive[node_index] <= 0:
            return  # a drained/dead node's parting beat
        epoch = self._grant_lease(node_index)
        if self.partition_mode[node_index] in DOWNLINK_CUT:
            # The grant cannot reach a worker behind a downlink
            # partition; it is delivered when the partition heals.
            self.pending_epoch[node_index] = epoch
        else:
            self.sim.schedule_call(
                self.engine.broker_latency,
                self.worker_epoch.__setitem__, node_index, epoch,
            )

    def _grant_lease(self, node_index: int) -> int:
        now = self.sim.now
        epoch = self.lease.grant(node_index, now)
        self.trace.record(now, "lease-epoch", node_index, f"epoch={epoch}")
        self.jlog("lease-epoch", detail=f"node={node_index} epoch={epoch}")
        return epoch

    def _consume_loop(self, topic: str, handle):
        """Master-side consumer of one worker->master topic.

        ``handle=None``: the ack topic of a run without a lease table —
        nothing gates an ack, so it goes to this incarnation's core from
        this frame (a takeover starts new loops)."""
        broker = self.broker
        done = self.done
        sim = self.sim
        on_ack = self.core.on_ack
        while True:
            pending = broker.consume(topic)
            try:
                msg = yield pending
            except Interrupt:
                # Primary master failed: release the pending consume
                # so the standby's loop sees every message.
                broker.cancel(topic, pending)
                return
            if msg is None:
                return  # consume cancelled
            # Drain the whole burst before suspending: same-instant
            # messages (batched broker deliveries) cost one resume total
            # instead of one suspend/resume round-trip per message.
            while msg is not None:
                if handle is not None:
                    handle(msg)
                else:
                    kind = msg[0]
                    on_ack(
                        kind, msg[1], msg[2], msg[3], None, sim.now,
                        msg[4] if kind == CORRUPT else (),
                    )
                if done._state:
                    return
                msg = broker.consume_nowait(topic)

    def _every(self, interval: float, sweep):
        """Master-side timer: ``sweep(now)`` every ``interval``."""
        sim = self.sim
        while not self.done.triggered:
            try:
                yield sim.timeout(interval)
            except Interrupt:
                return  # primary master failed
            sweep(sim.now)

    def _sweep_leases(self, now: float) -> None:
        """Declare silent workers dead: fence the lease epoch (any late
        ack from it is now stale) and let the core requeue what the
        worker held."""
        for node_index in self.lease.expire(now):
            fenced = self.lease.fence(node_index, now)
            self.trace.record(
                now, "lease-fence", node_index,
                f"epoch={fenced} after {MISS_THRESHOLD} missed beats",
            )
            self.jlog("lease-fence", detail=f"node={node_index} epoch={fenced}")
            self.core.fence(node_index, now)

    # -- network: worker<->master paths under partitions -----------------------
    def send_ack(self, node_index: int, payload: tuple) -> None:
        """Worker->master ack: stamps the lease epoch and honours an
        uplink partition.  (A slot of a lease-free, connected node
        publishes its RUNNING/COMPLETED acks itself.)"""
        if self.lease is not None:
            payload = payload + (node_index, self.worker_epoch[node_index])
        if self.partition_mode[node_index] in UPLINK_CUT:
            self.pending_up[node_index].append((_ACK, payload))
        else:
            self.broker.publish(_ACK, payload)

    def begin_partition(self, node_index: int, mode: str) -> None:
        self.stats["partitions"] += 1
        self.partition_mode[node_index] = mode
        self.heal_events[node_index] = self.sim.event()
        if mode in DOWNLINK_CUT:
            # Idle slots waiting on the dispatch topic can no longer
            # hear the master: cancel their pulls (they park on the
            # heal event; queued jobs go to connected workers).
            for pending in list(self.idle_waits[node_index]):
                self.broker.cancel(_DISPATCH, pending)

    def end_partition(self, node_index: int) -> None:
        self.partition_mode[node_index] = None
        # Uplink messages held in flight arrive now, in send order.
        flush = self.pending_up[node_index]
        self.pending_up[node_index] = []
        for topic, payload in flush:
            self.broker.publish(topic, payload)
        if self.pending_epoch[node_index] is not None:
            self.worker_epoch[node_index] = self.pending_epoch[node_index]
            self.pending_epoch[node_index] = None
        ev = self.heal_events[node_index]
        if not ev.triggered:
            ev.succeed()

    # -- worker daemons ----------------------------------------------------------
    def _slot_exit(self, node_index: int) -> None:
        self.slot_alive[node_index] -= 1
        if self.slot_alive[node_index] == 0 and self.leases[node_index]:
            self.leases[node_index][-1][1] = self.sim.now
            self.jlog("lease-expiry", detail=f"node={node_index}")

    def worker_slot(self, node_index: int):
        sim = self.sim
        broker = self.broker
        cluster = self.cluster
        node = cluster.nodes[node_index]
        log = self.thread_logs[node_index]
        fs = cluster.fs
        integrity = self.integrity
        transient = self.transient
        record_jobs = self.engine.config.record_jobs
        workflows = self.workflows
        idle_waits = self.idle_waits[node_index]
        thread_counts = self.thread_counts
        draining = self.draining
        send_ack = self.send_ack
        # No lease table (run-constant: a takeover swaps tables, never
        # adds one) and no partition (read per ack: one can begin
        # mid-job): this slot publishes its own RUNNING/COMPLETED acks.
        partition_mode = self.partition_mode
        leased = self.lease is not None
        while node_index not in draining:
            if partition_mode[node_index] in DOWNLINK_CUT:
                # Partitioned from the master: no pulling until
                # the partition heals (in-flight jobs continue).
                try:
                    yield self.heal_events[node_index]
                except Interrupt:
                    break
                continue
            pending = broker.consume(_DISPATCH)
            if pending._state:
                # A job was already queued: take it without a
                # suspend/resume round-trip.  (Queued jobs imply
                # no other slot is waiting, so no one is bypassed.)
                msg = pending._value
            else:
                idle_waits.add(pending)
                try:
                    msg = yield pending
                except Interrupt:
                    broker.cancel(_DISPATCH, pending)
                    break
                finally:
                    idle_waits.discard(pending)
            if msg is None:
                if partition_mode[node_index] in DOWNLINK_CUT:
                    # Partition onset cancelled the idle pull;
                    # loop back into the heal wait.
                    continue
                break  # consume cancelled (graceful scale-in)
            name, job_id, attempt = msg
            job = workflows[name].jobs[job_id]
            if leased or partition_mode[node_index] is not None:
                send_ack(node_index, (RUNNING, name, job_id, attempt))
            else:
                broker.publish(_ACK, (RUNNING, name, job_id, attempt))
            if integrity is not None:
                bad = integrity.verify(name, job.inputs, sim.now)
                if bad:
                    # Don't run on damaged data: report the bad
                    # files so the master can regenerate them.
                    send_ack(
                        node_index,
                        (CORRUPT, name, job_id, attempt, tuple(bad)),
                    )
                    continue
            start = sim.now
            thread_counts[node_index] += 1
            log.record(sim.now, thread_counts[node_index])
            try:
                phases = yield from execute_job(
                    sim, node, fs, job,
                    speed=node.itype.cpu_speed,
                    owner=name,
                )
            except Interrupt:
                # Worker daemon killed mid-job: no completion ack;
                # the master's timeout will resubmit (paper §V.A.3).
                thread_counts[node_index] -= 1
                log.record(sim.now, thread_counts[node_index])
                break
            thread_counts[node_index] -= 1
            log.record(sim.now, thread_counts[node_index])
            self.jobs_executed += 1
            if integrity is not None:
                for f in job.outputs:
                    integrity.record_write(name, f, sim.now)
            if record_jobs:
                read_t, compute_t, write_t = phases
                self.records.append(
                    JobRecord(
                        workflow=name, job_id=job_id,
                        task_type=job.task_type, node=node_index,
                        start=start, end=sim.now, read_time=read_t,
                        compute_time=compute_t, write_time=write_t,
                        attempt=attempt,
                    )
                )
            if transient is not None and transient.should_fail(
                name, job_id, attempt
            ):
                self.trace.record(
                    sim.now, "transient-failure", node_index,
                    f"{name}/{job_id}#{attempt}",
                )
                send_ack(node_index, (FAILED, name, job_id, attempt))
            elif leased or partition_mode[node_index] is not None:
                send_ack(node_index, (COMPLETED, name, job_id, attempt))
            else:
                broker.publish(_ACK, (COMPLETED, name, job_id, attempt))
        # The slot's own exits (interrupt, cancelled pull, drain) end
        # here; a slot still suspended when the finished run is closed
        # ends at its yield, where nothing is left to account for.
        self._slot_exit(node_index)

    def heartbeat_agent(self, node_index: int):
        """Worker-side liveness: renew the node's lease every
        heartbeat interval.  Beats are *dropped* (not buffered) by an
        uplink partition — a stale beat carries no information — so
        a partitioned worker looks exactly like a dead one until the
        partition heals."""
        interval = self.engine.liveness.heartbeat_interval
        try:
            while self.slot_alive[node_index] > 0:
                if self.partition_mode[node_index] not in UPLINK_CUT:
                    self.broker.publish(
                        _HEARTBEAT, (node_index, self.worker_epoch[node_index])
                    )
                yield self.sim.timeout(interval)
        except Interrupt:
            return  # worker daemon killed

    def start_worker(self, node_index: int) -> None:
        if self.slot_alive[node_index] > 0:
            return  # daemon already running on this node
        sim = self.sim
        self.draining.discard(node_index)
        self.jlog("lease-grant", detail=f"node={node_index}")
        self.leases[node_index].append([sim.now, None])
        slots = self.node_slots[node_index]
        slots.clear()
        capacity = self.cluster.nodes[node_index].cores.capacity
        self.slot_alive[node_index] = capacity
        if self.lease is not None:
            # Lease grant is part of the provisioning handshake, so
            # the node's very first ack already carries a live epoch.
            self.worker_epoch[node_index] = self._grant_lease(node_index)
            self.hb_procs[node_index] = self.spawn(
                self.heartbeat_agent(node_index)
            )
        for _ in range(capacity):
            slots.append(self.spawn(self.worker_slot(node_index)))

    def kill_worker(self, node_index: int) -> None:
        """Abrupt death: in-flight jobs are lost (fault injection)."""
        for proc in self.node_slots[node_index]:
            proc.interrupt("worker daemon killed")
        self.node_slots[node_index].clear()
        hb = self.hb_procs[node_index]
        if hb is not None:
            hb.interrupt("worker daemon killed")
            self.hb_procs[node_index] = None
        # A dead process sends nothing: messages it had in flight
        # behind a partition die with it.
        self.pending_up[node_index].clear()

    def stop_worker(self, node_index: int) -> None:
        """Graceful scale-in: idle slots leave now, busy slots finish
        their current job first — nothing is lost, no timeout needed.
        Slot processes stay registered so a later kill (spot notice
        followed by the termination) still interrupts stragglers."""
        self.draining.add(node_index)
        for pending in list(self.idle_waits[node_index]):
            self.broker.cancel(_DISPATCH, pending)

    def queue_depth(self) -> int:
        """Jobs waiting in the dispatching topic right now."""
        return self.broker.depth(_DISPATCH)

    def active_nodes(self) -> list:
        """Node indices with a live worker daemon."""
        return [i for i, alive in enumerate(self.slot_alive) if alive > 0]

    @property
    def finished(self) -> bool:
        return self.done.triggered

    # -- node speed and billing ----------------------------------------------------
    def set_disk_factor(self, node_index: int, factor: float) -> None:
        node = self.cluster.nodes[node_index]
        base_read, base_write = self.disk_base[node_index]
        node.disk.read.set_capacity(base_read * factor)
        node.disk.write.set_capacity(base_write * factor)

    def mark_spot_terminated(self, node_index: int) -> None:
        # The kill has already closed the node's current lease; flag
        # it for partial-hour-free spot billing.  A later replacement
        # starts a *new* lease, billed normally.
        if self.leases[node_index]:
            self.jlog("billing-spot", detail=f"node={node_index}")
            self.spot_interrupted.setdefault(node_index, []).append(
                len(self.leases[node_index]) - 1
            )

    # -- master failover -----------------------------------------------------------
    def start_master(self, takeover: bool = False) -> None:
        core = self.core
        config = self.engine.config
        loops = [
            self.submitter(skip_admitted=takeover),
            self._consume_loop(
                _ACK, self._handle_ack if self.lease is not None else None
            ),
            self._every(config.timeout_check_interval, core.sweep_timeouts),
        ]
        if self.lease is not None:
            loops.append(self._consume_loop(_HEARTBEAT, self._on_beat))
            loops.append(
                self._every(
                    self.engine.liveness.heartbeat_interval, self._sweep_leases
                )
            )
        repriority = self.repriority
        if repriority is not None and repriority.interval > 0:
            loops.append(self._every(repriority.interval, core.sweep_priorities))
        self.master_procs[:] = [self.spawn(loop) for loop in loops]

    def primary_die(self) -> None:
        """The primary master stops: every loop it runs is torn down and
        acks pile up in the broker until :meth:`standby_takeover`."""
        if self.done.triggered:
            return
        self.trace.record(self.sim.now, "master-fail", detail="primary stops")
        # Interrupting a finished process is a no-op, so the whole
        # roster can be torn down blindly.
        for proc in self.master_procs:
            proc.interrupt("primary master failed")
        self.master_procs.clear()

    def standby_takeover(self) -> None:
        """The warm standby fences the journal and takes over from its
        last checkpoint (needs a journal)."""
        if self.done.triggered:
            return
        now = self.sim.now
        journal = self.journal
        self.stats["failovers"] += 1
        # Fence the journal first: from here on the standby's epoch
        # is the only one the log accepts, so a revived primary cannot
        # split-brain the record.
        self.epoch = journal.fence()
        self.trace.record(now, "failover", detail=f"epoch={self.epoch}")
        self.jlog("failover", detail=f"epoch={self.epoch}")
        # The standby tails the journal: its view of the run is the
        # last durable checkpoint, plus every workflow submitted since,
        # which it re-admits.  The primary's *decisions* are
        # authoritative: shed workflows stay shed, admitted ones keep
        # their admitted deadline slack — the door survived the
        # failover, so quota and fair-share charges carry over
        # unchanged.  (A member held at a closed-loop gate is readmitted
        # without asking it again: ROADMAP item 10(h).)
        snaps = (
            journal.checkpoint.snapshots if journal.checkpoint is not None else {}
        )
        door = self.door
        tagged = isinstance(door, ServiceAdmissionPolicy)
        readmit = []
        for submit_time, wf in self.members:
            if submit_time <= now and wf.name not in snaps and wf.name not in self.shed:
                self.spans.setdefault(wf.name, (now, nan))
                tenant, sla = door.tag_of(wf.name) if tagged else ("", "")
                readmit.append((wf, tenant, sla))
        admissions = self.core.admissions
        self.core = self._new_core()
        restored = {
            name: (self.workflows[name], snap)
            for name, snap in snaps.items() if name in self.workflows
        }
        self.core.restore(restored, admissions, now, readmit)
        if self.lease is not None:
            # The standby inherits no lease state; epochs stay
            # globally monotonic so every primary-era ack is stale.
            # Workers re-register on their next heartbeat.
            self.lease = LeaseTable(
                self.engine.liveness,
                epoch_floor=self.lease.max_epoch,
                stats=self.stats,
            )
        self.start_master(takeover=True)
        self._check_done()

    # -- the run -------------------------------------------------------------------
    def execute(self) -> EngineResult:
        sim = self.sim
        journal = self.journal
        for controller in self.engine.controllers:
            controller.install(self)
        self.core = self._new_core()
        self.start_master()
        for i in range(self.n_nodes):
            if i not in self.initially_down:
                self.start_worker(i)

        try:
            sim.run_until(self.done)
        finally:
            # The run is over: revoke write access so nothing of this
            # run (``release`` below finalises its suspended generators)
            # appends trailing records to a journal that another run (or
            # nobody) now owns, and detach the journal so a caller
            # keeping it does not keep the run.
            if journal is not None:
                journal.owner = None
                journal.snapshot_provider = journal.on_crash = None
        result = self._result()
        # The core's ports are this run's bound methods; ``run.core``
        # stays readable after the run.
        core = self.core
        core.publish = core.reprioritize = core.call_later = None
        core.on_settled = core.log = core.trace = None
        release(sim, self.cluster)
        return result

    def _result(self) -> EngineResult:
        cluster = self.cluster
        states = self.core.states
        stats = self.stats
        # Under an open-loop service every member may have been shed, in
        # which case nothing ever ran and the makespan is simply "now".
        makespan = max(
            (end for _start, end in self.spans.values()), default=self.sim.now
        )
        rental_spans = {
            i: [(s, e if e is not None else makespan) for s, e in self.leases[i]]
            for i in range(self.n_nodes)
            if self.leases[i]
        }
        interrupted_spans = {
            i: [rental_spans[i][k] for k in indices]
            for i, indices in self.spot_interrupted.items()
            if i in rental_spans
        }
        san = _sanitizer._ACTIVE
        if san is not None:
            for i, node_spans in rental_spans.items():
                san.check_leases(cluster.nodes[i].name, node_spans, makespan)
            if stats["failovers"]:
                # A standby takeover must not have re-opened a rental the
                # primary already closed (no double-billed lease interval).
                for i, node_spans in rental_spans.items():
                    san.check_failover_billing(
                        cluster.nodes[i].name, node_spans, makespan
                    )
        liveness_stats: Dict[str, int] = {}
        if self.report_liveness or stats["partitions"]:
            liveness_stats = dict(stats)
            liveness_stats["dead_letter_depth"] = len(self.core.dead_letters)
            # Constant: the shed ledger it counted is gone, but the
            # quick-soak SHA-256 in tests/test_golden_runs.py hashes this
            # dict — the key goes when those pins are next regenerated.
            liveness_stats["shed_record_drops"] = 0
        return EngineResult(
            engine=self.engine.name,
            spec=self.engine.spec,
            n_workflows=len(self.members),
            makespan=makespan,
            workflow_spans=dict(self.spans),
            records=self.records,
            cluster=cluster,
            resubmissions=sum(s.resubmissions for s in states.values()),
            jobs_executed=self.jobs_executed,
            thread_logs=self.thread_logs,
            rental_spans=rental_spans,
            interrupted_spans=interrupted_spans,
            fault_events=list(self.trace),
            dead_letters=self.core.dead_letters,
            job_counts={name: state.counts() for name, state in states.items()},
            # A broker behind a MessageChaos band reports its tallies.
            mq_chaos_stats=getattr(self.broker, "chaos_stats", dict)(),
            integrity_stats=(
                dict(self.integrity.stats) if self.integrity is not None else {}
            ),
            data_recoveries=sum(s.data_recoveries for s in states.values()),
            journal=self.journal,
            liveness_stats=liveness_stats,
        )
