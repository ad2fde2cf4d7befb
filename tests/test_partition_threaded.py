"""Partition healing on the real threaded daemons.

The DES covers partitions with exact clocks (tests/test_liveness.py);
these tests run the genuine multi-threaded master/worker stack, where a
partition cuts one worker's link by the DES rules
(:meth:`~repro.dewe.worker.WorkerDaemon.begin_partition`): an uplink
cut holds acks in send order and drops heartbeats, a downlink cut stops
pulling, a heal sends the held acks before any newer ack, and a killed
worker's held acks die with it.  They are part of the race detector CI
matrix: run them under ``REPRO_RACEDETECT=1``.
"""

import threading
import time

import pytest

from repro.dewe import (
    DeweConfig,
    MasterDaemon,
    WorkerDaemon,
    submit_workflow,
)
from repro.faults import RetryPolicy
from repro.liveness import MISS_THRESHOLD, AdmissionControl, LeaseConfig
from repro.mq import Broker
from repro.mq.messages import (
    TOPIC_ACK,
    TOPIC_DISPATCH,
    TOPIC_HEARTBEAT,
    AckKind,
    JobDispatch,
)
from repro.workflow import Job, Workflow


def _poll(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _held(worker: WorkerDaemon) -> int:
    with worker._link:
        return len(worker._held)


def _dispatch(broker, job_id: str, action=None) -> None:
    job = Job(job_id, "t", runtime=0.0, action=action)
    broker.publish(TOPIC_DISPATCH, JobDispatch("wf", job_id, job=job))


def _drain(broker, topic: str) -> list:
    out = []
    while (msg := broker.consume(topic, timeout=0)) is not None:
        out.append(msg)
    return out


def _acks(broker) -> list:
    return [(a.job_id, a.kind) for a in _drain(broker, TOPIC_ACK)]


def make_parallel(name: str, n: int, action) -> Workflow:
    wf = Workflow(name)
    for i in range(n):
        wf.new_job(f"{name}-j{i:02d}", "t", runtime=0.0, action=action)
    return wf


# -- the worker's link (unit) --------------------------------------------------
def test_to_master_cut_holds_acks_in_send_order_and_drops_heartbeats():
    interval = 0.01
    cfg = DeweConfig(
        worker_poll_interval=0.005,
        max_concurrent_jobs=1,  # one job at a time: a fixed send order
        liveness=LeaseConfig(heartbeat_interval=interval),
    )
    broker = Broker()
    pause = threading.Event()  # never set: each job waits a few beats
    with WorkerDaemon(broker, config=cfg, name="w1") as worker:
        assert _poll(lambda: broker.depth(TOPIC_HEARTBEAT) >= 1)
        worker.begin_partition("to-master")
        _drain(broker, TOPIC_HEARTBEAT)  # beats sent before the cut
        for i in range(3):
            _dispatch(broker, f"j{i}", lambda: pause.wait(3 * interval))
        assert _poll(lambda: _held(worker) == 6), _held(worker)
        assert broker.depth(TOPIC_ACK) == 0
        assert broker.depth(TOPIC_HEARTBEAT) == 0  # dropped, not held

        assert worker.end_partition() == 6
        assert worker.end_partition() == 0  # nothing left to release
        _dispatch(broker, "j3")
        assert _poll(lambda: broker.depth(TOPIC_ACK) == 8)
        assert _poll(lambda: broker.depth(TOPIC_HEARTBEAT) >= 1)
    steps = [(f"j{i}", kind) for i in range(4)
             for kind in (AckKind.RUNNING, AckKind.COMPLETED)]
    assert _acks(broker) == steps


def test_from_master_cut_stops_pulling_while_acks_flow():
    cfg = DeweConfig(worker_poll_interval=0.005, max_concurrent_jobs=1)
    broker = Broker()
    gate = threading.Event()
    with WorkerDaemon(broker, config=cfg, name="w1") as worker:
        _dispatch(broker, "a", lambda: gate.wait(10.0))
        assert broker.consume(TOPIC_ACK, timeout=10.0).kind is AckKind.RUNNING
        # The only slot is busy, so the pull loop waits at the cap and
        # cannot be mid-pull when the cut begins.
        worker.begin_partition("from-master")
        _dispatch(broker, "b")
        gate.set()
        done = broker.consume(TOPIC_ACK, timeout=10.0)
        assert (done.job_id, done.kind) == ("a", AckKind.COMPLETED)
        # Ten poll intervals with a free slot: "b" is still queued.
        threading.Event().wait(10 * cfg.worker_poll_interval)
        assert broker.depth(TOPIC_DISPATCH) == 1
        assert broker.depth(TOPIC_ACK) == 0

        assert worker.end_partition() == 0
        assert _poll(lambda: broker.depth(TOPIC_ACK) == 2)
        assert _acks(broker) == [("b", AckKind.RUNNING), ("b", AckKind.COMPLETED)]

        # Idle, the worker waits inside its pull: a cut that begins there
        # hands the next dispatch back to the queue.
        worker.begin_partition("from-master")
        _dispatch(broker, "c")
        threading.Event().wait(10 * cfg.worker_poll_interval)
        assert broker.depth(TOPIC_DISPATCH) == 1
        assert broker.depth(TOPIC_ACK) == 0
        worker.end_partition()
        assert _poll(lambda: broker.depth(TOPIC_ACK) == 2)


def test_a_killed_workers_held_acks_never_reach_the_broker():
    broker = Broker()
    worker = WorkerDaemon(
        broker, config=DeweConfig(worker_poll_interval=0.005), name="w1"
    ).start()
    worker.begin_partition("to-master")
    _dispatch(broker, "j0")
    assert _poll(lambda: _held(worker) == 2)
    worker.kill()
    worker.join_jobs()
    assert worker.end_partition() == 0
    assert broker.depth(TOPIC_ACK) == 0


def test_a_partition_mode_outside_the_three_is_refused():
    worker = WorkerDaemon(Broker(), name="w1")
    with pytest.raises(ValueError, match="mode must be one of"):
        worker.begin_partition("both")
    assert worker.end_partition() == 0


# -- threaded: partition -> lease fence -> requeue -> heal --------------------
def test_partitioned_worker_is_fenced_and_jobs_requeued():
    cfg = DeweConfig(
        default_timeout=30.0,  # recovery must come from the lease, not timeouts
        master_poll_interval=0.002,
        worker_poll_interval=0.005,
        max_concurrent_jobs=8,
        liveness=LeaseConfig(heartbeat_interval=0.05),
    )
    broker = Broker()
    gate = threading.Event()
    started = []
    started_lock = threading.Lock()

    def job():
        with started_lock:
            started.append(threading.current_thread().name)
        assert gate.wait(timeout=30.0)

    wf = make_parallel("wf", 16, job)
    with MasterDaemon(broker, cfg) as master, WorkerDaemon(
        broker, config=cfg, name="w0"
    ), WorkerDaemon(broker, config=cfg, name="w1") as w1:
        submit_workflow(broker, wf)
        # 16 gated jobs against two 8-slot workers: both saturate, so the
        # partitioned worker genuinely holds RUNNING deliveries.
        assert _poll(lambda: len(started) == 16), f"started={len(started)}"

        w1.begin_partition("to-master")
        assert _poll(
            lambda: master.liveness_stats()["lease_fencings"] >= 1
        ), master.liveness_stats()
        gate.set()
        # w1's eight gated jobs finish behind the cut: their completions
        # are held, not lost.
        assert _poll(lambda: _held(w1) >= 8), _held(w1)
        assert w1.end_partition() >= 8
        assert master.wait("wf", timeout=20.0)
        stats = master.liveness_stats()

    assert stats["lease_fencings"] >= 1
    assert stats["heartbeat_misses"] >= MISS_THRESHOLD
    assert master.dead_letters == []
    # Every job ran (the fenced worker's deliveries were requeued; reruns
    # are allowed, lost jobs are not).
    assert len(started) >= 16


# -- threaded: duplicate acks across a heal are absorbed ----------------------
def test_acks_flushed_after_heal_are_idempotent():
    cfg = DeweConfig(
        default_timeout=0.3,
        master_poll_interval=0.002,
        worker_poll_interval=0.005,
        max_concurrent_jobs=8,
    )
    broker = Broker()
    runs = []
    lock = threading.Lock()

    def job():
        with lock:
            runs.append(1)

    wf = make_parallel("wf", 4, job)
    with MasterDaemon(
        broker, cfg, retry=RetryPolicy(max_attempts=0, redispatch_lost=True)
    ) as master, WorkerDaemon(broker, config=cfg, name="w0") as w0:
        # Partitioned from the start: the worker still pulls dispatches
        # and executes, but every ack is held.  The master's dispatch
        # deadline keeps republishing; the worker keeps re-running.
        w0.begin_partition("to-master")
        submit_workflow(broker, wf)
        assert _poll(lambda: len(runs) >= 8)  # at least one full rerun
        assert not master.wait("wf", timeout=0.1)  # blind: cannot settle

        flushed = w0.end_partition()
        assert flushed >= 8  # stale and fresh attempts replay together
        assert master.wait("wf", timeout=20.0)

    # At-least-once execution, exactly-once settlement: duplicates and
    # stale-attempt acks from before the heal were dropped by the state
    # machine, not double-counted.
    assert len(runs) >= 8
    assert master.dead_letters == []
    assert master.makespans["wf"] >= 0.0


# -- threaded: admission gate --------------------------------------------------
def test_threaded_admission_gate_sheds_then_admits():
    cfg = DeweConfig(
        default_timeout=10.0,
        master_poll_interval=0.002,
        worker_poll_interval=0.005,
        max_concurrent_jobs=8,
        admission=AdmissionControl(max_pending_jobs=1, retry_after=0.25),
    )
    broker = Broker()
    runs = []
    lock = threading.Lock()

    def job():
        with lock:
            runs.append(1)

    with MasterDaemon(broker, cfg) as master:
        # No worker yet: wf1's dispatches pile up past the gate.
        submit_workflow(broker, make_parallel("wf1", 4, job))
        assert _poll(lambda: broker.depth(TOPIC_DISPATCH) >= 1)
        submit_workflow(broker, make_parallel("wf2", 4, job))
        assert _poll(lambda: "wf2" in master.shed_submissions)
        # The retry-after hint scales with the backlog overshoot: wf1's
        # 4 queued dispatches against a gate of 1 means 4x the base hint.
        assert (
            master.shed_submissions["wf2"]
            == cfg.admission.retry_after * 4 / cfg.admission.max_pending_jobs
        )
        assert "wf2" in master.rejected
        assert master.liveness_stats()["shed_submissions"] == 1

        # Drain the backlog, then the retried submission is admitted.
        with WorkerDaemon(broker, config=cfg, name="w0"):
            assert master.wait("wf1", timeout=20.0)
            assert _poll(lambda: broker.depth(TOPIC_DISPATCH) == 0)
            submit_workflow(broker, make_parallel("wf2", 4, job))
            assert master.wait("wf2", timeout=20.0)
    assert len(runs) == 8
