"""Partition healing on the real threaded daemons (ChaosBroker shim).

The DES covers partitions with exact clocks (tests/test_liveness.py);
these tests run the genuine multi-threaded master/worker stack against
the :class:`~repro.mq.chaosbroker.ChaosBroker` partition shim, which
holds a cut worker's uplink (acks + heartbeats) in publish order and
replays it through the chaos band on heal.  They are part of the race
detector CI matrix: run them under ``REPRO_RACEDETECT=1``.
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
from repro.mq import Broker, ChaosBroker, MessageChaos
from repro.mq.messages import (
    TOPIC_ACK,
    TOPIC_DISPATCH,
    TOPIC_HEARTBEAT,
    JobAck,
    AckKind,
    WorkerHeartbeat,
)
from repro.workflow import Workflow


def _poll(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _ack(worker: str, job_id: str = "j", attempt: int = 0) -> JobAck:
    return JobAck(
        workflow_name="wf",
        job_id=job_id,
        kind=AckKind.COMPLETED,
        attempt=attempt,
        worker=worker,
    )


def make_parallel(name: str, n: int, action) -> Workflow:
    wf = Workflow(name)
    for i in range(n):
        wf.new_job(f"{name}-j{i:02d}", "t", runtime=0.0, action=action)
    return wf


# -- ChaosBroker partition shim (unit) ----------------------------------------
def test_chaosbroker_holds_partitioned_uplink_and_heals_in_order():
    broker = ChaosBroker(Broker(), MessageChaos())
    broker.begin_partition("w1")
    for i in range(3):
        broker.publish(TOPIC_ACK, _ack("w1", f"j{i}"))
    broker.publish(TOPIC_HEARTBEAT, WorkerHeartbeat(worker="w1"))
    # Another worker's traffic is unaffected.
    broker.publish(TOPIC_ACK, _ack("w0", "other"))
    assert broker.depth(TOPIC_ACK) == 1
    assert broker.consume(TOPIC_ACK).worker == "w0"
    stats = broker.chaos_stats()
    assert stats["held"] == 4 and stats["flushed"] == 0

    assert broker.heal_partition("w1") == 4
    # Held messages re-enter in their original publish order.
    flushed = [broker.consume(TOPIC_ACK) for _ in range(3)]
    assert [m.job_id for m in flushed] == ["j0", "j1", "j2"]
    assert broker.consume(TOPIC_HEARTBEAT).worker == "w1"
    assert broker.chaos_stats()["flushed"] == 4
    # Healing an already-healed worker is a no-op.
    assert broker.heal_partition("w1") == 0


def test_chaosbroker_partition_scopes_to_named_topics():
    broker = ChaosBroker(Broker(), MessageChaos())
    broker.begin_partition(("w1",), topics=(TOPIC_ACK,))
    broker.publish(TOPIC_HEARTBEAT, WorkerHeartbeat(worker="w1"))
    assert broker.depth(TOPIC_HEARTBEAT) == 1  # heartbeats still flow
    broker.publish(TOPIC_ACK, _ack("w1"))
    assert broker.depth(TOPIC_ACK) == 0  # acks held
    # Messages without a worker attribute (dispatches) are never held.
    broker.publish(TOPIC_DISPATCH, ("opaque", "payload"))
    assert broker.depth(TOPIC_DISPATCH) == 1
    assert broker.heal_partition() == 1


# -- threaded: partition -> lease fence -> requeue -> heal --------------------
def test_partitioned_worker_is_fenced_and_jobs_requeued():
    cfg = DeweConfig(
        default_timeout=30.0,  # recovery must come from the lease, not timeouts
        master_poll_interval=0.002,
        worker_poll_interval=0.005,
        max_concurrent_jobs=8,
        liveness=LeaseConfig(heartbeat_interval=0.05),
    )
    broker = ChaosBroker(Broker(), MessageChaos())
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
    ), WorkerDaemon(broker, config=cfg, name="w1"):
        submit_workflow(broker, wf)
        # 16 gated jobs against two 8-slot workers: both saturate, so the
        # partitioned worker genuinely holds RUNNING deliveries.
        assert _poll(lambda: len(started) == 16), f"started={len(started)}"

        broker.begin_partition("w1")
        assert _poll(
            lambda: master.liveness_stats()["lease_fencings"] >= 1
        ), master.liveness_stats()
        gate.set()
        healed = broker.heal_partition("w1")
        assert healed > 0  # silence was the shim, not a dead worker
        assert master.wait("wf", timeout=20.0)
        stats = master.liveness_stats()

    assert stats["lease_fencings"] >= 1
    assert stats["heartbeat_misses"] >= MISS_THRESHOLD
    assert master.dead_letters == []
    # Every job ran (the fenced worker's deliveries were requeued; reruns
    # are allowed, lost jobs are not).
    assert len(started) >= 16
    chaos = broker.chaos_stats()
    assert chaos["held"] > 0 and chaos["flushed"] == chaos["held"]


# -- threaded: duplicate acks across a heal are absorbed ----------------------
def test_acks_flushed_after_heal_are_idempotent():
    cfg = DeweConfig(
        default_timeout=0.3,
        master_poll_interval=0.002,
        worker_poll_interval=0.005,
        max_concurrent_jobs=8,
    )
    broker = ChaosBroker(Broker(), MessageChaos())
    runs = []
    lock = threading.Lock()

    def job():
        with lock:
            runs.append(1)

    wf = make_parallel("wf", 4, job)
    with MasterDaemon(
        broker, cfg, retry=RetryPolicy(max_attempts=0, redispatch_lost=True)
    ) as master, WorkerDaemon(broker, config=cfg, name="w0"):
        # Partitioned from the start: the worker still pulls dispatches
        # and executes, but every ack is held.  The master's dispatch
        # deadline keeps republishing; the worker keeps re-running.
        broker.begin_partition("w0")
        submit_workflow(broker, wf)
        assert _poll(lambda: len(runs) >= 8)  # at least one full rerun
        assert not master.wait("wf", timeout=0.1)  # blind: cannot settle

        flushed = broker.heal_partition("w0")
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
