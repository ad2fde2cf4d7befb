"""Integration tests for the real threaded DEWE v2 system.

These run genuine multi-threaded master/worker daemons over the in-process
broker and execute real (tiny) workloads, including the paper's §V.A.3
fault-injection scenarios.
"""

import threading
import time

import pytest

from repro.dewe import (
    CallableExecutor,
    DeweConfig,
    MasterDaemon,
    NullExecutor,
    SubprocessExecutor,
    WorkerDaemon,
    submit_workflow,
)
from repro.generators import montage_workflow
from repro.mq import Broker
from repro.workflow import DataFile, Workflow

FAST = DeweConfig(
    default_timeout=1.0,
    master_poll_interval=0.002,
    worker_poll_interval=0.005,
    max_concurrent_jobs=8,
)


def make_diamond(record):
    wf = Workflow("diamond")
    lock = threading.Lock()

    def act(name):
        def run():
            with lock:
                record.append(name)
        return run

    for jid in ("a", "b", "c", "d"):
        wf.new_job(jid, "t", runtime=0.0, action=act(jid))
    wf.add_dependency("a", "b")
    wf.add_dependency("a", "c")
    wf.add_dependency("b", "d")
    wf.add_dependency("c", "d")
    return wf


def test_end_to_end_diamond_execution():
    broker = Broker()
    record = []
    with MasterDaemon(broker, FAST) as master, WorkerDaemon(broker, config=FAST):
        submit_workflow(broker, make_diamond(record))
        assert master.wait("diamond", timeout=10.0)
    assert record[0] == "a" and record[-1] == "d"
    assert sorted(record) == ["a", "b", "c", "d"]
    assert master.makespan("diamond") >= 0.0


def test_multiple_workflows_in_parallel():
    """The master manages multiple workflows concurrently over one queue
    (paper §III.B)."""
    broker = Broker()
    records = {f"wf{i}": [] for i in range(3)}
    workflows = []
    for i in range(3):
        wf = make_diamond(records[f"wf{i}"])
        wf = _rename(wf, f"wf{i}")
        workflows.append(wf)
    with MasterDaemon(broker, FAST) as master, WorkerDaemon(broker, config=FAST):
        for wf in workflows:
            submit_workflow(broker, wf)
        for i in range(3):
            assert master.wait(f"wf{i}", timeout=10.0)
    for i in range(3):
        assert len(records[f"wf{i}"]) == 4


def _rename(wf: Workflow, name: str) -> Workflow:
    clone = Workflow(name)
    for job in wf:
        clone.add_job(job)
    return clone


def test_multiple_workers_share_queue():
    broker = Broker()
    seen_workers = set()

    class TrackingExecutor(CallableExecutor):
        def run(self, job):
            seen_workers.add(threading.current_thread().name.split("-job")[0])
            time.sleep(0.01)

    wf = Workflow("wide")
    for i in range(16):
        wf.new_job(f"j{i}", "t")
    with MasterDaemon(broker, FAST) as master:
        workers = [
            WorkerDaemon(broker, TrackingExecutor(), FAST, name=f"w{k}").start()
            for k in range(4)
        ]
        submit_workflow(broker, wf)
        assert master.wait("wide", timeout=10.0)
        for w in workers:
            w.stop()
    assert len(seen_workers) >= 2  # work actually spread across daemons


def test_concurrency_cap_respected():
    broker = Broker()
    cfg = DeweConfig(
        default_timeout=5.0,
        master_poll_interval=0.002,
        worker_poll_interval=0.002,
        max_concurrent_jobs=2,
    )
    peak = [0]
    gate = threading.Semaphore(0)
    active = [0]
    lock = threading.Lock()

    def busy():
        with lock:
            active[0] += 1
            peak[0] = max(peak[0], active[0])
        time.sleep(0.05)
        with lock:
            active[0] -= 1

    wf = Workflow("cap")
    for i in range(8):
        wf.new_job(f"j{i}", "t", action=busy)
    with MasterDaemon(broker, cfg) as master, WorkerDaemon(broker, config=cfg):
        submit_workflow(broker, wf)
        assert master.wait("cap", timeout=10.0)
    assert peak[0] <= 2
    del gate


def test_failed_job_resubmitted_and_recovers():
    broker = Broker()
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise RuntimeError("transient failure")

    wf = Workflow("flaky")
    wf.new_job("only", "t", action=flaky)
    with MasterDaemon(broker, FAST) as master, WorkerDaemon(broker, config=FAST):
        submit_workflow(broker, wf)
        assert master.wait("flaky", timeout=10.0)
    assert len(attempts) == 3
    assert master.states["flaky"].resubmissions == 2


def test_killed_worker_jobs_recovered_by_timeout():
    """Paper §V.A.3: kill the worker daemon mid-run, restart 'on another
    node'; interrupted jobs are resubmitted after the timeout and the
    workflow completes."""
    broker = Broker()
    started = threading.Event()
    release = threading.Event()

    def slow_job():
        started.set()
        release.wait(timeout=5.0)

    wf = Workflow("victim")
    wf.new_job("slow", "t", action=slow_job)
    wf.new_job("after", "t")
    wf.add_dependency("slow", "after")

    cfg = DeweConfig(
        default_timeout=0.3,
        master_poll_interval=0.002,
        worker_poll_interval=0.005,
        max_concurrent_jobs=4,
    )
    with MasterDaemon(broker, cfg) as master:
        w1 = WorkerDaemon(broker, config=cfg, name="node1").start()
        submit_workflow(broker, wf)
        assert started.wait(timeout=5.0)
        w1.kill()          # the COMPLETED ack of 'slow' is now suppressed
        release.set()
        w1.join_jobs(timeout=5.0)  # job thread winds down, ack suppressed
        w2 = WorkerDaemon(broker, config=cfg, name="node2").start()
        assert master.wait("victim", timeout=10.0)
        w2.stop()
    assert master.states["victim"].resubmissions >= 1


def test_null_executor_runs_montage_structure():
    """A full (tiny) Montage DAG through the real system."""
    broker = Broker()
    wf = montage_workflow(degree=0.25)
    with MasterDaemon(broker, FAST) as master, WorkerDaemon(
        broker, NullExecutor(), FAST
    ):
        submit_workflow(broker, wf)
        assert master.wait(wf.name, timeout=30.0)
    state = master.states[wf.name]
    assert state.is_complete
    assert state.n_completed == len(wf)


def test_subprocess_executor_runs_argv():
    broker = Broker()
    wf = Workflow("proc")
    wf.new_job("true", "t", action=["true"])
    with MasterDaemon(broker, FAST) as master, WorkerDaemon(
        broker, SubprocessExecutor(), FAST
    ):
        submit_workflow(broker, wf)
        assert master.wait("proc", timeout=10.0)


def test_subprocess_executor_failure_is_failed_ack_then_retry_loops():
    broker = Broker()
    wf = Workflow("failing")
    calls = []

    class CountingExec(SubprocessExecutor):
        def run(self, job):
            calls.append(1)
            if len(calls) < 2:
                super().run(job)

    wf.new_job("false", "t", action=["false"])
    with MasterDaemon(broker, FAST) as master, WorkerDaemon(
        broker, CountingExec(), FAST
    ):
        submit_workflow(broker, wf)
        assert master.wait("failing", timeout=10.0)
    assert len(calls) == 2


def test_worker_stop_requeues_checked_out_message():
    from repro.mq.messages import TOPIC_DISPATCH, JobDispatch
    from repro.workflow.dag import Job

    cfg = DeweConfig(
        default_timeout=5.0,
        master_poll_interval=0.002,
        worker_poll_interval=0.5,  # long poll so we can race the stop
        max_concurrent_jobs=1,
    )
    in_consume = threading.Event()

    class SignallingBroker(Broker):
        def consume(self, topic_name, timeout=None):
            if topic_name == TOPIC_DISPATCH:
                in_consume.set()
            return super().consume(topic_name, timeout)

    broker = SignallingBroker()
    worker = WorkerDaemon(broker, config=cfg, name="w")
    worker.start()
    assert in_consume.wait(timeout=5.0)  # worker reached consume()
    worker._stop.set()
    broker.publish(
        TOPIC_DISPATCH,
        JobDispatch(workflow_name="wf", job_id="j", attempt=1, job=Job("j", "t")),
    )
    worker.stop()
    # The message the stopping worker checked out must be back in the queue
    # (or never consumed).
    assert broker.depth(TOPIC_DISPATCH) == 1


def test_master_rejects_duplicate_start():
    broker = Broker()
    master = MasterDaemon(broker, FAST).start()
    with pytest.raises(RuntimeError):
        master.start()
    master.stop()


def test_master_survives_bad_submissions():
    """A duplicate or invalid submission must not kill the master daemon
    (its service thread keeps running and later submissions succeed)."""
    broker = Broker()
    with MasterDaemon(broker, FAST) as master, WorkerDaemon(broker, config=FAST):
        good1 = Workflow("good-1")
        good1.new_job("only", "t")
        submit_workflow(broker, good1)
        assert master.wait("good-1", timeout=10.0)

        # Duplicate name: rejected, not fatal.
        dup = Workflow("good-1")
        dup.new_job("only", "t")
        submit_workflow(broker, dup)

        # Invalid DAG (cycle): rejected, not fatal.
        bad = Workflow("cyclic")
        bad.new_job("a", "t")
        bad.new_job("b", "t")
        bad.add_dependency("a", "b")
        bad.add_dependency("b", "a")
        submit_workflow(broker, bad)

        # The daemon still serves new workflows afterwards.
        good2 = Workflow("good-2")
        good2.new_job("only", "t")
        submit_workflow(broker, good2)
        assert master.wait("good-2", timeout=10.0)
        # The submission topic is FIFO: good-2 completing proves the two
        # earlier (rejected) submissions were already processed.
        assert "good-1" in master.rejected
        assert "cyclic" in master.rejected


@pytest.mark.parametrize(
    "name", ["default_timeout", "master_poll_interval", "worker_poll_interval"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_config_refuses_a_non_finite_or_non_positive_time(name, value):
    """Refused like ``RunConfig`` refuses them: a nan timeout never
    expires a job, and a nan poll interval never wakes a daemon loop."""
    with pytest.raises(ValueError, match=name):
        DeweConfig(**{name: value})
