"""Crash consistency: write-ahead journal, restore from a checkpoint, and
the threaded master's checkpoint/restore.

The core guarantee under test (docs/FAULTS.md, "Master recovery is a
restore"): a master that crashes at *any* journal offset comes back
through ``MasterCore.restore`` — settled jobs stay settled, jobs in
flight are requeued under a fresh attempt — and every job of the run
still settles exactly once.
"""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import ClusterSpec
from repro.dewe import DeweConfig, MasterDaemon, WorkerDaemon, submit_workflow
from repro.dewe.core import MasterCore
from repro.engines.base import RunConfig
from repro.engines.pull import PullEngine
from repro.faults.models import TransientFaultModel
from repro.faults.retry import RetryPolicy
from repro.generators import montage_workflow
from repro.mq import Broker
import repro.recovery.journal as journal_module
from repro.dewe.state import StateSnapshot, WorkflowState
from repro.faults.chaos import SCENARIOS, resume_until_complete, run_chaos
from repro.recovery import (
    Journal,
    JournalError,
    MasterCrashModel,
    state_digest,
)
from repro.workflow import Ensemble, Workflow


# -- journal unit tests ----------------------------------------------------


def test_append_assigns_sequence_and_line_format():
    journal = Journal()
    rec = journal.append(1.25, "dispatch", "wf", "job", 1, "node=0")
    assert rec.seq == 1
    assert rec == (1, 1.25, "dispatch", "wf", "job", 1, "node=0")
    journal.append(2.0, "ack-complete", "wf", "job", 1)
    assert journal.seq == 2
    assert len(journal) == 2


def test_checkpoint_compacts_the_log():
    journal = Journal(checkpoint_every=3)
    journal.snapshot_provider = lambda: {"wf": {"n": journal.seq}}
    for i in range(7):
        journal.append(float(i), "dispatch", "wf", f"j{i}", 1)
    # Checkpoints at seq 3 and 6; only the tail survives in `records`.
    assert [seq for seq, _t in journal.checkpoint_history] == [3, 6]
    assert journal.checkpoint is not None and journal.checkpoint.seq == 6
    assert len(journal.records) == 1
    assert journal.seq == 7
    assert journal.checkpoint.digest == state_digest({"wf": {"n": 6}})


def test_checkpoint_without_provider_raises():
    with pytest.raises(JournalError, match="snapshot_provider"):
        Journal().take_checkpoint(0.0)


def test_crash_after_fires_once_and_sticks():
    journal = Journal(crash_after=2)
    fired = []
    journal.on_crash = lambda: fired.append(True)
    journal.append(0.0, "submit", "wf")
    journal.append(0.1, "dispatch", "wf", "a", 1)
    # The crashing append is refused, not recorded (the write-ahead died
    # first), and a dead master writes nothing afterwards.
    assert journal.append(0.2, "dispatch", "wf", "b", 1) is None
    assert journal.append(0.3, "ack-running", "wf", "a", 1) is None
    assert (journal.seq, journal.fenced_appends) == (2, 2)
    assert journal.crashed and fired == [True]
    # The restarted master fences: the log goes on where it stopped, and
    # the injected crash does not fire a second time.
    assert journal.fence() == 1 and not journal.crashed
    assert journal.append(1.2, "failover", detail="epoch=1", epoch=1).seq == 3
    assert journal.append(1.3, "dispatch", "wf", "b", 2, epoch=1).seq == 4
    assert fired == [True] and journal.crashes == 1


def test_to_jsonl_round_trips_records(tmp_path):
    journal = Journal(checkpoint_every=2)
    journal.snapshot_provider = lambda: {"wf": {"seq": journal.seq}}
    for i in range(5):
        journal.append(float(i), "dispatch", "wf", f"j{i}", 1)
    path = tmp_path / "journal.jsonl"
    journal.to_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert "checkpoint" in lines[0]
    assert lines[0]["checkpoint"]["seq"] == 4
    assert [rec["seq"] for rec in lines[1:]] == [5]


# -- engine: a master crash is a restore -----------------------------------


SPEC = ClusterSpec("m3.2xlarge", 2)
CONFIG = RunConfig(default_timeout=10.0, timeout_check_interval=0.5,
                   record_jobs=False)
RETRY = RetryPolicy(max_attempts=4)
IN_FLIGHT = ("queued", "running")


def _ensemble():
    return Ensemble.replicated(montage_workflow(degree=0.3), 2, interval=1.0)


def _engine(journal=None, p_fail=0.0, seed=7, controllers=()):
    transient = (
        TransientFaultModel(p_fail=p_fail, seed=seed) if p_fail > 0 else None
    )
    return PullEngine(
        SPEC,
        config=CONFIG,
        retry=RETRY,
        journal=journal,
        controllers=([transient] if transient else []) + list(controllers),
    )


def test_uninterrupted_journal_records_all_transitions():
    journal = Journal(checkpoint_every=25)
    result = _engine(journal).run(_ensemble())
    assert result.journal is journal
    kinds = {rec.kind for rec in journal.records}
    # The tail always ends with completions; the full kind coverage is
    # asserted via seq (one record per transition) and the text.
    assert journal.seq > 3 * result.jobs_executed  # dispatch+running+complete
    assert journal.checkpoint_history
    assert "ack-complete" in kinds


class _CoreAtCheckpoints:
    """Controller: at every checkpoint, what the live core holds for each
    job — status, attempt, unfinished parents — read off its states, next
    to the snapshot the journal stores and the admissions it remembers."""

    def __init__(self):
        self.captures = []
        self.workflows = {}

    def install(self, run):
        self.workflows = run.workflows
        snapshot = run.journal.snapshot_provider

        def capture():
            snapshots = snapshot()
            core = run.core
            jobs = _jobs_of(core)
            self.captures.append(
                (run.sim.now, snapshots, jobs, dict(core.admissions))
            )
            return snapshots

        run.journal.snapshot_provider = capture


def _jobs_of(core):
    """``(status, attempt, unfinished parents)`` of every job of every
    member a core holds: read off a live member's state, and off a
    settled member's snapshot."""
    jobs = {
        name: {
            job_id: (
                state.status[job_id].value,
                state.current_attempt(job_id),
                state.pending[job_id],
            )
            for job_id in state.workflow.jobs
        }
        for name, state in core.states.items()
    }
    for name, (_workflow, snapshot) in core.settled.items():
        held = snapshot.to_dict()
        jobs[name] = {
            job_id: (status, held["attempt"].get(job_id, 0), held["pending"][job_id])
            for job_id, status in held["status"].items()
        }
    return jobs


def _restored(workflows, snapshots, admissions, now):
    """A fresh core restored from ``snapshots`` through recording ports;
    returns it and every ``(workflow, job, attempt)`` it published."""
    published = []

    def no_backoff(_delay, _fn):
        raise AssertionError("RETRY has no backoff: nothing is deferred")

    core = MasterCore(
        CONFIG.default_timeout,
        RETRY,
        publish=lambda state, job_id, attempt, _priority: published.append(
            (state.name, job_id, attempt)
        ),
        reprioritize=lambda *_args: None,
        call_later=no_backoff,
        on_settled=lambda _state: None,
        log=lambda *_args: None,
    )
    core.restore(
        {name: (workflows[name], snap) for name, snap in snapshots.items()},
        admissions,
        now,
    )
    return core, published


def _buried_with_descendants(workflow, jobs):
    """In-flight jobs out of attempt budget, and the waiting descendants
    their dead letters cascade to."""
    buried = {
        job_id for job_id, (status, attempt, _pending) in jobs.items()
        if status in IN_FLIGHT and RETRY.exhausted(attempt)
    }
    cascaded = set()
    stack = [child for job_id in buried for child in workflow.job(job_id).children]
    while stack:
        job_id = stack.pop()
        if jobs[job_id][0] == "waiting" and job_id not in cascaded:
            cascaded.add(job_id)
            stack.extend(workflow.job(job_id).children)
    return buried, cascaded


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    p_fail=st.sampled_from([0.0, 0.2]),
    checkpoint_every=st.integers(5, 60),
)
def test_restore_agrees_with_the_live_core_at_every_checkpoint(
    seed, p_fail, checkpoint_every
):
    """The oracle the crash path stands on: at every checkpoint of a
    journaled run, a fresh core restored from that checkpoint holds, job
    by job, what the live core held — except that each job in flight is
    requeued once under the next attempt (or dead-lettered
    ``master-crash`` when its budget is spent), and exactly those
    requeues are published."""
    capture = _CoreAtCheckpoints()
    _engine(
        Journal(checkpoint_every=checkpoint_every), p_fail, seed, [capture]
    ).run(_ensemble())
    assert capture.captures
    for now, snapshots, live, admissions in capture.captures:
        core, published = _restored(capture.workflows, snapshots, admissions, now)
        restored = _jobs_of(core)
        assert sorted(restored) == sorted(live)
        requeued = []
        for name, jobs in live.items():
            buried, cascaded = _buried_with_descendants(capture.workflows[name], jobs)
            for job_id, (status, attempt, pending) in jobs.items():
                got = restored[name][job_id]
                if job_id in buried or job_id in cascaded:
                    expected = ("dead", attempt, pending)
                elif status in IN_FLIGHT:
                    expected = ("queued", attempt + 1, pending)
                    requeued.append((name, job_id, attempt + 1))
                else:
                    expected = (status, attempt, pending)
                assert got == expected, (now, name, job_id)
            state = core.states.get(name)
            letters = (
                state.dead_letters if state is not None
                else core.settled[name][1].dead_letters
            )
            fresh = letters[len(snapshots[name].dead_letters):]
            assert sorted((e.job_id, e.reason) for e in fresh) == sorted(
                [(job_id, "master-crash") for job_id in buried]
                + [(job_id, "upstream-dead") for job_id in cascaded]
            )
        assert sorted(published) == sorted(requeued)


def test_crash_restores_in_run_without_a_standby():
    """The run does not stop at the crash: the master restarts one
    second later from the checkpoint under epoch 1, and the journal goes
    on past the record the crash refused."""
    journal = Journal(checkpoint_every=25, crash_after=40)
    result = _engine(journal).run(_ensemble())
    assert result.journal is journal
    assert (journal.crashes, journal.epoch, journal.crashed) == (1, 1, False)
    assert journal.fenced_appends >= 1 and journal.seq > 40
    assert result.liveness_stats["failovers"] == 1
    for counts in result.job_counts.values():
        assert counts["completed"] == sum(counts.values())


def test_crash_matrix_every_offset_settles_each_job_once():
    """Kill the master at offsets 0 and 1, one before the first
    checkpoint, on every compaction boundary, deep in the run and at the
    final record.  Every job settles exactly once, and the trace holds
    the death and the restart one second apart — except at the final
    record, where the run settles before the restart."""
    baseline = _engine(Journal(checkpoint_every=25), p_fail=0.2).run(
        _ensemble()
    )
    assert baseline.resubmissions > 0  # retries are genuinely in the log
    total = baseline.journal.seq
    boundaries = [seq for seq, _time in baseline.journal.checkpoint_history]
    offsets = sorted({0, 1, 24, *boundaries, (3 * total) // 4, total - 1})
    n_jobs = {name: sum(c.values()) for name, c in baseline.job_counts.items()}
    for offset in offsets:
        journal = Journal(checkpoint_every=25, crash_after=offset)
        result = _engine(journal, p_fail=0.2).run(_ensemble())
        assert journal.crashes == 1, offset
        for name, counts in result.job_counts.items():
            assert counts["completed"] + counts["dead"] == n_jobs[name], (
                offset, name, counts,
            )
        assert {e.reason for e in result.dead_letters} <= {
            "master-crash", "failed", "upstream-dead",
        }, offset
        died = [e.time for e in result.fault_events if e.kind == "master-fail"]
        restarted = [e.time for e in result.fault_events if e.kind == "failover"]
        assert len(died) == 1, offset
        if offset == total - 1:
            assert restarted == [] and journal.crashed
            assert result.liveness_stats["failovers"] == 0
        else:
            assert restarted == [pytest.approx(died[0] + 1.0)], offset
            assert journal.epoch == 1 and not journal.crashed, offset


# -- threaded master checkpoint/restore ------------------------------------


FAST = DeweConfig(
    default_timeout=1.0,
    master_poll_interval=0.002,
    worker_poll_interval=0.005,
    max_concurrent_jobs=8,
)


def _chain(n=4, pause=None):
    """a0 -> a1 -> ... with an optional blocking action on one job."""
    wf = Workflow("chain")
    for i in range(n):
        action = pause if pause is not None and i == n // 2 else None
        wf.new_job(f"a{i}", "t", runtime=0.0, action=action)
        if i:
            wf.add_dependency(f"a{i - 1}", f"a{i}")
    return wf


def test_master_checkpoint_and_restore_preserves_completions():
    broker = Broker()
    import threading

    gate = threading.Event()
    executed = []

    def blocker():
        executed.append("blocked-job")
        gate.wait(timeout=5.0)

    wf = _chain(4, pause=blocker)
    model = MasterCrashModel(checkpoint_interval=0.01)
    master = MasterDaemon(broker, FAST).start()
    model.attach(master)
    worker = WorkerDaemon(broker, config=FAST).start()
    try:
        submit_workflow(broker, wf)
        # Wait until the blocking job is reached, then let checkpoints
        # observe the two completed predecessors.
        for _ in range(500):
            if "blocked-job" in executed:
                break
            time.sleep(0.01)
        time.sleep(0.05)
        checkpoint = model.crash()
        assert model.crashes == 1
        status = checkpoint.states["chain"][1].to_dict()["status"]
        assert status["a0"] == status["a1"] == "completed"
        gate.set()
        master = model.restart(broker)
        assert master.wait("chain", timeout=10.0)
    finally:
        model.detach()
        worker.stop()
        master.stop()
    snapshot = master.settled["chain"][1]
    assert snapshot.counts()["completed"] == len(snapshot.job_ids)
    # Restore kept the pre-crash completions (no from-scratch re-run).
    assert snapshot.counts()["completed"] == 4


def test_from_checkpoint_requeues_in_flight_jobs():
    broker = Broker()
    wf = _chain(3)
    state_master = MasterDaemon(broker, FAST)
    # Build a checkpoint by hand: a0 completed, a1 in flight (no worker
    # ack will ever arrive for its old delivery).
    from repro.dewe.state import WorkflowState

    state = WorkflowState(wf, 1.0, retry=RetryPolicy(max_attempts=4))
    for job_id in state.initial_ready():
        pass
    state.mark_dispatched("a0", 0.0)
    for child in state.on_completed("a0", 1):
        state.mark_dispatched(child, 0.0)
    state_master.states["chain"] = state
    state_master._submit_times["chain"] = time.monotonic()
    checkpoint = state_master.checkpoint()

    # Requeues go through the retry policy: under a backoff nothing is
    # published until the delay has run out (the first due timeout sweep).
    from repro.mq.messages import TOPIC_DISPATCH

    backed_off = MasterDaemon.from_checkpoint(
        Broker(), checkpoint, config=FAST, retry=RetryPolicy(base_delay=0.05)
    )
    assert backed_off.broker.depth(TOPIC_DISPATCH) == 0
    assert len(backed_off._delayed) == 1
    with backed_off, WorkerDaemon(backed_off.broker, config=FAST):
        assert backed_off.wait("chain", timeout=10.0)
    assert backed_off.settled["chain"][1].to_dict()["attempt"]["a1"] >= 2

    restored = MasterDaemon.from_checkpoint(broker, checkpoint, config=FAST)
    assert broker.depth(TOPIC_DISPATCH) == 1  # no backoff: published at once
    worker = WorkerDaemon(broker, config=FAST).start()
    try:
        restored.start()
        assert restored.wait("chain", timeout=10.0)
    finally:
        worker.stop()
        restored.stop()
    snapshot = restored.settled["chain"][1]
    assert snapshot.counts()["completed"] == len(snapshot.job_ids)
    # a1 was re-dispatched with a bumped attempt; a0 stayed completed.
    assert snapshot.resubmissions >= 1
    assert snapshot.to_dict()["attempt"]["a1"] >= 2


def test_state_snapshot_restore_round_trip():
    from repro.dewe.state import WorkflowState

    wf = _chain(3)
    state = WorkflowState(wf, 2.5, retry=RetryPolicy(max_attempts=4))
    state.initial_ready()
    state.mark_dispatched("a0", 1.0)
    state.on_running("a0", 1, 1.1)
    snapshot = state.snapshot()
    clone = WorkflowState.restore(
        wf, snapshot, default_timeout=2.5, retry=RetryPolicy(max_attempts=4)
    )
    assert clone.snapshot() == snapshot
    assert clone.status == state.status
    assert clone.attempt == state.attempt
    assert state_digest({"chain": snapshot}) == state_digest(
        {"chain": clone.snapshot()}
    )


@pytest.mark.parametrize("snapshot_jobs,workflow_jobs", [(4, 3), (3, 4)])
def test_restore_refuses_a_snapshot_of_another_dag(
    monkeypatch, snapshot_jobs, workflow_jobs
):
    """Same name, other jobs: refused with both job counts, before any
    state is built (it used to raise a bare ``KeyError``, or restore the
    jobs it knew and leave the rest WAITING)."""
    state = WorkflowState(_chain(snapshot_jobs), retry=RETRY)
    state.initial_ready()
    snapshot = state.snapshot()
    built = []
    init = WorkflowState.__init__
    monkeypatch.setattr(
        WorkflowState, "__init__",
        lambda self, *args, **kw: built.append(args) or init(self, *args, **kw),
    )
    with pytest.raises(
        ValueError,
        match=rf"{snapshot_jobs} job\(s\) in the snapshot, "
        rf"{workflow_jobs} in the workflow",
    ):
        WorkflowState.restore(_chain(workflow_jobs), snapshot)
    assert built == []


#: ``run_chaos(master-crash, seed=0)``: the report journal's final
#: checkpoint, recorded when checkpoints still hashed eagerly.
MASTER_CRASH_FINAL_CHECKPOINT = (
    160, "bd0b2fb564b542e2bbb1c64aff9efc5f4a915f2593c0578a850c644a3300c9fe",
)


def test_a_checkpoint_is_a_copy(monkeypatch):
    """A journaled master-crash run checkpoints by copying the arenas:
    9 bytes per job, no digest and no job-keyed dict during the run.  A
    digest read afterwards, once the live states have moved on, equals
    the digest of the dict form captured at checkpoint time."""
    digested = []
    digest = journal_module.state_digest
    monkeypatch.setattr(
        journal_module, "state_digest",
        lambda snapshots: digested.append(1) or digest(snapshots),
    )
    rendered = []
    to_dict = StateSnapshot.to_dict
    monkeypatch.setattr(
        StateSnapshot, "to_dict",
        lambda snapshot: rendered.append(1) or to_dict(snapshot),
    )
    taken = []
    take = Journal.take_checkpoint

    def capture(journal, time):
        checkpoint = take(journal, time)
        at_checkpoint = {
            name: to_dict(snapshot)
            for name, snapshot in checkpoint.snapshots.items()
        }
        taken.append((checkpoint, at_checkpoint))
        return checkpoint

    monkeypatch.setattr(Journal, "take_checkpoint", capture)
    scenario = SCENARIOS["master-crash"]
    report = run_chaos(scenario, seed=0)
    assert report.problems == [] and report.crashes == 1
    # run_chaos restores in a forked child: run the crash run here as
    # well, so its checkpoints and its restore are watched too.
    horizon = report.baseline_makespan * scenario.max_slowdown
    _, crash_journal = resume_until_complete(scenario, 0, horizon)
    assert crash_journal.crashes == 1
    assert taken and digested == [] and rendered == []

    copied = jobs = 0
    for checkpoint, _ in taken:
        members = checkpoint.snapshots.values()
        n_jobs = sum(len(s.job_ids) for s in members)
        n_bytes = sum(len(s.status) + len(s.attempt) + len(s.pending)
                      for s in members)
        assert n_jobs and n_bytes == 9 * n_jobs, checkpoint.seq
        copied, jobs = copied + n_bytes, jobs + n_jobs
    print(
        f"checkpoint bytes per job: {copied / jobs:.2f} "
        f"({len(taken)} checkpoints, {jobs} job snapshots)"
    )

    for checkpoint, at_checkpoint in taken:
        assert checkpoint.digest == digest(at_checkpoint), checkpoint.seq
    assert len(digested) == len(taken)


def test_master_crash_final_checkpoint_digest_is_pinned():
    checkpoint = run_chaos(SCENARIOS["master-crash"], seed=0).journal.checkpoint
    assert (checkpoint.seq, checkpoint.digest) == MASTER_CRASH_FINAL_CHECKPOINT
