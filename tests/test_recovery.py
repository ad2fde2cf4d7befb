"""Crash consistency: write-ahead journal, validated replay, and the
threaded master's checkpoint/restore.

The core guarantee under test (docs/FAULTS.md): a journaled run killed
at *any* journal offset and resumed produces an ``EngineResult``
byte-identical to the uninterrupted run.
"""

import json
import time

import pytest

import repro.analysis.sanitizer as sanitizer
from repro.cloud import ClusterSpec
from repro.dewe import DeweConfig, MasterDaemon, WorkerDaemon, submit_workflow
from repro.engines.base import RunConfig
from repro.engines.pull import PullEngine
from repro.faults.models import TransientFaultModel
from repro.faults.retry import RetryPolicy
from repro.generators import montage_workflow
from repro.mq import Broker
from repro.recovery import (
    Journal,
    JournalError,
    MasterCrash,
    MasterCrashModel,
    ReplayDivergence,
    resume_until_complete,
    state_digest,
)
from repro.workflow import Ensemble, Workflow


# -- journal unit tests ----------------------------------------------------


def test_append_assigns_sequence_and_line_format():
    journal = Journal()
    rec = journal.append(1.25, "dispatch", "wf", "job", 1, "node=0")
    assert rec.seq == 1
    assert rec.line() == "00000001 t=1.250000000 dispatch wf/job#1 node=0"
    journal.append(2.0, "ack-complete", "wf", "job", 1)
    assert journal.seq == 2
    assert len(journal) == 2
    assert journal.text().count("\n") == 1


def test_checkpoint_compacts_the_log():
    journal = Journal(checkpoint_every=3)
    journal.snapshot_provider = lambda: {"wf": {"n": journal.seq}}
    for i in range(7):
        journal.append(float(i), "dispatch", "wf", f"j{i}", 1)
    # Checkpoints at seq 3 and 6; only the tail survives in `records`.
    assert [seq for seq, _t in journal.checkpoint_history] == [3, 6]
    assert journal.checkpoint is not None and journal.checkpoint.seq == 6
    assert journal.n_records == 1
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
    with pytest.raises(MasterCrash):
        journal.append(0.2, "dispatch", "wf", "b", 1)
    # The crashing append is NOT recorded (write-ahead died first) and
    # a dead master writes nothing afterwards.
    assert journal.seq == 2
    assert journal.crashed and fired == [True]
    with pytest.raises(MasterCrash):
        journal.append(0.3, "ack-running", "wf", "a", 1)


def test_resume_requires_a_crash():
    with pytest.raises(JournalError, match="did not crash"):
        Journal().resume()


def test_validated_replay_accepts_identical_records():
    journal = Journal(crash_after=2)
    journal.append(0.0, "submit", "wf")
    journal.append(0.1, "dispatch", "wf", "a", 1)
    with pytest.raises(MasterCrash):
        journal.append(0.2, "dispatch", "wf", "b", 1)
    journal.resume()
    assert journal.resumes == 1 and journal.crash_after is None
    # Replay the identical prefix, then go live.
    journal.append(0.0, "submit", "wf")
    assert journal.replaying
    journal.append(0.1, "dispatch", "wf", "a", 1)
    assert not journal.replaying
    journal.append(0.2, "dispatch", "wf", "b", 1)
    assert journal.seq == 3


def test_validated_replay_rejects_divergence():
    journal = Journal(crash_after=1)
    journal.append(0.0, "submit", "wf")
    with pytest.raises(MasterCrash):
        journal.append(0.1, "dispatch", "wf", "a", 1)
    journal.resume()
    with sanitizer.enabled(strict=False) as san:
        with pytest.raises(ReplayDivergence, match="seq 1"):
            journal.append(0.5, "submit", "wf")  # wrong time
        assert any(v.check == "journal-replay" for v in san.violations)


def test_replay_validates_checkpoint_digest():
    journal = Journal(checkpoint_every=2, crash_after=3)
    journal.snapshot_provider = lambda: {"wf": "state-a"}
    journal.append(0.0, "submit", "wf")
    journal.append(0.1, "dispatch", "wf", "a", 1)  # checkpoint at seq 2
    journal.append(0.2, "ack-running", "wf", "a", 1)
    with pytest.raises(MasterCrash):
        journal.append(0.3, "ack-complete", "wf", "a", 1)
    journal.resume()
    # Resumed master state differs at the checkpoint offset: caught.
    journal.snapshot_provider = lambda: {"wf": "state-B"}
    journal.append(0.0, "submit", "wf")
    with sanitizer.enabled(strict=False) as san:
        with pytest.raises(ReplayDivergence, match="digest"):
            journal.append(0.1, "dispatch", "wf", "a", 1)
        assert any(v.check == "checkpoint-digest" for v in san.violations)


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


# -- engine crash/resume ---------------------------------------------------


SPEC = ClusterSpec("m3.2xlarge", 2)
CONFIG = RunConfig(default_timeout=10.0, timeout_check_interval=0.5,
                   record_jobs=False)


def _ensemble():
    return Ensemble.replicated(montage_workflow(degree=0.3), 1)


def _engine(journal=None, p_fail=0.0):
    transient = (
        TransientFaultModel(p_fail=p_fail, seed=7) if p_fail > 0 else None
    )
    return PullEngine(
        SPEC,
        config=CONFIG,
        retry=RetryPolicy(max_attempts=4),
        transient=transient,
        journal=journal,
    )


def _fingerprint(result):
    return (
        result.makespan,
        result.workflow_spans,
        result.jobs_executed,
        result.resubmissions,
        result.job_counts,
        list(result.dead_letters),
        result.journal.text() if result.journal else "",
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


def test_crash_and_resume_is_byte_identical():
    baseline = _engine(Journal(checkpoint_every=25)).run(_ensemble())
    journal = Journal(checkpoint_every=25, crash_after=40)
    resumed = resume_until_complete(
        lambda j: _engine(j), _ensemble, journal
    )
    assert journal.resumes == 1
    assert _fingerprint(resumed) == _fingerprint(baseline)


def test_crash_during_replay_free_run_raises_master_crash():
    journal = Journal(crash_after=10)
    with pytest.raises(MasterCrash):
        _engine(journal).run(_ensemble())
    assert journal.crashed and journal.seq == 10


def test_resume_budget_exhaustion_raises():
    # A journal whose crash budget re-arms every attempt can never finish.
    class Hostile(Journal):
        def resume(self):
            super().resume()
            self.crash_after = 5
            return self

    with pytest.raises(JournalError, match="did not complete"):
        resume_until_complete(
            lambda j: _engine(j), _ensemble, Hostile(crash_after=5),
            max_resumes=2,
        )


def test_crash_matrix_every_offset_resumes_identically():
    """Satellite (c): kill the master at a sweep of journal offsets —
    before the first checkpoint, on compaction boundaries, deep in the
    run — and require byte-identical recovery every time.  The sweep is
    derived from the uninterrupted journal so it covers the whole run
    regardless of workload size."""
    baseline = _engine(Journal(checkpoint_every=25), p_fail=0.2).run(
        _ensemble()
    )
    assert baseline.resubmissions > 0  # retries are genuinely in the log
    total = baseline.journal.seq
    expected = _fingerprint(baseline)
    expected_trace = [e.line() for e in baseline.fault_events]
    step = max(1, total // 6)
    offsets = list(range(1, total, step)) + [25, total - 1]
    for offset in sorted(set(offsets)):
        journal = Journal(checkpoint_every=25, crash_after=offset)
        resumed = resume_until_complete(
            lambda j: _engine(j, p_fail=0.2), _ensemble, journal
        )
        assert journal.resumes == 1, f"offset {offset}"
        assert _fingerprint(resumed) == expected, f"offset {offset}"
        assert [
            e.line() for e in resumed.fault_events
        ] == expected_trace, f"offset {offset}"


def test_double_crash_same_run_resumes_identically():
    baseline = _engine(Journal(checkpoint_every=20)).run(_ensemble())

    class TwoCrashes(Journal):
        def resume(self):
            super().resume()
            if self.resumes == 1:  # crash again, deeper into the run
                self.crash_after = 50
            return self

    journal = TwoCrashes(checkpoint_every=20, crash_after=30)
    resumed = resume_until_complete(lambda j: _engine(j), _ensemble, journal)
    assert journal.resumes == 2
    assert _fingerprint(resumed)[:-1] == _fingerprint(baseline)[:-1]
    assert journal.text() == baseline.journal.text()


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
        completed = checkpoint.completed_jobs().get("chain", [])
        assert "a0" in completed and "a1" in completed
        gate.set()
        master = model.restart(broker)
        assert master.wait("chain", timeout=10.0)
    finally:
        model.detach()
        worker.stop()
        master.stop()
    state = master.states["chain"]
    assert state.is_complete
    # Restore kept the pre-crash completions (no from-scratch re-run).
    assert state.n_completed == 4


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
    assert backed_off.states["chain"].attempt["a1"] >= 2

    restored = MasterDaemon.from_checkpoint(broker, checkpoint, config=FAST)
    assert broker.depth(TOPIC_DISPATCH) == 1  # no backoff: published at once
    worker = WorkerDaemon(broker, config=FAST).start()
    try:
        restored.start()
        assert restored.wait("chain", timeout=10.0)
    finally:
        worker.stop()
        restored.stop()
    new_state = restored.states["chain"]
    assert new_state.is_complete
    # a1 was re-dispatched with a bumped attempt; a0 stayed completed.
    assert new_state.resubmissions >= 1
    assert new_state.attempt["a1"] >= 2


def test_restarted_master_keeps_publishing_banded_priorities():
    """A master restarted from a checkpoint carries the repriority
    policy of the master that took it (the bug: the restart reverted to
    FIFO — every post-restart dispatch went out at priority 0.0)."""
    from repro.mq.messages import TOPIC_DISPATCH
    from repro.mq.priority import RepriorityPolicy, base_band, rank_for_sla

    class RecordingBroker(Broker):
        def __init__(self):
            super().__init__()
            self.priorities = []

        def publish(self, topic, message, **kw):
            if topic == TOPIC_DISPATCH:
                self.priorities.append(kw.get("priority", 0.0))
            return super().publish(topic, message, **kw)

    broker = RecordingBroker()
    model = MasterCrashModel(checkpoint_interval=0.01)
    master = MasterDaemon(broker, FAST, repriority=RepriorityPolicy()).start()
    model.attach(master)
    worker = None
    try:
        # No worker yet: a0 is dispatched and stays in flight.
        submit_workflow(broker, _chain(3), tenant="t", sla="gold")
        deadline = time.monotonic() + 5.0
        while (
            "chain" not in model.last_checkpoint.states
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert "chain" in model.last_checkpoint.states
        model.crash()
        before = len(broker.priorities)
        master = model.restart(broker, config=FAST)
        worker = WorkerDaemon(broker, config=FAST).start()
        assert master.wait("chain", timeout=10.0)
    finally:
        model.detach()
        if worker is not None:
            worker.stop()
        master.stop()
    after_restart = broker.priorities[before:]
    gold = base_band(rank_for_sla("gold"))
    assert gold > 0.0
    assert len(after_restart) >= 3  # a0 requeued, then a1 and a2
    assert all(priority >= gold for priority in after_restart)
    assert master.states["chain"].track_queue_age


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
