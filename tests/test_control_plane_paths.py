"""The plain control-plane path and the guarded one are the same simulation.

A run without a journal, a lease table or a partition takes the short
way through the broker, the pull engine and the master core: no journal
port, acks applied and published from the loops' own frames, ``Call``
built in one frame.  Each guard that was folded has its long way still
in the tree; these tests hold the two together.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engines.pull as pull
from repro.cloud import ClusterSpec
from repro.dewe.core import COMPLETED, RUNNING
from repro.engines import PullEngine, RunConfig
from repro.faults.models import (
    FaultAction,
    FaultSchedule,
    FileCorruptionModel,
    FileLossModel,
)
from repro.faults.retry import RetryPolicy
from repro.generators import montage_workflow
from repro.parallel import digest_result
from repro.recovery.journal import Journal
from repro.sim import Simulator, Timeout
from repro.sim.engine import Call
from repro.workflow import Ensemble
from tests.test_golden_runs import journal_text

#: 3 x 0.5-degree Montage on 2 x m3.2xlarge (MooseFS), journaled with no
#: crash and no checkpoint, as the parent of PR 21 wrote it.
JOURNAL_RECORDS = 428
JOURNAL_SHA256 = "5aa45f25d7e44276aa08a63a40748755df2e8ad479669cc260115874de7cb878"


def _small_run(journal):
    engine = PullEngine(
        ClusterSpec("m3.2xlarge", 2, filesystem="moosefs"),
        RunConfig(default_timeout=600.0, record_jobs=False),
        journal=journal,
    )
    result = engine.run(Ensemble.replicated(montage_workflow(degree=0.5), 3))
    return result, digest_result(result).fingerprint, result.cluster.sim._seq


def test_a_journal_changes_the_log_and_nothing_else():
    plain, plain_print, plain_seq = _small_run(None)
    journal = Journal()
    logged, logged_print, logged_seq = _small_run(journal)
    assert plain.jobs_executed == logged.jobs_executed == 141
    assert plain_print == logged_print
    assert plain.makespan == logged.makespan
    # Both runs wait on the same ``done`` event: a journal adds no
    # agenda entry.
    assert logged_seq == plain_seq
    assert (journal.seq, len(journal.records)) == (JOURNAL_RECORDS, JOURNAL_RECORDS)
    assert hashlib.sha256(journal_text(journal).encode()).hexdigest() == JOURNAL_SHA256


def _spied_run(monkeypatch, engine, ensemble):
    """Run ``engine`` with every ack that goes through ``send_ack`` and
    every broker publish recorded as ``(now, ...)``."""
    sent, published, runs = [], [], []
    execute = pull.PullRun.execute

    def spy(run):
        runs.append(run)
        send_ack, publish = run.send_ack, run.broker.publish

        def recording_send_ack(node_index, payload):
            sent.append((run.sim.now, node_index, payload))
            send_ack(node_index, payload)

        def recording_publish(topic, payload, **kw):
            published.append((run.sim.now, topic, payload))
            return publish(topic, payload, **kw)

        run.send_ack = recording_send_ack
        run.broker.publish = recording_publish
        return execute(run)

    monkeypatch.setattr(pull.PullRun, "execute", spy)
    result = engine.run(ensemble)
    return result, runs[0], sent, published


def test_uplink_partition_without_leases_holds_acks_until_heal(monkeypatch):
    """No lease table, so a connected slot publishes its own acks — but
    the partition state is read per ack: one that begins mid-run (and
    mid-job) sends the node's acks back through ``send_ack``, which
    holds them in ``pending_up`` and flushes them in send order at heal.
    A slot that captured ``partition_mode[node_index]`` at start-up
    publishes straight through the window and fails here."""
    start, end = 1.0, 4.0
    engine = PullEngine(
        ClusterSpec("m3.2xlarge", 2, filesystem="moosefs"),
        RunConfig(default_timeout=600.0, record_jobs=True),
        controllers=[
            FaultSchedule(
                [FaultAction(start, 1, "partition-start", "to-master", end - start)]
            )
        ],
    )
    ensemble = Ensemble([montage_workflow(degree=0.8)])
    result, run, sent, published = _spied_run(monkeypatch, engine, ensemble)

    assert result.liveness_stats["partitions"] == 1
    assert result.resubmissions == 0 and result.jobs_executed == ensemble.total_jobs
    assert run.pending_up == [[], []]
    node_of = {(r.workflow, r.job_id): r.node for r in result.records}
    acks = [(t, p) for t, topic, p in published if topic == pull._ACK]

    # Connected: nothing goes through send_ack.  Partitioned: everything
    # node 1 says does, and only that.
    assert sent and all(start <= t < end and node == 1 for t, node, _p in sent)
    held = [payload for _t, _node, payload in sent]
    assert {p[0] for p in held} == {RUNNING, COMPLETED}
    in_window = [p for t, p in acks if start <= t < end]
    assert in_window and all(node_of[p[1], p[2]] == 0 for p in in_window)
    assert len(acks) == 2 * ensemble.total_jobs
    # The flush: at the heal instant, node 1's held acks in send order.
    flushed = [p for t, p in acks if t == end and node_of[p[1], p[2]] == 1]
    assert flushed == held
    # The window opened inside a job: its RUNNING ack went out directly,
    # its COMPLETED ack was held.
    direct_running = {
        (p[1], p[2]) for t, p in acks if t < start and p[0] == RUNNING
    }
    assert any(
        p[0] == COMPLETED and (p[1], p[2]) in direct_running for p in held
    )


def _drive_to_horizon(engine, ensemble, horizon):
    """``PullRun.execute`` without its open-ended wait: controllers
    installed, master and workers started, the agenda run to ``horizon``
    simulated seconds."""
    run = pull.PullRun(engine, ensemble)
    for controller in engine.controllers:
        controller.install(run)
    run.core = run._new_core()
    run.start_master()
    for node_index in range(run.n_nodes):
        run.start_worker(node_index)
    run.sim.run(until=horizon)
    return run


class _Boom(Exception):
    pass


def _third_call_raises(fn):
    calls = []

    def raising(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise _Boom("third call")
        return fn(*args, **kwargs)

    return raising


@pytest.mark.parametrize(
    "owner, name",
    [(pull.MasterCore, "on_ack"), (pull, "execute_job")],
    ids=["master-loop", "worker-slot"],
)
def test_a_process_that_dies_fails_the_run(monkeypatch, owner, name):
    """The kernel drops an exception raised in a process nobody waits
    on, and the timeout sweep keeps ``run_until(done)`` busy for ever:
    the run's own exit callback raises it out of ``engine.run``.  A
    deadline on the agenda turns a regression into a failure, not a
    hang."""
    monkeypatch.setattr(owner, name, _third_call_raises(getattr(owner, name)))
    execute = pull.PullRun.execute

    def hung():
        raise AssertionError("the run outlived the process that died")

    def bounded(run):
        run.sim.schedule_call(120.0, hung)
        return execute(run)

    monkeypatch.setattr(pull.PullRun, "execute", bounded)
    engine = PullEngine(
        ClusterSpec("m3.2xlarge", 2),
        RunConfig(default_timeout=10.0, timeout_check_interval=0.5),
    )
    with pytest.raises(_Boom, match="third call"):
        engine.run(Ensemble([montage_workflow(degree=0.3)]))


@pytest.mark.parametrize(
    "integrity_models, executed",
    [
        ((), 20),
        # One corrupt intermediate: its producer re-runs once.
        ((FileCorruptionModel(targets=("*/p_000000.fits",)),), 21),
        # One lost raw input: restaged, nothing re-runs.
        ((FileLossModel(targets=("*/raw_000003.fits",)),), 20),
    ],
    ids=["clean", "corrupt", "lost"],
)
def test_lease_free_acks_reach_the_core_from_the_consumer_loop(
    integrity_models, executed
):
    """No lease table: ``_consume_loop`` applies RUNNING, COMPLETED and
    CORRUPT acks (the last with its file list) itself, and the run
    settles well inside the horizon."""
    engine = PullEngine(
        ClusterSpec("m3.2xlarge", 2),
        RunConfig(default_timeout=10.0, timeout_check_interval=0.5,
                  record_jobs=False),
        retry=RetryPolicy(max_attempts=4),
        controllers=integrity_models,
    )
    ensemble = Ensemble.replicated(montage_workflow(degree=0.3), 1)
    run = _drive_to_horizon(engine, ensemble, horizon=120.0)
    assert run.done.triggered and run.lease is None
    assert run.jobs_executed == executed
    assert not run.core.dead_letters and not run.core.states


class _ChainedCall(Timeout):
    """``Call`` as it was built before PR 21, through ``Timeout.__init__``
    — kept here as the reference the one-frame ``Call.__init__`` must
    agree with."""

    __slots__ = ("func", "args")

    def __init__(self, sim, delay, func, args):
        Timeout.__init__(self, sim, delay)
        self.func = func
        self.args = args
        self.callbacks.append(self)

    __call__ = Call.__call__


_DELAYS = st.one_of(
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan, -1.0, -1e-300]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(st.lists(_DELAYS, min_size=1, max_size=8), st.floats(0.0, 1e6))
@settings(max_examples=200, deadline=None)
def test_call_lands_the_agenda_entry_the_timeout_chain_landed(delays, now):
    sims, fired = [], []
    for build in (Call, _ChainedCall):
        sim = Simulator()
        sim.now = now
        log = []
        for i, delay in enumerate(delays):
            try:
                call = build(sim, delay, log.append, (i,))
            except ValueError as exc:
                log.append(("refused", i, str(exc)))
                continue
            assert call.callbacks == [call]
            assert call._state and call._value is None
        sims.append(sim)
        fired.append(log)
    direct, chained = sims
    assert direct._seq == chained._seq

    def entries(sim):
        # (time, seq) of every entry; the event itself is the other class.
        return [e[:2] for e in sorted(sim._heap)], [e[0] for e in sim._imm]

    assert entries(direct) == entries(chained)
    for sim in sims:
        sim.run()
    assert fired[0] == fired[1]
    assert direct.now == chained.now


def test_call_refuses_what_timeout_refuses():
    sim = Simulator()
    for bad in (-1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and >= 0"):
            Call(sim, bad, print, ())
        with pytest.raises(ValueError, match="finite and >= 0"):
            Timeout(sim, bad)
    assert sim._seq == 0 and not sim._heap and not sim._imm
