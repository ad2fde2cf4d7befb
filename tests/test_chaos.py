"""Integration tests for the chaos engine: fault models, message chaos,
retry/dead-letter recovery in both execution paths, and the harness."""

import dataclasses
import hashlib
import os
import signal
import time

import pytest

import repro.analysis.sanitizer as sanitizer
import repro.faults.chaos as chaos_mod
from repro.cloud import ClusterSpec
from repro.dewe import DeweConfig, MasterDaemon, WorkerDaemon, submit_workflow
from repro.engines import PullEngine, RunConfig
from repro.faults import RetryPolicy
from repro.faults.chaos import SCENARIOS, get_scenario, run_chaos
from repro.faults.models import (
    FaultAction,
    FaultSchedule,
    FileLossModel,
    SpotHazard,
    TransientFaultModel,
)
from repro.liveness import AdmissionControl, MasterFailoverModel
from repro.generators import montage_workflow
from repro.mq import Broker, ChaosBroker, MessageChaos, TOPIC_ACK
from repro.mq.messages import AckKind, JobAck
from repro.workflow import Ensemble, Workflow


def small_spec(n_nodes: int = 1) -> ClusterSpec:
    fs = "local" if n_nodes == 1 else "moosefs"
    return ClusterSpec("c3.8xlarge", n_nodes, filesystem=fs)


def fast_cfg(timeout: float = 6.0) -> RunConfig:
    return RunConfig(
        default_timeout=timeout, timeout_check_interval=0.25, record_jobs=False
    )


# -- fault model construction ------------------------------------------------
def test_spot_model_sampling_is_seed_deterministic():
    hazard = SpotHazard(rate_per_hour=30.0)
    a = hazard.sample(7, 8, 3600.0)
    b = hazard.sample(7, 8, 3600.0)
    c = hazard.sample(8, 8, 3600.0)
    assert a.actions == b.actions
    assert a.actions != c.actions


def test_spot_model_respects_protection():
    model = SpotHazard(rate_per_hour=10_000.0, protected=(0, 1)).sample(
        1, 4, 3600.0
    )
    assert {action.node for action in model.actions} <= {2, 3}


def test_transient_model_poison_and_retry_independence():
    model = TransientFaultModel(p_fail=0.5, seed=3, poison=("bad",))
    assert model.should_fail("wf", "bad", 1)
    assert model.should_fail("wf", "bad", 99)
    # Fresh draw per attempt: a transiently failing job eventually passes.
    outcomes = {model.should_fail("wf", "jobX", k) for k in range(1, 20)}
    assert outcomes == {True, False}
    # Pure function of the arguments.
    assert model.should_fail("wf", "jobX", 1) == model.should_fail("wf", "jobX", 1)


def test_straggler_model_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        FaultSchedule(
            [
                FaultAction(0.0, 0, "degrade-start", 0.5, 10.0),
                FaultAction(5.0, 0, "degrade-start", 0.5, 10.0),
            ]
        )


def test_message_chaos_validation():
    with pytest.raises(ValueError):
        MessageChaos(p_drop=1.5)
    with pytest.raises(ValueError):
        MessageChaos(p_drop=0.6, p_duplicate=0.6)
    with pytest.raises(ValueError):
        MessageChaos(delay=-1.0)


# -- poison jobs: no livelock (simulated engine) -----------------------------
def test_sim_poison_job_dead_letters_and_run_settles():
    template = montage_workflow(degree=0.3)
    engine = PullEngine(
        small_spec(),
        config=fast_cfg(),
        retry=RetryPolicy(max_attempts=2),
        controllers=[TransientFaultModel(poison=("mBgModel",))],
    )
    result = engine.run(Ensemble([template]))
    counts = next(iter(result.job_counts.values()))
    assert counts["queued"] == counts["running"] == counts["waiting"] == 0
    assert counts["dead"] >= 2  # the poison job and its descendants
    assert counts["completed"] + counts["dead"] == len(template)
    direct = [e for e in result.dead_letters if e.reason != "upstream-dead"]
    assert [(e.job_id, e.attempts) for e in direct] == [("mBgModel", 2)]
    assert {e.kind for e in result.fault_events} >= {
        "transient-failure",
        "dead-letter",
    }


# -- poison jobs: no livelock (threaded master) ------------------------------
def test_threaded_poison_job_dead_letters_and_rest_completes():
    broker = Broker()
    config = DeweConfig(default_timeout=5.0)
    retry = RetryPolicy(max_attempts=2, base_delay=0.01)

    wf = Workflow("poison-wf")
    wf.new_job("good", "compute")
    wf.new_job("bad", "compute", action=lambda: 1 / 0)
    wf.new_job("never", "collect")
    wf.add_dependency("bad", "never")

    with MasterDaemon(broker, config, retry=retry) as master:
        with WorkerDaemon(broker, config=config, name="w1"):
            submit_workflow(broker, wf)
            assert master.wait("poison-wf", timeout=10.0)  # settles, no livelock
        state = master.states["poison-wf"]
        assert state.is_settled and not state.is_complete
        assert state.status["good"].value == "completed"
        reasons = {e.job_id: e.reason for e in master.dead_letters}
        assert reasons == {"bad": "failed", "never": "upstream-dead"}
        assert state.attempt["bad"] == 2  # budget spent before dead-letter


def test_threaded_duplicated_acks_complete_exactly_once():
    chaos = MessageChaos(p_duplicate=1.0, seed=5)
    broker = ChaosBroker(Broker(), chaos)
    config = DeweConfig(default_timeout=5.0)

    wf = Workflow("dup-wf")
    wf.new_job("a", "compute")
    wf.new_job("b", "compute")
    wf.add_dependency("a", "b")

    with MasterDaemon(broker, config) as master:
        with WorkerDaemon(broker, config=config, name="w1"):
            submit_workflow(broker, wf)
            assert master.wait("dup-wf", timeout=10.0)
        state = master.states["dup-wf"]
        assert state.is_complete
        assert state.n_completed == 2  # not double-counted
        assert state.duplicate_acks > 0  # duplicates arrived and were dropped
        assert broker.chaos_stats()["duplicated"] > 0


def test_threaded_unknown_workflow_acks_are_counted():
    broker = Broker()
    with MasterDaemon(broker) as master:
        broker.publish(
            TOPIC_ACK,
            JobAck(workflow_name="ghost", job_id="x", kind=AckKind.COMPLETED),
        )
        deadline = time.monotonic() + 5.0
        while master.dropped_acks == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert master.dropped_acks == 1
        assert "ghost" not in master.states


# -- message chaos in the simulator ------------------------------------------
def test_sim_duplicated_messages_never_double_complete():
    template = montage_workflow(degree=0.3)
    engine = PullEngine(
        small_spec(),
        config=fast_cfg(),
        controllers=[MessageChaos(p_duplicate=0.5, seed=11)],
    )
    result = engine.run(Ensemble([template]))
    counts = next(iter(result.job_counts.values()))
    assert counts["completed"] == len(template)
    assert counts["dead"] == 0
    assert result.mq_chaos_stats["duplicated"] > 0


@pytest.mark.parametrize(
    "model",
    [TransientFaultModel(p_fail=0.1), MessageChaos(p_duplicate=0.1)],
    ids=["transient", "messages"],
)
def test_a_run_takes_one_transient_model_and_one_message_band(model):
    engine = PullEngine(small_spec(), config=fast_cfg(), controllers=[model, model])
    with pytest.raises(ValueError, match="a run takes one"):
        engine.run(Ensemble([montage_workflow(degree=0.3)]))


def test_sim_dropped_messages_recovered_by_dispatch_deadline():
    template = montage_workflow(degree=0.3)
    engine = PullEngine(
        small_spec(),
        config=fast_cfg(timeout=3.0),
        retry=RetryPolicy(redispatch_lost=True, max_attempts=10),
        controllers=[MessageChaos(p_drop=0.15, seed=2)],
    )
    result = engine.run(Ensemble([template]))
    counts = next(iter(result.job_counts.values()))
    assert counts["completed"] == len(template)
    assert result.mq_chaos_stats["dropped"] > 0
    assert result.resubmissions > 0  # the recovery path actually fired


# -- spot terminations and billing -------------------------------------------
def test_spot_termination_interrupts_lease_and_bills_spot_rule():
    template = montage_workflow(degree=0.5)
    baseline = PullEngine(small_spec(2), config=fast_cfg()).run(
        Ensemble([template])
    )
    t_kill = baseline.makespan * 0.5
    engine = PullEngine(
        small_spec(2),
        config=fast_cfg(),
        controllers=(
            FaultSchedule([
                FaultAction(t_kill - 0.5, 1, "spot-notice"),
                FaultAction(t_kill, 1, "spot-termination"),
            ]),
        ),
    )
    result = engine.run(Ensemble([template]))
    counts = next(iter(result.job_counts.values()))
    assert counts["completed"] == len(template)  # node 0 finishes the work
    assert {e.kind for e in result.fault_events} == {
        "spot-notice",
        "spot-termination",
    }
    # Node 1's lease ends at the kill and is billed with the
    # partial-hour-free spot rule: a sub-hour lease costs nothing.
    assert 1 in result.interrupted_spans
    (start, end), = result.interrupted_spans[1]
    # The lease closes between the notice (idle slots drain immediately)
    # and the termination itself.
    assert t_kill - 0.5 - 1e-6 <= end <= t_kill + 1e-6
    assert result.elastic_cost() < result.cost()


def test_spot_replacement_restores_capacity():
    template = montage_workflow(degree=0.5)
    engine = PullEngine(
        small_spec(2),
        config=fast_cfg(),
        controllers=(
            FaultSchedule([FaultAction(1.0, 1, "spot-termination", duration=0.5)]),
        ),
    )
    result = engine.run(Ensemble([template]))
    assert len(result.rental_spans[1]) == 2  # original lease + replacement
    kinds = [e.kind for e in result.fault_events]
    assert kinds.count("spot-termination") == 1
    assert kinds.count("spot-replacement") == 1


# -- stragglers ---------------------------------------------------------------
def test_degraded_node_slows_the_run_but_completes():
    template = montage_workflow(degree=0.5)
    baseline = PullEngine(small_spec(), config=fast_cfg()).run(
        Ensemble([template])
    )
    degraded = PullEngine(
        small_spec(),
        config=fast_cfg(timeout=60.0),
        controllers=(
            FaultSchedule([FaultAction(0.0, 0, "degrade-start", 1e-4, 10_000.0)]),
        ),
    ).run(Ensemble([template]))
    # Jobs are CPU-bound and the write-back cache absorbs their output:
    # only a near-dead disk stretches the run.
    assert degraded.makespan > baseline.makespan * 1.5
    counts = next(iter(degraded.job_counts.values()))
    assert counts["completed"] == len(template)
    kinds = [e.kind for e in degraded.fault_events]
    assert kinds.count("degrade-start") == 1


# -- the harness --------------------------------------------------------------
def test_builtin_scenarios_hold_invariants_and_are_deterministic():
    for name in sorted(SCENARIOS):
        first = run_chaos(SCENARIOS[name])
        second = run_chaos(SCENARIOS[name])
        assert first.ok, f"{name}: {first.problems}"
        assert first.trace_text == second.trace_text, name
        assert first.makespan == second.makespan, name


def test_scenario_seed_override_changes_the_trace():
    scenario = get_scenario("smoke")
    base = run_chaos(scenario)
    other = run_chaos(scenario, seed=1234)
    assert base.seed == 0 and other.seed == 1234
    assert base.trace_text != other.trace_text


def test_get_scenario_unknown_name():
    with pytest.raises(KeyError, match="built-ins"):
        get_scenario("no-such-scenario")


@pytest.mark.parametrize(
    "changes,match",
    [
        ({"crash_after": -1}, "crash_after must be >= 0"),
        ({"checkpoint_every": -1}, "checkpoint_every must be >= 0"),
        (
            {"crash_after": 10, "faults": (MasterFailoverModel(5.0),)},
            "mutually exclusive",
        ),
        ({"faults": (MessageChaos(p_drop=0.1),)}, "redispatch_lost"),
        ({"faults": (TransientFaultModel(p_fail=0.1, seed=3),)}, "seed=3"),
        ({"faults": (MessageChaos(p_duplicate=0.1, seed=2),)}, "seed=2"),
        ({"faults": (FileLossModel(p=0.1, seed=9),)}, "seed=9"),
        ({"service_horizon": 5.0}, "tenants"),
        (
            {
                "admission": AdmissionControl(),
                "service_horizon": 5.0,
                "tenants": get_scenario("overload").tenants,
            },
            "front door",
        ),
    ],
    ids=[
        "negative-crash", "negative-checkpoint", "crash-with-failover",
        "drop-without-redispatch",
        "transient-seed", "messages-seed", "file-fault-seed",
        "horizon-without-tenants", "gate-in-service-mode",
    ],
)
def test_scenario_refuses_a_contradictory_or_ignored_field(changes, match):
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(get_scenario("smoke"), **changes)


@pytest.mark.parametrize(
    "name", sorted(name for name, s in SCENARIOS.items() if not s.fails_over)
)
def test_a_master_crash_composes_with_every_scenario_without_a_failover(name):
    """The crash run is judged like any chaos run, so a crash can be
    dropped into every scenario whose master is not already failed
    over: spot kills, poison jobs, lossy brokers, data loss, partitions
    under leases and the open-loop service ladder all still settle."""
    report = run_chaos(dataclasses.replace(SCENARIOS[name], crash_after=30), seed=0)
    assert report.ok, report.summary()
    assert report.crashes == 1


# -- the crash run's forked child -----------------------------------------------
class CrashRunBroke(Exception):
    pass


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_crash_run_that_raises_fails_run_chaos_with_its_traceback(monkeypatch):
    def broken(*_args):
        raise CrashRunBroke("restore went wrong")

    monkeypatch.setattr(chaos_mod, "resume_until_complete", broken)
    with pytest.raises(RuntimeError) as info:
        run_chaos(SCENARIOS["master-crash"], seed=0)
    message = str(info.value)
    assert f"{__name__}.CrashRunBroke" in message
    assert "Traceback (most recent call last)" in message
    assert "in broken" in message and "restore went wrong" in message
    _assert_no_child_left()


def test_a_parent_run_that_raises_kills_and_reaps_the_child(monkeypatch):
    parent = os.getpid()
    real_check = chaos_mod._check_invariants
    reaped = []
    real_waitpid = os.waitpid

    def stalled(*_args):
        time.sleep(30)  # only a kill ends the child before the parent

    def check(*args):
        if os.getpid() == parent:
            raise CrashRunBroke("the uninterrupted run broke")
        return real_check(*args)

    def waitpid(pid, options):
        reaped.append(real_waitpid(pid, options))
        return reaped[-1]

    monkeypatch.setattr(chaos_mod, "resume_until_complete", stalled)
    monkeypatch.setattr(chaos_mod, "_check_invariants", check)
    monkeypatch.setattr(os, "waitpid", waitpid)
    with pytest.raises(CrashRunBroke):
        run_chaos(SCENARIOS["master-crash"], seed=0)
    monkeypatch.undo()
    [(pid, status)] = reaped
    assert pid > 0 and os.WIFSIGNALED(status)
    assert os.WTERMSIG(status) == signal.SIGKILL
    _assert_no_child_left()


def test_a_sanitizer_violation_in_the_crash_run_reaches_the_parent(monkeypatch):
    real_resume = chaos_mod.resume_until_complete

    def violating(*args):
        outcome = real_resume(*args)
        # An event popped before ``now``: a kernel invariant the
        # sanitizer records, raised here in the child.
        sanitizer.active().check_step(now=2.0, event_time=1.0)
        return outcome

    monkeypatch.setattr(chaos_mod, "resume_until_complete", violating)
    with sanitizer.enabled(strict=False) as san:
        report = run_chaos(SCENARIOS["master-crash"], seed=0)
    assert report.ok and report.crashes == 1
    assert [(v.check, v.time) for v in san.violations] == [("clock-monotonicity", 2.0)]
    with sanitizer.enabled(strict=True) as san:
        with pytest.raises(sanitizer.InvariantViolation, match="clock-monotonicity"):
            run_chaos(SCENARIOS["master-crash"], seed=0)
    assert len(san.violations) == 1
    _assert_no_child_left()


def test_a_crash_past_the_journal_end_reports_the_crash_journal_length():
    scenario = dataclasses.replace(SCENARIOS["master-crash"], crash_after=100_000)
    report = run_chaos(scenario, seed=0)
    horizon = report.baseline_makespan * scenario.max_slowdown
    _, journal = chaos_mod.resume_until_complete(scenario, 0, horizon)
    assert journal.crashes == 0 and len(journal) == 161
    assert report.crashes == 0
    assert report.problems == [
        "crash_after=100000 never fired (journal only has 161 record(s))"
    ]
    _assert_no_child_left()


@pytest.mark.parametrize(
    "argv",
    [
        ["--scenario", "smoke", "--crash-at", "-1"],
        ["--scenario", "game-day", "--crash-at", "50"],
    ],
    ids=["negative", "with-failover"],
)
def test_chaos_cli_refuses_a_bad_crash_offset_before_simulating(
    monkeypatch, capsys, argv
):
    import repro.faults.chaos as chaos_mod
    from repro.cli import main_chaos

    def no_simulation(*_args, **_kwargs):
        raise AssertionError("a refused scenario must not run")

    monkeypatch.setattr(chaos_mod, "run_chaos", no_simulation)
    with pytest.raises(SystemExit) as exit_info:
        main_chaos(argv)
    assert exit_info.value.code == 2
    assert "crash_after" in capsys.readouterr().err


def test_chaos_cli_smoke_and_list():
    from repro.cli import main_chaos

    assert main_chaos(["--list"]) == 0
    assert main_chaos(["--scenario", "smoke"]) == 0


def test_chaos_cli_exits_nonzero_on_invariant_failure(monkeypatch, capsys):
    """Regression: a violated recovery invariant must fail the process
    (exit 1), not just print — CI depends on it."""
    import repro.faults.chaos as chaos_mod
    from repro.cli import main_chaos

    # A scenario that *expects* a dead letter that never happens: the
    # dead-letter accounting invariant fails deterministically.
    broken = dataclasses.replace(
        get_scenario("smoke"), name="smoke", expect_dead=("mBgModel",)
    )
    monkeypatch.setitem(chaos_mod.SCENARIOS, "smoke", broken)
    assert main_chaos(["--scenario", "smoke"]) == 1
    assert "INVARIANT VIOLATED" in capsys.readouterr().out


def test_chaos_cli_exits_nonzero_on_determinism_divergence(monkeypatch, capsys):
    import repro.faults.chaos as chaos_mod
    from repro.cli import main_chaos

    real_run = chaos_mod.run_chaos
    calls = []

    def flaky_run(scenario, seed=None):
        report = real_run(scenario, seed=seed)
        calls.append(report)
        if len(calls) % 2 == 0:  # second run of each pair "diverges"
            report.trace_text += "\nghost-event"
        return report

    monkeypatch.setattr(chaos_mod, "run_chaos", flaky_run)
    assert main_chaos(["--scenario", "smoke", "--check-determinism"]) == 1
    assert "diverged" in capsys.readouterr().out


def test_chaos_cli_crash_at_and_journal_export(tmp_path, capsys):
    from repro.cli import main_chaos

    path = tmp_path / "journal.jsonl"
    assert main_chaos(
        ["--scenario", "smoke", "--crash-at", "20", "--journal", str(path)]
    ) == 0
    out = capsys.readouterr().out
    assert "1 crash(es) survived" in out
    # The export's bytes (checkpoint line and its digest included) are
    # pinned: snapshots render to the same JSON however they are stored.
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (
        5361, "f5bfc29b602946ee7c325d954598611c624e7cb8af85776eba6f4daa8f2ca0aa",
    )


def test_chaos_cli_journal_without_crash_is_usage_error(tmp_path, capsys):
    from repro.cli import main_chaos

    path = tmp_path / "journal.jsonl"
    assert main_chaos(["--scenario", "smoke", "--journal", str(path)]) == 2
    assert not path.exists()


# -- monitor export ------------------------------------------------------------
def test_chrome_trace_carries_fault_instants():
    from repro.monitor import to_chrome_trace

    template = montage_workflow(degree=0.3)
    engine = PullEngine(
        small_spec(2),
        config=RunConfig(
            default_timeout=6.0, timeout_check_interval=0.25, record_jobs=True
        ),
        controllers=(FaultSchedule([
            FaultAction(0.8, 1, "spot-notice"),
            FaultAction(1.0, 1, "spot-termination"),
        ]),),
    )
    result = engine.run(Ensemble([template]))
    doc = to_chrome_trace(result)
    faults = [e for e in doc["traceEvents"] if e.get("cat") == "fault"]
    assert {e["name"] for e in faults} == {"spot-notice", "spot-termination"}
    assert all(e["ph"] == "i" for e in faults)
    assert {e["pid"] for e in faults} == {1}
