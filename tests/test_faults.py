"""Unit tests for the fault-injection schedules."""

from types import SimpleNamespace

import pytest

from repro.faults import (
    Degradation,
    FaultAction,
    FaultSchedule,
    FaultTrace,
    NetworkPartitionModel,
    PartitionWindow,
    SpotTerminationModel,
    StragglerModel,
    kill_restart_cycle,
)
from repro.sim import Simulator


def test_fault_action_validation():
    with pytest.raises(ValueError):
        FaultAction(-1.0, 0, "kill")
    with pytest.raises(ValueError):
        FaultAction(1.0, -1, "kill")
    with pytest.raises(ValueError):
        FaultAction(1.0, 0, "reboot")


def test_schedule_sorts_actions():
    schedule = FaultSchedule(
        [FaultAction(10.0, 0, "kill"), FaultAction(5.0, 1, "restart")]
    )
    assert [a.time for a in schedule.actions] == [5.0, 10.0]
    assert len(schedule) == 2


def test_install_fires_actions_in_order():
    sim = Simulator()
    log = []
    schedule = FaultSchedule(
        [
            FaultAction(2.0, 0, "kill"),
            FaultAction(7.0, 0, "restart"),
            FaultAction(9.0, 1, "kill"),
        ],
        initially_down=(1,),
    )
    run = SimpleNamespace(
        sim=sim, n_nodes=2, trace=FaultTrace(), initially_down=set(),
        start_worker=lambda n: log.append(("start", n, sim.now)),
        kill_worker=lambda n: log.append(("kill", n, sim.now)),
    )
    schedule.install(run)
    assert run.initially_down == {1} and log == []
    sim.run()
    assert log == [("kill", 0, 2.0), ("start", 0, 7.0), ("kill", 1, 9.0)]
    assert run.trace.lines() == [
        "t=2.000000 kill node=0",
        "t=7.000000 restart node=0",
        "t=9.000000 kill node=1",
    ]


def test_kill_restart_cycle_same_node():
    schedule = kill_restart_cycle([10.0, 50.0], downtime=5.0)
    assert [(a.time, a.node, a.action) for a in schedule.actions] == [
        (10.0, 0, "kill"),
        (15.0, 0, "restart"),
        (50.0, 0, "kill"),
        (55.0, 0, "restart"),
    ]
    assert schedule.initially_down == ()


def test_kill_restart_cycle_failover_alternates():
    """The paper's two-node test: kill on one node, restart on the other,
    alternating, with the second node initially down."""
    schedule = kill_restart_cycle([10.0, 50.0], downtime=5.0, kill_node=0,
                                  restart_node=1)
    assert [(a.time, a.node, a.action) for a in schedule.actions] == [
        (10.0, 0, "kill"),
        (15.0, 1, "restart"),
        (50.0, 1, "kill"),
        (55.0, 0, "restart"),
    ]
    assert schedule.initially_down == (1,)


def test_kill_restart_cycle_validation():
    with pytest.raises(ValueError):
        kill_restart_cycle([1.0], downtime=-1.0)


def test_kill_restart_cycle_rejects_same_restart_node():
    """restart_node == kill_node would mark the only restart target
    initially-down and deadlock the run; must be rejected."""
    with pytest.raises(ValueError, match="restart_node"):
        kill_restart_cycle([1.0], kill_node=0, restart_node=0)
    # The legitimate spellings still work.
    kill_restart_cycle([1.0], kill_node=0)
    kill_restart_cycle([1.0], kill_node=0, restart_node=1)


def test_repeated_interruptions_still_complete():
    """Multiple kill/restart cycles: 'DEWE v2 is capable of completing the
    execution of the workflow, regardless of number of interruptions'."""
    from repro.cloud import ClusterSpec
    from repro.engines import PullEngine, RunConfig
    from repro.generators import montage_workflow
    from repro.workflow import Ensemble

    template = montage_workflow(degree=0.5)
    spec = ClusterSpec("c3.8xlarge", 1, filesystem="local")
    base = PullEngine(spec).run(Ensemble([template]))
    kill_times = [base.makespan * f for f in (0.2, 0.5, 0.8)]
    schedule = kill_restart_cycle(kill_times, downtime=2.0)
    cfg = RunConfig(default_timeout=20.0, timeout_check_interval=0.5)
    result = PullEngine(spec, config=cfg, controllers=[schedule]).run(
        Ensemble([template])
    )
    assert result.jobs_executed >= len(template)
    assert len(result.workflow_spans) == 1


def test_two_node_restart_during_blocking_job_costs_the_timeout():
    """The paper's two-node failover during the *blocking* stage: nothing
    else is eligible while mConcatFit/mBgModel runs, so the master only
    discovers the kill when the job's timeout expires — the interruption
    costs ~the blocked job's timeout, not just the downtime."""
    from repro.cloud import ClusterSpec
    from repro.engines import PullEngine, RunConfig
    from repro.generators import montage_workflow
    from repro.monitor.timeline import stage_windows
    from repro.workflow import Ensemble

    timeout = 8.0
    downtime = 1.0
    template = montage_workflow(degree=0.5)
    for job_id in ("mConcatFit", "mBgModel"):
        template.job(job_id).timeout = timeout
    spec = ClusterSpec("c3.8xlarge", 2, filesystem="nfs-central")
    cfg = RunConfig(default_timeout=timeout, timeout_check_interval=0.25)

    # Baseline: one worker daemon at a time (node 1 never started).
    baseline = PullEngine(
        spec, config=cfg, controllers=[FaultSchedule([], initially_down=(1,))]
    ).run(
        Ensemble([template])
    )
    s2_start, s2_end = next(iter(stage_windows(baseline).values()))

    t_kill = (s2_start + s2_end) / 2  # mid blocking stage
    schedule = kill_restart_cycle(
        [t_kill], downtime=downtime, kill_node=0, restart_node=1
    )
    result = PullEngine(spec, config=cfg, controllers=[schedule]).run(
        Ensemble([template])
    )
    assert len(result.workflow_spans) == 1
    assert result.resubmissions >= 1
    delta = result.makespan - baseline.makespan
    # The blocked job's timeout dominates the recovery, the downtime alone
    # does not explain it; and recovery is bounded by ~one timeout.
    assert delta > downtime + 1.0
    assert delta <= timeout + 2.0 * timeout  # slack: re-run + checker grid


@pytest.mark.parametrize(
    "controller",
    [
        pytest.param(FaultSchedule([FaultAction(1.0, 5, "kill")]), id="action"),
        pytest.param(FaultSchedule([], initially_down=(5,)), id="initially-down"),
        pytest.param(SpotTerminationModel([(1.0, 5)]), id="spot"),
        pytest.param(StragglerModel([Degradation(5, 1.0, 2.0)]), id="straggler"),
        pytest.param(
            NetworkPartitionModel([PartitionWindow(5, 1.0, 2.0)]), id="partition"
        ),
    ],
)
def test_controller_refuses_node_outside_the_cluster(controller):
    """A schedule naming node 5 of a 2-node cluster used to be accepted,
    trace a ``kill`` on node 5 and die of a bare IndexError at t=1.0; an
    out-of-range ``initially_down`` entry was silently ignored.  Every
    controller now refuses at install, before anything is scheduled."""
    from repro.cloud import ClusterSpec
    from repro.engines import PullEngine
    from repro.engines.pull import PullRun
    from repro.generators import montage_workflow
    from repro.workflow import Ensemble

    engine = PullEngine(ClusterSpec("c3.8xlarge", 2), controllers=[controller])
    run = PullRun(engine, Ensemble([montage_workflow(degree=0.3)]))
    seq = run.sim._seq
    with pytest.raises(ValueError, match="targets node 5 of a 2-node cluster"):
        controller.install(run)
    assert run.sim._seq == seq and not run.initially_down and not len(run.trace)
    with pytest.raises(ValueError, match="targets node 5 of a 2-node cluster"):
        engine.run(Ensemble([montage_workflow(degree=0.3)]))
