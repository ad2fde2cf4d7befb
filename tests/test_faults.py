"""Unit tests for the fault-injection schedules."""

from types import SimpleNamespace

import pytest

from repro.faults import (
    FaultAction,
    FaultSchedule,
    FaultTrace,
    PartitionHazard,
    SpotHazard,
    StragglerHazard,
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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: FaultAction(NAN, 0, "kill"), "action time"),
        (lambda: FaultAction(INF, 0, "kill"), "action time"),
        (lambda: FaultAction(NAN, 0, "partition-start", "full", 1.0), "action time"),
        (lambda: FaultAction(1.0, 0, "degrade-start", 0.5, NAN), "duration"),
        (lambda: FaultAction(1.0, 0, "degrade-start", 0.5, INF), "duration"),
        (lambda: FaultAction(1.0, 0, "partition-start", "full", NAN), "duration"),
        (lambda: FaultAction(1.0, 0, "partition-start", "full", INF), "duration"),
        (lambda: FaultAction(1.0, 0, "spot-termination", duration=NAN), "duration"),
        (lambda: FaultAction(1.0, 0, "spot-termination", duration=INF), "duration"),
        (lambda: FaultAction(1.0, 0, "degrade-start", NAN, 2.0), "disk factor"),
        (lambda: FaultAction(1.0, 0, "degrade-start", INF, 2.0), "disk factor"),
        (lambda: SpotHazard(1.0, replacement_delay=NAN), "replacement_delay"),
        (lambda: SpotHazard(1.0, replacement_delay=INF), "replacement_delay"),
        (lambda: StragglerHazard(0.5, duration=(NAN, NAN)), "duration"),
        (lambda: StragglerHazard(0.5, duration=(1.0, INF)), "duration"),
        (lambda: StragglerHazard(0.5, disk_factor=(NAN, NAN)), "disk_factor"),
        (lambda: StragglerHazard(0.5, disk_factor=(0.2, INF)), "disk_factor"),
        (lambda: PartitionHazard(0.5, duration=(NAN, NAN)), "duration"),
        (lambda: PartitionHazard(0.5, duration=(1.0, INF)), "duration"),
        (lambda: FaultAction(-1.0, 0, "degrade-start", 0.5, 2.0), "action time"),
        (lambda: FaultAction(1.0, 1.5, "kill"), "node index"),
        (lambda: FaultAction(1.0, 0, "degrade-start", 0.5, 0.0), "duration"),
        (lambda: FaultAction(1.0, 0, "degrade-start", 0.5), "needs a duration"),
        (lambda: FaultAction(1.0, 0, "degrade-start", 0.0, 2.0), "disk factor"),
        (lambda: FaultAction(1.0, 0, "degrade-start", None, 2.0), "disk factor"),
        (lambda: FaultAction(1.0, 0, "partition-start", "full"), "needs a duration"),
        (lambda: FaultAction(1.0, 0, "partition-start", "full", -1.0), "duration"),
        (lambda: FaultAction(1.0, 0, "partition-start", "sideways", 1.0), "mode"),
        (lambda: FaultAction(1.0, 0, "partition-start", None, 1.0), "mode"),
        (lambda: FaultAction(1.0, 0, "spot-termination", duration=-1.0), "duration"),
        (lambda: FaultAction(1.0, 0, "kill", duration=1.0), "takes no duration"),
        (lambda: FaultAction(1.0, 0, "spot-notice", 0.5), "takes no value"),
        (lambda: SpotHazard(1.0, notice=-1.0), "notice"),
        (lambda: SpotHazard(1.0, replacement_delay=-1.0), "replacement_delay"),
    ],
    ids=[
        "time-nan", "time-inf", "partition-time-nan", "degrade-duration-nan",
        "degrade-duration-inf", "partition-duration-nan",
        "partition-duration-inf", "replacement-nan", "replacement-inf",
        "disk-factor-nan", "disk-factor-inf", "spot-hazard-replacement-nan",
        "spot-hazard-replacement-inf", "straggler-duration-nan",
        "straggler-duration-inf", "straggler-disk-factor-nan",
        "straggler-disk-factor-inf", "partition-hazard-duration-nan",
        "partition-hazard-duration-inf",
        "negative-start", "fractional-node", "zero-duration", "window-without-duration",
        "zero-disk-factor", "missing-disk-factor", "partition-without-duration",
        "negative-partition-duration", "unknown-mode", "missing-mode",
        "negative-replacement", "kill-with-duration", "notice-with-value",
        "negative-notice", "negative-hazard-replacement",
    ],
)
def test_fault_inputs_are_refused_when_built(build, match):
    """The non-finite cases (the first 19) used to be accepted when built
    and fail only at install or mid-run ("link capacity must be in
    (0, inf), got nan" at the degrade instant), or — for the hazards'
    ranges — only after ``run_chaos``'s baseline run had finished."""
    with pytest.raises(ValueError, match=match):
        build()


def test_only_windows_of_one_kind_on_one_node_may_not_overlap():
    """Back to back, on another node, or of the other kind on the same
    node: accepted.  (Overlaps of one kind on one node are refused in
    ``test_chaos.py`` and ``test_liveness.py``.)"""
    schedule = FaultSchedule([
        FaultAction(0.0, 0, "degrade-start", 0.5, 3.0),
        FaultAction(3.0, 0, "degrade-start", 0.5, 2.0),
        FaultAction(1.0, 1, "degrade-start", 0.5, 2.0),
        FaultAction(1.0, 0, "partition-start", "full", 9.0),
    ])
    assert len(schedule.actions) == 4


def test_schedule_sorts_actions():
    schedule = FaultSchedule(
        [FaultAction(10.0, 0, "kill"), FaultAction(5.0, 1, "restart")]
    )
    assert [a.time for a in schedule.actions] == [5.0, 10.0]
    assert len(schedule.actions) == 2


def test_install_fires_actions_in_order():
    """Each kind calls its one run method and traces itself; an undo is
    scheduled when its action fires, not at install, so it ties *after*
    an action installed for the same instant (here: the spot notice at
    t=3.5 before the degrade-end, the partition-heal at t=5.0 before
    the spot-replacement)."""
    sim = Simulator()
    log = []

    def call(name):
        return lambda *args: log.append((sim.now, name) + args)

    run = SimpleNamespace(
        sim=sim, n_nodes=2, trace=FaultTrace(), initially_down=set(),
        **{name: call(name) for name in (
            "start_worker", "stop_worker", "kill_worker", "set_disk_factor",
            "mark_spot_terminated", "begin_partition", "end_partition",
        )},
    )
    FaultSchedule(
        [
            FaultAction(1.0, 1, "kill"),
            FaultAction(2.5, 1, "restart"),
            FaultAction(3.5, 0, "spot-notice"),
            FaultAction(4.0, 0, "spot-termination", duration=1.0),
            FaultAction(0.5, 0, "degrade-start", 0.3, 3.0),
            FaultAction(3.0, 1, "partition-start", "to-master", 2.0),
        ],
        initially_down=(1,),
    ).install(run)
    assert run.initially_down == {1} and log == []
    sim.run()
    assert log == [
        (0.5, "set_disk_factor", 0, 0.3),
        (1.0, "kill_worker", 1),
        (2.5, "start_worker", 1),
        (3.0, "begin_partition", 1, "to-master"),
        (3.5, "stop_worker", 0),
        (3.5, "set_disk_factor", 0, 1.0),
        (4.0, "kill_worker", 0),
        (4.0, "mark_spot_terminated", 0),
        (5.0, "end_partition", 1),
        (5.0, "start_worker", 0),
    ]
    assert [event.line() for event in run.trace] == [
        "t=0.500000 degrade-start node=0 disk*0.3 cpu*1 for 3s",
        "t=1.000000 kill node=1",
        "t=2.500000 restart node=1",
        "t=3.000000 partition-start node=1 mode=to-master for 2s",
        "t=3.500000 spot-notice node=0",
        "t=3.500000 degrade-end node=0",
        "t=4.000000 spot-termination node=0",
        "t=5.000000 partition-heal node=1",
        "t=5.000000 spot-replacement node=0",
    ]


def test_hazards_sample_straight_into_one_schedule():
    spot = SpotHazard(10_000.0, notice=1.0, replacement_delay=2.0).sample(1, 3, 60.0)
    assert isinstance(spot, FaultSchedule)
    kinds = [a.action for a in spot.actions]
    assert kinds.count("spot-notice") == kinds.count("spot-termination") == 3
    assert {a.duration for a in spot.actions if a.action == "spot-termination"} == {
        2.0
    }
    straggler = StragglerHazard(1.0, disk_factor=(0.2, 0.5)).sample(1, 3, 600.0)
    assert [a.action for a in straggler.actions] == ["degrade-start"] * 3
    assert all(0.2 <= a.value <= 0.5 for a in straggler.actions)
    partition = PartitionHazard(1.0, p_asymmetric=1.0).sample(1, 3, 600.0)
    assert [a.action for a in partition.actions] == ["partition-start"] * 3
    assert {a.value for a in partition.actions} <= {"to-master", "from-master"}


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
        pytest.param(FaultSchedule([FaultAction(1.0, 5, "restart")]), id="restart"),
        pytest.param(FaultSchedule([], initially_down=(5,)), id="initially-down"),
        pytest.param(
            FaultSchedule([FaultAction(1.0, 5, "spot-notice")]), id="spot-notice"
        ),
        pytest.param(
            FaultSchedule([FaultAction(1.0, 5, "spot-termination")]), id="spot"
        ),
        pytest.param(
            FaultSchedule([FaultAction(1.0, 5, "degrade-start", 0.5, 2.0)]),
            id="straggler",
        ),
        pytest.param(
            FaultSchedule([FaultAction(1.0, 5, "partition-start", "full", 2.0)]),
            id="partition",
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
