"""Tests for the pulling (DEWE v2) simulation engine."""

import math

import pytest

from repro.cloud import ClusterSpec
from repro.engines import PullEngine, RunConfig
from repro.faults import FaultAction, FaultSchedule
from repro.generators import montage_workflow, random_layered_workflow
from repro.workflow import Ensemble, Workflow
from tests.test_sim_properties import log_values


def run_small(n_workflows=1, nodes=1, fs="local", degree=0.5, **engine_kwargs):
    template = montage_workflow(degree=degree)
    ensemble = Ensemble.replicated(template, n_workflows)
    spec = ClusterSpec("c3.8xlarge", nodes, filesystem=fs)
    return PullEngine(spec, **engine_kwargs).run(ensemble)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["default_timeout", "timeout_check_interval"])
def test_run_config_refuses_a_non_positive_or_non_finite_interval(name, value):
    # A zero sweep interval used to spin PullEngine.run at one simulated
    # instant forever; refused at construction, nothing runs.
    with pytest.raises(ValueError, match=name):
        RunConfig(**{name: value})


def test_single_workflow_completes():
    result = run_small()
    assert result.jobs_executed == len(montage_workflow(degree=0.5))
    assert result.makespan > 0
    assert result.resubmissions == 0


def test_all_jobs_recorded_once():
    result = run_small()
    ids = [(r.workflow, r.job_id) for r in result.records]
    assert len(ids) == len(set(ids))


def test_records_respect_precedence():
    template = montage_workflow(degree=0.5)
    result = PullEngine(ClusterSpec("c3.8xlarge", 1, filesystem="local")).run(
        Ensemble([template])
    )
    ends = {r.job_id: r.end for r in result.records}
    starts = {r.job_id: r.start for r in result.records}
    for job in template:
        for parent in job.parents:
            assert ends[parent] <= starts[job.id] + 1e-6, (parent, job.id)


def test_multiple_workflows_interleave():
    result = run_small(n_workflows=3)
    spans = result.workflow_spans
    assert len(spans) == 3
    # Batch submission: all start at ~0 and overlap.
    starts = [s for s, _ in spans.values()]
    assert all(s == 0.0 for s in starts)


def test_incremental_submission_delays_starts():
    template = montage_workflow(degree=0.5)
    ensemble = Ensemble.replicated(template, 3, interval=50.0)
    result = PullEngine(ClusterSpec("c3.8xlarge", 1, filesystem="local")).run(ensemble)
    starts = sorted(s for s, _ in result.workflow_spans.values())
    assert starts == [0.0, 50.0, 100.0]


def test_makespan_scales_with_workload():
    # At tiny degrees the blocking stage dominates and hides the fan work,
    # so use degree 1.0 where stage 1 saturates the node.
    one = run_small(n_workflows=1, degree=1.0)
    eight = run_small(n_workflows=8, degree=1.0)
    assert eight.makespan > one.makespan * 1.5
    assert eight.makespan < one.makespan * 8.0  # parallelism helps


def test_multi_node_faster_than_single():
    slow = run_small(n_workflows=4, nodes=1, fs="local", degree=1.0)
    fast = run_small(n_workflows=4, nodes=4, fs="moosefs", degree=1.0)
    assert fast.makespan < slow.makespan


def test_concurrency_never_exceeds_vcpus():
    result = run_small(n_workflows=2)
    for log in result.thread_logs:
        assert max(log_values(log)) <= 32


def test_record_jobs_off_keeps_result_light():
    result = run_small(config=RunConfig(record_jobs=False))
    assert result.records == []
    assert result.jobs_executed > 0


def test_total_cpu_seconds_close_to_workload():
    template = montage_workflow(degree=0.5)
    result = PullEngine(ClusterSpec("c3.8xlarge", 1, filesystem="local")).run(
        Ensemble([template])
    )
    assert result.total_cpu_seconds() == pytest.approx(
        sum(job.runtime for job in template), rel=0.01
    )


def test_disk_writes_match_workflow_bytes():
    template = montage_workflow(degree=0.5)
    result = PullEngine(ClusterSpec("c3.8xlarge", 1, filesystem="local")).run(
        Ensemble([template])
    )
    expected = sum(f.size for f in template.skeleton().files if f.kind != "input")
    assert result.total_disk_write_bytes() == pytest.approx(expected, rel=1e-6)


def test_runs_non_montage_workflows():
    from repro.generators import cybershake_workflow, ligo_workflow

    for wf in (ligo_workflow(blocks=8, group=4), cybershake_workflow(4, 3)):
        result = PullEngine(ClusterSpec("c3.8xlarge", 1, filesystem="local")).run(
            Ensemble([wf])
        )
        assert result.jobs_executed == len(wf)


def test_random_dag_property_all_jobs_executed():
    for seed in range(3):
        wf = random_layered_workflow(n_jobs=60, n_levels=6, seed=seed)
        result = PullEngine(ClusterSpec("c3.8xlarge", 1, filesystem="local")).run(
            Ensemble([wf])
        )
        assert result.jobs_executed == 60


def test_deterministic_repeat_runs():
    a = run_small(n_workflows=2)
    b = run_small(n_workflows=2)
    assert a.makespan == b.makespan
    assert a.total_cpu_seconds() == b.total_cpu_seconds()


# ---------------------------------------------------------------------------
# Fault injection (paper §V.A.3)
# ---------------------------------------------------------------------------


def test_worker_kill_and_restart_recovers():
    template = montage_workflow(degree=0.5)
    baseline = PullEngine(ClusterSpec("c3.8xlarge", 1, filesystem="local")).run(
        Ensemble([template])
    )
    # Kill the only worker daemon mid-stage-1, restart 5 s later.
    t_kill = baseline.makespan * 0.2
    schedule = FaultSchedule(
        [FaultAction(t_kill, 0, "kill"), FaultAction(t_kill + 5.0, 0, "restart")]
    )
    cfg = RunConfig(default_timeout=30.0, timeout_check_interval=1.0)
    result = PullEngine(
        ClusterSpec("c3.8xlarge", 1, filesystem="local"),
        config=cfg,
        controllers=[schedule],
    ).run(Ensemble([template]))
    assert result.jobs_executed >= len(template)
    assert result.makespan > baseline.makespan  # interruptions cost time
    assert result.resubmissions > 0


def test_two_node_failover():
    """One worker daemon at a time on a two-node cluster: kill on node 0,
    restart on node 1 (paper's second robustness test)."""
    template = montage_workflow(degree=1.0)
    base = PullEngine(ClusterSpec("c3.8xlarge", 2, filesystem="nfs-nton")).run(
        Ensemble([template])
    )
    t_kill = base.makespan * 0.5
    schedule = FaultSchedule(
        [FaultAction(t_kill, 0, "kill"), FaultAction(t_kill + 5.0, 1, "restart")],
        initially_down=(1,),
    )
    cfg = RunConfig(default_timeout=30.0, timeout_check_interval=1.0)
    result = PullEngine(
        ClusterSpec("c3.8xlarge", 2, filesystem="nfs-nton"),
        config=cfg,
        controllers=[schedule],
    ).run(Ensemble([template]))
    nodes_used = {r.node for r in result.records}
    assert nodes_used == {0, 1}  # work really moved to the other node
    assert result.jobs_executed >= len(template)


def test_fault_during_blocking_job_costs_timeout():
    """Interrupting a blocking job adds ~the timeout; interrupting fan
    jobs adds ~the downtime (paper §V.A.3)."""
    template = montage_workflow(degree=0.5)
    spec = ClusterSpec("c3.8xlarge", 1, filesystem="local")
    baseline = PullEngine(spec).run(Ensemble([template]))

    from repro.monitor.timeline import stage_windows

    windows = stage_windows(baseline)
    (s2_start, s2_end) = next(iter(windows.values()))
    timeout = 40.0
    cfg = RunConfig(default_timeout=timeout, timeout_check_interval=0.5)

    # Kill mid-blocking-job.
    t_kill = (s2_start + s2_end) / 2
    schedule = FaultSchedule(
        [FaultAction(t_kill, 0, "kill"), FaultAction(t_kill + 2.0, 0, "restart")]
    )
    hit_blocking = PullEngine(spec, config=cfg, controllers=[schedule]).run(
        Ensemble([template])
    )
    delta = hit_blocking.makespan - baseline.makespan
    # Must wait out the interrupted blocking job's timeout (plus rerun of
    # the partially executed blocking work).
    assert delta >= timeout * 0.5
    assert hit_blocking.resubmissions >= 1
