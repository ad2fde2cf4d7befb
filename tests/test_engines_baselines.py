"""Tests for the scheduling (Pegasus-like) and DEWE v1 engines."""

import pytest

from repro.cloud import ClusterSpec
from repro.engines import DeweV1Engine, PullEngine, SchedulingEngine
from repro.engines.base import RunConfig
from repro.generators import montage_workflow
from repro.workflow import Ensemble
from tests.test_sim_properties import log_values


def spec1(fs="local", nodes=1):
    return ClusterSpec("c3.8xlarge", nodes, filesystem=fs)


def test_scheduling_engine_completes_everything():
    template = montage_workflow(degree=0.5)
    result = SchedulingEngine(spec1()).run(Ensemble([template]))
    assert result.jobs_executed == len(template)
    assert result.makespan > 0


def test_scheduling_respects_precedence():
    template = montage_workflow(degree=0.5)
    result = SchedulingEngine(spec1()).run(Ensemble([template]))
    ends = {r.job_id: r.end for r in result.records}
    starts = {r.job_id: r.start for r in result.records}
    for job in template:
        for parent in job.parents:
            assert ends[parent] <= starts[job.id] + 1e-6


def test_pull_beats_scheduling_on_makespan():
    """The paper's core claim (Fig 6): pulling removes scheduling
    overhead, so DEWE v2 finishes well ahead of Pegasus on the same
    cluster and workload."""
    template = montage_workflow(degree=1.0)
    ensemble = Ensemble([template])
    pull = PullEngine(spec1()).run(ensemble)
    sched = SchedulingEngine(spec1()).run(ensemble)
    assert sched.makespan > pull.makespan * 1.5


def test_scheduling_concurrency_capped_at_20():
    """Fig 6a: Pegasus never exceeds 20 concurrent threads on the
    32-vCPU node."""
    template = montage_workflow(degree=1.0)
    result = SchedulingEngine(spec1()).run(Ensemble([template]))
    for log in result.thread_logs:
        assert max(log_values(log)) <= 20


def test_scheduling_writes_more(capfd):
    """Fig 6c/7c: Pegasus's staging and logs amplify disk writes."""
    template = montage_workflow(degree=0.5)
    ensemble = Ensemble([template])
    pull = PullEngine(spec1()).run(ensemble)
    sched = SchedulingEngine(spec1()).run(ensemble)
    assert sched.total_disk_write_bytes() > pull.total_disk_write_bytes() * 1.5


def test_scheduling_burns_more_cpu():
    """Fig 7b: wrapper overhead shows up as extra CPU time."""
    template = montage_workflow(degree=0.5)
    ensemble = Ensemble([template])
    pull = PullEngine(spec1()).run(ensemble)
    sched = SchedulingEngine(spec1()).run(ensemble)
    assert sched.total_cpu_seconds() > pull.total_cpu_seconds() * 1.2


def test_scheduling_overhead_time_recorded():
    template = montage_workflow(degree=0.5)
    result = SchedulingEngine(spec1()).run(Ensemble([template]))
    assert any(r.overhead_time > 0 for r in result.records)


def test_scheduling_knobs_reduce_to_fast_engine():
    """With every overhead zeroed the scheduling engine approaches the
    pull engine's makespan (ablation sanity)."""
    template = montage_workflow(degree=0.5)
    ensemble = Ensemble([template])
    pull = PullEngine(spec1()).run(ensemble)
    neutral = SchedulingEngine(
        spec1(),
        max_slots_per_node=None,
        submit_overhead=0.0,
        dispatch_latency=0.0,
        wrapper_cpu=0.0,
        read_miss=None,
        output_copy_factor=0.0,
        log_bytes_per_job=0.0,
    ).run(ensemble)
    assert neutral.makespan == pytest.approx(pull.makespan, rel=0.15)


# ---------------------------------------------------------------------------
# DEWE v1
# ---------------------------------------------------------------------------


def test_dewe_v1_completes():
    template = montage_workflow(degree=0.5)
    result = DeweV1Engine(spec1()).run(Ensemble([template]))
    assert result.jobs_executed == len(template)


def test_dewe_v1_runs_workflows_sequentially():
    """DEWE v1 'is only capable of running a single workflow at a time'
    (paper §I): workflow k+1 starts only after workflow k finishes."""
    template = montage_workflow(degree=0.5)
    ensemble = Ensemble.replicated(template, 3)
    result = DeweV1Engine(spec1()).run(ensemble)
    spans = sorted(result.workflow_spans.values())
    for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert s2 >= e1 - 1e-6


def test_dewe_v2_beats_v1_on_ensembles():
    """Parallel multi-workflow execution is DEWE v2's advantage."""
    template = montage_workflow(degree=0.5)
    ensemble = Ensemble.replicated(template, 4)
    v1 = DeweV1Engine(spec1()).run(ensemble)
    v2 = PullEngine(spec1()).run(ensemble)
    assert v2.makespan < v1.makespan


def test_dewe_v1_staging_shows_as_io_time():
    """Fig 2's communication gaps: staging makes read time visible."""
    template = montage_workflow(degree=0.5)
    v1 = DeweV1Engine(ClusterSpec("m3.2xlarge", 4, filesystem="nfs-nton")).run(
        Ensemble([template])
    )
    read_heavy = [r for r in v1.records if r.task_type == "mDiffFit"]
    assert read_heavy
    assert all(r.read_time > 0 for r in read_heavy)


# ---------------------------------------------------------------------------
# The central-dispatch path, held to the commit before its per-job loop
# was folded into the slot runner (PR 24)
# ---------------------------------------------------------------------------

#: ``repr`` of makespan and ``extra_write_bytes``, ``sim._seq``, and the
#: summed read / compute / write / overhead seconds of a
#: ``record_jobs=True`` run of 3 x 1.0-degree Montage (636 jobs), recorded
#: on PR 24's parent.  One node takes ``_read_with_miss``'s sole-home loop
#: and the table-free ``write``; two MooseFS nodes take the placement loop
#: and the multi-route write; DEWE v1 is the ``sequential_workflows`` path,
#: its two nodes Fig 2's m3.2xlarge (the one type with ``cpu_speed`` != 1);
#: half a miss is there because every default stages at 1.0.
RECORDED = {
    ("pegasus", "local", 1.0): (
        "81.00167203177914", "7385208116.34349", 8369, "16.571082375346247",
        "996.6033240997308", "0.0", "318.0",
    ),
    ("pegasus", "moosefs", 1.0): (
        "47.97082797783928", "7385208116.34349", 11501, "6.328468500197955",
        "996.6033240997308", "0.0", "318.0",
    ),
    ("pegasus", "local", 0.5): (
        "80.21326329639894", "7385208116.34349", 8315, "7.845197437672185",
        "996.6033240997308", "0.0", "318.0",
    ),
    ("pegasus", "moosefs", 0.5): (
        "47.76989212504941", "7385208116.34349", 11485, "3.127519964384496",
        "996.6033240997308", "0.0", "318.0",
    ),
    ("dewe-v1", "local", 1.0): (
        "71.35753572963026", "0.0", 4759, "360.2028921335293",
        "646.8033240997179", "0.0", "127.20000000000127",
    ),
    ("dewe-v1", "moosefs", 1.0): (
        "147.3367047388778", "0.0", 8361, "129.762986888261",
        "1176.0060438176806", "0.0", "127.20000000000068",
    ),
}


@pytest.mark.parametrize("engine,fs,read_miss", sorted(RECORDED))
def test_central_dispatch_run_matches_recorded_floats(engine, fs, read_miss):
    cls = {"pegasus": SchedulingEngine, "dewe-v1": DeweV1Engine}[engine]
    if fs == "local":
        cluster = ClusterSpec("c3.8xlarge", 1, filesystem="local")
    else:
        itype = "r3.8xlarge" if engine == "pegasus" else "m3.2xlarge"
        cluster = ClusterSpec(itype, 2, filesystem="moosefs")
    ensemble = Ensemble.replicated(montage_workflow(degree=1.0), 3)
    config = RunConfig(record_jobs=True)
    result = cls(cluster, config, read_miss=read_miss).run(ensemble)
    records = result.records
    assert len(records) == result.jobs_executed == 636
    assert {r.attempt for r in records} == {1}
    assert (
        repr(result.makespan),
        repr(result.extra_write_bytes),
        result.cluster.sim._seq,
        repr(sum(r.read_time for r in records)),
        repr(sum(r.compute_time for r in records)),
        repr(sum(r.write_time for r in records)),
        repr(sum(r.overhead_time for r in records)),
    ) == RECORDED[engine, fs, read_miss]


@pytest.mark.parametrize(
    "knob,value",
    [
        ("wrapper_cpu", float("nan")),
        ("output_copy_factor", -5.0),
        ("dispatch_latency", float("inf")),
        ("submit_overhead", float("inf")),
        ("max_slots_per_node", 0),
        ("log_bytes_per_job", -1.0),
        ("read_miss", 1.5),
        ("read_miss", float("nan")),
    ],
)
def test_hostile_knob_is_refused_at_construction(knob, value):
    """A NaN wrapper cost used to run every job with zero CPU seconds, a
    negative copy factor was ignored, and an infinite delay or a node
    without slots died as 'agenda exhausted'."""
    for cls in (SchedulingEngine, DeweV1Engine):
        with pytest.raises(ValueError, match=knob):
            cls(spec1(), **{knob: value})


def test_exception_in_a_slot_runner_comes_out_of_run(monkeypatch):
    """Nothing waits on the slot runners, so the kernel used to drop
    their exception and the run ended as 'agenda exhausted'."""

    class Boom(Exception):
        pass

    def failing_job(*_args):
        raise Boom("stage-in failed")
        yield  # a generator, like execute_job

    monkeypatch.setattr("repro.engines.scheduling.execute_job", failing_job)
    engine = SchedulingEngine(spec1())
    with pytest.raises(Boom, match="stage-in failed"):
        engine.run(Ensemble([montage_workflow(degree=0.5)]))
