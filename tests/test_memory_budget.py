"""Tier-1 stand-in for the benchmark's ``peak_rss_mb`` (CI cannot run the
bench): what one run keeps resident per simulated job.

The two histories a run accumulates are flat and typed — ``SegmentLog``
is an ``array('d')`` of times beside an ``array('B')`` of one-byte codes
into the log's distinct levels, the page-cache touch table one
``array('d')`` row per member over the skeleton's shared file index.
Measured by this test as it runs in tier-1 (4 x 1.0-degree Montage, 848
jobs, one c3.8xlarge, ``record_jobs=False``, strict sanitizer armed,
Python 3.11):

* list-backed log with a running integral, ``(owner, name)``
  tuple-keyed touch dict: 681.7 retained bytes per job;
* two ``array('d')`` log columns: 298.0 retained bytes per job when
  first measured, 278.9 just before the codes;
* times and one-byte codes: 262.0 retained bytes per job;
* one file map in the skeleton, which the run builds: 236.8 retained
  bytes per job.

The budget is 1.5 x the last, which the list-backed log misses by half
again.  The log's own share is held separately, in bytes per change
point over every core, link and thread log of a two-node MooseFS run.

* nothing of the run pinned by the simulator's agenda or the worker
  generators, since the engines close the simulator once the result is
  built: 154.7 retained bytes per job;
* a settled member held as its checkpoint snapshot, and a member's touch
  row built at its first touch: 154.6 (154.4 at the parent when
  re-measured; every member of this run runs and settles, so each still
  keeps a row and a snapshot).

A service run is held per submitted member: a short quick soak
(horizon 120 s, 918 members, 506 of them shed at the front door) keeps
2,572.9 bytes per member while every settled member kept its full state
and every member a touch row from staging, 1,925.3 since (sanitizer
off).

The workflow template every member shares is held on its own: the jobs,
files and id strings of one 2.0-degree Montage with its skeleton, file
index and arena, 1,712.8 bytes per job while every edge kept two freshly
formatted id strings and the skeleton three name-keyed dicts, 1,322.8
since.

A finished run is freed by reference counting: with the collector off,
dropping a run's result leaves only closed processes, their events and
the simulator for the collector (bytes left for the collector per job,
measured with the sanitizer off; before the engines closed their
simulator, the whole cluster, every link and log, the states and the
template were left too).  A chaos report keeps its journal's checkpoint
and tail records, not the run that wrote them.
"""

import gc
import sys
import tracemalloc
from array import array
from dataclasses import replace
from math import inf

import pytest

import repro.analysis.sanitizer as sanitizer
import repro.engines.pull as pull
from repro.cloud import ClusterSpec
from repro.dewe.state import StateSnapshot, WorkflowState
from repro.engines import PullEngine, SchedulingEngine
from repro.engines.base import RunConfig
from repro.faults.chaos import get_scenario, run_chaos
from repro.generators import cybershake_workflow, ligo_workflow, montage_workflow
from repro.recovery.journal import Journal
from repro.service.soak import SoakConfig, build_soak
from repro.sim import SegmentLog, Simulator
from repro.workflow import Ensemble
from repro.workflow.serialize import load_json, save_json

MEASURED_BYTES_PER_JOB = 154.7
MEASURED_TEMPLATE_BYTES_PER_JOB = 1322.8
MEASURED_SOAK_BYTES_PER_MEMBER = 1925.3


def test_run_residue_per_job_within_budget():
    ensemble = Ensemble.replicated(montage_workflow(degree=1.0), 4)
    engine = PullEngine(
        ClusterSpec("c3.8xlarge", 1, filesystem="local"),
        RunConfig(default_timeout=600.0, record_jobs=False),
    )
    gc.collect()
    tracemalloc.start()
    try:
        result = engine.run(ensemble)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.jobs_executed == ensemble.total_jobs
    # Only corruption recovery builds the producer index.
    assert ensemble.workflows[0].skeleton()._producer_of is None
    per_job = retained / ensemble.total_jobs
    assert per_job <= 1.5 * MEASURED_BYTES_PER_JOB, per_job


def test_template_bytes_per_job_within_budget():
    gc.collect()
    tracemalloc.start()
    try:
        wf = montage_workflow(degree=2.0)
        skeleton = wf.skeleton()
        skeleton.file_index()
        skeleton.arena()
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_job = retained / len(wf)
    print(f"template bytes per job: {per_job:.1f} ({len(wf):,} jobs)")
    assert per_job <= 1.1 * MEASURED_TEMPLATE_BYTES_PER_JOB, per_job


def test_soak_bytes_per_member_within_budget(monkeypatch):
    """What a service run holds at its end, per submitted member: a
    settled member is its checkpoint snapshot, not its state, and a
    member the front door shed never touched a file, so it owns no
    page-cache touch row."""
    setup = build_soak(replace(SoakConfig.quick(0), horizon=120.0))
    members = len(setup.workload.ensemble.workflows)
    seen = {}
    result_of = pull.PullRun._result

    def at_the_end(run):
        gc.collect()
        seen["bytes"] = tracemalloc.get_traced_memory()[0]
        seen["run"] = run
        return result_of(run)

    monkeypatch.setattr(pull.PullRun, "_result", at_the_end)
    previous, sanitizer._ACTIVE = sanitizer._ACTIVE, None
    try:
        gc.collect()
        tracemalloc.start()
        setup.engine.run(setup.workload.ensemble)
        run = seen["run"]
        states = [
            obj for obj in gc.get_objects()
            if type(obj) is WorkflowState and obj.name in run.workflows
        ]
    finally:
        tracemalloc.stop()
        sanitizer._ACTIVE = previous
    core, touched = run.core, run.cluster.fs._touch
    assert run.shed and not core.states and states == []
    assert len(core.settled) + len(run.shed) == members
    assert all(type(entry[1]) is StateSnapshot for entry in core.settled.values())
    assert not any(name in touched for name in run.shed)
    per_member = seen["bytes"] / members
    print(
        f"soak bytes per member: {per_member:.1f} "
        f"({members:,} members, {len(run.shed):,} shed)"
    )
    assert per_member <= 1.5 * MEASURED_SOAK_BYTES_PER_MEMBER, per_member


def _json_round_trip(tmp_path):
    path = tmp_path / "montage.json"
    save_json(montage_workflow(degree=1.0), path)
    return load_json(path)


@pytest.mark.parametrize(
    "build",
    [
        lambda _tmp: montage_workflow(degree=1.0),
        lambda _tmp: ligo_workflow(blocks=10),
        lambda _tmp: cybershake_workflow(ruptures=4),
        _json_round_trip,
    ],
    ids=["montage", "ligo", "cybershake", "load_json"],
)
def test_dependency_lists_hold_the_jobs_own_ids(build, tmp_path):
    wf = build(tmp_path)
    jobs = wf.jobs
    assert any(job.children for job in wf)
    for job in wf:
        for job_id in job.parents + job.children:
            assert job_id is jobs[job_id].id, (job.id, job_id)


def test_segment_log_keeps_two_columns_and_nothing_else():
    assert SegmentLog.__slots__ == ("times", "codes", "levels", "_index")
    log = SegmentLog(0.0, 0.0)
    for i in range(1, 1001):
        log.record(float(i), float(i % 7))
    assert (log.times.typecode, log.codes.typecode) == ("d", "B")
    assert log.levels == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert len(log.times) == len(log.codes) == 1001


def _column_bytes(column):
    return sys.getsizeof(column) - sys.getsizeof(array(column.typecode))


def test_log_bytes_per_change_point_within_budget():
    """Times and codes cost 8 + 1 bytes per change point, plus the
    arrays' growth slack: 9.39 measured (CPython 3.11), where the two
    double columns cost 16.69."""
    ensemble = Ensemble.replicated(montage_workflow(degree=1.0), 4)
    engine = PullEngine(
        ClusterSpec("r3.8xlarge", 2, filesystem="moosefs"),
        RunConfig(default_timeout=600.0, record_jobs=False),
    )
    result = engine.run(ensemble)
    logs = list(result.thread_logs)
    for node in result.cluster.nodes:
        logs.append(node.cores.log)
        for link in (node.disk.read, node.disk.write, node.nic_in, node.nic_out):
            logs.append(link.log)
    points = sum(len(log.times) for log in logs)
    nbytes = sum(_column_bytes(log.times) + _column_bytes(log.codes) for log in logs)
    per_point = nbytes / points
    print(f"log bytes per change point: {per_point:.2f} ({points:,} points)")
    assert per_point <= 9.5, per_point


#: What a finished run must not leave for the cyclic collector.
RUN_TYPES = (
    "SimCluster", "FairShareLink", "SegmentLog", "WorkflowState",
    "MasterCore", "PullRun", "Workflow", "Journal",
)

_SPEC = ClusterSpec("c3.8xlarge", 1, filesystem="local")
_CONFIG = RunConfig(default_timeout=600.0, record_jobs=False)

#: Case -> (engine factory, bytes left for the collector per job as
#: measured on the tier-1 geometry, 4 x 1.0-degree Montage, 848 jobs).
TEARDOWN_CASES = {
    "pull": (lambda: PullEngine(_SPEC, _CONFIG), 39.5),
    "central dispatch": (lambda: SchedulingEngine(_SPEC, _CONFIG), 28.7),
    "journaled master crash at record 300": (
        lambda: PullEngine(
            _SPEC, _CONFIG, journal=Journal(checkpoint_every=100, crash_after=300)
        ),
        41.1,
    ),
}


def _run_and_drop(make_engine):
    engine = make_engine()
    ensemble = Ensemble.replicated(montage_workflow(degree=1.0), 4)
    result = engine.run(ensemble)
    journal = getattr(engine, "journal", None)
    assert journal is None or journal.crashes == 1
    assert result.jobs_executed >= ensemble.total_jobs
    return ensemble.total_jobs


@pytest.mark.parametrize("case", sorted(TEARDOWN_CASES))
def test_a_finished_run_is_freed_by_reference_counting(case):
    make_engine, measured = TEARDOWN_CASES[case]
    previous, sanitizer._ACTIVE = sanitizer._ACTIVE, None
    try:
        _run_and_drop(make_engine)  # warm-up: imports and first-call caches
        gc.collect()
        gc.disable()
        tracemalloc.start()
        jobs = _run_and_drop(make_engine)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        gc.set_debug(0)
        left = sorted({type(obj).__name__ for obj in gc.garbage} & set(RUN_TYPES))
        gc.garbage.clear()
        before = tracemalloc.get_traced_memory()[0]
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        tracemalloc.stop()
        gc.enable()
        sanitizer._ACTIVE = previous
    assert left == [], f"{case}: the collector had to free {left}"
    per_job = (before - after) / jobs
    print(f"bytes left for the collector per job, {case}: {per_job:.1f}")
    assert per_job <= 1.5 * measured, per_job


def _reachable(root):
    seen = {id(root)}
    todo = [root]
    found = set()
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if id(ref) not in seen and not isinstance(ref, type):
                seen.add(id(ref))
                found.add(type(ref).__name__)
                todo.append(ref)
    return found


def test_a_chaos_report_keeps_its_journal_not_its_run():
    scenario = get_scenario("master-crash")
    previous, sanitizer._ACTIVE = sanitizer._ACTIVE, None
    try:
        run_chaos(scenario)  # warm-up: imports and first-call caches
        gc.collect()
        tracemalloc.start()
        report = run_chaos(scenario)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        sanitizer._ACTIVE = previous
    assert report.ok and report.crashes == 1 and report.checkpoints
    run_objects = _reachable(report) & {
        *RUN_TYPES, "Simulator", "Process", "generator", "PullEngine",
    }
    assert run_objects == {"Journal"}, run_objects
    # The journal holds its latest checkpoint and the records after it.
    journal = report.journal
    assert journal.snapshot_provider is None and journal.on_crash is None
    assert journal.owner is None
    kept = _reachable(journal) - {
        "Checkpoint", "StateSnapshot", "JournalRecord",
        "dict", "list", "tuple", "str", "int", "float", "bytes", "bool",
        "NoneType",
    }
    assert kept == set(), kept
    # 6,645 bytes measured; 163,377 while the journal kept the run.
    print(f"bytes a chaos report retains: {retained:,}")
    assert retained <= 1.5 * 6645, retained


def _suspended(log):
    def body():
        try:
            yield sim.event()
        finally:
            log.append("finally")

    sim = Simulator()
    proc = sim.process(body())
    sim.timeout(5.0)
    sim.step()  # boot: the process is now waiting on an event nobody fires
    return sim, proc


def test_close_runs_a_suspended_finally_once():
    log = []
    sim, proc = _suspended(log)
    assert proc in sim._procs and log == []
    sim.close()
    assert log == ["finally"]
    sim.close()
    assert log == ["finally"]


def test_close_empties_the_agenda_and_a_second_close_does_nothing():
    sim, _proc = _suspended([])
    sim.schedule_call(0.0, lambda: None)
    assert sim.peek() == 0.0
    sim.close()
    assert (list(sim._heap), list(sim._imm), sim._procs) == ([], [], {})
    assert sim.peek() == inf
    sim.close()
    assert (list(sim._heap), list(sim._imm), sim._procs) == ([], [], {})


def test_a_finished_process_leaves_the_registry():
    def body():
        yield sim.timeout(1.0)
        return "done"

    def failing():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    sim = Simulator()
    done = sim.process(body())
    failed = sim.process(failing())
    assert list(sim._procs) == [done, failed]
    sim.run()
    assert done._value == "done" and isinstance(failed._value, ValueError)
    assert sim._procs == {}
