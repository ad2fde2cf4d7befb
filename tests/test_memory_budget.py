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

The workflow template every member shares is held on its own: the jobs,
files and id strings of one 2.0-degree Montage with its skeleton, file
index and arena, 1,712.8 bytes per job while every edge kept two freshly
formatted id strings and the skeleton three name-keyed dicts, 1,322.8
since.
"""

import gc
import sys
import tracemalloc
from array import array

import pytest

from repro.cloud import ClusterSpec
from repro.engines import PullEngine
from repro.engines.base import RunConfig
from repro.generators import cybershake_workflow, ligo_workflow, montage_workflow
from repro.sim import SegmentLog
from repro.workflow import Ensemble
from repro.workflow.serialize import load_json, save_json

MEASURED_BYTES_PER_JOB = 236.8
MEASURED_TEMPLATE_BYTES_PER_JOB = 1322.8


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
    assert wf.n_edges() > 0
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
