"""Tier-1 stand-in for the benchmark's ``peak_rss_mb`` (CI cannot run the
bench): what one run keeps resident per simulated job.

The two histories a run accumulates are flat and typed — ``SegmentLog``
is two ``array('d')`` columns, the page-cache touch table one
``array('d')`` row per member over the skeleton's shared file index.
Measured by this test as it runs in tier-1 (4 x 1.0-degree Montage, 848
jobs, one c3.8xlarge, ``record_jobs=False``, strict sanitizer armed,
Python 3.11):

* parent (list-backed log with a running integral, ``(owner, name)``
  tuple-keyed touch dict): 681.7 retained bytes per job;
* this representation: 298.0 retained bytes per job.

The budget is 1.5 x the latter, which the parent misses by half again.
"""

import gc
import tracemalloc

from repro.cloud import ClusterSpec
from repro.engines import PullEngine
from repro.engines.base import RunConfig
from repro.generators import montage_workflow
from repro.sim import SegmentLog
from repro.workflow import Ensemble

MEASURED_BYTES_PER_JOB = 298.0


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
    per_job = retained / ensemble.total_jobs
    assert per_job <= 1.5 * MEASURED_BYTES_PER_JOB, per_job


def test_segment_log_keeps_two_columns_and_nothing_else():
    assert SegmentLog.__slots__ == ("times", "values")
    log = SegmentLog(0.0, 0.0)
    for i in range(1, 1001):
        log.record(float(i), float(i % 7))
    assert log.times.typecode == log.values.typecode == "d"
