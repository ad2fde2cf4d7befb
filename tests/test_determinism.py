"""Determinism regression: same seed, same simulation, bit-identical run.

The simulator documents bit-identical replay (tie-broken agenda, seeded
generators, no wall clock).  This pins the end-to-end property: two runs
of the same seeded ensemble agree exactly on makespan, executed-job
count, per-job records and the number of events processed.
"""

from repro.cloud import ClusterSpec
from repro.engines import PullEngine, SchedulingEngine
from repro.engines.base import RunConfig
from repro.generators import montage_workflow
from repro.workflow import Ensemble


def _run(engine_cls, seed):
    template = montage_workflow(degree=0.25, jitter=0.2, seed=seed)
    ensemble = Ensemble.replicated(template, 3, interval=10.0)
    spec = ClusterSpec("c3.8xlarge", 2, filesystem="moosefs")
    engine = engine_cls(spec, RunConfig(record_jobs=True))
    result = engine.run(ensemble)
    return result


def _fingerprint(result):
    records = tuple(
        (r.job_id, r.workflow, r.node, r.start, r.end) for r in result.records
    )
    return (
        result.makespan,
        result.jobs_executed,
        len(result.records),
        result.cluster.sim._seq,  # total events ever scheduled
        records,
    )


def test_pull_engine_bit_identical_across_runs():
    a = _fingerprint(_run(PullEngine, seed=7))
    b = _fingerprint(_run(PullEngine, seed=7))
    assert a == b  # exact equality, no tolerance


def test_scheduling_engine_bit_identical_across_runs():
    a = _fingerprint(_run(SchedulingEngine, seed=11))
    b = _fingerprint(_run(SchedulingEngine, seed=11))
    assert a == b


def test_different_seeds_change_the_run():
    a = _fingerprint(_run(PullEngine, seed=7))
    b = _fingerprint(_run(PullEngine, seed=8))
    assert a[0] != b[0]  # jittered runtimes must actually differ
