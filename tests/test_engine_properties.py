"""Property-based tests over the simulation engines.

Invariants that must hold for *any* DAG on *any* cluster:

* every job executes (at least) once and the run terminates;
* precedence is never violated;
* the makespan is bounded below by both the critical path and the
  total-work/total-cores bound;
* the pull and scheduling engines agree on *what* ran, differing only in
  cost and timing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import ClusterSpec
from repro.engines import PullEngine, RunConfig, SchedulingEngine
from repro.generators import random_layered_workflow
from repro.workflow import Ensemble
from repro.workflow.analysis import critical_path


@st.composite
def workloads(draw):
    n_jobs = draw(st.integers(min_value=2, max_value=60))
    n_levels = draw(st.integers(min_value=1, max_value=6))
    fan = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    nodes = draw(st.integers(min_value=1, max_value=3))
    return n_jobs, n_levels, fan, seed, nodes


@given(workloads())
@settings(max_examples=25, deadline=None)
def test_pull_engine_invariants(params):
    n_jobs, n_levels, fan, seed, nodes = params
    wf = random_layered_workflow(n_jobs=n_jobs, n_levels=n_levels,
                                 max_fan_in=fan, seed=seed)
    fs = "local" if nodes == 1 else "moosefs"
    spec = ClusterSpec("c3.8xlarge", nodes, filesystem=fs)
    result = PullEngine(spec).run(Ensemble([wf]))

    # Completeness: every job executed exactly once (no faults injected).
    assert result.jobs_executed == n_jobs
    executed = {r.job_id for r in result.records}
    assert executed == set(wf.jobs)

    # Precedence.
    ends = {r.job_id: r.end for r in result.records}
    starts = {r.job_id: r.start for r in result.records}
    for job in wf:
        for parent in job.parents:
            assert ends[parent] <= starts[job.id] + 1e-6

    # Lower bounds.
    cp_length, _ = critical_path(wf)
    total_cores = nodes * 32
    work_bound = sum(j.runtime for j in wf) / total_cores
    assert result.makespan >= cp_length - 1e-6
    assert result.makespan >= work_bound - 1e-6

    # Accounting: compute seconds equal the workload's CPU demand.
    assert result.total_cpu_seconds() == pytest.approx(
        sum(j.runtime for j in wf), rel=1e-6
    )


@given(workloads())
@settings(max_examples=15, deadline=None)
def test_engines_agree_on_what_ran(params):
    n_jobs, n_levels, fan, seed, nodes = params
    wf = random_layered_workflow(n_jobs=n_jobs, n_levels=n_levels,
                                 max_fan_in=fan, seed=seed)
    fs = "local" if nodes == 1 else "moosefs"
    spec = ClusterSpec("c3.8xlarge", nodes, filesystem=fs)
    pull = PullEngine(spec).run(Ensemble([wf]))
    sched = SchedulingEngine(spec).run(Ensemble([wf]))
    assert {r.job_id for r in pull.records} == {r.job_id for r in sched.records}
    # The scheduling engine never beats pulling (its overheads are all
    # non-negative).
    assert sched.makespan >= pull.makespan - 1e-6


@given(
    copies=st.integers(min_value=1, max_value=4),
    interval=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=15, deadline=None)
def test_ensemble_spans_respect_submission_times(copies, interval, seed):
    wf = random_layered_workflow(n_jobs=25, n_levels=4, seed=seed)
    ensemble = Ensemble.replicated(wf, copies, interval=interval)
    spec = ClusterSpec("c3.8xlarge", 1, filesystem="local")
    result = PullEngine(spec, RunConfig(record_jobs=False)).run(ensemble)
    for i, (submit_time, member) in enumerate(ensemble):
        start, end = result.workflow_spans[member.name]
        assert start == pytest.approx(submit_time)
        assert end >= start
    assert result.makespan == pytest.approx(
        max(end for _s, end in result.workflow_spans.values())
    )
