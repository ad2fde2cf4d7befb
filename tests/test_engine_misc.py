"""Miscellaneous engine coverage: result accessors, hypothesis
round-trips of serialization under random workflows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import BillingModel, ClusterSpec
from repro.engines import PullEngine, RunConfig
from repro.generators import montage_workflow, random_layered_workflow
from repro.workflow import Ensemble
from repro.workflow.analysis import summarize
from repro.workflow.serialize import workflow_from_dict, workflow_to_dict


def test_result_accessors():
    template = montage_workflow(degree=0.5)
    spec = ClusterSpec("c3.8xlarge", 1, filesystem="local")
    result = PullEngine(spec).run(Ensemble.replicated(template, 2))
    spans = result.workflow_makespans()
    assert len(spans) == 2
    assert result.mean_workflow_makespan() == pytest.approx(
        sum(spans.values()) / 2
    )
    assert result.cost(BillingModel.PER_HOUR) == pytest.approx(1.68)
    assert result.cost(BillingModel.PER_SECOND) == pytest.approx(
        1.68 * result.makespan / 3600
    )
    assert result.total_disk_read_bytes() >= 0.0


def test_empty_like_workflow_single_job():
    from repro.workflow import Workflow

    wf = Workflow("tiny")
    wf.new_job("only", "t", runtime=5.0)
    result = PullEngine(ClusterSpec("c3.8xlarge", 1, filesystem="local")).run(
        Ensemble([wf])
    )
    assert result.jobs_executed == 1
    assert result.makespan == pytest.approx(5.0, abs=0.1)


@given(
    n_jobs=st.integers(min_value=1, max_value=40),
    n_levels=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2_000),
)
@settings(max_examples=40, deadline=None)
def test_serialize_round_trip_random_workflows(n_jobs, n_levels, seed):
    """Serialization is lossless for arbitrary generated workflows."""
    wf = random_layered_workflow(n_jobs=n_jobs, n_levels=n_levels, seed=seed)
    restored = workflow_from_dict(workflow_to_dict(wf))
    assert set(restored.jobs) == set(wf.jobs)
    assert summarize(restored).n_edges == summarize(wf).n_edges
    for job in wf:
        other = restored.job(job.id)
        assert other.runtime == pytest.approx(job.runtime)
        assert sorted(other.parents) == sorted(job.parents)
        assert [f.size for f in other.inputs] == pytest.approx(
            [f.size for f in job.inputs]
        )


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=10, deadline=None)
def test_serialized_workflow_runs_identically(seed):
    """A deserialized workflow produces the same simulated makespan."""
    wf = random_layered_workflow(n_jobs=25, n_levels=4, seed=seed)
    restored = workflow_from_dict(workflow_to_dict(wf))
    spec = ClusterSpec("c3.8xlarge", 1, filesystem="local")
    a = PullEngine(spec, RunConfig(record_jobs=False)).run(Ensemble([wf]))
    b = PullEngine(spec, RunConfig(record_jobs=False)).run(Ensemble([restored]))
    assert a.makespan == pytest.approx(b.makespan)
