"""Tests for dynamic resource provisioning (paper §V.A.3 extension)."""

import pytest

from repro.cloud import BillingModel, ClusterSpec
from repro.engines import PullEngine, RunConfig
from repro.generators import montage_workflow
from repro.provision import queue_depth_autoscaler
from repro.workflow import Ensemble


def make_engine(*controllers, nodes=4):
    spec = ClusterSpec("c3.8xlarge", nodes, filesystem="moosefs")
    return PullEngine(spec, RunConfig(record_jobs=True), controllers=controllers)


@pytest.fixture(scope="module")
def workload():
    return Ensemble.replicated(montage_workflow(degree=1.0), 4)


def test_policy_validation():
    with pytest.raises(ValueError):
        queue_depth_autoscaler(min_nodes=0)
    with pytest.raises(ValueError):
        queue_depth_autoscaler(check_interval=0.0)
    with pytest.raises(ValueError):
        queue_depth_autoscaler(boot_delay=-1.0)


def test_static_run_leases_every_node(workload):
    result = make_engine().run(workload)
    assert set(result.rental_spans) == {0, 1, 2, 3}
    for spans in result.rental_spans.values():
        assert spans == [(0.0, result.makespan)]
    # With full leases elastic_cost equals the static cost.
    assert result.elastic_cost(BillingModel.PER_SECOND) == pytest.approx(
        4 * result.spec.itype.price_per_hour * result.makespan / 3600.0
    )


def test_autoscaler_completes_workload(workload):
    auto = queue_depth_autoscaler(
        min_nodes=1, check_interval=5.0, scale_out_depth=64,
        scale_in_depth=2, boot_delay=10.0,
    )
    result = make_engine(auto).run(workload)
    assert result.jobs_executed >= workload.total_jobs
    assert len(result.workflow_spans) == len(workload)


def test_autoscaler_scales_out_under_load(workload):
    auto = queue_depth_autoscaler(
        min_nodes=1, check_interval=5.0, scale_out_depth=32,
        scale_in_depth=1, boot_delay=5.0,
    )
    result = make_engine(auto).run(workload)
    # The deep stage-1 queue must have triggered extra nodes.
    assert len(result.rental_spans) >= 2
    # Scaled-out nodes really executed jobs.
    nodes_used = {r.node for r in result.records}
    assert len(nodes_used) >= 2


def test_elastic_leases_shorter_than_makespan(workload):
    auto = queue_depth_autoscaler(
        min_nodes=1, check_interval=5.0, scale_out_depth=32,
        scale_in_depth=2, boot_delay=5.0,
    )
    result = make_engine(auto).run(workload)
    extra_nodes = [i for i in result.rental_spans if i != 0]
    assert extra_nodes
    for i in extra_nodes:
        leased = sum(e - s for s, e in result.rental_spans[i])
        assert leased <= result.makespan + 1e-6


def test_elastic_cheaper_per_minute_static_cheaper_wallclock(workload):
    """The paper's prediction: dynamic provisioning pays off under
    charge-by-minute billing; a static fleet is faster but idles."""
    static = make_engine().run(workload)
    auto = queue_depth_autoscaler(
        min_nodes=1, check_interval=5.0, scale_out_depth=64,
        scale_in_depth=2, boot_delay=10.0,
    )
    elastic = make_engine(auto).run(workload)
    assert elastic.elastic_cost(BillingModel.PER_MINUTE) < static.elastic_cost(
        BillingModel.PER_MINUTE
    )
    assert static.makespan <= elastic.makespan


def test_graceful_scale_in_loses_no_jobs(workload):
    """stop_worker drains: no timeout resubmissions should be needed."""
    auto = queue_depth_autoscaler(
        min_nodes=1, check_interval=4.0, scale_out_depth=16,
        scale_in_depth=4, boot_delay=3.0,
    )
    result = make_engine(auto).run(workload)
    assert result.resubmissions == 0
    assert result.jobs_executed == workload.total_jobs
