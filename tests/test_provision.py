"""Tests for the profiling-based provisioning strategy (paper §IV)."""

import pytest

from repro.generators import montage_workflow
from repro.provision import (
    PAPER_INDICES,
    ProfilingCampaign,
    converged_index,
    node_performance_index,
    plan_cluster,
    plan_table,
    required_nodes,
)


# ---------------------------------------------------------------------------
# Equations 1 and 2
# ---------------------------------------------------------------------------


def test_eq1_definition():
    # 20 workflows, 4 nodes, 2500 s -> P = 20 / (4 * 2500) = 0.002
    assert node_performance_index(20, 4, 2500.0) == pytest.approx(0.002)


def test_eq2_paper_table3_sizes():
    """§V.B: with W=200, T=3300 and the §IV.B indices, the designed
    clusters are 40 c3, 25 r3 and 23 i2 nodes."""
    assert required_nodes(200, 0.0015, 3300.0) == 41  # ceil(40.40)
    # The paper rounds to the published sizes; the planner's ceil is the
    # safe choice (never undershoot the deadline) and differs by at most
    # one node from Table III.
    assert required_nodes(200, 0.0024, 3300.0) == 26
    assert required_nodes(200, 0.0026, 3300.0) == 24


def test_eq1_eq2_roundtrip():
    p = node_performance_index(20, 4, 2500.0)
    n = required_nodes(40, p, 2500.0)
    assert n == 8  # double the workload at the same deadline -> double nodes


def test_eq_validation():
    with pytest.raises(ValueError):
        node_performance_index(0, 1, 1.0)
    with pytest.raises(ValueError):
        node_performance_index(1, 0, 1.0)
    with pytest.raises(ValueError):
        node_performance_index(1, 1, 0.0)
    with pytest.raises(ValueError):
        required_nodes(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        required_nodes(1, 1.0, -1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="seconds must be finite"):
            node_performance_index(1, 1, bad)
        with pytest.raises(ValueError, match="index must be finite"):
            required_nodes(1, bad, 1.0)


def test_converged_index_uses_tail():
    assert converged_index([0.004, 0.003, 0.002, 0.0015, 0.0015]) == pytest.approx(
        0.0015
    )
    assert converged_index([0.002], tail=2) == pytest.approx(0.002)
    with pytest.raises(ValueError):
        converged_index([])


# ---------------------------------------------------------------------------
# Planner (Table III)
# ---------------------------------------------------------------------------


def test_plan_cluster_with_paper_index():
    plan = plan_cluster("r3.8xlarge", workflows=200, deadline=3300.0)
    assert plan.spec.instance_type == "r3.8xlarge"
    assert plan.spec.n_nodes in (25, 26)
    assert plan.meets_deadline
    assert plan.predicted_cost > 0
    assert plan.price_per_workflow == pytest.approx(plan.predicted_cost / 200)


def test_plan_table_covers_all_types():
    plans = plan_table()
    assert {p.spec.instance_type for p in plans} == set(PAPER_INDICES)
    for plan in plans:
        assert plan.meets_deadline


def test_plan_cheapest_is_c3():
    """Table III / Fig 11c: at W=200 the designed c3 cluster is the
    cheapest per hour; i2 is by far the most expensive."""
    plans = {p.spec.instance_type: p for p in plan_table()}
    assert (
        plans["c3.8xlarge"].predicted_cost
        < plans["r3.8xlarge"].predicted_cost
        < plans["i2.8xlarge"].predicted_cost
    )


def test_plan_requires_known_index():
    with pytest.raises(ValueError, match="profile it first"):
        plan_cluster("m3.2xlarge", workflows=10, deadline=3600.0)


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_cluster("c3.8xlarge", workflows=0, deadline=100.0)


# ---------------------------------------------------------------------------
# Profiling campaign (Fig 5) — scaled-down degree for test speed
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def campaign():
    return ProfilingCampaign(montage_workflow(degree=1.0))


def test_single_node_profile_monotone(campaign):
    profile = campaign.single_node("c3.8xlarge", workflow_counts=(1, 3, 6))
    times = profile.execution_times
    assert times[0] < times[1] < times[2]  # Fig 5a: grows with workload


def test_single_node_roughly_linear(campaign):
    profile = campaign.single_node("c3.8xlarge", workflow_counts=(2, 4, 8))
    t2, t4, t8 = profile.execution_times
    # Fig 5a: doubling the workload roughly doubles the time once the node
    # is saturated (generous band: stage-2 overlap makes it sublinear).
    assert 1.2 < t8 / t4 < 2.4
    assert 1.1 < t4 / t2 < 2.4


def test_multi_node_profile_decreasing(campaign):
    profile = campaign.multi_node("c3.8xlarge", node_counts=(2, 4, 6), workflows=12)
    times = profile.execution_times
    assert times[0] > times[-1]  # Fig 5b: more nodes -> faster


def test_multi_node_index_degrades(campaign):
    """Fig 5c: the node performance index falls as the cluster grows."""
    profile = campaign.multi_node("c3.8xlarge", node_counts=(2, 4, 6), workflows=12)
    assert profile.indices[0] > profile.indices[-1]
    assert profile.converged == pytest.approx(
        (profile.indices[-1] + profile.indices[-2]) / 2
    )


def test_disk_heavy_types_profile_faster(campaign):
    """Fig 5a ordering at 10 workflows: i2 <= r3 <= c3."""
    t = {}
    for itype in ("c3.8xlarge", "i2.8xlarge"):
        profile = campaign.single_node(itype, workflow_counts=(10,))
        t[itype] = profile.execution_times[0]
    assert t["i2.8xlarge"] <= t["c3.8xlarge"]
