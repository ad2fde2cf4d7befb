"""Tests for makespan lower bounds and plan feasibility checks."""

import pytest

from repro.cloud import ClusterSpec
from repro.engines import PullEngine, RunConfig
from repro.generators import montage_workflow, random_layered_workflow
from repro.provision.bounds import (
    check_plan_feasible,
    ensemble_lower_bound,
    workflow_bounds,
)
from repro.workflow import Ensemble
from repro.workflow.analysis import critical_path


def test_workflow_bounds_components():
    wf = montage_workflow(degree=1.0)
    spec = ClusterSpec("c3.8xlarge", 1, filesystem="local")
    bounds = workflow_bounds(wf, spec)
    cp, _ = critical_path(wf)
    assert bounds.critical_path == pytest.approx(cp)
    assert bounds.work_bound == pytest.approx(sum(j.runtime for j in wf) / 32)
    assert bounds.lower_bound == max(bounds.critical_path, bounds.work_bound)


def test_bounds_respect_slow_cores():
    wf = montage_workflow(degree=1.0)
    slow = ClusterSpec("m3.2xlarge", 1, filesystem="local")
    fast = ClusterSpec("c3.8xlarge", 1, filesystem="local")
    assert workflow_bounds(wf, slow).critical_path > workflow_bounds(
        wf, fast
    ).critical_path


def test_mixed_cluster_uses_best_speed_for_cp():
    wf = montage_workflow(degree=1.0)
    mixed = ClusterSpec(
        "c3.8xlarge", 2, filesystem="moosefs",
        node_types=("c3.8xlarge", "m3.2xlarge"),
    )
    fast_only = ClusterSpec("c3.8xlarge", 1, filesystem="local")
    # The critical path can run on the fast node.
    assert workflow_bounds(wf, mixed).critical_path == pytest.approx(
        workflow_bounds(wf, fast_only).critical_path
    )


def test_simulated_makespan_respects_bounds():
    """No engine run may beat the information-theoretic bounds."""
    for seed in range(3):
        wf = random_layered_workflow(n_jobs=40, n_levels=5, seed=seed)
        spec = ClusterSpec("c3.8xlarge", 1, filesystem="local")
        ensemble = Ensemble([wf])
        result = PullEngine(spec, RunConfig(record_jobs=False)).run(ensemble)
        assert result.makespan >= ensemble_lower_bound(ensemble, spec) - 1e-6


def test_ensemble_bound_includes_submission_offsets():
    wf = montage_workflow(degree=0.5)
    spec = ClusterSpec("c3.8xlarge", 4, filesystem="moosefs")
    batch = Ensemble.replicated(wf, 3)
    staggered = Ensemble.replicated(wf, 3, interval=1000.0)
    assert ensemble_lower_bound(staggered, spec) >= ensemble_lower_bound(
        batch, spec
    ) + 1999.0  # last submission at t=2000 dominates


def test_plan_feasibility():
    wf = montage_workflow(degree=1.0)
    spec = ClusterSpec("c3.8xlarge", 2, filesystem="moosefs")
    # Generous deadline: feasible.
    assert check_plan_feasible(wf, spec, workflows=4, deadline=10_000.0)
    # Impossible deadline (shorter than the critical path): infeasible.
    cp, _ = critical_path(wf)
    assert not check_plan_feasible(wf, spec, workflows=1, deadline=cp / 2)
    # Work-bound infeasibility: far too many workflows for the deadline.
    assert not check_plan_feasible(wf, spec, workflows=10_000, deadline=60.0)


def test_plan_feasibility_validation():
    wf = montage_workflow(degree=0.5)
    spec = ClusterSpec("c3.8xlarge", 1, filesystem="local")
    with pytest.raises(ValueError):
        check_plan_feasible(wf, spec, workflows=0, deadline=100.0)
    with pytest.raises(ValueError):
        check_plan_feasible(wf, spec, workflows=1, deadline=0.0)
