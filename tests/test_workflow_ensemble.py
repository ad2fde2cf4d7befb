"""Tests for ensembles and submission plans."""

import pytest

from repro.generators import montage_workflow
from repro.workflow import Ensemble, SubmissionPlan


def test_batch_plan():
    plan = SubmissionPlan.batch(4)
    assert plan.times == (0.0, 0.0, 0.0, 0.0)


def test_incremental_plan():
    plan = SubmissionPlan.incremental(3, 100.0)
    assert plan.times == (0.0, 100.0, 200.0)


def test_incremental_zero_interval_is_batch():
    assert SubmissionPlan.incremental(5, 0.0).times == SubmissionPlan.batch(5).times


def test_plan_validation():
    with pytest.raises(ValueError):
        SubmissionPlan(times=(-1.0,))
    with pytest.raises(ValueError):
        SubmissionPlan(times=(5.0, 1.0))
    with pytest.raises(ValueError):
        SubmissionPlan.incremental(3, -2.0)


def test_replicated_ensemble():
    template = montage_workflow(degree=0.5)
    ens = Ensemble.replicated(template, count=5, interval=50.0)
    assert len(ens) == 5
    names = [wf.name for wf in ens.workflows]
    assert len(set(names)) == 5
    assert ens.plan.times == (0.0, 50.0, 100.0, 150.0, 200.0)
    assert ens.total_jobs == 5 * len(template)
    # Members share the underlying job dict (memory optimisation).
    assert ens.workflows[0].jobs is ens.workflows[1].jobs


def test_ensemble_iteration_order():
    template = montage_workflow(degree=0.5)
    ens = Ensemble.replicated(template, count=3, interval=10.0)
    entries = list(ens)
    assert [t for t, _ in entries] == [0.0, 10.0, 20.0]


def test_ensemble_rejects_duplicates_and_mismatches():
    template = montage_workflow(degree=0.5)
    with pytest.raises(ValueError, match="duplicate"):
        Ensemble([template, template])
    with pytest.raises(ValueError, match="plan has"):
        Ensemble([template], SubmissionPlan.batch(2))
    with pytest.raises(ValueError, match="at least one"):
        Ensemble([])
    with pytest.raises(ValueError):
        Ensemble.replicated(template, count=0)


def test_ensemble_default_plan_is_batch():
    template = montage_workflow(degree=0.5)
    ens = Ensemble([template])
    assert ens.plan.times == (0.0,)
