"""Tests for the shared DAG state machine."""

import pytest

import repro.analysis.concurrency.recorder as race_recorder
from repro.dewe import JobStatus, WorkflowState
from repro.workflow import Workflow


def chain3() -> Workflow:
    wf = Workflow("chain")
    for jid in ("a", "b", "c"):
        wf.new_job(jid, "t", runtime=1.0)
    wf.add_dependency("a", "b")
    wf.add_dependency("b", "c")
    return wf


def fan() -> Workflow:
    wf = Workflow("fan")
    wf.new_job("src", "t")
    for i in range(3):
        wf.new_job(f"mid{i}", "t")
        wf.add_dependency("src", f"mid{i}")
    wf.new_job("sink", "t")
    for i in range(3):
        wf.add_dependency(f"mid{i}", "sink")
    return wf


def test_initial_ready_roots_only():
    state = WorkflowState(chain3())
    assert state.initial_ready() == ["a"]
    assert state.status["a"] is JobStatus.QUEUED
    assert state.status["b"] is JobStatus.WAITING


def test_transitions_reach_the_race_recorder_when_one_is_installed():
    """The hook's call sites are gated on the recorder module attribute
    (no frame when off); with a recorder installed every transition must
    still register its status-map access, or the CI ``concurrency`` job
    silently loses its coverage of the state machine."""
    state = WorkflowState(chain3())
    state.initial_ready()
    state.on_completed("a", 1)  # recorder off (or the suite's): no error
    with race_recorder.enabled() as rec:
        assert state.on_completed("b", 1) == ["c"]
        state.queued_jobs()
    accesses = [
        (e.op, e.key, e.site) for e in rec.events if e.op in ("read", "write")
    ]
    assert accesses == [
        ("write", ("var", "wfstate.status", id(state)), "state.on_completed"),
        ("read", ("var", "wfstate.status", id(state)), "state.queued_jobs"),
    ]


def test_completion_unlocks_children():
    state = WorkflowState(chain3())
    state.initial_ready()
    assert state.on_completed("a", 1) == ["b"]
    assert state.on_completed("b", 1) == ["c"]
    assert state.on_completed("c", 1) == []
    assert state.is_complete


def test_fan_in_requires_all_parents():
    state = WorkflowState(fan())
    state.initial_ready()
    mids = state.on_completed("src", 1)
    assert sorted(mids) == ["mid0", "mid1", "mid2"]
    assert state.on_completed("mid0", 1) == []
    assert state.on_completed("mid1", 1) == []
    assert state.on_completed("mid2", 1) == ["sink"]


def test_running_ack_arms_deadline():
    state = WorkflowState(chain3(), default_timeout=60.0)
    state.initial_ready()
    assert state.on_running("a", 1, now=10.0)
    assert state.deadline["a"] == pytest.approx(70.0)


def test_job_specific_timeout_overrides_default():
    wf = chain3()
    wf.job("a").timeout = 5.0
    state = WorkflowState(wf, default_timeout=60.0)
    state.initial_ready()
    state.on_running("a", 1, now=0.0)
    assert state.deadline["a"] == pytest.approx(5.0)


def test_expired_resubmits_with_new_attempt():
    state = WorkflowState(chain3(), default_timeout=30.0)
    state.initial_ready()
    state.on_running("a", 1, now=0.0)
    assert state.expired(now=29.0) == []
    assert state.expired(now=30.0) == ["a"]
    assert state.current_attempt("a") == 2
    assert state.status["a"] is JobStatus.QUEUED
    assert state.resubmissions == 1
    # Expired only fires once per timeout.
    assert state.expired(now=31.0) == []


def test_stale_running_ack_ignored_after_resubmission():
    state = WorkflowState(chain3(), default_timeout=30.0)
    state.initial_ready()
    state.on_running("a", 1, now=0.0)
    state.expired(now=30.0)  # attempt becomes 2
    assert not state.on_running("a", 1, now=31.0)  # old worker's late ack
    assert state.on_running("a", 2, now=32.0)


def test_completion_accepted_from_any_attempt():
    """At-least-once: the original (timed-out) worker may still finish."""
    state = WorkflowState(chain3(), default_timeout=30.0)
    state.initial_ready()
    state.on_running("a", 1, now=0.0)
    state.expired(now=30.0)
    newly = state.on_completed("a", 1)  # attempt-1 worker finishes anyway
    assert newly == ["b"]
    # Duplicate completion from the attempt-2 worker is a no-op.
    assert state.on_completed("a", 2) == []
    assert state.n_completed == 1


def test_failed_ack_resubmits_immediately():
    state = WorkflowState(chain3())
    state.initial_ready()
    state.on_running("a", 1, now=0.0)
    assert state.on_failed("a", 1) == "a"
    assert state.current_attempt("a") == 2
    assert state.status["a"] is JobStatus.QUEUED
    # Stale failure ack ignored.
    assert state.on_failed("a", 1) is None


def test_completed_job_never_expires():
    state = WorkflowState(chain3(), default_timeout=30.0)
    state.initial_ready()
    state.on_running("a", 1, now=0.0)
    state.on_completed("a", 1)
    assert state.expired(now=100.0) == []


def test_counts_and_progress():
    state = WorkflowState(fan())
    state.initial_ready()
    counts = state.counts()
    assert counts["queued"] == 1
    assert counts["waiting"] == 4
    assert state.n_jobs == 5
    assert not state.is_complete


def test_validation_on_construction():
    wf = chain3()
    wf.add_dependency("c", "a")  # cycle
    with pytest.raises(Exception):
        WorkflowState(wf)
    with pytest.raises(ValueError):
        WorkflowState(chain3(), default_timeout=0.0)
