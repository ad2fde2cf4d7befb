"""Unit tests for the unified retry policy and dead-letter state machine."""

import pytest

from repro.faults.retry import RetryPolicy
from repro.dewe.state import JobStatus, WorkflowState
from repro.workflow import Workflow


def diamond() -> Workflow:
    """a -> (b, c) -> d."""
    wf = Workflow("diamond")
    for job_id in ("a", "b", "c", "d"):
        wf.new_job(job_id, "compute", runtime=1.0)
    wf.add_dependency("a", "b")
    wf.add_dependency("a", "c")
    wf.add_dependency("b", "d")
    wf.add_dependency("c", "d")
    return wf


# -- RetryPolicy ------------------------------------------------------------
def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=-1)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)


def test_default_policy_is_the_papers_behaviour():
    policy = RetryPolicy()
    assert not policy.exhausted(10_000)
    assert policy.backoff(5) == 0.0
    assert not policy.redispatch_lost


def test_exhausted_budget():
    policy = RetryPolicy(max_attempts=3)
    assert not policy.exhausted(2)
    assert policy.exhausted(3)
    assert policy.exhausted(4)


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(base_delay=1.0, backoff_factor=2.0, max_delay=5.0)
    assert policy.backoff(1) == 1.0
    assert policy.backoff(2) == 2.0
    assert policy.backoff(3) == 4.0
    assert policy.backoff(4) == 5.0  # capped


def test_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(base_delay=10.0, jitter=0.5)
    delays = {policy.backoff(1, key=f"wf/job{i}") for i in range(50)}
    assert len(delays) > 10  # actually spread
    for d in delays:
        assert 5.0 <= d <= 15.0
    # Pure function of (key, attempts): byte-identical across calls.
    assert policy.backoff(3, key="wf/x") == policy.backoff(3, key="wf/x")


# -- WorkflowState dead-lettering -------------------------------------------
def test_failure_within_budget_requeues():
    state = WorkflowState(diamond(), retry=RetryPolicy(max_attempts=3))
    assert state.initial_ready() == ["a"]
    assert state.on_failed("a", 1, now=1.0) == "a"
    assert state.status["a"] is JobStatus.QUEUED
    assert state.attempt["a"] == 2
    assert state.resubmissions == 1


def test_budget_exhaustion_dead_letters_and_cascades():
    state = WorkflowState(diamond(), retry=RetryPolicy(max_attempts=2))
    state.initial_ready()
    assert state.on_failed("a", 1, now=1.0) == "a"
    assert state.on_failed("a", 2, now=2.0) is None
    assert state.status == {
        "a": JobStatus.DEAD,
        "b": JobStatus.DEAD,
        "c": JobStatus.DEAD,
        "d": JobStatus.DEAD,
    }
    assert state.is_settled and not state.is_complete
    reasons = {e.job_id: e.reason for e in state.dead_letters}
    assert reasons == {
        "a": "failed",
        "b": "upstream-dead",
        "c": "upstream-dead",
        "d": "upstream-dead",
    }
    assert state.dead_letters[0].attempts == 2


def test_partial_cascade_still_settles():
    """Kill one branch (b); a, c survive and d cascades — the workflow
    settles with 2 completed + 2 dead."""
    state = WorkflowState(diamond(), retry=RetryPolicy(max_attempts=1))
    state.initial_ready()
    ready = state.on_completed("a", 1)
    assert sorted(ready) == ["b", "c"]
    assert state.on_failed("b", 1, now=1.0) is None  # budget of 1: dead
    assert state.status["d"] is JobStatus.DEAD  # cascaded
    assert not state.is_settled
    assert state.on_completed("c", 1) == []  # d is DEAD, must not revive
    assert state.is_settled
    assert state.n_completed == 2 and len(state.dead_letters) == 2


def test_timeout_exhaustion_dead_letters():
    state = WorkflowState(
        diamond(), default_timeout=10.0, retry=RetryPolicy(max_attempts=1)
    )
    state.initial_ready()
    state.on_running("a", 1, now=0.0)
    assert state.expired(11.0) == []  # budget exhausted -> dead, not requeued
    assert state.status["a"] is JobStatus.DEAD
    assert state.dead_letters[0].reason == "timeout"
    assert state.is_settled


def test_duplicate_acks_are_counted_not_applied():
    state = WorkflowState(diamond())
    state.initial_ready()
    state.on_running("a", 1, now=0.0)
    assert sorted(state.on_completed("a", 1)) == ["b", "c"]
    n = state.n_completed
    assert state.on_completed("a", 1) == []  # duplicate completion
    assert state.on_running("a", 1, now=0.0) is False  # stale running
    assert state.on_failed("a", 1) is None  # stale failure
    assert state.n_completed == n
    assert state.duplicate_acks == 2


def test_mark_dispatched_arms_deadline_only_when_asked():
    plain = WorkflowState(diamond(), default_timeout=5.0)
    plain.initial_ready()
    plain.mark_dispatched("a", now=0.0)
    assert "a" not in plain.deadline  # paper behaviour: running ack arms

    lossy = WorkflowState(
        diamond(),
        default_timeout=5.0,
        retry=RetryPolicy(redispatch_lost=True),
    )
    lossy.initial_ready()
    lossy.mark_dispatched("a", now=0.0)
    assert lossy.deadline["a"] == 5.0
    assert lossy.expired(6.0) == ["a"]  # lost dispatch recovered
    assert lossy.attempt["a"] == 2
