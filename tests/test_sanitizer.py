"""Simulation invariant sanitizer: violation injection and modes.

The conftest keeps a strict sanitizer active for every test; these tests
install their own (via ``sanitizer.enabled`` / ``enable``) so they can
corrupt simulator state on purpose without failing the ambient one.
"""

import pytest

import repro.analysis.sanitizer as sanitizer
from repro.analysis.sanitizer import InvariantViolation, Sanitizer
from repro.cloud.pricing import BillingModel, billed_hours
from repro.dewe.core import COMPLETED, FAILED, MasterCore
from repro.faults.retry import RetryPolicy
from repro.sim import CorePool, FairShareLink, SimulationError, Simulator
from repro.storage.cache import WriteBackCache
from repro.workflow import Workflow


# -- modes and lifecycle ---------------------------------------------------

def test_disabled_by_default_outside_tests():
    previous, sanitizer._ACTIVE = sanitizer._ACTIVE, None
    try:
        assert sanitizer.active() is None
        # Hot paths see None and skip the checks entirely.
        sim = Simulator()
        pool = CorePool(sim, 2)
        pool.acquire()
        pool.release()
    finally:
        if previous is not None:
            sanitizer._ACTIVE = previous


def test_enable_disable_roundtrip():
    # ``enable`` (what REPRO_SANITIZER calls at import) replaces the
    # active sanitizer; uninstalling is restoring the previous one.
    ambient = sanitizer.active()
    san = sanitizer.enable(strict=False)
    assert sanitizer.active() is san and san is not ambient and not san.strict
    sanitizer._ACTIVE = ambient
    assert sanitizer.active() is ambient


def test_enabled_context_manager_restores_previous():
    ambient = sanitizer.active()
    with sanitizer.enabled(strict=False) as san:
        assert sanitizer.active() is san
        assert not san.strict
    assert sanitizer.active() is ambient


def test_collect_mode_records_without_raising():
    san = Sanitizer(strict=False)
    san.check_schedule(now=5.0, delay=-1.0)
    san.check_schedule(now=6.0, delay=-2.0)
    assert len(san.violations) == 2
    assert san.violations[0].check == "clock-monotonicity"
    assert "t=5" in str(san.violations[0])


def test_strict_mode_raises_on_first_violation():
    san = Sanitizer(strict=True)
    with pytest.raises(InvariantViolation, match="clock-monotonicity"):
        san.check_step(now=10.0, event_time=9.0)
    assert len(san.violations) == 1


# -- clock -----------------------------------------------------------------

def test_clock_regression_detected():
    with sanitizer.enabled(strict=False) as san:
        sim = Simulator()
        sim.schedule_call(5.0, lambda: None)
        sim.now = 7.0  # corrupt the clock past the pending event
        sim.run()
    assert any(v.check == "clock-monotonicity" for v in san.violations)


def test_negative_delay_detected():
    """Timeout's own guard rejects honest negative delays, so corrupt the
    scheduling path underneath it the way a buggy resource could."""
    with sanitizer.enabled(strict=False) as san:
        sim = Simulator()
        event = sim.event()
        sim._schedule(-1.0, event)
    assert any(v.check == "clock-monotonicity" for v in san.violations)


# -- core pools ------------------------------------------------------------

def test_core_pool_overcommit_detected():
    with sanitizer.enabled(strict=False) as san:
        sim = Simulator()
        pool = CorePool(sim, 2)
        pool.busy = 3  # corruption: cores leaked by a buggy scheduler
        pool.acquire()  # queues (pool full); the conservation check runs
    assert any(v.check == "core-conservation" for v in san.violations)


def test_over_release_raises_hard_error_before_sanitizer():
    """Over-release is a hard SimulationError even without a sanitizer."""
    previous, sanitizer._ACTIVE = sanitizer._ACTIVE, None
    try:
        sim = Simulator()
        pool = CorePool(sim, 2, name="vcpus")
        with pytest.raises(SimulationError, match="vcpus.*without a matching"):
            pool.release()
    finally:
        if previous is not None:
            sanitizer._ACTIVE = previous


# -- fair-share links ------------------------------------------------------

def test_link_stream_count_corruption_detected():
    # Strict mode: the corrupted count would crash the wake-up machinery
    # further on, so the sanitizer must fail fast at the next hook.
    with sanitizer.enabled(strict=True) as san:
        sim = Simulator()
        link = FairShareLink(sim, 100.0, name="disk")
        link.transfer(50.0)
        link._n = 3  # corruption: active count no longer matches the heap
        with pytest.raises(InvariantViolation, match="link-conservation"):
            link.transfer(50.0)
    assert any(v.check == "link-conservation" for v in san.violations)


def test_link_share_overspeed_detected():
    san = Sanitizer(strict=False)
    sim = Simulator()
    link = FairShareLink(sim, 100.0, name="nic")
    link.transfer(50.0)
    link.log.record(sim.now, 250.0)  # log claims 2.5x the capacity
    san.check_link(link)
    assert any(v.check == "link-share" for v in san.violations)


# -- write-back cache ------------------------------------------------------

def test_cache_negative_dirty_detected():
    with sanitizer.enabled(strict=False) as san:
        sim = Simulator()
        link = FairShareLink(sim, 1e9)
        cache = WriteBackCache(sim, capacity_bytes=1e6, name="pc")
        cache.dirty = -50.0  # corruption
        cache.write(10.0, (link,))
        sim.run()
    assert any(v.check == "cache-dirty-negative" for v in san.violations)


def test_cache_overflush_detected():
    with sanitizer.enabled(strict=False) as san:
        sim = Simulator()
        link = FairShareLink(sim, 1e9)
        cache = WriteBackCache(sim, capacity_bytes=1e6, name="pc")
        cache.write(100.0, (link,))
        cache.bytes_written = 10.0  # corruption: pretend less was written
        sim.run()
    assert any(
        v.check in ("cache-overflush", "cache-flush-conservation")
        for v in san.violations
    )


def test_cache_clean_run_has_no_violations():
    with sanitizer.enabled(strict=True) as san:
        sim = Simulator()
        link = FairShareLink(sim, 1e6)
        cache = WriteBackCache(sim, capacity_bytes=1e9)
        cache.write(5e5, (link,))
        cache.write(5e5, (link,))
        sim.run()
        assert cache.dirty == 0.0
        assert cache.bytes_flushed == pytest.approx(1e6)
    assert san.violations == []


# -- billing ---------------------------------------------------------------

def test_billing_undercharge_detected():
    san = Sanitizer(strict=False)
    san.check_billing(BillingModel.PER_HOUR, seconds=7200.0, hours=1.0)
    assert any(v.check == "billing-undercharge" for v in san.violations)


def test_billing_negative_detected():
    san = Sanitizer(strict=False)
    san.check_billing(BillingModel.PER_SECOND, seconds=10.0, hours=-1.0)
    assert any(v.check == "billing-negative" for v in san.violations)


def test_billing_monotonicity_detected():
    san = Sanitizer(strict=False)
    san.check_billing(BillingModel.PER_HOUR, seconds=3000.0, hours=1.0)
    san.check_billing(BillingModel.PER_HOUR, seconds=4000.0, hours=0.5)
    checks = [v.check for v in san.violations]
    assert "billing-monotonicity" in checks
    # 0.5 h for 4000 s is also an undercharge — both fire.
    assert "billing-undercharge" in checks


def test_billed_hours_clean_under_strict_sanitizer():
    with sanitizer.enabled(strict=True) as san:
        for seconds in (0.0, 1.0, 59.0, 60.0, 3599.0, 3600.0, 3601.0, 7200.0):
            for model in BillingModel:
                billed_hours(seconds, model)
    assert san.violations == []


# -- the master's dispatch hook ---------------------------------------------

def _settled_job(kind):
    """A one-job member whose job the core has completed or dead-lettered,
    the core that did it, and the list its ``publish`` port appends to."""
    published = []
    core = MasterCore(
        10.0, RetryPolicy(max_attempts=1),
        publish=lambda state, job_id, *rest: published.append(job_id),
        reprioritize=lambda *a: None, call_later=lambda *a: None,
        on_settled=lambda state: None,
    )
    wf = Workflow("wf")
    wf.new_job("a", "t", runtime=0.01)
    state = core.admit(wf, now=0.0)
    core.on_ack(kind, "wf", "a", 1, None, 1.0)
    return core, state, published


@pytest.mark.parametrize(
    "kind, status", [(COMPLETED, "completed"), (FAILED, "dead")],
    ids=["completed", "dead-lettered"],
)
def test_master_dispatch_of_a_settled_job_is_a_completed_redispatch(kind, status):
    """``MasterCore.dispatch`` consults the sanitizer before it journals
    or publishes: re-dispatching a completed or dead-lettered job is the
    duplicate the journal/idempotency layer must have absorbed."""
    core, state, published = _settled_job(kind)
    assert state.status["a"].value == status and published == ["a"]
    with sanitizer.enabled(strict=False) as san:
        core.dispatch(state, "a", now=2.0)
    assert [v.check for v in san.violations] == ["completed-redispatch"]
    assert f"wf/a: dispatched while {status}" in str(san.violations[0])
    with sanitizer.enabled(strict=True):
        with pytest.raises(InvariantViolation, match="completed-redispatch"):
            core.dispatch(state, "a", now=3.0)
    assert published == ["a", "a"]  # the strict check fired before publish


# -- integration: a real simulation stays invariant-clean ------------------

def test_full_simulation_clean_under_strict_sanitizer():
    from repro.cloud import ClusterSpec
    from repro.engines import PullEngine
    from repro.generators import montage_workflow
    from repro.workflow import Ensemble

    with sanitizer.enabled(strict=True) as san:
        spec = ClusterSpec("c3.8xlarge", 1, filesystem="local")
        result = PullEngine(spec).run(
            Ensemble.replicated(montage_workflow(degree=0.25), 2)
        )
        assert result.makespan > 0
    assert san.violations == []
