"""Overload robustness plane: arrivals, quotas, brownout, soak.

Covers the :mod:`repro.service` package and the
:class:`~repro.liveness.ServiceAdmissionPolicy` ladder end to end:
seeded open-loop arrival processes, token-bucket determinism, brownout
class ordering, fair share, the admission boundary, dead-letter
attribution through a snapshot and the seeded soak
harness (byte-identical per seed, zero gold sheds at 2x capacity).
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dewe.state import WorkflowState
from repro.generators import montage_workflow
from repro.liveness import (
    AdmissionControl,
    BrownoutController,
    ServiceAdmissionPolicy,
    TokenBucket,
)
from repro.monitor import percentile
from repro.engines import pull
from repro.mq import RepriorityPolicy
from repro.service import (
    OnOffArrivals,
    PoissonArrivals,
    SoakConfig,
    TenantSpec,
    build_soak,
    build_workload,
    run_soak,
)
from repro.service.soak import ADMISSION_MAX_PENDING

# -- arrival processes -------------------------------------------------------


def test_poisson_arrivals_seeded_and_bounded():
    proc = PoissonArrivals(rate=2.0)
    a = proc.times(horizon=50.0, seed=7)
    b = proc.times(horizon=50.0, seed=7)
    assert a == b  # pure function of (horizon, seed)
    assert a != proc.times(horizon=50.0, seed=8)
    assert all(0.0 <= t < 50.0 for t in a)
    assert list(a) == sorted(a)
    # ~rate * horizon arrivals, loosely (seeded, so this cannot flake).
    assert 50 <= len(a) <= 150


def test_onoff_arrivals_confined_to_on_windows():
    proc = OnOffArrivals(on_rate=5.0, on_duration=10.0, off_duration=10.0)
    trace = proc.times(horizon=40.0, seed=3)
    assert trace == proc.times(horizon=40.0, seed=3)
    assert trace  # the ON windows must actually produce work
    for t in trace:
        in_first = 0.0 <= t < 10.0
        in_second = 20.0 <= t < 30.0
        assert in_first or in_second, f"arrival {t} inside an OFF window"


def test_arrival_process_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(rate=0.0)
    with pytest.raises(ValueError):
        OnOffArrivals(on_rate=1.0, on_duration=0.0, off_duration=1.0)
    with pytest.raises(ValueError):
        OnOffArrivals(on_rate=1.0, on_duration=1.0, off_duration=-1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: PoissonArrivals(rate=NAN), "rate"),
        (lambda: PoissonArrivals(rate=INF), "rate"),
        (lambda: OnOffArrivals(on_rate=NAN, on_duration=1.0, off_duration=1.0),
         "on_rate"),
        (lambda: OnOffArrivals(on_rate=INF, on_duration=1.0, off_duration=1.0),
         "on_rate"),
        (lambda: OnOffArrivals(on_rate=1.0, on_duration=NAN, off_duration=1.0),
         "on_duration"),
        (lambda: OnOffArrivals(on_rate=1.0, on_duration=INF, off_duration=1.0),
         "on_duration"),
        (lambda: OnOffArrivals(on_rate=1.0, on_duration=1.0, off_duration=NAN),
         "off_duration"),
        (lambda: OnOffArrivals(on_rate=1.0, on_duration=1.0, off_duration=INF),
         "off_duration"),
        (lambda: OnOffArrivals(1.0, 1.0, 1.0, phase=NAN), "phase"),
        (lambda: OnOffArrivals(1.0, 1.0, 1.0, phase=INF), "phase"),
    ],
    ids=[
        "poisson-rate-nan", "poisson-rate-inf", "on-rate-nan", "on-rate-inf",
        "on-duration-nan", "on-duration-inf", "off-duration-nan",
        "off-duration-inf", "phase-nan", "phase-inf",
    ],
)
def test_arrival_processes_refuse_non_finite_parameters(build, name):
    """A NaN or infinite rate or ON window made ``times`` append for
    ever; a NaN OFF window or phase made it return an empty trace."""
    with pytest.raises(ValueError, match=name):
        build()


# -- token bucket ------------------------------------------------------------


def test_token_bucket_refill_is_deterministic():
    a = TokenBucket(rate=1.0, burst=2.0)
    b = TokenBucket(rate=1.0, burst=2.0)
    ops = [(0.0, True), (0.1, True), (0.2, False), (2.5, True)]
    for now, expect in ops:
        assert a.try_take(now) is expect
        assert b.try_take(now) is expect
    assert (a.tokens, a.updated) == (b.tokens, b.updated)


def test_token_bucket_retry_hint_scales_with_deficit():
    bucket = TokenBucket(rate=0.5, burst=1.0)
    assert bucket.try_take(0.0)
    # Empty: one token at 0.5/s is 2 s away — the deterministic
    # retry-after hint attached to a quota shed.
    assert (1.0 - bucket.tokens) / bucket.rate == pytest.approx(2.0)
    assert not bucket.try_take(1.0)  # only 0.5 tokens so far
    assert bucket.try_take(2.1)


# -- brownout controller -----------------------------------------------------


def test_brownout_requires_sustained_overshoot():
    ctl = BrownoutController(thresholds=(1.0, 1.5, 2.0), sustain=5.0)
    # A short burst above threshold 1 never browns out.
    assert ctl.observe(1.2, 0.0) == 0
    assert ctl.observe(1.2, 4.0) == 0
    assert ctl.observe(0.2, 4.5) == 0
    # Sustained overshoot does, once the hold window elapses.
    assert ctl.observe(1.2, 10.0) == 0
    assert ctl.observe(1.2, 15.0) == 1
    assert ctl.transitions == [(15.0, 1)]


def test_brownout_release_is_hysteretic():
    ctl = BrownoutController(thresholds=(1.0,), sustain=1.0)
    ctl.observe(1.5, 0.0)
    assert ctl.observe(1.5, 1.0) == 1
    # Dropping below the threshold but above release * threshold holds
    # the level — no flapping around the trip point.
    assert ctl.observe(0.9, 2.0) == 1
    assert ctl.observe(0.9, 10.0) == 1
    # Below the release bound (BROWNOUT_RELEASE 0.75, sustained) the
    # level drops.
    ctl.observe(0.5, 11.0)
    assert ctl.observe(0.5, 12.5) == 0


# -- the policy ladder -------------------------------------------------------


def _policy(**kw) -> ServiceAdmissionPolicy:
    defaults = dict(
        admission=AdmissionControl(max_pending_jobs=10, retry_after=2.0),
        # Below the gate (overshoot 1.0), as the soak configures it, so
        # the graceful ladder engages before the class-blind backstop.
        brownout=BrownoutController(thresholds=(0.4, 0.8, 1.2), sustain=0.0),
        fair_share_floor=1000,
    )
    defaults.update(kw)
    policy = ServiceAdmissionPolicy(**defaults)
    policy.add_tenant("acme", weight=2.0)
    policy.add_tenant("beta")
    policy.add_tenant("casual", weight=0.5)
    for i in range(50):
        policy.register(f"g{i}", "acme", "gold")
        policy.register(f"s{i}", "beta", "silver")
        policy.register(f"b{i}", "casual", "best_effort")
    return policy


def test_brownout_sheds_by_class_order():
    policy = _policy()
    # Overshoot 0.5 (below the gate), sustained (sustain=0): level 1 —
    # best_effort sheds, silver and gold still admitted.
    assert not policy.decide("b0", 1, backlog=5, now=0.0).admit
    assert policy.decide("s0", 1, backlog=5, now=0.0).admit
    assert policy.decide("g0", 1, backlog=5, now=0.0).admit
    # Level 2 (>= 0.8): silver still admitted but deadline-stretched.
    stretched = policy.decide("s1", 1, backlog=9, now=1.0)
    assert stretched.admit
    assert stretched.timeout_factor == pytest.approx(1.5 * 2.0)
    # Level 3 (>= 1.2): everything but gold sheds — and the brownout
    # stage outranks the (also binding) backlog gate in attribution.
    assert not policy.decide("s2", 1, backlog=13, now=2.0).admit
    assert policy.decide("g1", 1, backlog=13, now=2.0).admit
    assert policy.stats["shed_best_effort"] == 1
    assert policy.stats["shed_silver"] == 1
    assert "shed_gold" not in policy.stats
    reasons = [record.reason for record in policy.sheds]
    assert reasons == ["brownout-l1", "brownout-l3"]


def test_gold_bypasses_backlog_gate_silver_does_not():
    policy = _policy(brownout=BrownoutController(sustain=1e9))
    assert not policy.decide("s0", 1, backlog=10, now=0.0).admit
    assert policy.decide("g0", 1, backlog=10, now=0.0).admit
    # The shed carries the backlog-scaled retry-after hint.
    assert policy.sheds[0].reason == "admission"
    assert policy.sheds[0].retry_after == pytest.approx(2.0)
    assert not policy.decide("s1", 1, backlog=20, now=0.0).admit
    assert policy.sheds[1].retry_after == pytest.approx(4.0)


def test_quota_shed_consumes_no_fair_share_and_hints_refill():
    policy = ServiceAdmissionPolicy(
        admission=AdmissionControl(max_pending_jobs=100),
        fair_share_floor=1000,
    )
    policy.add_tenant("acme", quota=TokenBucket(rate=0.5, burst=1.0))
    for i in range(3):
        policy.register(f"w{i}", "acme", "gold")
    assert policy.decide("w0", 5, backlog=0, now=0.0).admit
    verdict = policy.decide("w1", 5, backlog=0, now=0.0)
    assert not verdict.admit
    assert verdict.reason == "quota"
    assert verdict.retry_after == pytest.approx(2.0)
    # Sheds charge nothing: only the admitted workflow is outstanding.
    assert policy.total_outstanding == 5
    assert policy.decide("w2", 5, backlog=0, now=2.1).admit


def test_fair_share_bounds_dominant_tenant_and_refunds_quota():
    policy = ServiceAdmissionPolicy(
        admission=AdmissionControl(max_pending_jobs=1000),
        brownout=BrownoutController(sustain=1e9),
        fair_share_floor=10,
    )
    policy.add_tenant("hog", quota=TokenBucket(rate=100.0, burst=100.0))
    policy.add_tenant("meek")
    for i in range(10):
        policy.register(f"h{i}", "hog", "gold")
        policy.register(f"m{i}", "meek", "gold")
    # Under the floor any share goes: the hog takes the empty service.
    assert policy.decide("h0", 8, backlog=0, now=0.0).admit
    tokens_before = policy._tenants["hog"].bucket.tokens
    # 16/16 = 100% > the 50% bound: fair-share shed, and the quota token
    # the attempt consumed is refunded — a shed costs no budget.
    verdict = policy.decide("h1", 8, backlog=0, now=0.0)
    assert not verdict.admit
    assert verdict.reason == "fair-share"
    assert policy._tenants["hog"].bucket.tokens == tokens_before
    # The other tenant still gets in: 8/16 = 50%, not above the bound.
    assert policy.decide("m0", 8, backlog=0, now=0.0).admit
    # Settlement releases the hog's charge, so it may submit again.
    policy.settle("h0")
    policy.settle("h0")  # idempotent: duplicate settle is a no-op
    assert policy.total_outstanding == 8
    assert policy.decide("h2", 8, backlog=0, now=0.0).admit


def test_admission_boundary_is_exact():
    gate = AdmissionControl(max_pending_jobs=64, retry_after=1.0)
    assert gate.admits(63)
    assert not gate.admits(64)
    assert gate.retry_hint(32) == pytest.approx(1.0)   # floor: never < base
    assert gate.retry_hint(128) == pytest.approx(2.0)  # 2x overshoot


# -- workload builder --------------------------------------------------------


def test_build_workload_merges_tags_and_is_deterministic():
    template = montage_workflow(degree=0.1)
    tenants = [
        TenantSpec("t0", "gold", PoissonArrivals(rate=0.5)),
        TenantSpec("t1", "best_effort", PoissonArrivals(rate=1.0)),
    ]
    load = build_workload(tenants, template, horizon=60.0, seed=4)
    again = build_workload(tenants, template, horizon=60.0, seed=4)
    assert [w.name for w in load.ensemble.workflows] == [
        w.name for w in again.ensemble.workflows
    ]
    times = load.ensemble.plan.times
    assert list(times) == sorted(times)
    assert len(times) == len(load.ensemble.workflows)
    counts = load.per_tenant_counts
    assert set(counts) == {"t0", "t1"}
    for name, (tenant, sla) in load.tags.items():
        assert name.startswith(tenant + ".")
        assert sla in ("gold", "best_effort")
    policy = load.wire(ServiceAdmissionPolicy())
    assert policy.rank_of(load.ensemble.workflows[0].name) in (0, 2)


def test_build_workload_rejects_bad_input():
    template = montage_workflow(degree=0.1)
    with pytest.raises(ValueError):
        build_workload([], template, horizon=10.0, seed=0)
    dup = [
        TenantSpec("t0", "gold", PoissonArrivals(rate=1.0)),
        TenantSpec("t0", "silver", PoissonArrivals(rate=1.0)),
    ]
    with pytest.raises(ValueError):
        build_workload(dup, template, horizon=10.0, seed=0)


# -- dead-letter attribution through a snapshot ------------------------------


def test_dead_letter_snapshot_round_trips_attribution():
    from repro.faults.retry import RetryPolicy

    wf = montage_workflow(degree=0.1)
    state = WorkflowState(
        wf, tenant="acme", sla="gold", retry=RetryPolicy(max_attempts=1)
    )
    root = state.initial_ready()[0]
    assert state.on_failed(root, 1, now=12.5) is None  # budget spent
    snap = state.snapshot()
    restored = WorkflowState.restore(wf, snap)
    assert (restored.tenant, restored.sla) == ("acme", "gold")
    assert restored.dead_letters == state.dead_letters
    entry = restored.dead_letters[0]
    assert (entry.job_id, entry.reason, entry.time) == (root, "failed", 12.5)
    assert (entry.tenant, entry.sla) == ("acme", "gold")
    # The exported form keeps the 7-element row.
    assert snap.to_dict()["dead_letters"][0] == [
        wf.name, root, 1, "failed", 12.5, "acme", "gold",
    ]


# -- percentile helper -------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0.50) == 2.0  # no interpolation
    assert percentile(values, 0.99) == 4.0
    assert percentile([], 0.5) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_percentile_refuses_a_non_finite_value(bad):
    # sorted([3.0, nan, 1.0]) is [3.0, nan, 1.0]: the rank would be wrong.
    with pytest.raises(ValueError, match=repr(bad)):
        percentile([3.0, bad, 1.0], 0.5)


@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50),
    q=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_percentile_matches_the_numpy_ceil_rank(values, q):
    ordered = sorted(values)
    n = len(ordered)
    expected = (
        float(ordered[max(0, min(n - 1, int(np.ceil(q * n)) - 1))]) if n else 0.0
    )
    assert percentile(values, q) == expected


# -- the soak harness --------------------------------------------------------


def _mini_soak(seed: int = 0) -> SoakConfig:
    """A seconds-scale soak that still runs at 2x capacity."""
    return dataclasses.replace(
        SoakConfig.quick(seed=seed),
        horizon=60.0,
        burst_on=10.0,
        burst_off=10.0,
        brownout_sustain=2.0,
    )


def test_soak_protects_gold_and_sheds_best_effort():
    report = run_soak(_mini_soak())
    assert report.ok, report.problems
    assert report.classes["gold"]["shed"] == 0
    assert report.classes["best_effort"]["shed"] > 0
    # Percentiles exist for every class that completed work.
    for row in report.classes.values():
        if row["completed"]:
            assert row["p99_slowdown"] >= row["p50_slowdown"] >= 1.0
    # Backlog stayed bounded (also enforced inside report.problems).
    assert report.peak_backlog <= 4 * ADMISSION_MAX_PENDING
    # The report is machine-readable and carries the ladder counters.
    payload = json.loads(report.to_json())
    assert payload["liveness"]["shed_submissions"] > 0


def test_soak_is_byte_identical_per_seed():
    a = run_soak(_mini_soak(seed=5)).to_json()
    b = run_soak(_mini_soak(seed=5)).to_json()
    assert a == b
    assert a != run_soak(_mini_soak(seed=6)).to_json()


@pytest.mark.parametrize(
    "changes,match",
    [
        ({"load_factor": 0.5}, "load_factor"),
        ({"load_factor": 0.8}, "load_factor"),
        ({"load_factor": float("nan")}, "load_factor"),
        ({"load_factor": float("inf")}, "load_factor"),
        ({"horizon": 0.0}, "horizon"),
        ({"horizon": float("inf")}, "horizon"),
        ({"horizon": float("nan")}, "horizon"),
        ({"n_nodes": 0}, "n_nodes"),
        ({"burst_on": 0.0}, "burst_on"),
        ({"burst_on": -1.0}, "burst_on"),
        ({"burst_on": float("nan")}, "burst_on"),
        ({"burst_off": -1.0}, "burst_off"),
        ({"burst_off": float("nan")}, "burst_off"),
        ({"burst_off": float("inf")}, "burst_off"),
        ({"brownout_sustain": -1.0}, "brownout_sustain"),
        ({"brownout_sustain": float("nan")}, "brownout_sustain"),
    ],
    ids=[
        "load-below", "load-equal", "load-nan", "load-inf",
        "horizon-zero", "horizon-inf", "horizon-nan", "no-nodes",
        "burst-on-zero", "burst-on-negative", "burst-on-nan",
        "burst-off-negative", "burst-off-nan", "burst-off-inf",
        "sustain-negative", "sustain-nan",
    ],
)
def test_soak_config_refuses_an_unrunnable_soak_at_construction(changes, match):
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(SoakConfig.quick(), **changes)


def _cli_refuses_before_probing(monkeypatch, capsys, flags, match):
    import repro.service as service
    from repro.cli import main_service

    def no_soak(_cfg):
        raise AssertionError("a refused config must not be probed or run")

    monkeypatch.setattr(service, "run_soak", no_soak)
    with pytest.raises(SystemExit) as exit_info:
        main_service(["--quick", *flags])
    assert exit_info.value.code == 2
    assert match in capsys.readouterr().err


def test_service_cli_refuses_a_load_below_the_reserved_classes(
    monkeypatch, capsys
):
    """``--load 0.5`` leaves best_effort nothing: exit 2 before either
    capacity probe runs."""
    _cli_refuses_before_probing(monkeypatch, capsys, ["--load", "0.5"], "load_factor")


def test_service_cli_refuses_an_empty_cluster_before_probing(monkeypatch, capsys):
    _cli_refuses_before_probing(monkeypatch, capsys, ["--nodes", "0"], "n_nodes")


@pytest.mark.parametrize(
    "repriority, plain", [(None, True), (RepriorityPolicy(), False)],
    ids=["service-only", "repriority"],
)
def test_soak_dispatch_topic_leaves_plain_mode_only_for_priorities(
    monkeypatch, repriority, plain
):
    """A service policy alone publishes every dispatch at priority 0.0,
    so the dispatch topic's store stays in its allocation-free plain
    mode; only a repriority policy (SLA bands, retags) materializes
    entry records."""
    setup = build_soak(_mini_soak())
    setup.engine.repriority = repriority
    runs = []
    execute = pull.PullRun.execute

    def spy(run):
        runs.append(run)
        return execute(run)

    monkeypatch.setattr(pull.PullRun, "execute", spy)
    result = setup.engine.run(setup.workload.ensemble)
    assert result.jobs_executed > 0
    assert runs[0].broker.topic(pull._DISPATCH)._plain is plain
