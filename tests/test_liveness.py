"""Partition-tolerant control plane: heartbeat leases, partitions,
standby-master failover, admission control, and the game-day harness.

The DES tests double as determinism checks: every scenario is run twice
and the fault traces must match byte for byte.
"""

import pytest

import repro.analysis.sanitizer as sanitizer
from repro.cloud import ClusterSpec
from repro.engines import PullEngine, RunConfig
from repro.faults import RetryPolicy
from repro.faults.chaos import get_scenario, run_chaos
from repro.faults.models import (
    NetworkPartitionModel,
    PartitionHazard,
    PartitionWindow,
    SpotHazard,
    SpotTerminationModel,
)
from repro.generators import montage_workflow
from repro.liveness import (
    MISS_THRESHOLD,
    AdmissionControl,
    BrownoutController,
    LeaseConfig,
    LeaseTable,
    MasterFailoverModel,
    SlaClass,
    TokenBucket,
)
from repro.monitor import to_chrome_trace
from repro.mq import RepriorityPolicy
from repro.recovery.journal import Journal
from repro.workflow import Ensemble


def small_spec(n_nodes: int = 2) -> ClusterSpec:
    fs = "local" if n_nodes == 1 else "moosefs"
    return ClusterSpec("c3.8xlarge", n_nodes, filesystem=fs)


def fast_cfg(timeout: float = 6.0, record: bool = False) -> RunConfig:
    return RunConfig(
        default_timeout=timeout, timeout_check_interval=0.25, record_jobs=record
    )


def trace_lines(result) -> str:
    return "\n".join(e.line() for e in result.fault_events)


# -- lease table -------------------------------------------------------------
def test_lease_config_validation():
    with pytest.raises(ValueError):
        LeaseConfig(heartbeat_interval=0.0)
    assert LeaseConfig(heartbeat_interval=0.5).lease_timeout == 1.5  # 3 beats


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: TokenBucket(rate=NAN, burst=2.0), "rate"),
        (lambda: TokenBucket(rate=INF, burst=2.0), "rate"),
        (lambda: TokenBucket(rate=1.0, burst=NAN), "burst"),
        (lambda: TokenBucket(rate=1.0, burst=INF), "burst"),
        (lambda: BrownoutController(sustain=NAN), "sustain"),
        (lambda: BrownoutController(sustain=INF), "sustain"),
        (lambda: BrownoutController(thresholds=(1.0, NAN)), "thresholds"),
        (lambda: BrownoutController(thresholds=(1.0, INF)), "thresholds"),
        (lambda: AdmissionControl(retry_after=NAN), "retry_after"),
        (lambda: AdmissionControl(retry_after=INF), "retry_after"),
        (lambda: SlaClass("gold", 0, deadline_factor=NAN), "deadline_factor"),
        (lambda: SlaClass("gold", 0, deadline_factor=INF), "deadline_factor"),
        (lambda: RepriorityPolicy(interval=NAN), "interval"),
        (lambda: RepriorityPolicy(interval=INF), "interval"),
        (lambda: RetryPolicy(base_delay=NAN), "base_delay"),
        (lambda: RetryPolicy(max_delay=NAN), "max_delay"),
        (lambda: LeaseConfig(heartbeat_interval=NAN), "heartbeat_interval"),
        (lambda: LeaseConfig(heartbeat_interval=INF), "heartbeat_interval"),
        (lambda: SpotHazard(NAN), "rate_per_hour"),
        (lambda: SpotHazard(INF), "rate_per_hour"),
        (lambda: SpotHazard(1.0, notice=NAN), "notice"),
        (lambda: SpotHazard(1.0, notice=INF), "notice"),
        (lambda: PartitionHazard(0.5, until=NAN), "until"),
        (lambda: PartitionHazard(0.5, until=INF), "until"),
    ],
    ids=[
        "bucket-rate-nan", "bucket-rate-inf", "bucket-burst-nan",
        "bucket-burst-inf", "sustain-nan", "sustain-inf", "threshold-nan",
        "threshold-inf", "retry-after-nan", "retry-after-inf",
        "deadline-factor-nan", "deadline-factor-inf", "repriority-interval-nan",
        "repriority-interval-inf", "base-delay-nan", "max-delay-nan",
        "heartbeat-nan", "heartbeat-inf",
        "spot-rate-nan", "spot-rate-inf", "spot-notice-nan", "spot-notice-inf",
        "partition-until-nan", "partition-until-inf",
    ],
)
def test_policy_objects_refuse_nan_and_inf(build, name):
    """Each reached the run before: a NaN retry-after reached
    ``sim.timeout`` mid-run, a NaN repriority interval silently turned
    the sweep off."""
    with pytest.raises(ValueError, match=name):
        build()


def test_lease_grant_beat_fence_cycle():
    table = LeaseTable(LeaseConfig(heartbeat_interval=1.0))
    epoch = table.grant("w0", 0.0)
    assert epoch == 1 and table.valid("w0", epoch)
    assert table.beat("w0", epoch, 1.0)
    # Silent past the miss threshold: expire names it, fence stales it.
    assert table.expire(1.5) == []
    assert table.expire(3.5) == []  # 2 beats missed, 3 allowed
    assert table.expire(4.5) == ["w0"]
    assert table.stats["heartbeat_misses"] == MISS_THRESHOLD
    assert table.fence("w0", 4.5) == epoch
    assert not table.valid("w0", epoch)
    assert not table.beat("w0", epoch, 4.75)
    # Fencing is idempotent and a regrant re-admits under a newer epoch.
    table.fence("w0", 5.0)
    assert table.stats["lease_fencings"] == 1
    fresh = table.grant("w0", 6.0)
    assert fresh > epoch and table.valid("w0", fresh)
    assert table.stats["lease_regrants"] == 1


def test_lease_observe_renews_and_readmits():
    table = LeaseTable(LeaseConfig(heartbeat_interval=1.0))
    assert table.observe("w0", 0.0) == 1  # unknown worker: admitted
    assert table.observe("w0", 1.0) is None  # renewed in place
    table.fence("w0", 5.0)
    assert table.observe("w0", 6.0) == 2  # fenced worker: fresh epoch


def test_lease_epoch_floor_orders_master_incarnations():
    primary = LeaseTable(LeaseConfig())
    epochs = {worker: primary.grant(worker, 0.0) for worker in ("a", "b", "c")}
    standby = LeaseTable(LeaseConfig(), epoch_floor=primary.max_epoch)
    # Every epoch the standby issues post-dates every primary-era epoch,
    # so a single comparison fences the whole previous incarnation.
    assert standby.grant("a", 1.0) > primary.max_epoch
    assert not standby.valid("b", epochs["b"])


def test_admission_control_gate():
    with pytest.raises(ValueError):
        AdmissionControl(max_pending_jobs=0)
    with pytest.raises(ValueError):
        AdmissionControl(retry_after=0.0)
    gate = AdmissionControl(max_pending_jobs=4, retry_after=0.5)
    assert gate.admits(3)
    assert not gate.admits(4)


def test_failover_model_validation():
    with pytest.raises(ValueError):
        MasterFailoverModel(-1.0)
    with pytest.raises(ValueError):
        MasterFailoverModel(1.0, detection=0.0)


# -- partition model ---------------------------------------------------------
def test_partition_window_validation():
    with pytest.raises(ValueError):
        PartitionWindow(node=0, start=-1.0, duration=1.0)
    with pytest.raises(ValueError):
        PartitionWindow(node=0, start=0.0, duration=0.0)
    with pytest.raises(ValueError):
        PartitionWindow(node=0, start=0.0, duration=1.0, mode="sideways")


def test_partition_model_rejects_overlapping_windows():
    with pytest.raises(ValueError, match="overlap"):
        NetworkPartitionModel(
            [
                PartitionWindow(node=0, start=0.0, duration=5.0),
                PartitionWindow(node=0, start=3.0, duration=2.0),
            ]
        )


def test_partition_model_sampling_is_seed_deterministic():
    hazard = PartitionHazard(0.8, p_asymmetric=0.5)
    a = hazard.sample(3, 8, 600.0)
    b = hazard.sample(3, 8, 600.0)
    c = hazard.sample(4, 8, 600.0)
    assert a.windows == b.windows
    assert a.windows != c.windows
    assert all(w.mode in ("full", "to-master", "from-master") for w in a.windows)
    shielded = PartitionHazard(1.0, protected=(0, 1)).sample(3, 8, 600.0)
    assert {w.node for w in shielded.windows} <= set(range(2, 8))


# -- price-indexed spot hazard -----------------------------------------------
def test_spot_price_hazard_default_preserves_traces():
    flat = SpotHazard(rate_per_hour=40.0).sample(5, 6, 3600.0)
    default = SpotHazard(rate_per_hour=40.0, price_hazard=None).sample(5, 6, 3600.0)
    unit = SpotHazard(rate_per_hour=40.0, price_hazard=((0.0, 1.0),)).sample(
        5, 6, 3600.0
    )
    # A flat 1x hazard is the identity mapping: byte-for-byte the same
    # reclamations as the pre-hazard sampler.
    assert default.terminations == flat.terminations
    assert unit.terminations == flat.terminations


def test_spot_price_hazard_pulls_reclamations_into_the_spike():
    flat = SpotHazard(rate_per_hour=40.0).sample(5, 6, 3600.0)
    spiky = SpotHazard(
        rate_per_hour=40.0, price_hazard=((0.0, 1.0), (10.0, 50.0))
    ).sample(5, 6, 3600.0)
    assert spiky.terminations != flat.terminations
    # More hazard can only move each node's reclamation earlier.
    flat_by_node = dict((n, t) for t, n in flat.terminations)
    for t, node in spiky.terminations:
        assert t <= flat_by_node.get(node, 3600.0) + 1e-9


# -- journal fencing ---------------------------------------------------------
def test_journal_fence_refuses_stale_epoch_appends():
    journal = Journal()
    assert journal.append(0.0, "submit", "wf", epoch=0) is not None
    token = journal.fence()
    assert token == 1
    # The fenced primary's write goes nowhere; the standby's lands.
    assert journal.append(1.0, "dispatch", "wf", "job", epoch=0) is None
    assert journal.fenced_appends == 1
    assert journal.append(1.0, "dispatch", "wf", "job", epoch=token) is not None
    assert len(journal) == 2


# -- sanitizer hooks ---------------------------------------------------------
def test_sanitizer_flags_settlement_from_fenced_lease():
    san = sanitizer.Sanitizer(strict=False)
    san.check_lease_fencing("wf", "job", "w0", stale=False, time=1.0)
    assert not san.violations
    san.check_lease_fencing("wf", "job", "w0", stale=True, time=2.0)
    assert [v.check for v in san.violations] == ["lease-fencing"]
    assert "fenced lease" in str(san.violations[0])


def test_sanitizer_flags_overlapping_rental_spans():
    san = sanitizer.Sanitizer(strict=False)
    san.check_failover_billing("node-0", [(0.0, 5.0), (5.0, 9.0)], makespan=10.0)
    assert not san.violations
    # A failover that double-billed the same wall-clock interval.
    san.check_failover_billing("node-0", [(0.0, 5.0), (4.0, 9.0)], makespan=10.0)
    assert [v.check for v in san.violations] == ["failover-billing"]


# -- DES: partitions under leases --------------------------------------------
def _partition_engine(windows, liveness=True, timeout=6.0):
    # Two 8-vCPU nodes against a 25-wide mProjectPP wave: the dispatch
    # queue wakes the oldest idle slot, so with fewer ready jobs than
    # node 0 has slots the second node would never hold any work and a
    # partition there would be vacuous.
    return PullEngine(
        ClusterSpec("m3.2xlarge", 2, filesystem="moosefs"),
        config=fast_cfg(timeout),
        retry=RetryPolicy(max_attempts=6),
        controllers=[NetworkPartitionModel(windows)],
        liveness=(
            LeaseConfig(heartbeat_interval=0.25)
            if liveness
            else None
        ),
    )


def _montage_ensemble(n: int = 1) -> Ensemble:
    return Ensemble.replicated(montage_workflow(degree=0.3), n)


def _wide_ensemble() -> Ensemble:
    return Ensemble([montage_workflow(degree=0.8)])


def test_des_full_partition_fences_and_redispatches():
    windows = [PartitionWindow(node=1, start=1.0, duration=4.0)]
    results = [
        _partition_engine(windows).run(_wide_ensemble()) for _ in range(2)
    ]
    result = results[0]
    counts = next(iter(result.job_counts.values()))
    assert counts["completed"] == 143 and counts["dead"] == 0
    stats = result.liveness_stats
    # The silent worker was fenced well before the 6 s job timeout and
    # its in-flight jobs redispatched to the surviving node.
    assert stats["partitions"] == 1
    assert stats["lease_fencings"] >= 1
    assert stats["heartbeat_misses"] >= 3
    assert result.resubmissions > 0
    kinds = {e.kind for e in result.fault_events}
    assert {"partition-start", "partition-heal", "lease-fence"} <= kinds
    # Byte-identical replay: same seed-free schedule, same trace.
    assert trace_lines(results[0]) == trace_lines(results[1])
    assert results[0].makespan == results[1].makespan


def test_des_asymmetric_partition_black_holed_dispatches_recover():
    # ``to-master``: the worker keeps pulling but its acks are buffered,
    # then rejected as stale once the lease is fenced.  Those deliveries
    # never reach the fencing requeue (no validly-acked assignment), so
    # recovery leans on the always-armed dispatch deadline.
    windows = [PartitionWindow(node=1, start=1.0, duration=4.0, mode="to-master")]
    result = _partition_engine(windows).run(_wide_ensemble())
    counts = next(iter(result.job_counts.values()))
    assert counts["completed"] == 143 and counts["dead"] == 0
    assert result.liveness_stats["stale_epoch_acks"] > 0
    assert result.liveness_stats["lease_fencings"] >= 1


def test_des_partition_without_leases_recovers_via_job_timeout():
    windows = [PartitionWindow(node=1, start=1.0, duration=4.0)]
    result = _partition_engine(windows, liveness=False).run(_wide_ensemble())
    counts = next(iter(result.job_counts.values()))
    assert counts["completed"] == 143 and counts["dead"] == 0
    # No lease plane: the only liveness evidence is the partition tally.
    assert result.liveness_stats["lease_fencings"] == 0
    assert result.liveness_stats["partitions"] == 1


# -- DES: standby-master failover --------------------------------------------
def _failover_engine(liveness: bool):
    return PullEngine(
        small_spec(2),
        config=fast_cfg(),
        retry=RetryPolicy(max_attempts=6),
        journal=Journal(checkpoint_every=10),
        controllers=[MasterFailoverModel(at=1.5, detection=0.5)],
        liveness=(
            LeaseConfig(heartbeat_interval=0.25)
            if liveness
            else None
        ),
    )


@pytest.mark.parametrize("liveness", [False, True])
def test_des_failover_settles_every_job_exactly_once(liveness):
    results = [
        _failover_engine(liveness).run(_montage_ensemble(2)) for _ in range(2)
    ]
    result = results[0]
    assert result.liveness_stats["failovers"] == 1
    for counts in result.job_counts.values():
        assert counts["completed"] == 20 and counts["dead"] == 0
        assert counts["queued"] == counts["running"] == counts["waiting"] == 0
    # At-least-once execution, exactly-once settlement: the takeover may
    # re-run work, never lose it.
    assert result.jobs_executed >= 40
    kinds = {e.kind for e in result.fault_events}
    assert {"master-fail", "failover"} <= kinds
    # The fenced primary's late appends were refused, not interleaved.
    assert result.journal is not None and result.journal.epoch == 1
    # Deterministic: two identically-seeded runs agree byte for byte.
    assert trace_lines(results[0]) == trace_lines(results[1])
    assert results[0].makespan == results[1].makespan


def test_every_controller_kind_composes_in_one_run():
    """Schedule + spot + straggler + partition + autoscaler + failover in
    one ``controllers`` list: six disturbances against one run, every
    job still settles exactly once (strict sanitizer armed)."""
    from repro.faults import Degradation, FaultSchedule, StragglerModel
    from repro.faults import kill_restart_cycle
    from repro.provision import queue_depth_autoscaler

    def run_once():
        controllers = [
            kill_restart_cycle([1.0], downtime=1.5, kill_node=1),
            SpotTerminationModel([(4.0, 0)], notice=0.5, replacement_delay=1.0),
            StragglerModel([Degradation(0, 0.5, 3.0, disk_factor=0.3)]),
            NetworkPartitionModel([PartitionWindow(1, 3.0, 2.0)]),
            queue_depth_autoscaler(
                min_nodes=2, check_interval=1.0, scale_out_depth=4.0,
                scale_in_depth=1.0, boot_delay=1.0,
            ),
            MasterFailoverModel(at=2.0, detection=0.5),
        ]
        assert isinstance(controllers[0], FaultSchedule)
        return PullEngine(
            small_spec(4),
            config=fast_cfg(),
            retry=RetryPolicy(max_attempts=8),
            journal=Journal(checkpoint_every=10),
            liveness=LeaseConfig(heartbeat_interval=0.25),
            controllers=controllers,
        ).run(Ensemble.replicated(montage_workflow(degree=0.5), 4, interval=0.5))

    first, second = run_once(), run_once()
    n_jobs = len(montage_workflow(degree=0.5))
    assert len(first.job_counts) == 4 and not first.dead_letters
    for counts in first.job_counts.values():
        assert counts["completed"] == n_jobs
        assert sum(counts.values()) == n_jobs
    assert first.jobs_executed >= 4 * n_jobs
    kinds = {e.kind for e in first.fault_events}
    assert {
        "kill", "restart", "spot-notice", "spot-termination",
        "spot-replacement", "degrade-start", "degrade-end",
        "partition-start", "partition-heal", "master-fail", "failover",
    } <= kinds
    # The autoscaler held nodes 2 and 3 back and leased at least one later.
    late = [i for i in (2, 3) if i in first.rental_spans]
    assert late and all(first.rental_spans[i][0][0] > 0.0 for i in late)
    assert first.liveness_stats["failovers"] == 1
    assert first.liveness_stats["partitions"] == 1
    assert trace_lines(first) == trace_lines(second)
    assert first.makespan == second.makespan


def test_des_failover_keeps_admission_arrival_and_deadline_slack(monkeypatch):
    """A standby re-scores restored and re-admitted members against the
    arrival they were admitted with, not against t=0 (the bug: members
    submitted at t=5 and t=10 were ranked as if they arrived at t=0
    after a takeover at t=12.5)."""
    from repro.dewe.state import WorkflowState
    from repro.mq.priority import RepriorityPolicy

    scored = []
    job_priority = WorkflowState.job_priority

    def spy(self, job_id, now, policy, base=0.0):
        scored.append((now, self.name, self.arrival, self.deadline_factor))
        return job_priority(self, job_id, now, policy, base)

    monkeypatch.setattr(WorkflowState, "job_priority", spy)
    result = PullEngine(
        small_spec(1),
        journal=Journal(checkpoint_every=50),
        controllers=[MasterFailoverModel(12.0, 0.5)],
        repriority=RepriorityPolicy(),
    ).run(Ensemble.replicated(montage_workflow(degree=1.0), 3, interval=5.0))
    assert result.liveness_stats["failovers"] == 1
    after = [row for row in scored if row[0] >= 12.5]
    assert {name for _now, name, _arrival, _factor in after} == set(
        result.workflow_spans
    )
    assert {(name, arrival) for _now, name, arrival, _factor in after} == {
        (name, start) for name, (start, _end) in result.workflow_spans.items()
    }
    assert {arrival for _now, _name, arrival, _factor in after} == {0.0, 5.0, 10.0}
    assert {factor for _now, _name, _arrival, factor in after} == {1.0}


def test_des_failover_requires_journal(monkeypatch):
    """Refused at install, before any event is simulated."""
    from repro.sim import Simulator

    def no_events(*_args, **_kwargs):
        raise AssertionError("simulated an event")

    monkeypatch.setattr(Simulator, "_drain", no_events)
    engine = PullEngine(
        small_spec(2), controllers=[MasterFailoverModel(at=1.0)]
    )
    with pytest.raises(ValueError, match="requires a write-ahead journal"):
        engine.run(Ensemble([montage_workflow(degree=0.3)]))


# -- DES: admission control --------------------------------------------------
def test_des_admission_gate_sheds_then_admits():
    engine = PullEngine(
        ClusterSpec("m3.2xlarge", 1, filesystem="local"),
        config=fast_cfg(timeout=30.0),
        admission=AdmissionControl(max_pending_jobs=4, retry_after=0.5),
    )
    # 25 ready mProjectPP jobs against 8 slots: the second workflow's
    # submission meets a real dispatch backlog and is shed, then admitted
    # once the backlog drains.  Everything still settles.
    ensemble = Ensemble.replicated(
        montage_workflow(degree=0.8), 2, interval=0.25
    )
    result = engine.run(ensemble)
    assert result.liveness_stats["shed_submissions"] > 0
    for counts in result.job_counts.values():
        assert counts["completed"] == 143 and counts["dead"] == 0
    assert {e.kind for e in result.fault_events} >= {"admission-shed"}


def test_chrome_trace_carries_liveness_counters():
    windows = [PartitionWindow(node=1, start=1.0, duration=3.0)]
    engine = PullEngine(
        ClusterSpec("m3.2xlarge", 2, filesystem="moosefs"),
        config=fast_cfg(record=True),
        retry=RetryPolicy(max_attempts=6),
        controllers=[NetworkPartitionModel(windows)],
        liveness=LeaseConfig(heartbeat_interval=0.25),
    )
    result = engine.run(_montage_ensemble())
    document = to_chrome_trace(result)
    liveness = document["otherData"]["liveness"]
    assert liveness == result.liveness_stats
    fault_names = {
        e["name"] for e in document["traceEvents"] if e.get("cat") == "fault"
    }
    assert {"partition-start", "partition-heal", "lease-fence"} <= fault_names


# -- game day ----------------------------------------------------------------
def test_game_day_scenario_settles_and_is_deterministic():
    reports = [run_chaos(get_scenario("game-day")) for _ in range(2)]
    report = reports[0]
    assert report.ok, report.summary()
    stats = report.liveness_stats
    assert stats["failovers"] == 1
    assert stats["partitions"] >= 1
    assert stats["lease_fencings"] >= 1
    assert stats["shed_submissions"] >= 1
    assert stats["stale_epoch_acks"] >= 1
    assert report.fault_counts.get("spot-termination", 0) >= 1
    assert report.n_dead == 0
    assert reports[0].trace_text == reports[1].trace_text
    assert reports[0].makespan == reports[1].makespan


def test_partition_scenario_ok():
    report = run_chaos(get_scenario("partition"))
    assert report.ok, report.summary()
    assert report.liveness_stats["partitions"] >= 1
    assert report.liveness_stats["lease_fencings"] >= 1
