"""Chaos harness: run ensembles under named fault scenarios and certify
the recovery invariants.

A :class:`ChaosScenario` holds what one run takes: a workload, a
cluster, a :class:`~repro.faults.retry.RetryPolicy`, the liveness,
admission and priority policies, and one ordered tuple of faults — the
spot, straggler and partition samplers of :mod:`repro.faults.models`,
transient/poison job failures, broker message chaos, file corruption
and loss, a master failover — beside a master crash.  :func:`run_chaos` runs the
scenario fault-free for the baseline, then under chaos (and, with
``crash_after``, once more at the same time in a forked child process,
with the master crashing and restoring), and checks that the recovery
machinery actually recovered:

* **completion** — every job either completed exactly once or was
  dead-lettered (with its unreachable descendants); nothing is stranded
  queued/running/waiting at settlement;
* **dead-letter accounting** — jobs only die when the scenario injects a
  reason for them to (a poison job, a bounded retry budget); a fault-free
  retry budget must produce zero dead letters;
* **lease/billing conservation** — worker-daemon leases are well formed
  under mid-lease termination and the spot billing rule never charges a
  provider-interrupted partial hour (checked through the sanitizer hooks
  in :mod:`repro.analysis.sanitizer`);
* **bounded degradation** — the chaos makespan stays within the
  scenario's ``max_slowdown`` factor of the fault-free baseline (the
  paper's §V.A.3 observation: an interruption costs about the downtime,
  or about the blocked job's timeout — not a livelock).

Determinism contract: a scenario is a pure function of its seed.  Two
calls of :func:`run_chaos` with the same scenario and seed produce
byte-identical fault traces and the same makespan.
"""

from __future__ import annotations

import json
import os
import signal
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

import repro.analysis.sanitizer as _sanitizer
from repro.cloud import ClusterSpec
from repro.cloud.cluster import default_filesystem
from repro.engines.base import RunConfig
from repro.engines.pull import PullEngine
from repro.faults.models import (
    FileCorruptionModel,
    FileLossModel,
    PartitionHazard,
    SpotHazard,
    StragglerHazard,
    TransientFaultModel,
)
from repro.faults.retry import RetryPolicy
from repro.generators import make_workflow
from repro.liveness import (
    AdmissionControl,
    BrownoutController,
    LeaseConfig,
    MasterFailoverModel,
    ServiceAdmissionPolicy,
)
from repro.mq.chaosbroker import MessageChaos
from repro.mq.priority import RepriorityPolicy
from repro.recovery.journal import Journal
from repro.service.arrivals import OnOffArrivals, PoissonArrivals
from repro.service.workload import TenantSpec, build_workload
from repro.workflow import Ensemble

__all__ = ["ChaosScenario", "ChaosReport", "SCENARIOS", "get_scenario", "run_chaos"]

#: Seed salt per fault type, so each draws from an independent stream of
#: the run's seed; the failover draws nothing.
_SALT = {
    SpotHazard: 1,
    TransientFaultModel: 2,
    StragglerHazard: 3,
    MessageChaos: 4,
    FileCorruptionModel: 5,
    FileLossModel: 6,
    PartitionHazard: 7,
    MasterFailoverModel: None,
}
_HAZARDS = (SpotHazard, StragglerHazard, PartitionHazard)
Fault = Union[tuple(_SALT)]


#: The master's timeout-sweep cadence (sim seconds).
_CHECK_INTERVAL = 0.5
#: A service-mode scenario's embedded backlog gate (jobs).
_SERVICE_MAX_PENDING = 24
#: Seed of a service-mode scenario's tenant arrivals, whatever the run's
#: seed (ROADMAP 10(g): passing the run's seed moves two golden pins).
_SERVICE_ARRIVAL_SEED = 0


def _draw(fault: Fault, seed: int, n_nodes: int, horizon: float):
    """``fault`` as one seeded run installs it, drawn from ``seed`` plus
    the type's salt: a hazard sampled over ``horizon``, a model re-seeded."""
    salt = _SALT[type(fault)]
    if salt is None:
        return fault
    if isinstance(fault, _HAZARDS):
        return fault.sample(seed + salt, n_nodes, horizon)
    return replace(fault, seed=seed + salt)


@dataclass(frozen=True)
class ChaosScenario:
    """One named, seeded fault-injection experiment.

    The scenario holds the objects :class:`PullEngine` takes, not copies
    of their parameters, and no seed: :func:`run_chaos`'s ``seed``
    decides every fault draw, because :meth:`build_engine` re-seeds each
    fault from it plus the type's salt (so a model's own ``seed`` must
    stay at its default).  Service-mode arrivals are the exception:
    :meth:`service_workload` draws them from ``_SERVICE_ARRIVAL_SEED``
    whatever the run's seed.
    """

    name: str
    description: str = ""
    # -- workload: Montage members of ``size`` degrees ---------------------
    size: float = 0.3
    n_workflows: int = 2
    submit_interval: float = 0.0
    # -- cluster ----------------------------------------------------------
    instance_type: str = "c3.8xlarge"
    n_nodes: int = 2
    # -- master daemon and its policies -----------------------------------
    timeout: float = 10.0
    retry: RetryPolicy = RetryPolicy(max_attempts=4)
    #: Heartbeat leases; ``None`` leaves partitioned workers to the job
    #: timeout alone.
    liveness: Optional[LeaseConfig] = None
    #: Closed-loop admission gate on the dispatch backlog.
    admission: Optional[AdmissionControl] = None
    #: Run the dispatch topic as a live priority queue (the OSPREY
    #: ``asynch_repriority`` pattern).
    repriority: Optional[RepriorityPolicy] = None
    # -- fault models -----------------------------------------------------
    #: Every fault, installed as the run's controllers in tuple order (a
    #: master crash is ``crash_after``: the journal refusing a write).
    faults: Tuple[Fault, ...] = ()
    # -- multi-tenant open-loop service (repro.service; docs/FAULTS.md) ----
    #: Arrival window in sim seconds; with ``tenants`` it switches the
    #: scenario to open-loop service mode: the ensemble is built from the
    #: tenants' seeded arrival processes and the engine runs behind a
    #: :class:`~repro.liveness.ServiceAdmissionPolicy` instead of the
    #: closed-loop admission gate.
    service_horizon: float = 0.0
    tenants: Tuple[TenantSpec, ...] = ()
    # -- master crash (repro.recovery) ------------------------------------
    #: Crash the master after this many journal records; it restarts one
    #: second later from the last checkpoint, and that run is held to
    #: the same invariants as the chaos run.  ``None`` = no crash.
    crash_after: Optional[int] = None
    #: Journal compaction cadence (records per checkpoint; 0 = never).
    checkpoint_every: int = 25
    # -- invariant bounds -------------------------------------------------
    #: Chaos makespan must stay within ``baseline * max_slowdown +
    #: slack``; the slack absorbs fixed recovery costs (one timeout, one
    #: replacement delay) that dominate tiny baselines.
    max_slowdown: Optional[float] = 3.0
    slowdown_slack: float = 30.0
    #: Set for poison scenarios: the exact job ids expected to be
    #: dead-lettered directly (descendants cascade on top).
    expect_dead: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.crash_after is not None and self.crash_after < 0:
            raise ValueError(f"crash_after must be >= 0, got {self.crash_after}")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.crash_after is not None and self.fails_over:
            # The crash is already a failover with no standby; a scripted
            # failover in the same run could overlap two takeovers on
            # one journal.
            raise ValueError("crash_after and failover are mutually exclusive")
        for fault in self.faults:
            if type(fault) not in _SALT or getattr(fault, "seed", 0) != 0:
                raise ValueError(
                    f"{fault!r}: a scenario runs its own fault types, seeded "
                    f"by its seed plus a salt; leave the model's seed at 0"
                )
            if (
                isinstance(fault, MessageChaos) and fault.p_drop > 0
                and not self.retry.redispatch_lost
            ):
                raise ValueError(
                    "MessageChaos.p_drop > 0 needs retry.redispatch_lost=True: "
                    "only a dispatch-time deadline recovers a dropped dispatch"
                )
        if bool(self.tenants) != (self.service_horizon > 0):
            raise ValueError("service mode needs both tenants and service_horizon > 0")

    def spec(self) -> ClusterSpec:
        fs = default_filesystem(self.n_nodes)
        return ClusterSpec(self.instance_type, self.n_nodes, filesystem=fs)

    @property
    def is_service(self) -> bool:
        return self.service_horizon > 0

    @property
    def fails_over(self) -> bool:
        return any(isinstance(fault, MasterFailoverModel) for fault in self.faults)

    def service_workload(self):
        """The open-loop multi-tenant workload (service mode only).

        A pure function of the scenario fields (not of the run's seed),
        so the two :func:`run_chaos` calls to :meth:`ensemble` (baseline
        and chaos) see identical member names and submission times.
        """
        return build_workload(
            self.tenants, make_workflow("montage", self.size),
            self.service_horizon, _SERVICE_ARRIVAL_SEED,
            name=f"{self.name}-service",
        )

    def ensemble(self) -> Ensemble:
        if self.is_service:
            return self.service_workload().ensemble
        return Ensemble.replicated(
            make_workflow("montage", self.size), self.n_workflows,
            interval=self.submit_interval,
        )

    def run_config(self) -> RunConfig:
        return RunConfig(
            default_timeout=self.timeout,
            timeout_check_interval=_CHECK_INTERVAL,
            record_jobs=False,
        )

    def build_engine(
        self, seed: int, horizon: float, journal: Optional[Journal] = None
    ) -> PullEngine:
        """Assemble the chaos-wired pull engine for one seeded run.

        Each fault draws from ``seed`` plus its type's salt, hazards over
        ``horizon``, and installs in tuple order.
        """
        service = None
        if self.is_service:
            service = ServiceAdmissionPolicy(
                admission=AdmissionControl(max_pending_jobs=_SERVICE_MAX_PENDING),
                brownout=BrownoutController(thresholds=(0.5, 1.0, 1.5), sustain=2.0),
                # Members are ~20 jobs, so the policy's default floor of
                # 8 would make fair-share bind on the very first member
                # and clamp the backlog before it can overshoot — the
                # brownout ladder would never engage.  Keep fair-share
                # as the tail guard behind brownout and the gate.
                fair_share_floor=6 * _SERVICE_MAX_PENDING,
            )
            self.service_workload().wire(service)
        return PullEngine(
            self.spec(),
            config=self.run_config(),
            retry=self.retry,
            journal=journal,
            liveness=self.liveness,
            admission=self.admission,
            service=service,
            repriority=self.repriority,
            controllers=[
                _draw(fault, seed, self.n_nodes, horizon) for fault in self.faults
            ],
        )


@dataclass
class ChaosReport:
    """Outcome of one :func:`run_chaos` invocation."""

    scenario: str
    seed: int
    makespan: float
    baseline_makespan: float
    trace_text: str
    fault_counts: Dict[str, int]
    job_counts: Dict[str, Dict[str, int]]
    dead_letters: List
    resubmissions: int
    mq_chaos_stats: Dict[str, int]
    cost: float
    elastic_cost: float
    problems: List[str] = field(default_factory=list)
    #: Master crashes injected and survived (``crash_after`` scenarios).
    crashes: int = 0
    #: Write-ahead journal records / checkpoints of the certified run.
    journal_records: int = 0
    checkpoints: int = 0
    #: Data-plane recovery counters (``p_corrupt`` / ``p_file_loss``).
    data_recoveries: int = 0
    integrity_stats: Dict[str, int] = field(default_factory=dict)
    #: Liveness-plane tallies (heartbeat misses, lease fencings, stale
    #: acks, shed submissions, failovers, partitions, dead-letter depth)
    #: when the scenario enabled leases/partitions/failover/admission.
    liveness_stats: Dict[str, int] = field(default_factory=dict)
    #: The certified run's :class:`~repro.recovery.journal.Journal`
    #: (``crash_after`` scenarios only) — exportable via ``to_jsonl``.
    journal: Optional[Journal] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def n_dead(self) -> int:
        return len(self.dead_letters)

    def summary(self) -> str:
        lines = [
            f"scenario {self.scenario!r} seed={self.seed}: "
            f"{'OK' if self.ok else 'FAILED'}",
            f"  makespan {self.makespan:.1f} s "
            f"(baseline {self.baseline_makespan:.1f} s, "
            f"x{self.makespan / max(self.baseline_makespan, 1e-9):.2f})",
            f"  resubmissions {self.resubmissions}, "
            f"dead letters {self.n_dead}, "
            f"cost ${self.cost:.2f} (elastic ${self.elastic_cost:.2f})",
        ]
        if self.fault_counts:
            injected = ", ".join(
                f"{kind} x{count}" for kind, count in sorted(self.fault_counts.items())
            )
            lines.append(f"  faults: {injected}")
        if self.mq_chaos_stats:
            lines.append(
                "  broker: "
                + ", ".join(
                    f"{k} {v}" for k, v in sorted(self.mq_chaos_stats.items())
                )
            )
        if self.journal_records:
            lines.append(
                f"  journal: {self.journal_records} record(s), "
                f"{self.checkpoints} checkpoint(s), "
                f"{self.crashes} crash(es) survived"
            )
        if self.liveness_stats:
            lines.append(
                "  liveness: "
                + ", ".join(
                    f"{k} {v}" for k, v in sorted(self.liveness_stats.items())
                )
            )
        if self.integrity_stats:
            lines.append(
                "  data plane: "
                + ", ".join(
                    f"{k} {v}" for k, v in sorted(self.integrity_stats.items())
                )
                + f"; {self.data_recoveries} recovery request(s)"
            )
        for entry in self.dead_letters:
            lines.append(
                f"  dead-letter {entry.workflow}/{entry.job_id}: "
                f"{entry.reason} after {entry.attempts} attempt(s)"
            )
        for problem in self.problems:
            lines.append(f"  INVARIANT VIOLATED: {problem}")
        return "\n".join(lines)


def _check_invariants(
    scenario: ChaosScenario, result, baseline_makespan: float
) -> List[str]:
    problems: List[str] = []
    san = _sanitizer._ACTIVE
    # Completion: nothing stranded at settlement.
    for name in sorted(result.job_counts):
        counts = result.job_counts[name]
        if san is not None:
            san.check_recovery(name, counts)
        stranded = sum(counts.values()) - counts.get("completed", 0) - counts.get(
            "dead", 0
        )
        if stranded:
            problems.append(
                f"{name}: {stranded} job(s) neither completed nor dead-lettered"
            )
    # Dead letters must be explainable by the scenario.
    expected = frozenset(scenario.expect_dead)
    if not expected:
        unexpected = [e for e in result.dead_letters if e.reason != "upstream-dead"]
        if unexpected:
            first = unexpected[0]
            problems.append(
                f"{len(unexpected)} unexpected dead letter(s), first: "
                f"{first.workflow}/{first.job_id} ({first.reason})"
            )
    else:
        direct = {
            e.job_id for e in result.dead_letters if e.reason != "upstream-dead"
        }
        if direct != expected:
            problems.append(
                f"dead-lettered jobs {sorted(direct)} != expected "
                f"{sorted(expected)}"
            )
    # Graceful degradation by class (open-loop service scenarios): the
    # ladder must have protected gold absolutely while best_effort
    # absorbed the overload.
    if scenario.is_service:
        stats = result.liveness_stats
        if stats.get("shed_gold", 0):
            problems.append(
                f"service shed {stats['shed_gold']} gold submission(s); "
                f"gold must never be shed"
            )
        if not stats.get("shed_best_effort", 0):
            problems.append(
                "overloaded service scenario shed no best_effort work "
                "(the admission ladder never engaged)"
            )
    # Bounded degradation (skipped when the scenario kills jobs outright:
    # a dead-lettered workflow settles early, so its makespan is not
    # comparable to the baseline's).
    if scenario.max_slowdown is not None and not expected:
        bound = baseline_makespan * scenario.max_slowdown + scenario.slowdown_slack
        if result.makespan > bound:
            problems.append(
                f"makespan {result.makespan:.1f} s exceeds bound {bound:.1f} s "
                f"(baseline {baseline_makespan:.1f} s "
                f"x {scenario.max_slowdown} + {scenario.slowdown_slack} s)"
            )
    return problems


def resume_until_complete(scenario: ChaosScenario, seed: int, horizon: float):
    """The crash run: ``scenario`` under chaos with its master crashing
    after ``crash_after`` journal records and restoring in place.
    Returns the result and the crash journal.  :func:`run_chaos` calls
    it in a forked child process, through this module's attribute."""
    journal = Journal(scenario.checkpoint_every, scenario.crash_after)
    engine = scenario.build_engine(seed, horizon, journal=journal)
    return engine.run(scenario.ensemble()), journal


def _crash_child(
    write_fd: int, scenario: ChaosScenario, seed: int, horizon: float,
    baseline_makespan: float,
) -> None:
    """The forked child's whole life: the crash run, its invariants,
    one JSON document on ``write_fd``, then ``os._exit`` — no caller's
    ``finally``, ``atexit`` hook or buffered output runs twice."""
    status = 1
    try:
        san = _sanitizer._ACTIVE
        seen = len(san.violations) if san is not None else 0
        try:
            restored, journal = resume_until_complete(scenario, seed, horizon)
            outcome = {
                "crashes": journal.crashes,
                "records": len(journal),
                "problems": _check_invariants(scenario, restored, baseline_makespan),
            }
        except BaseException as exc:
            import traceback

            outcome = {
                "error": f"{type(exc).__module__}.{type(exc).__qualname__}",
                "traceback": traceback.format_exc(),
            }
        if san is not None:
            outcome["violations"] = [
                [v.check, v.message, v.time] for v in san.violations[seen:]
            ]
        with open(write_fd, "w") as pipe:
            json.dump(outcome, pipe)
        status = 0
    finally:
        os._exit(status)


class _CrashRun:
    """:func:`resume_until_complete` in a forked child, started now."""

    def __init__(self, scenario, seed, horizon, baseline_makespan):
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            os.close(read_fd)
            _crash_child(write_fd, scenario, seed, horizon, baseline_makespan)
        os.close(write_fd)
        self._pipe = open(read_fd, "rb")

    def join(self) -> dict:
        """The child's outcome once it has exited; its sanitizer
        violations are replayed into this process's sanitizer (strict
        mode raises at the first), and its error is raised here."""
        with self._pipe:
            data = self._pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        if not data:
            raise RuntimeError(
                f"the crash run's child process sent no outcome "
                f"(wait status {status})"
            )
        outcome = json.loads(data)
        san = _sanitizer._ACTIVE
        if san is not None:
            for check, message, time in outcome.get("violations", ()):
                san._report(check, message, time)
        if "error" in outcome:
            raise RuntimeError(
                f"the crash run raised {outcome['error']} in its child "
                f"process:\n{outcome['traceback']}"
            )
        return outcome

    def kill(self) -> None:
        """Kill and reap the child unless :meth:`join` already did."""
        self._pipe.close()
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0


def run_chaos(scenario: ChaosScenario, seed: Optional[int] = None) -> ChaosReport:
    """Run ``scenario`` (baseline, then under chaos) and check invariants.

    The costs are computed inside the run so the billing sanitizer hooks
    fire; lease conservation is checked by the engine at run end.

    When the scenario sets ``crash_after``, the chaos run is journaled,
    and a forked child process runs it once more, at the same time, with
    the master crashing at that journal offset and restoring from its
    checkpoint (:func:`resume_until_complete`).  The child holds that run
    to the same invariants and sends back its crash count, journal length,
    problems and sanitizer violations; an error in it is raised here, and
    a child still running when this process's own run raises is killed.
    The report's trace, makespan and journal stay those of the
    uninterrupted run.
    """
    seed = 0 if seed is None else seed
    # Of the baseline only its makespan is kept, so the forked child
    # does not carry its run.
    baseline_makespan = PullEngine(
        scenario.spec(), config=scenario.run_config()
    ).run(scenario.ensemble()).makespan
    # Fault sampling horizon: the baseline tells us how long the run
    # plausibly is; stretch it so late-run faults still occur under the
    # slowdown the faults themselves cause.
    horizon = baseline_makespan * (scenario.max_slowdown or 2.0)
    crash = (
        _CrashRun(scenario, seed, horizon, baseline_makespan)
        if scenario.crash_after is not None
        else None
    )
    try:
        report = _chaos_report(scenario, seed, horizon, baseline_makespan)
        if crash is not None:
            outcome = crash.join()
            report.crashes = outcome["crashes"]
            if not report.crashes:
                report.problems.append(
                    f"crash_after={scenario.crash_after} never fired "
                    f"(journal only has {outcome['records']} record(s))"
                )
            report.problems.extend(
                f"crash/restore: {problem}" for problem in outcome["problems"]
            )
    finally:
        if crash is not None:
            crash.kill()
    return report


def _chaos_report(
    scenario: ChaosScenario, seed: int, horizon: float, baseline_makespan: float
) -> ChaosReport:
    """The uninterrupted chaos run (journaled when the scenario crashes
    or fails over), checked and reported."""
    journal = (
        Journal(checkpoint_every=scenario.checkpoint_every)
        if scenario.crash_after is not None or scenario.fails_over
        else None
    )
    engine = scenario.build_engine(seed, horizon, journal=journal)
    result = engine.run(scenario.ensemble())
    problems = _check_invariants(scenario, result, baseline_makespan)
    return ChaosReport(
        scenario=scenario.name,
        seed=seed,
        makespan=result.makespan,
        baseline_makespan=baseline_makespan,
        trace_text="\n".join(e.line() for e in result.fault_events),
        fault_counts={
            kind: sum(1 for e in result.fault_events if e.kind == kind)
            for kind in sorted({e.kind for e in result.fault_events})
        },
        job_counts=result.job_counts,
        dead_letters=list(result.dead_letters),
        resubmissions=result.resubmissions,
        mq_chaos_stats=dict(result.mq_chaos_stats),
        cost=result.cost(),
        elastic_cost=result.elastic_cost(),
        problems=problems,
        journal_records=len(journal) if journal is not None else 0,
        checkpoints=len(journal.checkpoint_history) if journal is not None else 0,
        data_recoveries=result.data_recoveries,
        integrity_stats=dict(result.integrity_stats),
        liveness_stats=dict(result.liveness_stats),
        journal=journal,
    )


#: The two service scenarios' tenants, one per SLA class, each with
#: quota headroom over its own offered rate (gold 3x, silver 2x,
#: best_effort 1x its ON-window rate).
_SERVICE_TENANTS = (
    # Weight chosen so gold's fair-share bound saturates at 1.0 (MAX_SHARE
    # 0.5 x weight 3 x 3 tenants / weight sum 4.5): a share can never
    # exceed 1, so gold is structurally exempt from fair-share shedding
    # and its only bound is the quota — "zero gold sheds" holds even when
    # everyone else's work is being shed.
    TenantSpec("gold-0", "gold", PoissonArrivals(1.0),
               quota_rate=3.0, quota_burst=20.0, weight=3.0),
    TenantSpec("silver-0", "silver", PoissonArrivals(1.6),
               quota_rate=3.2, quota_burst=10.0, weight=1.0),
    TenantSpec("best_effort-0", "best_effort",
               OnOffArrivals(on_rate=10.0, on_duration=4.0, off_duration=4.0),
               quota_rate=10.0, quota_burst=5.0, weight=0.5),
)

#: Built-in scenarios, sized to run in seconds (CI smoke included).
SCENARIOS: Dict[str, ChaosScenario] = {
    scenario.name: scenario
    for scenario in (
        ChaosScenario(
            name="smoke",
            description="CI gate: a little of everything — one spot kill "
            "with replacement, transient failures, duplicated messages.",
            n_nodes=2,
            n_workflows=2,
            faults=(
                SpotHazard(120.0, notice=2.0, replacement_delay=5.0, protected=(0,)),
                TransientFaultModel(p_fail=0.05),
                MessageChaos(p_duplicate=0.05),
            ),
        ),
        ChaosScenario(
            name="spot",
            description="Spot-market cluster: frequent reclamations with "
            "the two-minute-notice drain and auto-scaling replacements.",
            n_nodes=4,
            n_workflows=6,
            faults=(
                SpotHazard(600.0, notice=3.0, replacement_delay=5.0, protected=(0,)),
            ),
            max_slowdown=4.0,
        ),
        ChaosScenario(
            name="poison",
            description="A job that fails every attempt: must be "
            "dead-lettered after the budget, cascading its descendants, "
            "while every other workflow completes.",
            n_nodes=2,
            n_workflows=2,
            retry=RetryPolicy(max_attempts=3),
            faults=(TransientFaultModel(poison=("mBgModel",)),),
            expect_dead=("mBgModel",),
        ),
        ChaosScenario(
            name="lossy-mq",
            description="Broker under partition: dropped, duplicated and "
            "delayed messages; recovery via dispatch-loss deadlines and "
            "idempotent acks.",
            n_nodes=2,
            n_workflows=2,
            timeout=6.0,
            retry=RetryPolicy(max_attempts=8, redispatch_lost=True),
            faults=(
                MessageChaos(p_drop=0.05, p_duplicate=0.05, p_delay=0.10, delay=0.5),
            ),
            max_slowdown=6.0,
        ),
        ChaosScenario(
            name="master-crash",
            description="Kill the journaled master mid-run (transient "
            "failures and duplicate acks in flight); it restarts from its "
            "last checkpoint and every job must still settle exactly once.",
            n_nodes=2,
            n_workflows=2,
            faults=(
                TransientFaultModel(p_fail=0.05), MessageChaos(p_duplicate=0.05),
            ),
            crash_after=60,
            checkpoint_every=20,
        ),
        ChaosScenario(
            name="data-loss",
            description="Data-plane faults: a targeted corruption of an "
            "mProjectPP output plus random corruption/loss of shared-FS "
            "files; checksum verification must trigger minimal ancestor "
            "re-execution and input restaging with zero dead letters.",
            n_nodes=2,
            n_workflows=2,
            faults=(
                FileCorruptionModel(p=0.02, targets=("*/p_000000.fits",)),
                FileLossModel(p=0.02, targets=("*/raw_000003.fits",)),
            ),
            max_slowdown=4.0,
        ),
        ChaosScenario(
            name="partition",
            description="Network partitions under heartbeat leases: "
            "isolated workers are fenced after missed beats and their "
            "in-flight jobs redispatched; healed uplinks replay buffered "
            "acks into the stale-epoch rejection path.",
            n_nodes=3,
            n_workflows=3,
            submit_interval=0.5,
            timeout=8.0,
            liveness=LeaseConfig(heartbeat_interval=0.25),
            faults=(
                PartitionHazard(
                    0.9, duration=(2.0, 5.0), p_asymmetric=0.4, until=6.0
                ),
            ),
            max_slowdown=5.0,
        ),
        ChaosScenario(
            name="game-day",
            description="Game day: a partition, a spot reclamation, a "
            "straggling disk and a primary-master crash in one seeded "
            "run — leases fence the silent worker, the warm standby "
            "takes over behind a fencing token, admission control sheds "
            "load, and every job still settles exactly once.",
            # 24 slots against a 25-wide mProjectPP wave: the dispatch
            # backlog is real, so the admission gate actually sheds.
            instance_type="m3.2xlarge",
            size=0.8,
            n_nodes=3,
            n_workflows=3,
            submit_interval=0.5,
            timeout=15.0,
            liveness=LeaseConfig(heartbeat_interval=0.25),
            admission=AdmissionControl(max_pending_jobs=8, retry_after=0.5),
            faults=(
                SpotHazard(
                    200.0, notice=1.0, replacement_delay=5.0, protected=(0,),
                    price_hazard=((0.0, 1.0), (60.0, 3.0)),
                ),
                PartitionHazard(
                    0.9, duration=(3.0, 6.0), p_asymmetric=0.3, until=20.0
                ),
                StragglerHazard(0.5, disk_factor=(0.2, 0.5), duration=(3.0, 8.0)),
                MasterFailoverModel(8.0, detection=0.5),
            ),
            checkpoint_every=15,
            max_slowdown=6.0,
            slowdown_slack=60.0,
        ),
        ChaosScenario(
            name="overload",
            description="Overload game day: open-loop multi-tenant "
            "arrival bursts composed with spot reclamations — while "
            "capacity comes and goes, the quota/fair-share/brownout "
            "ladder sheds best_effort first and keeps gold at zero "
            "sheds.",
            n_nodes=2,
            timeout=20.0,
            faults=(
                SpotHazard(200.0, notice=1.0, replacement_delay=5.0, protected=(0,)),
            ),
            service_horizon=20.0,
            tenants=_SERVICE_TENANTS,
            max_slowdown=6.0,
            slowdown_slack=60.0,
        ),
        ChaosScenario(
            name="asynch-repriority",
            description="OSPREY-style asynch_repriority: the overloaded "
            "multi-tenant service runs its dispatch topic as a live "
            "priority queue — SLA bands keep gold structurally ahead of "
            "best_effort, every completion re-scores the member's "
            "still-queued jobs (critical path remaining + deadline "
            "slack), and the periodic aging sweep lifts starving "
            "best-effort work so nothing admitted waits forever.",
            n_nodes=2,
            timeout=20.0,
            repriority=RepriorityPolicy(aging_rate=5.0, interval=2.0),
            service_horizon=20.0,
            tenants=_SERVICE_TENANTS,
            max_slowdown=6.0,
            slowdown_slack=60.0,
        ),
        ChaosScenario(
            name="stragglers",
            description="Degraded-disk stragglers: nodes intermittently "
            "lose most of their disk bandwidth but jobs keep completing.",
            n_nodes=3,
            n_workflows=6,
            submit_interval=0.5,
            faults=(
                StragglerHazard(0.8, disk_factor=(0.1, 0.4), duration=(2.0, 6.0)),
            ),
            max_slowdown=3.0,
        ),
    )
}


def get_scenario(name: str) -> ChaosScenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown chaos scenario {name!r}; built-ins: {known}")
