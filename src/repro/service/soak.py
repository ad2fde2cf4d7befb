"""The ``repro-service`` soak harness.

Runs a multi-hour *simulated* trace of open-loop multi-tenant arrivals
through the DES pull engine with the full
:class:`~repro.liveness.ServiceAdmissionPolicy` ladder in front, and
reports what a service operator would ask for: per-tenant, per-class
p50/p99 slowdown, shed counts by ladder stage, peak backlog, brownout
history and cluster cost.  Everything is a pure function of the
:class:`SoakConfig` (including its seed), so two runs of the same config
render byte-identical reports — the CI determinism gate diffs them.

Capacity is *probed*, not assumed: a fault-free batch run of the member
workflow measures the cluster's sustainable workflow rate, and a
single-member run on the idle cluster measures the ideal makespan that
slowdowns are normalised against.  Offered load is then expressed as a
multiple of that probed capacity (``load_factor``), so "soak at 2x
capacity" means the same thing on any cluster shape.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cloud import ClusterSpec
from repro.cloud.cluster import default_filesystem
from repro.engines.base import EngineResult, RunConfig
from repro.engines.pull import PullEngine
from repro.liveness import (
    AdmissionControl,
    BrownoutController,
    ServiceAdmissionPolicy,
)
from repro.monitor.metrics import percentile
from repro.service.arrivals import OnOffArrivals, PoissonArrivals
from repro.service.workload import ServiceWorkload, TenantSpec, build_workload
from repro.workflow import Ensemble

__all__ = ["SoakConfig", "SoakSetup", "SoakReport", "build_soak", "run_soak"]


# -- the soak's fixed shape: what no caller varies ---------------------------
INSTANCE_TYPE = "c3.8xlarge"
#: Montage degree of each ensemble member.
DEGREE = 0.3
RUN_CONFIG = RunConfig(
    default_timeout=60.0, timeout_check_interval=1.0, record_jobs=False
)
#: Offered load of the reserved classes, as fractions of probed
#: capacity; best_effort offers the remainder of ``load_factor``.
GOLD_FRACTION = 0.3
SILVER_FRACTION = 0.5
TENANTS_PER_CLASS = 2
#: Members in the capacity-probe batch.  Must be large enough to
#: saturate the cluster (well past its slot count / member width),
#: else the probe reports parallel absorption, not capacity, and the
#: "2x capacity" soak never actually overloads anything.
PROBE_MEMBERS = 64
ADMISSION_MAX_PENDING = 64
ADMISSION_RETRY_AFTER = 5.0
#: Brownout trips *below* the admission gate (overshoot 1.0): the
#: gate is the backstop, so the graceful ladder must engage first.
BROWNOUT_THRESHOLDS = (0.5, 1.0, 1.5)
#: Fair-share is the *tail* guard: the floor sits well above the
#: admission gate so quota -> brownout -> gate engage first and
#: fair-share only binds if a tenant still dominates a deep backlog.
FAIR_SHARE_FLOOR = 256
#: Quota headroom per class, as a multiple of the tenant's own mean
#: offered rate.  Gold gets generous headroom (its sheds must be 0);
#: best_effort's tight budget makes the quota stage do real work.
QUOTA_HEADROOM = {"gold": 3.0, "silver": 2.0, "best_effort": 1.25}
QUOTA_BURST = {"gold": 20.0, "silver": 10.0, "best_effort": 5.0}
#: Fair-share weights per class.  Gold's weight is provisioned so its
#: share bound saturates at 1.0 (the policy's MAX_SHARE 0.5 x
#: weight 3 x 6 tenants / weight sum 9): a share can never exceed 1, so
#: gold is structurally exempt from fair-share shedding even when it is
#: the only class with outstanding work, and its only bound is the quota.
WEIGHTS = {"gold": 3.0, "silver": 1.0, "best_effort": 0.5}


@dataclass(frozen=True)
class SoakConfig:
    """One seeded soak experiment: the values a caller varies.  Every
    field feeds the determinism contract (no wall-clock anywhere
    downstream); the module constants above fix the rest."""

    seed: int = 0
    #: Simulated arrival window in seconds (the run itself continues
    #: until the last admitted workflow settles).
    horizon: float = 7200.0
    n_nodes: int = 2
    #: Total offered load as a multiple of probed capacity; it must
    #: exceed the gold and silver fractions.
    load_factor: float = 2.0
    # -- best-effort burst shape -------------------------------------------
    burst_on: float = 60.0
    burst_off: float = 60.0
    brownout_sustain: float = 10.0

    def __post_init__(self) -> None:
        # Refused here, before build_soak spends two capacity probes.
        # NaN fails every comparison, so each ``not`` refuses it too.
        if not 0.0 < self.best_effort_fraction() < math.inf:
            raise ValueError(
                "load_factor must be finite and exceed the gold and silver "
                f"fractions ({GOLD_FRACTION + SILVER_FRACTION:g}), "
                f"got {self.load_factor!r}"
            )
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        for name in ("horizon", "burst_on"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        for name in ("burst_off", "brownout_sustain"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")

    @classmethod
    def quick(cls, seed: int = 0) -> "SoakConfig":
        """CI-sized soak: a few simulated minutes, same invariants."""
        return cls(
            seed=seed,
            horizon=300.0,
            burst_on=30.0,
            burst_off=30.0,
            brownout_sustain=5.0,
        )

    def best_effort_fraction(self) -> float:
        return self.load_factor - GOLD_FRACTION - SILVER_FRACTION

    def spec(self) -> ClusterSpec:
        fs = default_filesystem(self.n_nodes)
        return ClusterSpec(INSTANCE_TYPE, self.n_nodes, filesystem=fs)


def _template():
    from repro.generators import montage_workflow

    return montage_workflow(degree=DEGREE)


def _probe(cfg: SoakConfig) -> Tuple[float, float]:
    """Measure ``(capacity_wf_per_s, ideal_makespan_s)`` with fault-free
    closed-loop runs on the soak's own cluster shape."""
    template = _template()
    single = PullEngine(cfg.spec(), RUN_CONFIG).run(
        Ensemble.replicated(template, 1)
    )
    batch = PullEngine(cfg.spec(), RUN_CONFIG).run(
        Ensemble.replicated(template, PROBE_MEMBERS)
    )
    capacity = PROBE_MEMBERS / batch.makespan
    return capacity, single.makespan


@dataclass
class SoakSetup:
    """Everything :func:`run_soak` assembles before pressing go; exposed
    so tests and the chaos harness can rewire pieces."""

    config: SoakConfig
    workload: ServiceWorkload
    policy: ServiceAdmissionPolicy
    engine: PullEngine
    capacity: float
    ideal_makespan: float


def build_soak(cfg: SoakConfig) -> SoakSetup:
    """Probe capacity, lay out the tenants, build the wired engine."""
    capacity, ideal = _probe(cfg)
    fractions = {
        "gold": GOLD_FRACTION,
        "silver": SILVER_FRACTION,
        "best_effort": cfg.best_effort_fraction(),
    }
    tenants: List[TenantSpec] = []
    for sla, fraction in fractions.items():
        rate = fraction * capacity / TENANTS_PER_CLASS
        for i in range(TENANTS_PER_CLASS):
            if sla == "best_effort":
                # Bursty: the mean rate is preserved, but arrivals pack
                # into ON windows at on/(on+off) duty cycle.
                duty = cfg.burst_on / (cfg.burst_on + cfg.burst_off)
                arrivals = OnOffArrivals(
                    on_rate=rate / duty,
                    on_duration=cfg.burst_on,
                    off_duration=cfg.burst_off,
                    # Stagger tenants so their bursts do not all align.
                    phase=i * cfg.burst_on,
                )
            else:
                arrivals = PoissonArrivals(rate=rate)
            tenants.append(
                TenantSpec(
                    tenant=f"{sla}-{i}",
                    sla=sla,
                    arrivals=arrivals,
                    quota_rate=rate * QUOTA_HEADROOM[sla],
                    quota_burst=QUOTA_BURST[sla],
                    weight=WEIGHTS[sla],
                )
            )
    workload = build_workload(
        tenants, _template(), cfg.horizon, cfg.seed, name="service-soak"
    )
    policy = ServiceAdmissionPolicy(
        admission=AdmissionControl(
            max_pending_jobs=ADMISSION_MAX_PENDING,
            retry_after=ADMISSION_RETRY_AFTER,
        ),
        brownout=BrownoutController(
            thresholds=BROWNOUT_THRESHOLDS, sustain=cfg.brownout_sustain
        ),
        fair_share_floor=FAIR_SHARE_FLOOR,
    )
    workload.wire(policy)
    engine = PullEngine(cfg.spec(), RUN_CONFIG, service=policy)
    return SoakSetup(
        config=cfg,
        workload=workload,
        policy=policy,
        engine=engine,
        capacity=capacity,
        ideal_makespan=ideal,
    )


@dataclass
class SoakReport:
    """What the soak measured; renders and serializes deterministically."""

    seed: int
    horizon: float
    load_factor: float
    capacity_wf_per_s: float
    ideal_makespan_s: float
    makespan_s: float
    cost_usd: float
    peak_backlog: int
    brownout_transitions: List[Tuple[float, int]]
    #: tenant -> row of counters and slowdown percentiles.
    tenants: Dict[str, Dict]
    #: sla class -> aggregated row.
    classes: Dict[str, Dict]
    liveness: Dict[str, int]
    #: Invariant violations ("" = none): gold sheds, unbounded backlog...
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def sustained_rate(self) -> float:
        """Admitted-and-completed workflows per simulated second — the
        service's saturation throughput under this offered load."""
        admitted = sum(row["admitted"] for row in self.classes.values())
        return admitted / self.makespan_s if self.makespan_s > 0 else 0.0

    def shed_fractions(self) -> Dict[str, float]:
        return {
            sla: (row["shed"] / row["submitted"]) if row["submitted"] else 0.0
            for sla, row in self.classes.items()
        }

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "horizon_s": self.horizon,
            "load_factor": self.load_factor,
            "capacity_wf_per_s": self.capacity_wf_per_s,
            "ideal_makespan_s": self.ideal_makespan_s,
            "makespan_s": self.makespan_s,
            "sustained_wf_per_s": self.sustained_rate(),
            "cost_usd": self.cost_usd,
            "peak_backlog": self.peak_backlog,
            "brownout_transitions": [
                [t, level] for t, level in self.brownout_transitions
            ],
            "tenants": self.tenants,
            "classes": self.classes,
            "shed_fractions": self.shed_fractions(),
            "liveness": self.liveness,
            "problems": self.problems,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        lines = [
            f"service soak seed={self.seed}: "
            f"{'OK' if self.ok else 'FAILED'}",
            f"  offered {self.load_factor:g}x capacity "
            f"({self.capacity_wf_per_s:.4f} wf/s) over {self.horizon:g} s; "
            f"sustained {self.sustained_rate():.4f} wf/s",
            f"  makespan {self.makespan_s:.1f} s, cost ${self.cost_usd:.2f}, "
            f"peak backlog {self.peak_backlog}, "
            f"{len(self.brownout_transitions)} brownout transition(s)",
            "  tenant          class        sub   adm  shed  "
            "p50-slow  p99-slow",
        ]
        for tenant in sorted(self.tenants):
            row = self.tenants[tenant]
            lines.append(
                f"  {tenant:<15} {row['sla']:<11} "
                f"{row['submitted']:>5} {row['admitted']:>5} "
                f"{row['shed']:>5}  {row['p50_slowdown']:>8.2f}  "
                f"{row['p99_slowdown']:>8.2f}"
            )
        lines.append(
            "  class        sub   adm  shed  shed%   p50-slow  p99-slow"
        )
        fractions = self.shed_fractions()
        for sla in sorted(self.classes):
            row = self.classes[sla]
            lines.append(
                f"  {sla:<11} {row['submitted']:>5} {row['admitted']:>5} "
                f"{row['shed']:>5}  {100 * fractions[sla]:>5.1f}  "
                f"{row['p50_slowdown']:>9.2f}  {row['p99_slowdown']:>9.2f}"
            )
        if any(v for v in self.liveness.values()):
            lines.append(
                "  liveness: "
                + ", ".join(
                    f"{k} {v}" for k, v in sorted(self.liveness.items()) if v
                )
            )
        for problem in self.problems:
            lines.append(f"  INVARIANT VIOLATED: {problem}")
        return "\n".join(lines)


def _check_soak(
    cfg: SoakConfig, report: SoakReport, result: EngineResult
) -> List[str]:
    """The soak's acceptance invariants, the graceful-degradation story
    in executable form."""
    problems: List[str] = []
    gold = report.classes.get("gold", {})
    if gold.get("shed", 0):
        problems.append(f"gold sheds must be 0, got {gold['shed']}")
    if cfg.load_factor > 1.2:
        best = report.classes.get("best_effort", {})
        if not best.get("shed", 0):
            problems.append(
                "overloaded soak shed no best_effort work "
                "(the brownout ladder never engaged)"
            )
    # Bounded backlog: the gate caps non-gold admissions, so the
    # dispatch queue may overshoot only by gold's (quota-bounded) burst.
    bound = 4 * ADMISSION_MAX_PENDING
    if report.peak_backlog > bound:
        problems.append(
            f"peak backlog {report.peak_backlog} exceeds {bound} "
            f"(4x the admission gate) — queue growth is unbounded"
        )
    # Settlement: every admitted member completed (nothing stranded).
    for name, counts in sorted(result.job_counts.items()):
        stranded = sum(counts.values()) - counts.get("completed", 0)
        if stranded:
            problems.append(f"{name}: {stranded} job(s) not completed")
    return problems


def run_soak(cfg: SoakConfig) -> SoakReport:
    """Probe, build, run and certify one seeded soak."""
    setup = build_soak(cfg)
    result = setup.engine.run(setup.workload.ensemble)
    policy = setup.policy
    workload = setup.workload

    submitted: Dict[str, int] = {}
    for tenant in workload.per_tenant_counts:
        submitted[tenant] = workload.per_tenant_counts[tenant]
    sheds_by_tenant: Dict[str, Dict[str, int]] = {}
    for record in policy.sheds:
        per = sheds_by_tenant.setdefault(record.tenant, {})
        per[record.reason] = per.get(record.reason, 0) + 1
    slowdowns: Dict[str, List[float]] = {}
    for name, (start, end) in result.workflow_spans.items():
        if math.isnan(end):
            continue
        tenant, _sla = workload.tags[name]
        slowdowns.setdefault(tenant, []).append(
            (end - start) / setup.ideal_makespan
        )

    tenants: Dict[str, Dict] = {}
    classes: Dict[str, Dict] = {}
    account_stats = policy.tenant_stats()
    sla_of = {spec.tenant: spec.sla for spec in workload.tenants}
    for tenant in sorted(submitted):
        sla = sla_of[tenant]
        stats = account_stats.get(tenant, {})
        values = sorted(slowdowns.get(tenant, []))
        row = {
            "sla": sla,
            "submitted": submitted[tenant],
            "admitted": stats.get("admitted", 0),
            "shed": stats.get("shed", 0),
            "shed_by_reason": dict(
                sorted(sheds_by_tenant.get(tenant, {}).items())
            ),
            "completed": len(values),
            "p50_slowdown": percentile(values, 0.50),
            "p99_slowdown": percentile(values, 0.99),
        }
        tenants[tenant] = row
        agg = classes.setdefault(
            sla,
            {"submitted": 0, "admitted": 0, "shed": 0, "completed": 0,
             "_slowdowns": []},
        )
        agg["submitted"] += row["submitted"]
        agg["admitted"] += row["admitted"]
        agg["shed"] += row["shed"]
        agg["completed"] += row["completed"]
        agg["_slowdowns"].extend(values)
    for sla, agg in classes.items():
        values = agg.pop("_slowdowns")
        agg["p50_slowdown"] = percentile(values, 0.50)
        agg["p99_slowdown"] = percentile(values, 0.99)

    report = SoakReport(
        seed=cfg.seed,
        horizon=cfg.horizon,
        load_factor=cfg.load_factor,
        capacity_wf_per_s=setup.capacity,
        ideal_makespan_s=setup.ideal_makespan,
        makespan_s=result.makespan,
        cost_usd=result.cost(),
        peak_backlog=policy.peak_backlog,
        brownout_transitions=list(policy.brownout.transitions),
        tenants=tenants,
        classes=classes,
        liveness=dict(result.liveness_stats),
    )
    report.problems = _check_soak(cfg, report, result)
    return report
