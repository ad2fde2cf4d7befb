"""The six workloads: what each sets up, what it runs, what it reports.

Every workload has the same three steps so the harness can time them
apart: ``setup(seed)`` (generator, ensemble, cluster spec and engine —
everything before the run call), ``run(ctx, seed)`` (the one public call
whose host wall time is ``run_s``) and ``facts(ctx, raw)`` (read the
result after the clock stopped).  Calls into ``repro`` go through module
attributes at call time so the boundary wrappers of :mod:`bench.spans`
see them.

Sizes are cut from the issue's table to fit the driver's run budget
(136 runs in 3,420 s): ``bench/README.md`` has the measured reasons.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Tuple

import repro.faults.chaos as chaos
import repro.generators as generators
import repro.parallel as parallel
import repro.service.soak as soak
from repro.cloud import ClusterSpec
from repro.engines import PullEngine, SchedulingEngine
from repro.engines.base import RunConfig
from repro.recovery import Journal
from repro.workflow import Ensemble

__all__ = ["Facts", "Batch", "Soak", "Crash", "WORKLOADS", "get"]

#: Simulated statistics every workload reports; 0.0 means "not defined
#: on this workload" (one node has no load spread, a batch has no SLA).
SIM_METRICS = (
    "sim_makespan_s",
    "sim_node_load_cv",
    "sim_p99_slowdown_gold",
    "sim_goodput_wf_per_s",
)


@dataclass
class Facts:
    """What one repetition simulated, read after the clock stopped."""

    jobs_built: int  #: jobs the benchmark handed to the program
    jobs_done: int  #: jobs the program reports completed
    events: int  #: kernel events scheduled (0 where the report has none)
    fingerprint: str
    sim: Dict[str, float]
    #: Per-layer numbers the program's own report carries.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Built-in invariant failures (``report.problems`` and the like).
    problems: List[str] = field(default_factory=list)


def _sha(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _sim(**values: float) -> Dict[str, float]:
    return {name: float(values.get(name, 0.0)) for name in SIM_METRICS}


_ENGINES = {"dewe-v2": PullEngine, "pegasus": SchedulingEngine}


@dataclass(frozen=True)
class Batch:
    """Closed batch: every member submitted at simulated t=0."""

    #: ``engine.run`` takes what ``setup`` built.
    run_builds_inputs = False

    name: str
    engine: str
    instance_type: str
    nodes: int
    filesystem: str
    degree: float
    members: int

    def spec(self) -> parallel.RunSpec:
        """The same run as a :class:`repro.parallel.RunSpec`; the bench
        tests hold ``execute_spec(spec())`` equal to setup + run here."""
        return parallel.RunSpec(
            engine=self.engine,
            size=self.degree,
            workflows=self.members,
            instance_type=self.instance_type,
            nodes=self.nodes,
            filesystem=self.filesystem,
        )

    def setup(self, seed: int) -> Tuple[Any, Ensemble]:
        template = generators.montage_workflow(degree=self.degree)
        ensemble = Ensemble.replicated(template, self.members)
        cluster = ClusterSpec(
            self.instance_type, self.nodes, filesystem=self.filesystem
        )
        config = RunConfig(default_timeout=600.0, record_jobs=False)
        return _ENGINES[self.engine](cluster, config), ensemble

    def run(self, ctx, seed: int):
        engine, ensemble = ctx
        return engine.run(ensemble)

    def facts(self, ctx, result) -> Facts:
        # Same expression as repro.parallel.runner.execute_spec.
        events = getattr(getattr(result.cluster, "sim", None), "_seq", 0)
        digest = parallel.digest_result(result, events_scheduled=events)
        loads = [
            node.cores.log.integrate(result.makespan)
            for node in result.cluster.nodes
        ]
        cv = (
            statistics.pstdev(loads) / statistics.fmean(loads)
            if len(loads) > 1
            else 0.0
        )
        return Facts(
            jobs_built=ctx[1].total_jobs,
            jobs_done=digest.jobs_executed,
            events=digest.events_scheduled,
            fingerprint=digest.fingerprint,
            sim=_sim(sim_makespan_s=digest.makespan, sim_node_load_cv=cv),
            layer={"engines.pull.resubmissions": digest.resubmissions},
        )

    def smoke(self) -> "Batch":
        return replace(self, degree=1.0, members=2 * self.nodes)

    def params(self) -> dict:
        return {
            "engine": self.engine,
            "cluster": f"{self.nodes} x {self.instance_type}",
            "filesystem": self.filesystem,
            "members": self.members,
            "degree": self.degree,
            "arrivals": "closed batch, all members at simulated t=0",
        }


@dataclass(frozen=True)
class Soak:
    """Open loop in simulated time: tenants arrive at 2x probed capacity."""

    #: ``run_soak`` probes and builds again itself; ``setup`` times the
    #: same public ``build_soak`` in isolation.
    run_builds_inputs = True

    name: str
    horizon: float

    def config(self, seed: int) -> soak.SoakConfig:
        return replace(soak.SoakConfig.quick(seed), horizon=self.horizon)

    def setup(self, seed: int):
        return soak.build_soak(self.config(seed))

    def run(self, ctx, seed: int):
        return soak.run_soak(self.config(seed))

    def facts(self, ctx, report) -> Facts:
        per_member = len(ctx.workload.ensemble.workflows[0])
        total = {
            key: sum(row[key] for row in report.classes.values())
            for key in ("submitted", "admitted", "shed", "completed")
        }
        return Facts(
            jobs_built=total["admitted"] * per_member,
            jobs_done=total["completed"] * per_member,
            events=0,
            fingerprint=_sha(report.to_json()),
            sim=_sim(
                sim_makespan_s=report.makespan_s,
                sim_p99_slowdown_gold=report.classes["gold"]["p99_slowdown"],
                sim_goodput_wf_per_s=report.sustained_rate(),
            ),
            layer={
                "service.arrivals": total["submitted"],
                "liveness.shed_share": total["shed"] / total["submitted"],
                "liveness.brownout_transitions": len(report.brownout_transitions),
            },
            problems=list(report.problems),
        )

    def smoke(self) -> "Soak":
        return replace(self, horizon=60.0)

    def params(self) -> dict:
        return {
            "config": f"SoakConfig.quick(seed) with horizon={self.horizon:g}",
            "arrivals": "open loop in simulated time, 2x probed capacity",
        }


#: Fault-sampling horizon for the set-up measurement only (``run_chaos``
#: derives its own from the baseline makespan); no sampled fault model is
#: active in ``master-crash``, so the value changes nothing that is built.
_SETUP_FAULT_HORIZON = 1000.0


@dataclass(frozen=True)
class Crash:
    """``run_chaos``: baseline, journaled chaos run, crash and resume."""

    #: ``run_chaos`` builds its ensembles and engines itself; ``setup``
    #: times the same public scenario methods in isolation.
    run_builds_inputs = True

    name: str
    degree: float
    members: int
    crash_after: int
    checkpoint_every: int

    def scenario(self) -> chaos.ChaosScenario:
        return replace(
            chaos.get_scenario("master-crash"),
            size=self.degree,
            n_workflows=self.members,
            crash_after=self.crash_after,
            checkpoint_every=self.checkpoint_every,
        )

    def setup(self, seed: int):
        scenario = self.scenario()
        ensemble = scenario.ensemble()
        journal = Journal(checkpoint_every=scenario.checkpoint_every)
        engine = scenario.build_engine(seed, _SETUP_FAULT_HORIZON, journal=journal)
        return scenario, ensemble, engine

    def run(self, ctx, seed: int):
        return chaos.run_chaos(ctx[0], seed)

    def facts(self, ctx, report) -> Facts:
        done = sum(c.get("completed", 0) for c in report.job_counts.values())
        return Facts(
            jobs_built=ctx[1].total_jobs,
            jobs_done=done,
            events=0,
            fingerprint=_sha(
                report.trace_text,
                repr(report.makespan),
                repr(report.baseline_makespan),
                str(report.journal_records),
                str(report.resubmissions),
            ),
            sim=_sim(sim_makespan_s=report.makespan),
            layer={
                "engines.pull.resubmissions": report.resubmissions,
                "recovery.journal_records": report.journal_records,
                "recovery.checkpoints": report.checkpoints,
                "faults.injected": sum(report.fault_counts.values()),
            },
            problems=list(report.problems),
        )

    def smoke(self) -> "Crash":
        return replace(
            self, degree=1.0, members=2, crash_after=500, checkpoint_every=100
        )

    def params(self) -> dict:
        return {
            "scenario": "master-crash",
            "members": self.members,
            "degree": self.degree,
            "crash_after": self.crash_after,
            "checkpoint_every": self.checkpoint_every,
            "runs_per_call": "baseline + journaled chaos + crash + resume",
        }


#: Sizes the driver runs: one repetition is about 1.5 to 3 s here.
WORKLOADS = (
    Batch("single_node", "dewe-v2", "c3.8xlarge", 1, "local", 6.0, 8),
    Batch("fig10_slice", "dewe-v2", "r3.8xlarge", 2, "moosefs", 3.5, 16),
    Batch("wide_cluster", "dewe-v2", "r3.8xlarge", 8, "moosefs", 1.0, 64),
    Batch("pegasus_baseline", "pegasus", "c3.8xlarge", 1, "local", 6.0, 8),
    Soak("service_overload", 600.0),
    Crash("crash_recovery", 2.0, 5, 12000, 1000),
)

#: The issue's sizes, for a human with minutes to spend (``--scale
#: issue``): fig10_slice at the paper's 6.0-degree members is the row
#: comparable with EXPERIMENTS.md's full-scale makespan.
_ISSUE_SIZES = {
    "fig10_slice": {"degree": 6.0},
    "wide_cluster": {"degree": 2.0},
    "service_overload": {"horizon": 1200.0},
    "crash_recovery": {
        "members": 16, "crash_after": 40000, "checkpoint_every": 2000,
    },
}


def get(name: str, scale: str = "driver"):
    for workload in WORKLOADS:
        if workload.name == name:
            if scale == "smoke":
                return workload.smoke()
            if scale == "issue":
                return replace(workload, **_ISSUE_SIZES.get(name, {}))
            return workload
    raise SystemExit(
        f"bench: unknown workload {name!r}; "
        f"choose from {', '.join(w.name for w in WORKLOADS)}"
    )
