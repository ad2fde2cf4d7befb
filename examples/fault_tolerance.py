#!/usr/bin/env python
"""Fault tolerance (paper §V.A.3): kill the worker daemon mid-run.

Part 1 drives the *real* threaded system: a worker daemon is killed while
a job is in flight, its acknowledgment never arrives, and the master's
timeout resubmits the job to a replacement daemon.

Part 2 replays the paper's experiment in the simulator: interruptions
during non-blocking jobs cost ~the downtime; interruptions during
blocking jobs cost ~the timeout.

Part 3 goes beyond the paper: a seeded stochastic spot-termination
scenario (instances reclaimed mid-run with a short notice and
auto-scaling replacements, plus a poison job) executed by the chaos
harness, with dead-letter reporting and the recovery invariants checked.
"""

import threading
import time

from repro import (
    Broker,
    ClusterSpec,
    DeweConfig,
    Ensemble,
    FaultAction,
    FaultSchedule,
    MasterDaemon,
    PullEngine,
    WorkerDaemon,
    Workflow,
    montage_workflow,
    submit_workflow,
)
from repro.engines.base import RunConfig
from repro.monitor.timeline import stage_windows


def real_system_failover() -> None:
    print("== real system: kill + replace the worker daemon " + "=" * 16)
    broker = Broker()
    config = DeweConfig(default_timeout=0.5, max_concurrent_jobs=4)

    started = threading.Event()
    release = threading.Event()

    def slow_job():
        started.set()
        release.wait(timeout=10.0)

    wf = Workflow("failover-demo")
    wf.new_job("long", "compute", action=slow_job)
    wf.new_job("final", "collect")
    wf.add_dependency("long", "final")

    with MasterDaemon(broker, config) as master:
        first = WorkerDaemon(broker, config=config, name="node-A").start()
        submit_workflow(broker, wf)
        started.wait(timeout=5.0)
        print("killing worker node-A while 'long' is running...")
        first.kill()  # its COMPLETED ack is now lost
        release.set()
        time.sleep(0.1)
        print("starting replacement worker node-B")
        second = WorkerDaemon(broker, config=config, name="node-B").start()
        ok = master.wait("failover-demo", timeout=15.0)
        second.stop()
        state = master.states["failover-demo"]
        print(f"workflow completed: {ok}; timeout resubmissions: "
              f"{state.resubmissions}\n")


def simulated_interruptions() -> None:
    print("== simulator: where the interruption lands matters " + "=" * 14)
    template = montage_workflow(degree=1.0)
    for job_id in ("mConcatFit", "mBgModel"):
        job = template.job(job_id)
        job.timeout = 30.0 + job.runtime
    spec = ClusterSpec("c3.8xlarge", 1, filesystem="local")
    cfg = RunConfig(default_timeout=30.0, timeout_check_interval=1.0)

    baseline = PullEngine(spec, config=cfg).run(Ensemble([template]))
    (s2_start, s2_end) = next(iter(stage_windows(baseline).values()))
    print(f"baseline makespan: {baseline.makespan:.1f} s "
          f"(blocking stage {s2_start:.0f}..{s2_end:.0f} s)")

    for label, t_kill in (
        ("fan stage (non-blocking jobs)", s2_start * 0.5),
        ("blocking stage (mConcatFit/mBgModel)", (s2_start + s2_end) / 2),
    ):
        schedule = FaultSchedule(
            [FaultAction(t_kill, 0, "kill"), FaultAction(t_kill + 5.0, 0, "restart")]
        )
        result = PullEngine(spec, config=cfg, controllers=[schedule]).run(
            Ensemble([template])
        )
        delta = result.makespan - baseline.makespan
        print(f"kill at {t_kill:6.1f} s in {label:38s} -> "
              f"+{delta:5.1f} s, {result.resubmissions} resubmissions")


def stochastic_spot_terminations() -> None:
    print("== chaos harness: spot market + a poison job " + "=" * 20)
    from repro.faults import RetryPolicy, SpotHazard, TransientFaultModel
    from repro.faults.chaos import ChaosScenario, run_chaos

    scenario = ChaosScenario(
        name="spot-with-poison",
        description="spot reclamations with replacements; mBgModel is "
        "poisoned and must be dead-lettered with its descendants",
        n_nodes=4,
        n_workflows=4,
        retry=RetryPolicy(max_attempts=3),
        # Node 0 is never reclaimed, so the ensemble always has a worker.
        faults=(
            SpotHazard(600.0, notice=3.0, replacement_delay=5.0, protected=(0,)),
        ),
        transient=TransientFaultModel(poison=("mBgModel",)),
        expect_dead=("mBgModel",),
    )
    for seed in (0, 1):
        report = run_chaos(scenario, seed=seed)
        print(report.summary())
        poisoned = [e for e in report.dead_letters if e.reason != "upstream-dead"]
        cascaded = len(report.dead_letters) - len(poisoned)
        print(f"  -> {len(poisoned)} poison job(s) dead-lettered after "
              f"exhausting their budget, {cascaded} descendant(s) cascaded; "
              f"every other job completed exactly once\n")


if __name__ == "__main__":
    real_system_failover()
    simulated_interruptions()
    stochastic_spot_terminations()
