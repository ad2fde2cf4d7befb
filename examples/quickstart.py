#!/usr/bin/env python
"""Quickstart: run a Montage workflow with DEWE v2 — twice.

1. For real: the threaded master/worker daemons execute the DAG on this
   machine through the in-process broker (the jobs are tiny callables).
2. At cluster scale: the same control logic drives the discrete-event
   simulator against a c3.8xlarge node, reproducing the paper's setting.
"""

import collections

from repro import (
    Broker,
    ClusterSpec,
    DeweConfig,
    Ensemble,
    MasterDaemon,
    PullEngine,
    WorkerDaemon,
    montage_workflow,
    submit_workflow,
)
from repro.dewe.executors import NullExecutor
from repro.monitor import run_summary, summary_table


def run_real() -> None:
    print("== real threaded DEWE v2 " + "=" * 40)
    workflow = montage_workflow(degree=0.5)
    print(f"workflow: {workflow.name} with {len(workflow)} jobs")

    config = DeweConfig(default_timeout=30.0, max_concurrent_jobs=8)
    broker = Broker()
    with MasterDaemon(broker, config) as master, WorkerDaemon(
        broker, NullExecutor(), config, name="local-worker"
    ):
        submit_workflow(broker, workflow)
        assert master.wait(workflow.name, timeout=60.0)
        # A settled workflow is kept as its checkpoint snapshot.
        _workflow, snapshot = master.settled[workflow.name]
        print(f"completed {snapshot.counts()['completed']}/{len(snapshot.job_ids)} jobs "
              f"in {master.makespan(workflow.name):.2f} s wall time")
        status = snapshot.to_dict()["status"]
        counts = collections.Counter(
            job.task_type for job in workflow if status[job.id] == "completed"
        )
        print("job mix:", dict(counts))


def run_simulated() -> None:
    print("\n== simulated c3.8xlarge cluster " + "=" * 33)
    workflow = montage_workflow(degree=1.0)
    spec = ClusterSpec("c3.8xlarge", 1, filesystem="local")
    result = PullEngine(spec).run(Ensemble([workflow]))
    print(summary_table([run_summary(result)]))
    print(f"simulated makespan: {result.makespan:.1f} s on {spec.name}")


if __name__ == "__main__":
    run_real()
    run_simulated()
