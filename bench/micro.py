"""Layer microbenches: one isolated loop over one layer's public calls.

Same harness and units as the workloads, reported as ungated per-layer
metrics.  Each unit of work times only its own loop (building its inputs
is outside the clock) and is repeated until ``seconds`` of timed work
have accumulated.  ``dewe.threaded_jobs_per_s`` is the real threaded
master/worker stack; it is bimodal on a small box (``bench/README.md``),
so it carries min, max and an ``unresolved`` flag instead of a bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro.generators as generators
import repro.parallel as parallel
from repro.cloud import ClusterSpec
from repro.cloud.cluster import SimCluster
from repro.dewe import (
    DeweConfig,
    MasterDaemon,
    NullExecutor,
    WorkerDaemon,
    WorkflowState,
    submit_workflow,
)
from repro.engines import PullEngine
from repro.engines.base import RunConfig
from repro.mq import Broker, SimBroker
from repro.recovery import Journal
from repro.sim import FairShareLink, Simulator
from repro.workflow import Ensemble

__all__ = ["MICRO", "run_micro", "threaded_jobs_per_s"]

#: A unit of work: returns ``(operations, timed seconds)``.
Unit = Callable[[], Tuple[int, float]]

#: Spread of repeated threaded runs above which no median is trusted.
THREADED_SPREAD_LIMIT = 1.25


def _events() -> Tuple[int, float]:
    """Four tickers yielding zero-work timeouts (as ``bench_event_loop``)."""
    sim = Simulator()

    def ticker(period: float):
        while True:
            yield sim.timeout(period)

    for i in range(4):
        sim.process(ticker(1.0 + i * 0.1))
    t0 = time.perf_counter()
    sim.run(until=20000.0)
    elapsed = time.perf_counter() - t0
    # One timeout per tick plus a bootstrap event per ticker, give or take
    # one at the horizon; a constant, so rates compare exactly.
    return sum(int(20000.0 / (1.0 + i * 0.1)) for i in range(4)) + 4, elapsed


def _flows() -> Tuple[int, float]:
    """64 concurrent flows of unequal size sharing one link, 400 rounds."""
    sim = Simulator()
    link = FairShareLink(sim, 1e9)
    rounds, width = 400, 64

    def driver():
        for r in range(rounds):
            yield sim.all_of(
                [link.transfer(1e6 * (1 + (i + r) % 7)) for i in range(width)]
            )

    proc = sim.process(driver())
    t0 = time.perf_counter()
    sim.run_until(proc)
    return rounds * width, time.perf_counter() - t0


def _storage() -> Tuple[int, float]:
    """Every job of a 2.0-degree Montage writes its outputs and reads its
    inputs through one node's shared FS and write-back cache."""
    sim = Simulator()
    cluster = SimCluster(sim, ClusterSpec("c3.8xlarge", 1, filesystem="local"))
    workflow = generators.montage_workflow(degree=2.0)
    cluster.fs.stage_inputs([workflow])
    node, fs = cluster.nodes[0], cluster.fs
    jobs = list(workflow)

    def driver():
        for job in jobs:
            if job.inputs:
                yield fs.read(node, job.inputs, workflow.name)
            if job.outputs:
                yield fs.write(node, job.outputs, workflow.name)

    proc = sim.process(driver())
    t0 = time.perf_counter()
    sim.run_until(proc)
    elapsed = time.perf_counter() - t0
    return sum(bool(j.inputs) + bool(j.outputs) for j in jobs), elapsed


def _mq() -> Tuple[int, float]:
    """Publish then consume 20,000 messages through one ``SimBroker`` topic."""
    sim = Simulator()
    broker = SimBroker(sim)
    n = 20000

    def producer():
        for i in range(n):
            broker.publish("t", i)
            if i % 100 == 99:
                yield sim.timeout(0.01)

    def consumer():
        for _ in range(n):
            yield broker.consume("t")

    sim.process(producer())
    proc = sim.process(consumer())
    t0 = time.perf_counter()
    sim.run_until(proc)
    return n, time.perf_counter() - t0


def _state_unit() -> Unit:
    """Drive one 6.0-degree ``WorkflowState`` to completion in topological
    order: dispatch, running ack, completion ack per job.  Building the
    state is outside the clock (``dewe.state.build_s`` has that)."""
    template = generators.montage_workflow(degree=6.0)

    def unit() -> Tuple[int, float]:
        state = WorkflowState(template, validate=False)
        attempt = state.attempt
        t0 = time.perf_counter()
        ready = deque(state.initial_ready())
        done = 0
        while ready:
            job_id = ready.popleft()
            state.mark_dispatched(job_id, 0.0)
            state.on_running(job_id, attempt[job_id], 0.0)
            ready.extend(state.on_completed(job_id, attempt[job_id]))
            done += 1
        elapsed = time.perf_counter() - t0
        if not state.is_complete:
            raise RuntimeError("state microbench did not complete the workflow")
        return 3 * done, elapsed

    return unit


def _generators() -> Tuple[int, float]:
    t0 = time.perf_counter()
    template = generators.montage_workflow(degree=6.0)
    ensemble = Ensemble.replicated(template, 8)
    elapsed = time.perf_counter() - t0
    return ensemble.total_jobs, elapsed


def _journal() -> Tuple[int, float]:
    """20,000 appends with a checkpoint (state digest) every 1,000."""
    journal = Journal(checkpoint_every=1000)
    journal.snapshot_provider = lambda: {"wf": {"completed": journal.seq}}
    n = 20000
    t0 = time.perf_counter()
    for i in range(n):
        journal.append(float(i), "dispatch", "wf", f"job{i}", 1)
    return n, time.perf_counter() - t0


def _digest_unit() -> Unit:
    """``digest_result`` over one finished 16 x 1.0-degree run (built once)."""
    engine = PullEngine(
        ClusterSpec("c3.8xlarge", 1, filesystem="local"),
        RunConfig(record_jobs=False),
    )
    template = generators.montage_workflow(degree=1.0)
    result = engine.run(Ensemble.replicated(template, 16))

    def unit() -> Tuple[int, float]:
        t0 = time.perf_counter()
        for _ in range(200):
            parallel.digest_result(result)
        return 200 * result.jobs_executed, time.perf_counter() - t0

    return unit


#: metric name -> (unit string, factory returning the unit of work)
MICRO: Dict[str, Tuple[str, Callable[[], Unit]]] = {
    "sim.engine.micro_events_per_s": ("events/s", lambda: _events),
    "sim.resources.micro_flows_per_s": ("flows/s", lambda: _flows),
    "storage.micro_ops_per_s": ("ops/s", lambda: _storage),
    "mq.micro_msgs_per_s": ("msgs/s", lambda: _mq),
    "dewe.state.micro_transitions_per_s": ("transitions/s", _state_unit),
    "generators.micro_jobs_per_s": ("jobs/s", lambda: _generators),
    "recovery.micro_appends_per_s": ("appends/s", lambda: _journal),
    "parallel.micro_digest_jobs_per_s": ("jobs/s", _digest_unit),
}
THREADED = "dewe.threaded_jobs_per_s"


def _rate(unit: Unit, seconds: float) -> float:
    ops, elapsed = 0, 0.0
    while True:
        n, dt = unit()
        ops += n
        elapsed += dt
        if elapsed >= seconds:
            return ops / elapsed


def threaded_jobs_per_s(reps: int, members: int = 16, degree: float = 2.0) -> dict:
    """Real ``MasterDaemon`` + one ``WorkerDaemon(NullExecutor)`` with one
    job thread over the in-process ``Broker``."""
    config = DeweConfig(max_concurrent_jobs=1)
    template = generators.montage_workflow(degree=degree)
    rates = []
    for rep in range(reps):
        workflows = [template.relabel(f"threaded{rep}.{i}") for i in range(members)]
        broker = Broker()
        t0 = time.perf_counter()
        with MasterDaemon(broker, config) as master, WorkerDaemon(
            broker, NullExecutor(), config
        ):
            for workflow in workflows:
                submit_workflow(broker, workflow)
            for workflow in workflows:
                if not master.wait(workflow.name, timeout=120.0):
                    raise RuntimeError(f"threaded run stalled on {workflow.name}")
        rates.append(members * len(template) / (time.perf_counter() - t0))
    return {
        "value": statistics.median(rates),
        "unit": "jobs/s",
        "min": min(rates),
        "max": max(rates),
        "n": len(rates),
        "unresolved": len(rates) < 2
        or max(rates) / min(rates) > THREADED_SPREAD_LIMIT,
    }


def run_micro(
    seconds: float, threaded_reps: int, threaded_members: int = 16
) -> Dict[str, dict]:
    """Every microbench, ``seconds`` of timed work each."""
    out: Dict[str, dict] = {}
    for name, (unit_name, factory) in MICRO.items():
        out[name] = {"value": _rate(factory(), seconds), "unit": unit_name}
    out[THREADED] = threaded_jobs_per_s(threaded_reps, threaded_members)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    """The suite's full-length pass, in a process of its own."""
    parser = argparse.ArgumentParser(prog="python -m bench.micro")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--threaded-reps", type=int, default=5)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    out = run_micro(args.seconds, args.threaded_reps)
    for name, row in out.items():
        extra = (
            f" min {row['min']:.1f} max {row['max']:.1f} n {row['n']}"
            + (" UNRESOLVED" if row["unresolved"] else "")
            if "min" in row
            else ""
        )
        print(f"{name:<42} {row['value']:>16.1f} {row['unit']}{extra}")
    if args.out is not None:
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
