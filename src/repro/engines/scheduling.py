"""Scheduling-based execution — the Pegasus + DAGMan + Condor baseline.

The paper's comparison system "emphasizes scheduling where the master node
maintains the state of all participating worker nodes, assigns jobs to
worker nodes ... as well as stages necessary data files to the worker
nodes" (§II).  The model has exactly the overhead sources the paper
attributes to that architecture:

* a **central dispatcher** that submits matched jobs one at a time
  (``submit_overhead`` seconds each — the schedd/DAGMan submission path;
  DEWE v2's broker has no such serialization);
* a per-job **dispatch latency** (negotiation-cycle wait and matchmaking);
* a per-node **slot cap** below the vCPU count (the paper observes at most
  20 concurrent threads under Pegasus vs 25 under DEWE v2 on a 32-vCPU
  node, Fig 6a);
* per-job **wrapper CPU** (condor_starter fork/exec, Pegasus kickstart);
* explicit **data staging**: inputs are copied to the worker regardless of
  page-cache state (``read_miss = 1.0``) and outputs are written with an
  amplification factor plus per-job log bytes — the "more disk I/O
  activities" of Fig 6c/7c.

Every knob is a constructor argument with the Fig 6-calibrated default,
validated at construction: the five overheads finite and >= 0,
``read_miss`` in [0, 1], ``max_slots_per_node`` >= 1.  Each slot is one
persistent generator for the whole run; a job is a pass of its loop.
"""

from __future__ import annotations

from math import inf
from typing import Dict, List, Optional, Tuple

from repro.cloud.cluster import ClusterSpec
from repro.dewe.state import WorkflowState
from repro.engines.base import (
    EngineBase, EngineResult, JobRecord, RunConfig, _reraise, execute_job,
    release,
)
from repro.sim import FifoStore
from repro.workflow.ensemble import Ensemble

__all__ = ["CentralDispatchEngine", "SchedulingEngine"]


class CentralDispatchEngine(EngineBase):
    """Shared core: a master that assigns jobs to known worker slots.

    Subclasses set the overhead profile.  Jobs are matched FIFO to the
    least-recently-freed slot (Condor's negotiator round-robins over
    idle slots the same way).
    """

    name = "central"

    def __init__(
        self,
        spec: ClusterSpec,
        config: Optional[RunConfig] = None,
        max_slots_per_node: Optional[int] = None,
        submit_overhead: float = 0.0,
        dispatch_latency: float = 0.0,
        wrapper_cpu: float = 0.0,
        read_miss: Optional[float] = None,
        output_copy_factor: float = 0.0,
        log_bytes_per_job: float = 0.0,
        sequential_workflows: bool = False,
    ):
        super().__init__(spec, config)
        self.max_slots_per_node = max_slots_per_node
        self.submit_overhead = submit_overhead
        self.dispatch_latency = dispatch_latency
        self.wrapper_cpu = wrapper_cpu
        self.read_miss = read_miss
        self.output_copy_factor = output_copy_factor
        self.log_bytes_per_job = log_bytes_per_job
        self.sequential_workflows = sequential_workflows
        for knob in ("submit_overhead", "dispatch_latency", "wrapper_cpu",
                     "output_copy_factor", "log_bytes_per_job"):
            value = getattr(self, knob)
            if not 0.0 <= value < inf:
                raise ValueError(f"{knob} must be finite and >= 0, got {value!r}")
        if read_miss is not None and not 0.0 <= read_miss <= 1.0:
            raise ValueError(f"read_miss must be in [0, 1], got {read_miss!r}")
        if max_slots_per_node is not None and max_slots_per_node < 1:
            raise ValueError(
                f"max_slots_per_node must be >= 1, got {max_slots_per_node!r}"
            )

    def run(self, ensemble: Ensemble) -> EngineResult:
        sim, cluster, thread_logs = self._setup(ensemble)
        cfg = self.config
        fs = cluster.fs
        spans: Dict[str, Tuple[float, float]] = {}
        records: List[JobRecord] = []
        done = sim.event()
        remaining = [len(ensemble)]
        jobs_executed = [0]
        extra_writes = [0.0]

        ready = FifoStore(sim)       # (state, job_id) awaiting a slot
        slots = FifoStore(sim)       # node indices with a free slot
        # One persistent runner generator per slot, fed through a
        # per-node store — not one Process per job (the allocation cost
        # the pull engine's worker slots already avoid).
        node_feeds: List[FifoStore] = [FifoStore(sim) for _ in cluster.nodes]

        wf_complete_events: Dict[str, object] = {}
        running = [0] * len(cluster.nodes)  # jobs on each node now

        def slot_runner(node_index: int):
            # What is fixed for the slot is read once; a resume enters
            # this frame (and ``execute_job``'s during the phases) only.
            node = cluster.nodes[node_index]
            log = thread_logs[node_index]
            feed = node_feeds[node_index]
            speed = node.itype.cpu_speed
            dispatch_latency = self.dispatch_latency
            read_miss = self.read_miss
            wrapper_cpu = self.wrapper_cpu
            copy_factor = self.output_copy_factor
            log_bytes = self.log_bytes_per_job
            while True:
                pending = feed.get()
                if pending._state:
                    state, job_id = pending._value
                else:
                    state, job_id = yield pending
                job = state.workflow.jobs[job_id]
                attempt = state._attempt_arr[state._arena.index_of[job_id]]
                dispatched = sim.now
                if dispatch_latency > 0:
                    # Negotiation-cycle / matchmaking wait before start.
                    yield sim.timeout(dispatch_latency)
                start = sim.now
                state.on_running(job_id, attempt, start)
                running[node_index] = n = running[node_index] + 1
                log.record(start, n)
                output_bytes = 0
                for f in job.outputs:  # Job.output_bytes, in this frame
                    output_bytes += f.size
                extra_bytes = output_bytes * copy_factor + log_bytes
                extra_writes[0] += extra_bytes
                phases = yield from execute_job(
                    sim, node, fs, job, speed, read_miss, wrapper_cpu,
                    extra_bytes, state.name,
                )
                running[node_index] = n = running[node_index] - 1
                log.record(sim.now, n)
                jobs_executed[0] += 1
                if cfg.record_jobs:
                    read_t, compute_t, write_t = phases
                    records.append(
                        JobRecord(
                            workflow=state.name, job_id=job_id,
                            task_type=job.task_type, node=node_index,
                            start=start, end=sim.now, read_time=read_t,
                            compute_time=compute_t, write_time=write_t,
                            attempt=attempt, overhead_time=start - dispatched,
                        )
                    )
                slots.put(node_index)
                for child_id in state.on_completed(job_id, attempt):
                    ready.put((state, child_id))
                if state._n_completed == state._arena.n:  # is_complete
                    spans[state.name] = (spans[state.name][0], sim.now)
                    event = wf_complete_events.get(state.name)
                    if event is not None:
                        event.succeed()
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        done.succeed()

        def dispatcher():
            while True:
                matched = yield ready.get()
                node_index = yield slots.get()
                if self.submit_overhead > 0:
                    # The submission path handles one job at a time.
                    yield sim.timeout(self.submit_overhead)
                node_feeds[node_index].put(matched)

        def submitter():
            for submit_time, wf in ensemble:
                if submit_time > sim.now:
                    yield sim.timeout(submit_time - sim.now)
                state = WorkflowState(wf, cfg.default_timeout, validate=False)
                spans[wf.name] = (sim.now, float("nan"))
                if self.sequential_workflows:
                    wf_complete_events[wf.name] = sim.event()
                for job_id in state.initial_ready():
                    ready.put((state, job_id))
                if self.sequential_workflows:
                    # DEWE v1 runs one workflow at a time (paper §I).
                    yield wf_complete_events[wf.name]

        # Nothing waits on these: see ``PullRun.spawn`` for ``_reraise``.
        for i, node in enumerate(cluster.nodes):
            cap = node.cores.capacity
            if self.max_slots_per_node is not None:
                cap = min(cap, self.max_slots_per_node)
            for _ in range(cap):
                slots.put(i)
                sim.process(slot_runner(i)).callbacks.append(_reraise)

        sim.process(submitter()).callbacks.append(_reraise)
        sim.process(dispatcher()).callbacks.append(_reraise)
        sim.run_until(done)
        if cfg.drain_caches:
            sim.run_until(fs.drained())

        makespan = max(end for _start, end in spans.values())
        result = EngineResult(
            engine=self.name,
            spec=self.spec,
            n_workflows=len(ensemble),
            makespan=makespan,
            workflow_spans=dict(spans),
            records=records,
            cluster=cluster,
            jobs_executed=jobs_executed[0],
            extra_write_bytes=extra_writes[0],
            thread_logs=thread_logs,
        )
        release(sim, cluster)
        return result


class SchedulingEngine(CentralDispatchEngine):
    """The Pegasus + DAGMan + Condor baseline with Fig 6 calibration."""

    name = "pegasus"

    def __init__(self, spec: ClusterSpec, config: Optional[RunConfig] = None, **overrides):
        defaults = dict(
            # Fig 6a: at most 20 concurrent threads on a 32-vCPU node.
            max_slots_per_node=20,
            # Schedd/DAGMan submission path: ~45 job starts per second.
            submit_overhead=0.022,
            # Mean matchmaking/negotiation wait per job (holds the slot).
            dispatch_latency=0.5,
            # condor_starter + kickstart wrapper work per job.
            wrapper_cpu=0.55,
            # Explicit stage-in ignores the page cache.
            read_miss=1.0,
            # Outputs are written to the worker's sandbox and then staged
            # back to shared storage; plus per-job logs (Fig 6c/7c).
            output_copy_factor=1.5,
            log_bytes_per_job=5e6,
        )
        defaults.update(overrides)
        super().__init__(spec, config, **defaults)
