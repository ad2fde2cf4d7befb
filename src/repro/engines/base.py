"""Shared machinery for the simulation engines.

Defines the run configuration, the per-job record, the result object the
benchmarks consume, and the canonical three-phase job execution process
(read inputs -> compute -> write outputs) used by every engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cloud.cluster import ClusterSpec, SimCluster
from repro.cloud.node import SimNode
from repro.cloud.pricing import BillingModel
from repro.sim import Interrupt, Process, SegmentLog, Simulator
from repro.storage.base import SharedFileSystem
from repro.workflow.dag import Job
from repro.workflow.ensemble import Ensemble

__all__ = ["RunConfig", "JobRecord", "EngineResult", "execute_job", "EngineBase"]


@dataclass(frozen=True)
class RunConfig:
    """Engine-independent run options.

    Attributes
    ----------
    default_timeout:
        Master-daemon job timeout (paper §III.B).
    timeout_check_interval:
        How often the master scans for overdue jobs.
    record_jobs:
        Keep a :class:`JobRecord` per executed job.  Needed for the
        timeline figures; turn off for the 1.7M-job full-scale runs to
        save memory.

    A run ends at the last job ack, as the paper measures; write-back
    flushing continues in the background.
    """

    default_timeout: float = 600.0
    timeout_check_interval: float = 5.0
    record_jobs: bool = True

    def __post_init__(self) -> None:
        # A zero sweep interval spins at one simulated instant forever; a
        # nan timeout never expires a job.
        for name in ("default_timeout", "timeout_check_interval"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(slots=True)
class JobRecord:
    """What one executed job attempt did, for timelines and reports."""

    workflow: str
    job_id: str
    task_type: str
    node: int
    start: float
    end: float
    read_time: float
    compute_time: float
    write_time: float
    attempt: int = 1
    #: Coordination latency before the job started doing useful work
    #: (scheduling-cycle wait, dispatch overhead...).
    overhead_time: float = 0.0


@dataclass
class EngineResult:
    """Outcome of one simulated ensemble run."""

    engine: str
    spec: ClusterSpec
    n_workflows: int
    makespan: float
    workflow_spans: Dict[str, Tuple[float, float]]
    records: List[JobRecord]
    cluster: SimCluster
    resubmissions: int = 0
    jobs_executed: int = 0
    extra_write_bytes: float = 0.0  # engine overhead (logs, staging copies)
    #: Per-node concurrent-job-thread logs (Fig 6a).
    thread_logs: List[SegmentLog] = field(default_factory=list)
    #: Per-node worker-daemon lease intervals ``{node: [(start, end), ...]}``.
    #: For a static run every node is leased for the whole makespan; an
    #: autoscaled run (paper §V.A.3's dynamic provisioning) has shorter
    #: leases that :meth:`elastic_cost` bills individually.
    rental_spans: Dict[int, List[Tuple[float, float]]] = field(default_factory=dict)
    #: Leases ended by a *provider* spot termination (subset of
    #: :attr:`rental_spans`); billed with the partial-hour-free spot rule.
    interrupted_spans: Dict[int, List[Tuple[float, float]]] = field(
        default_factory=dict
    )
    #: Injected fault / recovery events
    #: (:class:`~repro.faults.models.FaultEvent`), in injection order.
    fault_events: List = field(default_factory=list)
    #: Dead-lettered jobs (:class:`~repro.faults.retry.DeadLetterEntry`)
    #: across the ensemble — poison jobs and their stranded descendants.
    dead_letters: List = field(default_factory=list)
    #: Final per-workflow job status counts (pull engine only): each
    #: value maps :class:`~repro.dewe.state.JobStatus` values to counts.
    job_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Broker chaos tallies (``ChaosBroker.chaos_stats()``) when a
    #: ``MessageChaos`` band ran.
    mq_chaos_stats: Dict[str, int] = field(default_factory=dict)
    #: Data-integrity tallies (verified/corrupted/lost/detected/
    #: regenerated/restaged) when integrity models ran
    #: (:class:`~repro.storage.integrity.FileIntegrity`).
    integrity_stats: Dict[str, int] = field(default_factory=dict)
    #: Jobs re-run (or inputs re-staged) by the data-aware recovery to
    #: regenerate lost/corrupt files, summed over the ensemble.
    data_recoveries: int = 0
    #: The run's write-ahead journal
    #: (:class:`~repro.recovery.journal.Journal`) when one was attached.
    journal: Optional[object] = None
    #: Liveness-plane tallies (heartbeat misses, lease fencings, stale
    #: acks, shed submissions, failovers, partitions, dead-letter depth)
    #: when the pull engine ran with leases, admission control, failover
    #: or a partition model (see :mod:`repro.liveness`).
    liveness_stats: Dict[str, int] = field(default_factory=dict)

    # -- aggregate metrics (paper Fig 7) ------------------------------------
    def total_cpu_seconds(self) -> float:
        """vCPU-seconds of actual compute over the run (Fig 7b)."""
        return sum(
            node.cores.log.integrate(self.makespan) for node in self.cluster.nodes
        )

    def total_disk_write_bytes(self) -> float:
        """Logical bytes written, including engine overhead (Fig 7c)."""
        return self.cluster.fs.bytes_written + self.extra_write_bytes

    def total_disk_read_bytes(self) -> float:
        return self.cluster.fs.bytes_read

    def cost(self, model: BillingModel = BillingModel.PER_HOUR) -> float:
        """Bill for the whole cluster over the whole run (static rental)."""
        return self.spec.cost(self.makespan, model)

    def elastic_cost(self, model: BillingModel = BillingModel.PER_HOUR) -> float:
        """Bill each node's actual lease intervals (dynamic provisioning).

        Leases ended by a provider spot termination use the
        partial-hour-free spot rule (:func:`~repro.cloud.pricing.spot_billed_hours`);
        everything else rounds up as usual.  Falls back to :meth:`cost`
        when no rental spans were recorded (engines other than the pull
        engine do not track leases).
        """
        if not self.rental_spans:
            return self.cost(model)
        from repro.cloud.pricing import cluster_cost, spot_billed_hours

        itype = self.spec.itype
        total = 0.0
        for node, spans in self.rental_spans.items():
            interrupted = set(self.interrupted_spans.get(node, ()))
            for span in spans:
                seconds = max(0.0, span[1] - span[0])
                if span in interrupted:
                    total += itype.price_per_hour * spot_billed_hours(seconds, model)
                else:
                    total += cluster_cost(itype, 1, seconds, model)
        return total

    def workflow_makespans(self) -> Dict[str, float]:
        return {name: end - start for name, (start, end) in self.workflow_spans.items()}

    def mean_workflow_makespan(self) -> float:
        spans = self.workflow_makespans()
        return sum(spans.values()) / len(spans) if spans else 0.0


def execute_job(
    sim: Simulator,
    node: SimNode,
    fs: SharedFileSystem,
    job: Job,
    speed: float = 1.0,
    read_miss_override: Optional[float] = None,
    extra_cpu: float = 0.0,
    extra_write_bytes: float = 0.0,
    owner: str = "",
):
    """Canonical job execution on a node; a generator for ``sim.process``.

    Phases: read inputs from the shared FS, compute on CPU cores, write
    outputs (absorbed by the write-back cache).  Returns
    ``(read_time, compute_time, write_time)``.

    ``speed`` scales compute (CPU performance factor).  ``extra_cpu`` and
    ``extra_write_bytes`` model engine overhead (Condor job wrappers,
    per-job logs).  ``read_miss_override`` forces a miss ratio (the
    scheduling engine's explicit staging bypasses the page cache).
    """
    t0 = sim.now
    # -- read phase --------------------------------------------------------
    # Events that are already triggered (cache hits, free cores, buffered
    # writes) are not yielded: the result is available now, and skipping
    # the yield saves a suspend/resume round-trip per phase.
    if job.inputs:
        if read_miss_override is None:
            ev = fs.read(node, job.inputs, owner)
        else:
            ev = _read_with_miss(node, fs, job, read_miss_override)
        if not ev._state:
            yield ev
    t1 = sim.now
    # -- compute phase -------------------------------------------------------
    cpu_seconds = job.runtime / speed + extra_cpu
    if cpu_seconds > 0:
        grant = node.cores.acquire()
        if not grant._state:
            try:
                yield grant
            except Interrupt:
                # Killed in the queue: withdraw, or hand back a core
                # granted in this same instant.
                if not node.cores.cancel(grant):
                    node.cores.release()
                raise
        extra_cores = 0
        if job.threads > 1:
            # Opportunistically grab idle cores for multi-threaded jobs
            # (paper §III.D: OpenMP jobs keep their parallelism).
            while extra_cores < job.threads - 1 and node.cores.available > 0:
                node.cores.acquire()
                extra_cores += 1
        try:
            yield sim.timeout(cpu_seconds / (1 + extra_cores))
        finally:
            for _ in range(1 + extra_cores):
                node.cores.release()
    t2 = sim.now
    # -- write phase ---------------------------------------------------------
    if job.outputs or extra_write_bytes > 0:
        ev = fs.write(node, job.outputs, owner)
        if not ev._state:
            yield ev
        if extra_write_bytes > 0:
            # Overhead bytes go to the local disk via the write cache.
            ev = node.write_cache.write(extra_write_bytes, (node.disk.write,))
            if not ev._state:
                yield ev
    t3 = sim.now
    return (t1 - t0, t2 - t1, t3 - t2)


def _read_with_miss(node, fs, job, miss: float):
    """Start a read of the inputs at an explicit miss ratio (bypasses the
    cache model); returns the read's event."""
    local = 0.0
    remote: dict = {}
    if fs._sole is node:
        for f in job.inputs:  # one home: every file is local
            local += f.size * miss
    else:
        for f in job.inputs:
            nbytes = f.size * miss
            home = fs.home_of(f)
            if home is node:
                local += nbytes
            else:
                remote[home] = remote.get(home, 0.0) + nbytes
    return fs._start_read(node, local, remote)


def _reraise(proc: Process) -> None:
    # Exit callback of a process nothing waits on (``PullRun.spawn``).
    if not proc.ok:
        raise proc._value


def release(sim: Simulator, cluster: SimCluster) -> None:
    """End a run whose result is built: break the cycles its links hold
    and close the simulator (:meth:`Simulator.close`), so dropping the
    result frees the run by reference counting."""
    for node in cluster.nodes:
        for link in (node.disk.read, node.disk.write, node.nic_in, node.nic_out):
            link.close()
    sim.close()


class EngineBase:
    """Common construction and bookkeeping for concrete engines."""

    name = "base"

    def __init__(self, spec: ClusterSpec, config: Optional[RunConfig] = None):
        self.spec = spec
        self.config = config or RunConfig()

    def _setup(self, ensemble: Ensemble):
        sim = Simulator()
        cluster = SimCluster(sim, self.spec)
        cluster.fs.stage_inputs(ensemble.workflows)
        # Per-node concurrent-thread logs (Fig 6a).
        thread_logs = [SegmentLog(0.0, 0.0) for _ in cluster.nodes]
        return sim, cluster, thread_logs

    def run(self, ensemble: Ensemble) -> EngineResult:  # pragma: no cover
        raise NotImplementedError
