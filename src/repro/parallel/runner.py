"""Seeded deterministic process-pool runner for independent simulations.

Design constraints:

* **Determinism** — a sweep's output must not depend on how it was
  executed.  Every run is described by a picklable :class:`RunSpec`;
  workers rebuild the workload from the spec (never from shared state)
  and the parent merges digests by submission index, so
  ``run_many(specs)`` returns exactly ``run_serial(specs)`` regardless
  of worker count, scheduling order, or which runs race ahead.
* **Picklability** — :class:`~repro.engines.base.EngineResult` holds the
  live simulator (suspended generator frames) and cannot cross a process
  boundary.  Workers therefore reduce each result to a :class:`RunDigest`
  of plain scalars plus a SHA-256 fingerprint over the full per-workflow
  span table, which is what the determinism tests compare.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud import ClusterSpec
from repro.cloud.cluster import default_filesystem
from repro.engines import DeweV1Engine, PullEngine, SchedulingEngine
from repro.engines.base import RunConfig
from repro.generators import make_workflow
from repro.workflow import Ensemble

__all__ = [
    "ENGINES",
    "RunSpec",
    "RunDigest",
    "build_engine",
    "build_ensemble",
    "digest_result",
    "execute_spec",
    "run_serial",
    "run_many",
    "shard_ensemble",
    "merge_digests",
    "run_sharded",
    "run_sharded_serial",
]


@dataclass(frozen=True)
class RunSpec:
    """One independent simulated run of a workflow ensemble.

    Everything needed to reproduce the run bit-for-bit in a fresh
    process: a spec's run is fault-free, so nothing in it is seeded.
    """

    engine: str = "dewe-v2"
    workflow: str = "montage"
    size: float = 1.0
    workflows: int = 1
    interval: float = 0.0
    instance_type: str = "c3.8xlarge"
    nodes: int = 1
    filesystem: Optional[str] = None
    timeout: float = 600.0
    record_jobs: bool = False
    label: str = ""

    def title(self) -> str:
        return self.label or (
            f"{self.engine}:{self.workflow}x{self.workflows}"
            f"@{self.size}/{self.instance_type}x{self.nodes}"
        )


@dataclass(frozen=True)
class RunDigest:
    """Picklable reduction of an :class:`EngineResult` for sweep merging."""

    label: str
    engine: str
    n_workflows: int
    jobs_executed: int
    makespan: float
    mean_workflow_makespan: float
    cpu_seconds: float
    bytes_read: float
    bytes_written: float
    resubmissions: int
    cost_usd: float
    events_scheduled: int
    #: SHA-256 over the canonical JSON of every per-workflow span plus
    #: the scalar metrics — byte-identical runs have identical digests.
    fingerprint: str = ""
    #: Per-workflow ``name -> (start, end)`` spans (submission order
    #: restored by sorting on name; names encode submission index).
    workflow_spans: Tuple[Tuple[str, float, float], ...] = field(
        default_factory=tuple
    )

    def to_dict(self) -> Dict:
        return asdict(self)


def digest_result(result, label: str = "", events_scheduled: int = 0) -> RunDigest:
    """Reduce an EngineResult to a :class:`RunDigest` (picklable)."""
    spans = tuple(
        (name, float(start), float(end))
        for name, (start, end) in sorted(result.workflow_spans.items())
    )
    body = {
        "engine": result.engine,
        "n_workflows": result.n_workflows,
        "jobs_executed": result.jobs_executed,
        "makespan": repr(result.makespan),
        "resubmissions": result.resubmissions,
        "bytes_read": repr(result.total_disk_read_bytes()),
        "bytes_written": repr(result.total_disk_write_bytes()),
        "spans": [(n, repr(s), repr(e)) for n, s, e in spans],
    }
    fingerprint = hashlib.sha256(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return RunDigest(
        label=label,
        engine=result.engine,
        n_workflows=result.n_workflows,
        jobs_executed=result.jobs_executed,
        makespan=result.makespan,
        mean_workflow_makespan=result.mean_workflow_makespan(),
        cpu_seconds=result.total_cpu_seconds(),
        bytes_read=result.total_disk_read_bytes(),
        bytes_written=result.total_disk_write_bytes(),
        resubmissions=result.resubmissions,
        cost_usd=result.cost(),
        events_scheduled=events_scheduled,
        fingerprint=fingerprint,
        workflow_spans=spans,
    )


ENGINES = {
    "dewe-v2": PullEngine,
    "pegasus": SchedulingEngine,
    "dewe-v1": DeweV1Engine,
}


def build_engine(spec: RunSpec):
    """The engine a spec names, on the cluster it names."""
    if spec.engine not in ENGINES:
        raise ValueError(f"unknown engine {spec.engine!r}")
    fs = spec.filesystem or default_filesystem(spec.nodes)
    cluster = ClusterSpec(spec.instance_type, spec.nodes, filesystem=fs)
    config = RunConfig(default_timeout=spec.timeout, record_jobs=spec.record_jobs)
    return ENGINES[spec.engine](cluster, config)


def build_ensemble(spec: RunSpec) -> Ensemble:
    """``spec.workflows`` copies of the workflow a spec names."""
    template = make_workflow(spec.workflow, spec.size)
    return Ensemble.replicated(template, spec.workflows, interval=spec.interval)


def execute_spec(spec: RunSpec) -> RunDigest:
    """Run one spec in the current process and return its digest.

    Module-level (picklable by reference) so :class:`ProcessPoolExecutor`
    can ship it to workers.
    """
    result = build_engine(spec).run(build_ensemble(spec))
    events = getattr(getattr(result.cluster, "sim", None), "_seq", 0)
    return digest_result(result, label=spec.title(), events_scheduled=events)


def run_serial(specs: Sequence[RunSpec]) -> List[RunDigest]:
    """Reference serial execution, in submission order."""
    return [execute_spec(spec) for spec in specs]


def run_many(specs: Sequence[RunSpec], workers: int = 0) -> List[RunDigest]:
    """Shard ``specs`` across a process pool; merge in submission order.

    ``workers <= 1`` (or a single spec) falls back to the serial path —
    same results, no pool overhead.  The returned list is indexed like
    ``specs``: digest ``i`` always belongs to spec ``i``, whatever order
    the workers finished in.
    """
    specs = list(specs)
    if workers <= 1 or len(specs) <= 1:
        return run_serial(specs)
    # Imported here: only a forking sweep needs the pool, and its modules
    # (multiprocessing, pickle, socket) would weigh on every run's memory.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(specs))) as pool:
        # Executor.map preserves input order while letting runs complete
        # out of order — the canonical-order merge is the iteration.
        return list(pool.map(execute_spec, specs))


# -- single-ensemble sharding ------------------------------------------------
#
# A sweep shards *across* specs; :func:`run_sharded` shards *within* one
# run: members and nodes are split into equal groups and each group is
# simulated as its own small cluster.  That is an approximation of the
# monolithic run, not a decomposition of it: in the paper (and in
# ``execute_spec``) any worker pulls any job from the one queue and
# every node is a chunk server of the one file system, so members do
# share nodes and links.  A shard has no cross-group reads and no
# cross-group queueing, so it schedules far fewer events and its
# makespan differs; docs/PERFORMANCE.md has the measured gap.  What
# *is* exact is the merge: executing the shards in one process or
# across a pool yields the same digest byte for byte
# (tests/test_sharding.py).


def shard_ensemble(spec: RunSpec, shards: int) -> List[RunSpec]:
    """Split one giant ensemble run into per-member-group shard specs.

    ``shards`` must divide both ``spec.workflows`` and ``spec.nodes`` so
    every shard simulates the same members-per-nodes ratio.  The
    filesystem default is resolved *before* splitting: a 25-node shared-fs
    run must not silently turn into local-fs shards when the per-shard
    node count reaches 1.  A spec with a submission interval is
    rejected: every shard would restart its arrivals at t = 0.
    """
    if shards <= 0:
        raise ValueError(f"shards must be positive: {shards!r}")
    if spec.interval != 0:
        raise ValueError(
            f"cannot shard a run with interval={spec.interval!r}: each "
            "shard would submit its first member at t=0, not at its "
            "position in the monolithic arrival sequence"
        )
    if spec.workflows % shards or spec.nodes % shards:
        raise ValueError(
            f"shards={shards} must divide workflows={spec.workflows} "
            f"and nodes={spec.nodes}"
        )
    fs = spec.filesystem or default_filesystem(spec.nodes)
    title = spec.title()
    return [
        replace(
            spec,
            workflows=spec.workflows // shards,
            nodes=spec.nodes // shards,
            filesystem=fs,
            label=f"{title}#s{i:02d}",
        )
        for i in range(shards)
    ]


def merge_digests(label: str, digests: Sequence[RunDigest]) -> RunDigest:
    """Merge per-shard digests into one ensemble-level :class:`RunDigest`.

    Scalars sum; the makespan is the max (shards are modelled as running
    concurrently on disjoint sub-clusters); spans are namespaced by
    shard index so relabelled members from different shards cannot
    collide.  The fingerprint hashes the ordered shard fingerprints, so
    the merged digest is byte-identical iff every shard is.
    """
    if not digests:
        raise ValueError("merge_digests needs at least one shard digest")
    n_workflows = sum(d.n_workflows for d in digests)
    spans = tuple(
        (f"s{i:02d}/{name}", start, end)
        for i, d in enumerate(digests)
        for name, start, end in d.workflow_spans
    )
    fingerprint = hashlib.sha256(
        json.dumps(
            {"shards": [d.fingerprint for d in digests]},
            sort_keys=True, separators=(",", ":"),
        ).encode()
    ).hexdigest()
    return RunDigest(
        label=label,
        engine=digests[0].engine,
        n_workflows=n_workflows,
        jobs_executed=sum(d.jobs_executed for d in digests),
        makespan=max(d.makespan for d in digests),
        mean_workflow_makespan=(
            sum(d.mean_workflow_makespan * d.n_workflows for d in digests)
            / n_workflows
            if n_workflows
            else 0.0
        ),
        cpu_seconds=sum(d.cpu_seconds for d in digests),
        bytes_read=sum(d.bytes_read for d in digests),
        bytes_written=sum(d.bytes_written for d in digests),
        resubmissions=sum(d.resubmissions for d in digests),
        cost_usd=sum(d.cost_usd for d in digests),
        events_scheduled=sum(d.events_scheduled for d in digests),
        fingerprint=fingerprint,
        workflow_spans=spans,
    )


def run_sharded_serial(spec: RunSpec, shards: int) -> RunDigest:
    """Reference path: execute every shard serially, then merge."""
    return merge_digests(spec.title(), run_serial(shard_ensemble(spec, shards)))


def run_sharded(spec: RunSpec, shards: int, workers: int = 0) -> RunDigest:
    """Execute one ensemble as member shards across a pool; merge.

    ``workers`` defaults to (and is always capped at) ``cpu_count`` — a
    pool wider than the machine only adds scheduling noise.  Every shard
    is simulated; the result equals :func:`run_sharded_serial`.
    """
    cpus = os.cpu_count() or 1
    workers = min(workers if workers > 0 else cpus, cpus)
    digests = run_many(shard_ensemble(spec, shards), workers=workers)
    return merge_digests(spec.title(), digests)
