"""Resource-consumption time series (the paper's mpstat/iostat sampling).

Each node's DES resources log exact utilisation segments; these helpers
resample them into fixed-interval series, default 3 seconds like the
paper's background monitoring process (§IV.A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.engines.base import EngineResult
from repro.liveness import new_liveness_stats

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NodeMetrics",
    "node_metrics",
    "cluster_metrics",
    "robustness_metrics",
    "percentile",
]

#: The paper's sampling interval (seconds).
SAMPLE_INTERVAL = 3.0


@dataclass
class NodeMetrics:
    """Sampled series for one node (or a cluster aggregate).

    ``times`` are bucket start times; utilisation is percent; throughputs
    are MB/s (decimal), matching the paper's axes.
    """

    times: np.ndarray
    cpu_util: np.ndarray
    disk_write: np.ndarray
    disk_read: np.ndarray
    threads: np.ndarray

    @property
    def peak_threads(self) -> float:
        return float(self.threads.max()) if self.threads.size else 0.0

    @property
    def peak_cpu_util(self) -> float:
        return float(self.cpu_util.max()) if self.cpu_util.size else 0.0

    def mean_cpu_util(self) -> float:
        return float(self.cpu_util.mean()) if self.cpu_util.size else 0.0


def node_metrics(
    result: EngineResult,
    node_index: int,
    dt: float = SAMPLE_INTERVAL,
    t_end: float | None = None,
) -> NodeMetrics:
    """Sampled metrics of one node over ``[0, t_end]`` (default makespan)."""
    node = result.cluster.nodes[node_index]
    end = result.makespan if t_end is None else t_end
    times, busy = node.cores.log.sample(end, dt)
    _t, writes = node.disk.write.log.sample(end, dt)
    _t, reads = node.disk.read.log.sample(end, dt)
    if result.thread_logs:
        _t, threads = result.thread_logs[node_index].sample(end, dt)
    else:
        import numpy as np

        threads = np.zeros_like(busy)
    return NodeMetrics(
        times=times,
        cpu_util=100.0 * busy / node.cores.capacity,
        disk_write=writes / 1e6,
        disk_read=reads / 1e6,
        threads=threads,
    )


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a finite sample.

    Deterministic and interpolation-free — the reported p50/p99 is always
    an actually observed value, and two runs over the same sample render
    the same bytes (no float blending), which the service soak report's
    byte-identity contract relies on.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = list(values)
    # sort() does not order a list holding a NaN: refuse it by name.
    for value in ordered:
        if not math.isfinite(value):
            raise ValueError(f"percentile of a non-finite value: {value!r}")
    if not ordered:
        return 0.0
    ordered.sort()
    rank = math.ceil(q * len(ordered))
    return float(ordered[max(0, min(len(ordered) - 1, rank - 1))])


def robustness_metrics(result: EngineResult) -> Dict[str, int]:
    """Control-plane robustness counters of one run.

    Always returns the full counter set (zeros when the liveness plane
    was off) so dashboards get a stable schema: heartbeat misses, lease
    fencings/regrants, stale-epoch acks, shed submissions, failovers,
    partitions, and the final dead-letter queue depth.
    """
    stats = new_liveness_stats()
    stats["dead_letter_depth"] = len(result.dead_letters)
    # Constant, kept for the quick-soak digest (see PullRun._result).
    stats["shed_record_drops"] = 0
    stats.update(getattr(result, "liveness_stats", None) or {})
    return stats


def cluster_metrics(
    result: EngineResult,
    dt: float = SAMPLE_INTERVAL,
    t_end: float | None = None,
) -> NodeMetrics:
    """Cluster aggregate: mean CPU utilisation, summed disk throughput."""
    per_node = [
        node_metrics(result, i, dt, t_end) for i in range(len(result.cluster.nodes))
    ]
    n = len(per_node)
    return NodeMetrics(
        times=per_node[0].times,
        cpu_util=sum(m.cpu_util for m in per_node) / n,
        disk_write=sum(m.disk_write for m in per_node),
        disk_read=sum(m.disk_read for m in per_node),
        threads=sum(m.threads for m in per_node),
    )
