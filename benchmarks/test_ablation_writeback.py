"""Ablation — the write-back cache (DESIGN.md §5).

The paper's §IV.A signature of write-back caching is that "the operating
system caches the disk writes and flushes them to the disk in batches,
resulting in the intermittent disk writes at full capacity" (Fig 4b),
while jobs themselves stay CPU-bound.  Shrinking the simulated dirty-page
buffer to a single page makes every job wait for the device:

* the burst signature disappears — the write channel's peak-to-mean
  throughput ratio collapses because writes trickle out job by job;
* job write phases become visible (non-zero write time per record);
* the makespan can only get worse.
"""

from conftest import emit

from repro.cloud import ClusterSpec
from repro.engines import PullEngine
from repro.engines.base import RunConfig
from repro.monitor import node_metrics, summary_table
from repro.workflow import Ensemble

N_WORKFLOWS = 6


class TinyCachePullEngine(PullEngine):
    """PullEngine whose nodes have an (almost) disabled write-back cache."""

    def _setup(self, ensemble):
        sim, cluster, thread_logs = super()._setup(ensemble)
        for node in cluster.nodes:
            # One page of buffer: effectively synchronous.
            node.write_cache.capacity = 4096.0
        return sim, cluster, thread_logs


def run_ablation(template):
    spec = ClusterSpec("c3.8xlarge", 1, filesystem="local")
    ensemble = Ensemble.replicated(template, N_WORKFLOWS)
    with_cache = PullEngine(spec, RunConfig()).run(ensemble)
    without = TinyCachePullEngine(spec, RunConfig()).run(ensemble)
    return with_cache, without


def burstiness(result) -> float:
    m = node_metrics(result, 0)
    mean = float(m.disk_write.mean())
    return float(m.disk_write.max()) / mean if mean > 0 else 0.0


def test_ablation_writeback_cache(benchmark, template, scale_note):
    with_cache, without = benchmark.pedantic(
        run_ablation, args=(template,), rounds=1, iterations=1
    )
    rows = []
    for name, result in (("write-back cache", with_cache), ("synchronous", without)):
        write_time = sum(r.write_time for r in result.records)
        rows.append(
            {
                "mode": name,
                "makespan_s": round(result.makespan, 1),
                "write_burst_peak/mean": round(burstiness(result), 2),
                "sum_job_write_time_s": round(write_time, 1),
            }
        )
    emit("ablation_writeback", scale_note + "\n" + summary_table(rows))

    # With the cache, jobs never wait on writes; without it they do.
    cached_wait = sum(r.write_time for r in with_cache.records)
    sync_wait = sum(r.write_time for r in without.records)
    assert cached_wait < 1e-6
    assert sync_wait > 1.0
    # Removing the cache never helps the makespan.
    assert without.makespan >= with_cache.makespan - 1e-6
    # Conservation: the same logical bytes were written either way.
    assert abs(
        with_cache.cluster.fs.bytes_written - without.cluster.fs.bytes_written
    ) < 1.0
