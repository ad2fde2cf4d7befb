"""Deterministic parallel experiment runner.

The paper's evaluation sweeps whole grids of independent simulated runs
(engines x cluster sizes x ensemble sizes, §V).  Each run is a
self-contained discrete-event simulation, so the sweep is embarrassingly
parallel — :func:`run_many` shards the runs across worker processes and
merges the results in canonical submission order, producing output
byte-identical to the serial :func:`run_serial` path.

:func:`run_sharded` applies the same machinery *inside* one ensemble:
members and nodes are split into equal groups, each group is simulated
as its own small cluster, and :func:`merge_digests` combines the
per-shard digests.  That is an approximation — the monolithic run
(:func:`execute_spec`) has one queue and one file system shared by
every node, a shard has neither cross-group reads nor cross-group
queueing — whose measured error is in docs/PERFORMANCE.md.  The merge
itself is exact: pool and :func:`run_sharded_serial` agree byte for
byte.

Host-time measurement lives in the repo-root ``bench`` package
(``python3 -m bench``, ``BENCHMARK.json``), not here.
"""

from repro.parallel.runner import (
    RunDigest,
    RunSpec,
    digest_result,
    execute_spec,
    merge_digests,
    run_many,
    run_serial,
    run_sharded,
    run_sharded_serial,
    shard_ensemble,
)

__all__ = [
    "RunDigest",
    "RunSpec",
    "digest_result",
    "execute_spec",
    "merge_digests",
    "run_many",
    "run_serial",
    "run_sharded",
    "run_sharded_serial",
    "shard_ensemble",
]
