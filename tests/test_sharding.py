"""Member sharding: ``shard_ensemble`` / ``merge_digests`` /
``run_sharded`` / ``run_sharded_serial`` (ROADMAP 4a).

Sharding approximates the monolithic run (docs/PERFORMANCE.md has the
measured gap); what these tests hold exact is that the pool and serial
paths merge to the same digest.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.parallel import (
    RunDigest,
    RunSpec,
    execute_spec,
    merge_digests,
    run_many,
    run_sharded,
    run_sharded_serial,
    shard_ensemble,
)

SPEC = RunSpec(size=0.3, workflows=4, nodes=2)


def test_shard_ensemble_rejects_indivisible_counts():
    with pytest.raises(ValueError, match="must divide"):
        shard_ensemble(replace(SPEC, workflows=5), 2)  # members do not split
    with pytest.raises(ValueError, match="must divide"):
        shard_ensemble(replace(SPEC, workflows=6, nodes=2), 3)  # nodes do not
    with pytest.raises(ValueError, match="positive"):
        shard_ensemble(SPEC, 0)


def test_shard_ensemble_rejects_a_submission_interval():
    # Each shard rebuilds its members from t=0, so members 2 and 3 of a
    # 4-member run at interval 50 would start at 0/50 instead of 100/150
    # and the merged makespan would come out 100 s short.
    with pytest.raises(ValueError, match="interval=5.0"):
        shard_ensemble(replace(SPEC, interval=5.0), 2)
    with pytest.raises(ValueError, match="interval"):
        run_sharded_serial(replace(SPEC, interval=5.0), 2)


def test_shard_ensemble_resolves_filesystem_before_splitting():
    # A 2-node run defaults to the shared filesystem; its 1-node shards
    # must keep it instead of silently falling back to local disks.
    shards = shard_ensemble(SPEC, 2)
    assert [s.filesystem for s in shards] == ["moosefs", "moosefs"]
    assert [(s.workflows, s.nodes) for s in shards] == [(2, 1), (2, 1)]
    assert [s.label for s in shards] == [
        f"{SPEC.title()}#s00", f"{SPEC.title()}#s01",
    ]
    # An explicit choice is kept, and a 1-node parent stays local.
    assert shard_ensemble(replace(SPEC, filesystem="nfs"), 2)[0].filesystem == "nfs"
    assert shard_ensemble(replace(SPEC, nodes=1), 1)[0].filesystem == "local"


def test_pool_serial_and_result_reuse_paths_agree_byte_for_byte():
    serial = run_sharded_serial(SPEC, 2)
    assert run_sharded(SPEC, 2) == serial
    # ...and both are the merge of the individually run shards,
    # whether those ran here or in a process pool (run_sharded caps its
    # pool at cpu_count, so the pool is driven directly).
    shards = [execute_spec(s) for s in shard_ensemble(SPEC, 2)]
    assert serial == merge_digests(SPEC.title(), shards)
    assert run_many(shard_ensemble(SPEC, 2), workers=2) == shards
    assert serial.fingerprint == hashlib.sha256(
        json.dumps(
            {"shards": [d.fingerprint for d in shards]},
            sort_keys=True, separators=(",", ":"),
        ).encode()
    ).hexdigest()
    assert serial.n_workflows == 4
    assert serial.jobs_executed == sum(d.jobs_executed for d in shards)
    assert serial.events_scheduled == sum(d.events_scheduled for d in shards)


def _digest(label, n_workflows, makespan, mean, spans) -> RunDigest:
    return RunDigest(
        label=label, engine="dewe-v2", n_workflows=n_workflows,
        jobs_executed=10 * n_workflows, makespan=makespan,
        mean_workflow_makespan=mean, cpu_seconds=1.0, bytes_read=2.0,
        bytes_written=3.0, resubmissions=1, cost_usd=0.5,
        events_scheduled=100, fingerprint=label, workflow_spans=spans,
    )


def test_merge_namespaces_spans_and_weights_the_mean():
    a = _digest("a", 1, 10.0, 10.0, (("wf#0", 0.0, 10.0),))
    b = _digest("b", 3, 7.0, 2.0, (("wf#0", 0.0, 1.0), ("wf#1", 1.0, 7.0)))
    merged = merge_digests("both", [a, b])
    # Relabelled members of different shards share names; the shard
    # index keeps them apart.
    assert merged.workflow_spans == (
        ("s00/wf#0", 0.0, 10.0), ("s01/wf#0", 0.0, 1.0), ("s01/wf#1", 1.0, 7.0),
    )
    assert merged.makespan == 10.0  # shards run concurrently
    # Mean over members, not over shards: (1 * 10 + 3 * 2) / 4.
    assert merged.mean_workflow_makespan == pytest.approx(4.0)
    assert merged.n_workflows == 4 and merged.jobs_executed == 40
    assert merged.resubmissions == 2 and merged.cost_usd == 1.0
    with pytest.raises(ValueError, match="at least one"):
        merge_digests("none", [])
