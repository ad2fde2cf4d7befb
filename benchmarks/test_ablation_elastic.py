"""Ablation — dynamic resource provisioning vs billing model (paper
§V.A.3).

The paper predicts that scaling the worker fleet in and out with queue
depth "might not be effective for public clouds with a charge-by-hour
model (such as AWS), but can be useful for public clouds with a
charge-by-minute model (such as Google Compute Engine)" — and could not
test it, being on AWS.  The simulator can:

* static fleet vs queue-depth autoscaler on the same ensemble;
* cost under per-hour, per-minute and per-second billing.

Expected: under per-minute/per-second billing the elastic run is cheaper
(idle blocking-stage capacity is released); under 2015-style hourly
billing the saving collapses because every lease rounds up to an hour.
"""

from conftest import emit

from repro.cloud import BillingModel, ClusterSpec
from repro.engines import PullEngine, RunConfig
from repro.monitor import summary_table
from repro.provision import queue_depth_autoscaler
from repro.workflow import Ensemble

N_NODES = 6
N_WORKFLOWS = 8


def run_ablation(template):
    spec = ClusterSpec("c3.8xlarge", N_NODES, filesystem="moosefs")
    ensemble = Ensemble.replicated(template, N_WORKFLOWS)
    cfg = RunConfig(record_jobs=False)
    static = PullEngine(spec, cfg).run(ensemble)
    auto = queue_depth_autoscaler(
        min_nodes=1,
        check_interval=5.0,
        scale_out_depth=64,
        scale_in_depth=2,
        boot_delay=15.0,
    )
    elastic = PullEngine(spec, cfg, controllers=[auto]).run(ensemble)
    return static, elastic


def test_ablation_elastic_provisioning(benchmark, template, scale_note):
    static, elastic = benchmark.pedantic(
        run_ablation, args=(template,), rounds=1, iterations=1
    )
    rows = []
    for name, result in (("static fleet", static), ("queue-depth autoscaler", elastic)):
        node_seconds = sum(
            e - s for spans in result.rental_spans.values() for s, e in spans
        )
        rows.append(
            {
                "provisioning": name,
                "makespan_s": round(result.makespan, 1),
                "node_seconds": round(node_seconds, 0),
                "per_hour_usd": round(result.elastic_cost(BillingModel.PER_HOUR), 2),
                "per_minute_usd": round(result.elastic_cost(BillingModel.PER_MINUTE), 3),
                "per_second_usd": round(result.elastic_cost(BillingModel.PER_SECOND), 3),
            }
        )
    emit("ablation_elastic", scale_note + "\n" + summary_table(rows))

    # Elastic releases idle capacity: fewer node-seconds leased.
    static_ns = sum(e - s for v in static.rental_spans.values() for s, e in v)
    elastic_ns = sum(e - s for v in elastic.rental_spans.values() for s, e in v)
    assert elastic_ns < static_ns
    # Per-minute and per-second billing reward it.
    assert elastic.elastic_cost(BillingModel.PER_MINUTE) < static.elastic_cost(
        BillingModel.PER_MINUTE
    )
    assert elastic.elastic_cost(BillingModel.PER_SECOND) < static.elastic_cost(
        BillingModel.PER_SECOND
    )
    # Hourly billing erases (most of) the advantage: every short lease
    # rounds up to a full hour, as the paper warned for 2015 AWS.
    hourly_saving = static.elastic_cost(BillingModel.PER_HOUR) - elastic.elastic_cost(
        BillingModel.PER_HOUR
    )
    minute_saving = static.elastic_cost(
        BillingModel.PER_MINUTE
    ) - elastic.elastic_cost(BillingModel.PER_MINUTE)
    assert minute_saving > 0
    assert hourly_saving <= minute_saving + 1e-9 or hourly_saving <= 0
    # The static fleet is never slower.
    assert static.makespan <= elastic.makespan