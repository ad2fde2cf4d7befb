"""One workload, measured in this (fresh) process.

``python -m bench`` starts this module once per workload and trace mode
so every measurement has its own heap.  ``--trace 0`` is the timed run:
one discarded full-size repetition (the first run in a process grows the
heap and reads 5-40% slower), then timed repetitions with nothing
installed.  ``--trace 1`` is the traced run: one repetition under the
boundary wrappers (exact counts and spans), one under the sampler (layer
shares) between two untraced ones, then the microbenches.

The last line of standard output is the one JSON object the driver
reads; ``--out`` also writes everything measured as a results file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from bench import spans
from bench.common import (
    ENV_FLAGS,
    OUT_DIR,
    load_contract,
    load_pins,
    machine_block,
    summarize,
    use_repro_source,
)
from bench.refclock import RefClock
from bench.sampler import Sampler

#: Timed repetitions never fall below this, however long one takes.
MIN_REPS = 3
#: Set-up is timed at least this often per run (it is cheap and noisy).
MIN_SETUPS = 9
#: EXPERIMENTS.md's full-scale Fig 10 makespan (200 x 6.0-degree members
#: on 25 x r3.8xlarge), printed beside fig10_slice's.
FIG10_FULL_SCALE_MAKESPAN_S = 2681.0


@dataclass
class Rep:
    setup_s: float  #: host wall seconds
    run_s: float  #: host wall seconds (reference slices subtracted)
    facts: object
    #: The same in reference seconds (``bench/refclock.py``); 0 when the
    #: repetition ran without the reference clock (traced runs).
    setup_ref_s: float = 0.0
    run_ref_s: float = 0.0


def _refuse_if_instrumented() -> None:
    import repro.analysis.concurrency.recorder as recorder
    import repro.analysis.sanitizer as sanitizer

    armed = [flag for flag in ENV_FLAGS if os.environ.get(flag)]
    if sanitizer.active() is not None:
        armed.append("sanitizer active")
    if recorder.active() is not None:
        armed.append("race recorder active")
    if armed:
        raise SystemExit(
            "bench: refusing to measure an instrumented simulator: "
            + ", ".join(armed)
        )


def _sampled_repetition(workload, seed: int, sampler) -> Rep:
    """One repetition whose run call (only) is under the sampler."""
    gc.collect()
    ctx = workload.setup(seed)
    t1 = time.perf_counter()
    with sampler:
        raw = workload.run(ctx, seed)
    t2 = time.perf_counter()
    return Rep(0.0, t2 - t1, workload.facts(ctx, raw))


def _ref_timed(call):
    """``call()`` under the reference clock: (result, wall s, ref s)."""
    with RefClock() as ref:
        t0 = time.perf_counter()
        result = call()
        t1 = time.perf_counter()
    wall = t1 - t0 - ref.inside_s
    return result, wall, wall / ref.factor


def _timed_repetition(workload, seed: int) -> Rep:
    """One untraced repetition with set-up and run each timed in wall and
    in reference seconds."""
    gc.collect()
    ctx, setup_s, setup_ref_s = _ref_timed(lambda: workload.setup(seed))
    raw, run_s, run_ref_s = _ref_timed(lambda: workload.run(ctx, seed))
    return Rep(
        setup_s, run_s, workload.facts(ctx, raw),
        setup_ref_s=setup_ref_s, run_ref_s=run_ref_s,
    )


def _wrapped_repetition(workload, seed: int, rec) -> Rep:
    """One repetition under the boundary wrappers.

    The wrapped window holds exactly one set-up and one run: where the
    run call builds its own inputs (``run_soak``, ``run_chaos``) the
    benchmark's separate set-up happens before the wrappers go in.
    """
    gc.collect()
    ctx = workload.setup(seed) if workload.run_builds_inputs else None
    with spans.installed(rec):
        if ctx is None:
            with rec.span("bench.setup"):
                ctx = workload.setup(seed)
        with rec.span("bench.run"):
            t1 = time.perf_counter()
            raw = workload.run(ctx, seed)
            t2 = time.perf_counter()
        with rec.span("bench.facts"):
            facts = workload.facts(ctx, raw)
        # A crashed run leaves suspended generators behind whose cleanup
        # (core releases, segment records) runs whenever the collector
        # gets to them; collect inside the window so the counts do not
        # depend on when that is.
        del raw
        gc.collect()
    return Rep(0.0, t2 - t1, facts)


def _time_setups(workload, seed: int, reps: List[Rep]) -> Dict[str, List[float]]:
    """Set-up times of ``reps`` plus set-up-only samples up to MIN_SETUPS."""
    wall = [rep.setup_s for rep in reps]
    ref = [rep.setup_ref_s for rep in reps]
    while len(wall) < MIN_SETUPS:
        gc.collect()
        _ctx, setup_s, setup_ref_s = _ref_timed(lambda: workload.setup(seed))
        wall.append(setup_s)
        ref.append(setup_ref_s)
    return {"wall": wall, "ref": ref}


def _check(workload, seed: int, scale: str, reps: List[Rep]) -> List[str]:
    """Everything that makes a run incorrect, as readable sentences."""
    failures: List[str] = []
    first = reps[0].facts
    for i, rep in enumerate(reps):
        facts = rep.facts
        if facts.jobs_done != facts.jobs_built:
            failures.append(
                f"rep {i}: jobs_simulated {facts.jobs_built} != "
                f"jobs_reported {facts.jobs_done}"
            )
        failures.extend(f"rep {i}: {problem}" for problem in facts.problems)
        if facts.fingerprint != first.fingerprint:
            failures.append(f"rep {i}: fingerprint differs from rep 0")
    pin = load_pins().get(workload.name) if scale == "driver" else None
    if pin is not None and (seed == 0 or not pin["seeded"]):
        measured = {
            "jobs_simulated": first.jobs_built,
            "events_scheduled": first.events,
            "fingerprint": first.fingerprint,
            **{name: repr(value) for name, value in first.sim.items()},
        }
        for key, expected in pin["expect"].items():
            if measured[key] != expected:
                failures.append(
                    f"pin {key}: expected {expected!r}, measured {measured[key]!r}"
                )
    return failures


def _layer_counts(rec, facts) -> Dict[str, float]:
    """Per-layer counts and span seconds from one wrapped repetition."""
    jobs = facts.jobs_done
    c, s, own = rec.counts, rec.seconds, facts.layer

    def per_job(counter: str) -> float:
        return c[counter] / jobs

    reads = c["storage.read"]
    return {
        "sim.engine.events_per_job": facts.events / jobs,
        "sim.engine.timeouts_per_job": per_job("sim.engine.timeout"),
        "sim.engine.schedule_calls_per_job": per_job("sim.engine.schedule_call"),
        "sim.engine.processes_per_job": per_job("sim.engine.process"),
        "sim.resources.transfers_per_job": per_job("sim.resources.transfer"),
        "sim.resources.flows_per_job": per_job("sim.resources.flow"),
        "sim.resources.core_acquires_per_job": per_job("sim.resources.core_acquire"),
        "sim.resources.segment_records_per_job": per_job(
            "sim.resources.segment_record"
        ),
        "sim.resources.store_puts_per_job": per_job("sim.resources.store_put"),
        "storage.reads_per_job": per_job("storage.read"),
        "storage.writes_per_job": per_job("storage.write"),
        "storage.files_per_read": c["storage.files_read"] / reads if reads else 0.0,
        "storage.cache_writes_per_job": per_job("storage.cache_write"),
        "storage.call_s": s("storage.read") + s("storage.write"),
        "mq.publishes_per_job": per_job("mq.publish"),
        "mq.consumes_per_job": per_job("mq.consume"),
        "mq.reprioritize_calls": c["mq.reprioritize"],
        "mq.shed": c["mq.shed"],
        "dewe.state.transitions_per_job": per_job("dewe.state.transition"),
        "dewe.state.build_s": s("dewe.state.build"),
        "dewe.state.expired_scans": c["dewe.state.expired"],
        "dewe.state.expired_s": s("dewe.state.expired"),
        "engines.base.executions_per_job": per_job("engines.base.execute_job"),
        "engines.pull.resubmissions": own.get("engines.pull.resubmissions", 0),
        "generators.build_s": s("generators.build"),
        "workflow.replicate_s": s("workflow.replicate"),
        "parallel.digest_s": s("parallel.digest"),
        "recovery.appends_per_job": per_job("recovery.append"),
        "recovery.append_s": s("recovery.append"),
        "recovery.checkpoints": own.get("recovery.checkpoints", 0),
        "recovery.resume_s": s("recovery.resume"),
        "recovery.journal_records": own.get("recovery.journal_records", 0),
        "faults.injected": own.get("faults.injected", 0),
        "faults.retries_per_job": per_job("faults.retry"),
        "liveness.decisions": c["liveness.decide"],
        "liveness.decide_s": s("liveness.decide"),
        "liveness.shed_share": own.get("liveness.shed_share", 0.0),
        "liveness.brownout_transitions": own.get("liveness.brownout_transitions", 0),
        "service.arrivals": own.get("service.arrivals", 0),
        "service.build_s": s("service.build"),
    }


def _tally(reps: List[Rep]) -> Dict[str, int]:
    """Jobs handed to the program and jobs it did not report completed."""
    return {
        "attempted": sum(rep.facts.jobs_built for rep in reps),
        "failed": sum(
            max(0, rep.facts.jobs_built - rep.facts.jobs_done) for rep in reps
        ),
    }


def _failed_share(reps: List[Rep], failures: List[str]) -> float:
    tally = _tally(reps)
    return tally["failed"] / tally["attempted"] + (1.0 if failures else 0.0)


def _timed(workload, seed: int, seconds: float, scale: str) -> dict:
    """``--trace 0``: end-to-end metrics, nothing installed."""
    first = None if scale == "smoke" else _timed_repetition(workload, seed)
    reps: List[Rep] = []
    while len(reps) < (1 if scale == "smoke" else MIN_REPS) or (
        sum(rep.run_s for rep in reps) < seconds
    ):
        reps.append(_timed_repetition(workload, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = _time_setups(workload, seed, reps)
    everything = ([first] if first else []) + reps
    failures = _check(workload, seed, scale, everything)
    facts = reps[0].facts
    run_s = [rep.run_s for rep in reps]
    return {
        "failures": failures,
        **_tally(reps),
        "end_to_end": {
            "jobs_per_ref_s": {
                "unit": "jobs/ref_s",
                **summarize([r.facts.jobs_done / r.run_ref_s for r in reps]),
            },
            "setup_s": {"unit": "s", **summarize(setups["ref"])},
            "peak_rss_mb": {"unit": "MB", **summarize([peak_rss_mb])},
        },
        #: The same two times on the wall clock, for the reader; too
        #: unsteady on a shared machine to carry a bound.
        "wall": {
            "jobs_per_s": {
                "unit": "jobs/s",
                **summarize([r.facts.jobs_done / r.run_s for r in reps]),
            },
            "setup_wall_s": {"unit": "s", **summarize(setups["wall"])},
        },
        "exact": {
            **{name: repr(value) for name, value in facts.sim.items()},
            "failed_share": repr(_failed_share(reps, failures)),
            "jobs_simulated": facts.jobs_built,
            "jobs_reported": facts.jobs_done,
            "events_scheduled": facts.events,
            "fingerprint": facts.fingerprint,
        },
        "details": {
            "first_run_s": first.run_s if first else None,
            "run_s": summarize(run_s),
            "machine_slowness": summarize([r.run_s / r.run_ref_s for r in reps]),
            "us_per_job": statistics.median(r.run_ref_s for r in reps)
            / facts.jobs_done * 1e6,
            "events_per_job": facts.events / facts.jobs_done,
        },
    }


def _traced(workload, seed: int, scale: str, micro_args: dict) -> dict:
    """``--trace 1``: per-layer metrics from a wrapped and a sampled run.

    The wrapped run goes first and doubles as the discarded first run:
    its counts do not depend on the heap.  The sampled run sits between
    two untraced ones, so heap drift across repetitions cancels in
    ``trace.overhead``.
    """
    from bench import micro  # imports repro: only after use_repro_source()

    rec = spans.Recorder()
    wrapped = _wrapped_repetition(workload, seed, rec)
    rec.write_chrome_trace(OUT_DIR / f"trace_{workload.name}.json")
    before = _timed_repetition(workload, seed)
    sampler = Sampler()
    sampler.calibrate()
    sampled = _sampled_repetition(workload, seed, sampler)
    after = _timed_repetition(workload, seed)
    reps = [wrapped, before, sampled, after]
    failures = _check(workload, seed, scale, reps)
    if wrapped.facts.events != before.facts.events:
        failures.append("wrapped run scheduled a different number of events")

    facts = before.facts
    jobs = facts.jobs_done
    base_run_s = statistics.median([before.run_s, after.run_s])
    # Reference microseconds, so the rows sum to 1e6 / jobs_per_ref_s.
    us_per_job = statistics.median([before.run_ref_s, after.run_ref_s]) / jobs * 1e6
    metrics: Dict[str, float] = dict(facts.sim)
    metrics["failed_share"] = _failed_share(reps, failures)
    metrics["trace.overhead"] = sampled.run_s / base_run_s
    metrics["trace.sample_coverage"] = sampler.coverage
    for layer, share in sampler.shares().items():
        metrics[f"{layer}.self_share"] = share
        metrics[f"{layer}.self_us_per_job"] = share * us_per_job
    metrics.update(_layer_counts(rec, wrapped.facts))
    micro_out = micro.run_micro(**micro_args)
    metrics.update({name: row["value"] for name, row in micro_out.items()})
    return {
        "failures": failures,
        **_tally(reps),
        "per_layer": metrics,
        "details": {
            "untraced_run_s": [before.run_s, after.run_s],
            "sampled_run_s": sampled.run_s,
            "wrapped_first_run_s": wrapped.run_s,
            "us_per_job": us_per_job,
            "samples": sampler.samples,
            "sample_interval_s": sampler.effective_interval,
            "spans": rec.table(),
            "counts": dict(sorted(rec.counts.items())),
            "micro": micro_out,
        },
    }


def _print_report(workload, scale: str, result: dict, units: Dict[str, str]) -> None:
    print(f"== {workload.name} ({scale} size) {json.dumps(workload.params())}")
    measured = {**result.get("end_to_end", {}), **result.get("wall", {})}
    for name, row in measured.items():
        print(
            f"{name:<42} {row['median']:>16.6f} {row['unit']:<10} "
            f"min {row['min']:.6f} max {row['max']:.6f} n {row['n']} "
            "(n too small for a tail percentile)"
        )
    for name, value in result.get("exact", {}).items():
        print(f"{name:<42} {value!s:>16} {units.get(name, 'exact')}")
    for name, value in result.get("per_layer", {}).items():
        print(f"{name:<42} {value:>16.6f} {units.get(name, '')}")
    details = result["details"]
    if details.get("first_run_s") is not None:
        print(
            f"{'first_run_s (discarded)':<42} {details['first_run_s']:>16.6f} s"
        )
    if workload.name == "fig10_slice":
        makespan = (
            float(result["exact"]["sim_makespan_s"])
            if "exact" in result
            else result["per_layer"]["sim_makespan_s"]
        )
        gap = makespan / FIG10_FULL_SCALE_MAKESPAN_S - 1.0
        note = (
            "same 6.0-degree members"
            if scale == "issue"
            else f"members here are {workload.degree:g}-degree, not 6.0: "
            "only --scale issue is comparable"
        )
        print(
            f"fig10_slice makespan {makespan:.1f} s beside EXPERIMENTS.md "
            f"full scale {FIG10_FULL_SCALE_MAKESPAN_S:.0f} s: "
            f"gap {100 * gap:+.1f}% ({note})"
        )
    print(f"{'us_per_job (untraced)':<42} {details['us_per_job']:>16.3f} ref_us/job")
    for failure in result["failures"]:
        print(f"INCORRECT: {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("driver", "issue", "smoke"),
                        default="driver")
    parser.add_argument("--micro-seconds", type=float, default=None)
    parser.add_argument("--threaded-reps", type=int, default=1)
    parser.add_argument("--threaded-members", type=int, default=16)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    use_repro_source()
    from bench import workloads

    import_s = time.perf_counter() - t0
    _refuse_if_instrumented()
    workload = workloads.get(args.workload, args.scale)
    contract = load_contract()
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    units = {
        row["name"]: row["unit"]
        for row in contract["end_to_end"] + contract["per_layer"]
    }

    if args.trace:
        micro_args = {
            "seconds": seconds / 40.0
            if args.micro_seconds is None
            else args.micro_seconds,
            "threaded_reps": args.threaded_reps,
            "threaded_members": args.threaded_members,
        }
        result = _traced(workload, args.seed, args.scale, micro_args)
        measured = result["per_layer"]
        line_metrics = {
            row["name"]: {"value": measured[row["name"]], "unit": row["unit"]}
            for row in contract["per_layer"]
        }
    else:
        result = _timed(workload, args.seed, seconds, args.scale)
        line_metrics = {
            row["name"]: {
                "value": result["end_to_end"][row["name"]]["median"],
                "unit": row["unit"],
            }
            for row in contract["end_to_end"]
        }
    result["details"]["import_s"] = import_s
    result.update(
        workload=workload.name,
        scale=args.scale,
        seed=args.seed,
        trace=args.trace,
        params=workload.params(),
        machine=machine_block(),
        correct=not result["failures"],
    )
    _print_report(workload, args.scale, result, units)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": line_metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
