"""Command-line entry points.

Six commands mirror the system's main user journeys:

* ``repro-run`` — execute a workflow ensemble on a simulated cluster with
  a chosen engine and print the run summary (the DAG is validated at
  submission time, paper §III.C);
* ``repro-plan`` — size clusters for a workload/deadline (Table III);
* ``repro-profile`` — run the Fig 5 profiling campaign for an instance
  type and print the derived node performance index;
* ``repro-lint`` — the repo code lint (``__slots__`` and lock-discipline
  rules).  See docs/STATIC_ANALYSIS.md.
* ``repro-chaos`` — run an ensemble under a named fault scenario and
  verify the recovery invariants.  See docs/FAULTS.md.
* ``repro-service`` — multi-tenant open-loop soak: seeded arrival
  processes through the quota/fair-share/brownout admission ladder,
  reporting per-tenant per-class slowdown and shed counts.  See
  docs/FAULTS.md ("Overload and graceful degradation").
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.cloud.cluster import FS_KINDS
from repro.cloud.instances import get_instance_type
from repro.generators import WORKFLOW_KINDS, montage_workflow
from repro.monitor import run_summary, summary_table
from repro.parallel.runner import ENGINES, RunSpec, build_engine, build_ensemble
from repro.provision import ProfilingCampaign, plan_cluster
from repro.workflow import ValidationError, validate_workflow


def main_run(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description="Run a workflow ensemble on a simulated EC2 cluster.",
    )
    parser.add_argument("--engine", choices=sorted(ENGINES), default="dewe-v2")
    parser.add_argument("--workflow", default="montage", choices=WORKFLOW_KINDS)
    parser.add_argument("--size", type=float, default=1.0,
                        help="Montage degree / LIGO blocks / CyberShake ruptures")
    parser.add_argument("--workflows", type=int, default=1,
                        help="ensemble size (copies of the workflow)")
    parser.add_argument("--interval", type=float, default=0.0,
                        help="incremental submission interval in seconds")
    parser.add_argument("--instance-type", default="c3.8xlarge")
    parser.add_argument("--nodes", type=int, default=1)
    parser.add_argument("--filesystem", choices=FS_KINDS, default=None)
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="job timeout for the master daemon")
    parser.add_argument("--export-dir", default=None,
                        help="write trace.json / timeline.svg / metrics.csv here")
    parser.add_argument("--verbose", action="store_true",
                        help="report every validation problem, not just "
                             "the first few")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top-20 "
                             "hot spots by cumulative time")
    args = parser.parse_args(argv)

    spec = RunSpec(
        engine=args.engine, workflow=args.workflow, size=args.size,
        workflows=args.workflows, interval=args.interval,
        instance_type=args.instance_type, nodes=args.nodes,
        filesystem=args.filesystem, timeout=args.timeout,
        record_jobs=args.export_dir is not None,
    )
    try:
        engine = build_engine(spec)
        ensemble = build_ensemble(spec)
    except KeyError as exc:  # an unknown --instance-type
        parser.error(exc.args[0])
    except ValueError as exc:  # e.g. a non-finite --size, a multi-node local FS
        parser.error(str(exc))
    # Submission-time validation (paper §III.C): reject malformed DAGs
    # before burning simulated cluster time on them.  (Members share the
    # template's jobs, so the first member stands for all.)
    try:
        validate_workflow(ensemble.workflows[0])
    except ValidationError as exc:
        print(exc.render(verbose=args.verbose), file=sys.stderr)
        return 2
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        result = engine.run(ensemble)
        profiler.disable()
        pstats.Stats(profiler, stream=sys.stderr).sort_stats(
            "cumulative"
        ).print_stats(20)
    else:
        result = engine.run(ensemble)
    print(summary_table([run_summary(result)]))
    if args.export_dir is not None:
        from pathlib import Path

        from repro.monitor import metrics_to_csv, node_metrics, to_chrome_trace
        from repro.monitor.plot import svg_gantt

        out = Path(args.export_dir)
        out.mkdir(parents=True, exist_ok=True)
        to_chrome_trace(result, out / "trace.json")
        svg_gantt(result, path=out / "timeline.svg")
        metrics_to_csv(node_metrics(result, 0), out / "metrics.csv")
        print(f"exported trace.json, timeline.svg, metrics.csv to {out}")
    return 0


def main_plan(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-plan",
        description="Size clusters for a workload under a deadline (Eq. 2).",
    )
    parser.add_argument("--workflows", type=int, default=200)
    parser.add_argument("--deadline", type=float, default=3300.0)
    parser.add_argument("--instance-types", nargs="*",
                        default=["c3.8xlarge", "r3.8xlarge", "i2.8xlarge"])
    parser.add_argument("--index", type=float, default=None,
                        help="override the node performance index")
    args = parser.parse_args(argv)

    rows = []
    for itype in args.instance_types:
        try:
            plan = plan_cluster(itype, args.workflows, args.deadline, index=args.index)
        except KeyError as exc:  # an unknown --instance-types entry
            parser.error(exc.args[0])
        except ValueError as exc:  # e.g. a NaN or infinite --index or --deadline
            parser.error(str(exc))
        rows.append(
            {
                "instance_type": itype,
                "nodes": plan.spec.n_nodes,
                "vCPUs": plan.spec.total_vcpus,
                "index": plan.performance_index,
                "predicted_s": round(plan.predicted_time, 0),
                "cost_usd": round(plan.predicted_cost, 2),
                "usd_per_wf": round(plan.price_per_workflow, 3),
                "deadline_ok": plan.meets_deadline,
            }
        )
    print(summary_table(rows))
    return 0


def main_profile(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-profile",
        description="Run the Fig 5 profiling campaign for an instance type.",
    )
    parser.add_argument("--instance-type", default="c3.8xlarge")
    parser.add_argument("--degree", type=float, default=1.0,
                        help="Montage degree of the profiled workflow")
    parser.add_argument("--workflows", type=int, default=20,
                        help="multi-node test workload")
    parser.add_argument("--max-nodes", type=int, default=6)
    args = parser.parse_args(argv)

    # Refused before the single-node sweep runs, not after it.
    if args.max_nodes < 2:
        parser.error(f"--max-nodes must be >= 2, got {args.max_nodes}")
    if args.workflows < 1:
        parser.error(f"--workflows must be >= 1, got {args.workflows}")
    try:
        get_instance_type(args.instance_type)
        template = montage_workflow(degree=args.degree)
    except KeyError as exc:  # an unknown --instance-type
        parser.error(exc.args[0])
    except ValueError as exc:  # a NaN, infinite or non-positive --degree
        parser.error(str(exc))
    campaign = ProfilingCampaign(template)
    single = campaign.single_node(args.instance_type)
    print("single-node (Fig 5a):")
    for w, t in zip(single.workflow_counts, single.execution_times):
        print(f"  {w:3d} workflows -> {t:8.1f} s")
    multi = campaign.multi_node(
        args.instance_type,
        node_counts=tuple(range(2, args.max_nodes + 1)),
        workflows=args.workflows,
    )
    print(f"multi-node, {args.workflows} workflows (Fig 5b/5c):")
    for n, t, p in zip(multi.node_counts, multi.execution_times, multi.indices):
        print(f"  {n:2d} nodes -> {t:8.1f} s   P = {p:.6f}")
    print(f"converged node performance index: {multi.converged:.6f}")
    return 0


def main_chaos(argv: Optional[List[str]] = None) -> int:
    """Chaos harness CLI: run named fault scenarios, check recovery.

    Exit codes: 0 all invariants held, 1 a recovery invariant or a
    simulation invariant (sanitizer) was violated, 2 usage error.
    """
    import repro.analysis.sanitizer as sanitizer
    from repro.faults.chaos import SCENARIOS, run_chaos

    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Run a workflow ensemble under a named fault scenario "
                    "and verify the recovery invariants (docs/FAULTS.md).",
    )
    parser.add_argument("--scenario", default="smoke",
                        choices=sorted(SCENARIOS) + ["all"],
                        help="built-in scenario name, or 'all'")
    parser.add_argument("--game-day", action="store_true",
                        help="shorthand for --scenario game-day: partition "
                             "+ spot kill + straggler + master failover in "
                             "one seeded run (docs/FAULTS.md)")
    parser.add_argument("--seed", type=int, default=None,
                        help="fault seed, default 0 (service scenarios "
                             "draw their arrivals from seed 0)")
    parser.add_argument("--list", action="store_true",
                        help="list the built-in scenarios and exit")
    parser.add_argument("--check-determinism", action="store_true",
                        help="run each scenario twice and require "
                             "byte-identical fault traces")
    parser.add_argument("--trace", action="store_true",
                        help="print the full fault trace after the summary")
    parser.add_argument("--crash-at", type=int, default=None, metavar="N",
                        help="crash the master after N journal records; it "
                             "restarts from its last checkpoint (overrides "
                             "the scenario's crash_after)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="write the certified run's write-ahead journal "
                             "as JSONL (requires a crashing scenario or "
                             "--crash-at; not valid with --scenario all)")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(SCENARIOS):
            print(f"{name:12s} {SCENARIOS[name].description}")
        return 0
    if args.game_day:
        args.scenario = "game-day"
    if args.journal is not None and args.scenario == "all":
        parser.error("--journal requires a single --scenario")

    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    scenarios = [SCENARIOS[name] for name in names]
    if args.crash_at is not None:
        # The scenario refuses a bad crash offset (or one combined with
        # a failover) at construction: before anything is simulated.
        try:
            scenarios = [
                dataclasses.replace(scenario, crash_after=args.crash_at)
                for scenario in scenarios
            ]
        except ValueError as exc:
            parser.error(str(exc))
    failures = 0
    # Collect-mode sanitizer: record every simulation-invariant violation
    # across all scenarios instead of aborting at the first.
    with sanitizer.enabled(strict=False) as san:
        for scenario in scenarios:
            report = run_chaos(scenario, seed=args.seed)
            if args.check_determinism:
                again = run_chaos(scenario, seed=args.seed)
                if (
                    again.trace_text != report.trace_text
                    or again.makespan != report.makespan
                ):
                    report.problems.append(
                        "two runs with the same seed diverged "
                        "(fault trace or makespan)"
                    )
            print(report.summary())
            if args.trace and report.trace_text:
                print(report.trace_text)
            if args.journal is not None:
                if report.journal is None:
                    print(
                        "no journal to export: scenario has no crash_after "
                        "(use --crash-at N)",
                        file=sys.stderr,
                    )
                    return 2
                report.journal.to_jsonl(args.journal)
            if not report.ok:
                failures += 1
    for violation in san.violations:
        print(f"sanitizer: {violation}", file=sys.stderr)
    if san.violations:
        failures += 1
    return 1 if failures else 0


def main_lint(argv: Optional[List[str]] = None) -> int:
    """Repo code lint over PATH(s), the installed package by default.

    Exit codes: 0 clean, 1 findings.
    """
    from pathlib import Path

    import repro
    from repro.analysis.codelint import lint_paths

    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Lint the repo's own code (rule catalogue: "
                    "docs/STATIC_ANALYSIS.md).",
    )
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to lint "
                             "(default: the installed repro package)")
    args = parser.parse_args(argv)

    findings = lint_paths(args.paths or [Path(repro.__file__).parent])
    for finding in findings:
        print(finding)
    print(f"code lint: {len(findings)} finding(s)")
    return 1 if findings else 0


def main_service(argv: Optional[List[str]] = None) -> int:
    """Multi-tenant open-loop service soak (docs/FAULTS.md).

    Runs seeded arrival processes from N simulated tenants (gold /
    silver / best_effort SLA classes) through the quota -> fair-share ->
    brownout -> admission ladder in front of the DES pull engine, and
    prints the per-tenant per-class report.  The run is a pure function
    of the config, so ``--check-determinism`` re-runs it and requires a
    byte-identical report.  Exit codes: 0 all soak invariants held, 1 an
    invariant or the determinism check failed, 2 usage error.
    """
    from repro.service import SoakConfig, run_soak

    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Soak the DEWE v2 service front end under open-loop "
                    "multi-tenant overload and report graceful "
                    "degradation per SLA class (docs/FAULTS.md).",
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized soak (a few simulated minutes "
                             "instead of hours)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the tenants' arrival processes")
    parser.add_argument("--horizon", type=float, default=None,
                        help="override the simulated arrival window "
                             "(seconds)")
    parser.add_argument("--load", type=float, default=None,
                        help="override offered load as a multiple of "
                             "probed capacity (default 2.0)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="override the cluster size")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the report as JSON")
    parser.add_argument("--check-determinism", action="store_true",
                        help="run the soak twice and require "
                             "byte-identical reports")
    args = parser.parse_args(argv)

    cfg = SoakConfig.quick(seed=args.seed) if args.quick else SoakConfig(
        seed=args.seed
    )
    overrides = {}
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.load is not None:
        overrides["load_factor"] = args.load
    if args.nodes is not None:
        overrides["n_nodes"] = args.nodes
    try:
        cfg = dataclasses.replace(cfg, **overrides)
    except ValueError as exc:
        parser.error(str(exc))

    report = run_soak(cfg)
    print(report.render())
    status = 0 if report.ok else 1
    if args.check_determinism:
        again = run_soak(cfg)
        if again.to_json() != report.to_json():
            print(
                "DETERMINISM FAILURE: two soaks with the same config "
                "rendered different reports",
                file=sys.stderr,
            )
            status = 1
        else:
            print("determinism: second run byte-identical — OK")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.json}")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_run())
