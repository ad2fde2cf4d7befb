"""repro — DEWE v2 reproduction.

A full reimplementation of *Executing Large Scale Scientific Workflow
Ensembles in Public Clouds* (Jiang, Lee, Zomaya — ICPP 2015): the DEWE v2
pulling-based workflow execution system, its Pegasus-style scheduling
baseline, the profiling-based resource provisioning strategy, and the
simulated EC2/storage substrate that stands in for the paper's testbed.

Quickstart::

    from repro import montage_workflow, Ensemble, ClusterSpec, PullEngine

    wf = montage_workflow(degree=1.0)
    result = PullEngine(ClusterSpec("c3.8xlarge", 1, filesystem="local")).run(
        Ensemble([wf])
    )
    print(result.makespan)

See README.md for the architecture overview and DESIGN.md / EXPERIMENTS.md
for the paper-reproduction index.

The re-exports below are lazy (PEP 562, :func:`lazy_exports`), as are
those of ``analysis``, ``cloud``, ``dewe``, ``faults``, ``monitor`` and
``mq``: a simulated run loads only the modules it calls, not the
threaded daemons, the TCP broker, the exporters or the planner.
``generators`` and ``parallel`` stay eager, because the benchmark wraps
their functions through the package's ``vars()``.
"""

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple

__version__ = "1.0.0"


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], Any], List[str]]:
    """A package's ``__getattr__`` and ``__all__`` for the re-exports in
    ``table``, which maps each defining module to the space-separated
    names it exports.  A name's module is imported on first access and
    the value cached in the package; any other name is tried as a
    submodule, so ``repro.dewe.master`` resolves after ``import repro.dewe``."""
    source = {
        name: module for module, names in table.items() for name in names.split()
    }

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is None:
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, sorted(source)


__getattr__, __all__ = lazy_exports(__name__, {
    "repro.cloud": "INSTANCE_TYPES BillingModel ClusterSpec InstanceType "
                   "get_instance_type",
    "repro.dewe": "DeweConfig MasterDaemon WorkerDaemon submit_workflow",
    "repro.engines": "DeweV1Engine EngineResult PullEngine RunConfig "
                     "SchedulingEngine",
    "repro.faults": "ChaosScenario DeadLetterEntry FaultAction FaultSchedule "
                    "FaultTrace RetryPolicy SCENARIOS TransientFaultModel "
                    "get_scenario kill_restart_cycle run_chaos",
    "repro.generators": "cybershake_workflow ligo_workflow montage_workflow "
                        "random_layered_workflow",
    "repro.mq": "Broker MessageChaos",
    "repro.provision": "ProfilingCampaign node_performance_index plan_cluster "
                       "plan_table required_nodes",
    "repro.workflow": "DataFile Ensemble Job SubmissionPlan Workflow",
})
__all__ += ["__version__"]
