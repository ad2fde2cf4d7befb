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
"""

from repro.cloud import (
    INSTANCE_TYPES,
    BillingModel,
    ClusterSpec,
    InstanceType,
    get_instance_type,
    price_per_workflow,
)
from repro.dewe import (
    DeweConfig,
    MasterDaemon,
    WorkerDaemon,
    submit_workflow,
)
from repro.engines import (
    DeweV1Engine,
    EngineResult,
    PullEngine,
    RunConfig,
    SchedulingEngine,
)
from repro.faults import (
    ChaosScenario,
    DeadLetterEntry,
    DeadLetterQueue,
    Degradation,
    FaultAction,
    FaultSchedule,
    FaultTrace,
    RetryPolicy,
    SCENARIOS,
    SpotTerminationModel,
    StragglerModel,
    TransientFaultModel,
    get_scenario,
    kill_restart_cycle,
    run_chaos,
)
from repro.generators import (
    cybershake_workflow,
    ligo_workflow,
    montage_workflow,
    random_layered_workflow,
)
from repro.mq import Broker, MessageChaos
from repro.provision import (
    ProfilingCampaign,
    node_performance_index,
    plan_cluster,
    plan_table,
    required_nodes,
)
from repro.workflow import DataFile, Ensemble, Job, SubmissionPlan, Workflow

__version__ = "1.0.0"

__all__ = [
    "BillingModel",
    "Broker",
    "ChaosScenario",
    "ClusterSpec",
    "DataFile",
    "DeadLetterEntry",
    "DeadLetterQueue",
    "Degradation",
    "DeweConfig",
    "DeweV1Engine",
    "Ensemble",
    "EngineResult",
    "FaultAction",
    "FaultSchedule",
    "FaultTrace",
    "INSTANCE_TYPES",
    "InstanceType",
    "Job",
    "MasterDaemon",
    "MessageChaos",
    "ProfilingCampaign",
    "PullEngine",
    "RetryPolicy",
    "RunConfig",
    "SCENARIOS",
    "SchedulingEngine",
    "SpotTerminationModel",
    "StragglerModel",
    "SubmissionPlan",
    "TransientFaultModel",
    "WorkerDaemon",
    "Workflow",
    "__version__",
    "cybershake_workflow",
    "get_instance_type",
    "get_scenario",
    "kill_restart_cycle",
    "run_chaos",
    "ligo_workflow",
    "montage_workflow",
    "node_performance_index",
    "plan_cluster",
    "plan_table",
    "price_per_workflow",
    "random_layered_workflow",
    "required_nodes",
    "submit_workflow",
]
