"""Fault injection and fault tolerance (paper §V.A.3, and beyond).

Four layers:

* :mod:`~repro.faults.injection` — the paper's *scripted* worker-daemon
  kill/restart schedules;
* :mod:`~repro.faults.models` — *stochastic* fault models (spot
  terminations with two-minute notice, transient/poison job failures,
  degraded straggler nodes, network partitions, file corruption/loss)
  and the three frozen samplers (:class:`SpotHazard`,
  :class:`StragglerHazard`, :class:`PartitionHazard`) that draw the
  node-level ones from explicit seeds;
* :mod:`~repro.faults.retry` — the unified retry policy: exponential
  backoff with deterministic jitter, per-job attempt budgets, and
  dead-lettering of poison jobs;
* :mod:`~repro.faults.chaos` — the chaos harness: named
  :class:`~repro.faults.chaos.ChaosScenario` runs, each holding the
  models and policies it runs, with recovery invariants, driven by the
  ``repro-chaos`` CLI.

The chaos harness imports the execution engines, so its symbols are
re-exported lazily to keep ``repro.dewe`` (which imports the retry
policy) free of import cycles.
"""

from repro.faults.injection import FaultAction, FaultSchedule, kill_restart_cycle
from repro.faults.models import (
    Degradation,
    FaultEvent,
    FaultTrace,
    NetworkPartitionModel,
    PartitionHazard,
    PartitionWindow,
    SpotHazard,
    SpotTerminationModel,
    StragglerHazard,
    StragglerModel,
    TransientFaultModel,
)
from repro.faults.retry import DeadLetterEntry, DeadLetterQueue, RetryPolicy

__all__ = [
    "ChaosReport",
    "ChaosScenario",
    "DeadLetterEntry",
    "DeadLetterQueue",
    "Degradation",
    "FaultAction",
    "FaultEvent",
    "FaultSchedule",
    "FaultTrace",
    "NetworkPartitionModel",
    "PartitionHazard",
    "PartitionWindow",
    "RetryPolicy",
    "SCENARIOS",
    "SpotHazard",
    "SpotTerminationModel",
    "StragglerHazard",
    "StragglerModel",
    "TransientFaultModel",
    "get_scenario",
    "kill_restart_cycle",
    "run_chaos",
]

_CHAOS_EXPORTS = frozenset(
    {"ChaosReport", "ChaosScenario", "SCENARIOS", "get_scenario", "run_chaos"}
)


def __getattr__(name: str):
    if name in _CHAOS_EXPORTS:
        from repro.faults import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
