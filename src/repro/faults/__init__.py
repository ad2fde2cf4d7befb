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

The re-exports are lazy (:func:`repro.lazy_exports`): the chaos harness
imports the execution engines, which import ``repro.dewe``, which
imports the retry policy from this package, so importing the harness
here would be an import cycle.
"""

from repro import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.faults.chaos": "ChaosReport ChaosScenario SCENARIOS get_scenario "
                          "run_chaos",
    "repro.faults.injection": "FaultAction FaultSchedule kill_restart_cycle",
    "repro.faults.models": "Degradation FaultEvent FaultTrace NetworkPartitionModel "
                           "PartitionHazard PartitionWindow SpotHazard "
                           "SpotTerminationModel StragglerHazard StragglerModel "
                           "TransientFaultModel",
    "repro.faults.retry": "DeadLetterEntry RetryPolicy",
})
