"""Fault injection and fault tolerance (paper §V.A.3, and beyond).

Three layers:

* :mod:`~repro.faults.models` — the one fault script,
  :class:`FaultSchedule`: the paper's worker-daemon kills and restarts
  and, as timed actions of the same script, spot terminations with
  two-minute notice, degraded straggler nodes and network partitions;
  the three frozen samplers (:class:`SpotHazard`,
  :class:`StragglerHazard`, :class:`PartitionHazard`) that draw such a
  script from an explicit seed; and the models that act inside the run
  (transient/poison job failures, file corruption/loss);
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
    "repro.faults.models": "FaultAction FaultEvent FaultSchedule FaultTrace "
                           "PartitionHazard SpotHazard StragglerHazard "
                           "TransientFaultModel kill_restart_cycle",
    "repro.faults.retry": "DeadLetterEntry RetryPolicy",
})
