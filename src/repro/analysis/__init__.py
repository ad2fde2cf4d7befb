"""Static analysis and runtime invariant checking for the repro system.

Four coordinated layers:

* :mod:`~repro.analysis.dataflow` — workflow/ensemble static analyzer
  (producer/consumer data-flow, cost-model sanity, shared-FS hotspots)
  reported via :mod:`~repro.analysis.report`;
* :mod:`~repro.analysis.sanitizer` — opt-in ASAN/TSAN-style runtime
  invariant checker hooked into the simulation kernel, resources, page
  cache and billing;
* :mod:`~repro.analysis.codelint` — AST lints for repo-specific hazards
  (wall-clock/RNG in deterministic code, set-iteration tie-breaks,
  ``__slots__`` violations, and the CL005-CL009 lock-discipline rules
  for the threaded daemons);
* :mod:`~repro.analysis.concurrency` — the concurrency correctness
  plane: the ``REPRO_RACEDETECT`` event recorder and shims, and the
  offline happens-before/lockset race detector.

The package ``__init__`` is lazy (PEP 562): instrumented hot modules import
``repro.analysis.sanitizer`` at startup, and that must not drag the
analyzer (and with it ``repro.workflow``/``repro.cloud``) into every
import of the simulation kernel.
"""

from repro import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.analysis.report": "AnalysisReport Finding Severity",
    "repro.analysis.dataflow": "AnalyzerConfig analyze_ensemble analyze_workflow",
    "repro.analysis.sanitizer": "InvariantViolation Sanitizer",
    "repro.analysis.codelint": "LintFinding",
    "repro.analysis.concurrency.detector": "Race detect_races race_report",
})
__all__ += ["codelint", "concurrency", "dataflow", "report", "sanitizer"]
