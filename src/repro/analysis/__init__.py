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

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = [
    "AnalysisReport",
    "AnalyzerConfig",
    "Finding",
    "InvariantViolation",
    "LintFinding",
    "Race",
    "Sanitizer",
    "Severity",
    "analyze_ensemble",
    "analyze_workflow",
    "codelint",
    "concurrency",
    "dataflow",
    "detect_races",
    "race_report",
    "report",
    "sanitizer",
]

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.analysis.dataflow import (
        AnalyzerConfig,
        analyze_ensemble,
        analyze_workflow,
    )
    from repro.analysis.report import AnalysisReport, Finding, Severity
    from repro.analysis.sanitizer import InvariantViolation, Sanitizer
    from repro.analysis.codelint import LintFinding
    from repro.analysis.concurrency.detector import (
        Race,
        detect_races,
        race_report,
    )

_EXPORTS = {
    "AnalysisReport": ("repro.analysis.report", "AnalysisReport"),
    "Finding": ("repro.analysis.report", "Finding"),
    "Severity": ("repro.analysis.report", "Severity"),
    "AnalyzerConfig": ("repro.analysis.dataflow", "AnalyzerConfig"),
    "analyze_ensemble": ("repro.analysis.dataflow", "analyze_ensemble"),
    "analyze_workflow": ("repro.analysis.dataflow", "analyze_workflow"),
    "InvariantViolation": ("repro.analysis.sanitizer", "InvariantViolation"),
    "Sanitizer": ("repro.analysis.sanitizer", "Sanitizer"),
    "LintFinding": ("repro.analysis.codelint", "LintFinding"),
    "Race": ("repro.analysis.concurrency.detector", "Race"),
    "detect_races": ("repro.analysis.concurrency.detector", "detect_races"),
    "race_report": ("repro.analysis.concurrency.detector", "race_report"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
