"""Static analysis and runtime invariant checking for the repro system.

Two layers live here (the third check, submission-time workflow
validation, is :mod:`repro.workflow.validation`):

* :mod:`~repro.analysis.sanitizer` — opt-in ASAN/TSAN-style runtime
  invariant checker hooked into the simulation kernel, resources, page
  cache and billing;
* :mod:`~repro.analysis.codelint` — AST lints for repo-specific hazards
  (``__slots__`` violations, and the CL005-CL009 lock-discipline rules
  for the threaded daemons), beside
  :mod:`~repro.analysis.concurrency` — the ``REPRO_RACEDETECT`` event
  recorder and shims, and the offline happens-before/lockset race
  detector.

The package ``__init__`` is lazy (PEP 562): instrumented hot modules import
``repro.analysis.sanitizer`` at startup, and that must not drag the lints
or the detector into every import of the simulation kernel.
"""

from repro import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.analysis.sanitizer": "InvariantViolation Sanitizer",
    "repro.analysis.codelint": "LintFinding",
    "repro.analysis.concurrency.detector": "Race detect_races",
})
__all__ += ["codelint", "concurrency", "sanitizer"]
