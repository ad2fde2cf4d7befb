"""Concurrency correctness plane for the threaded daemons.

Four coordinated pieces (see ``docs/STATIC_ANALYSIS.md`` § Concurrency):

* :mod:`~repro.analysis.concurrency.recorder` — the ``REPRO_RACEDETECT``
  hook point; collects a :class:`~repro.analysis.concurrency.events.ConcEvent`
  log from instrumented runs;
* :mod:`~repro.analysis.concurrency.shims` — drop-in traced wrappers for
  ``threading`` primitives (plain primitives when no recorder is active);
* :mod:`~repro.analysis.concurrency.detector` — offline vector-clock
  happens-before race detection over the log, with stable fingerprints;
* :mod:`~repro.analysis.concurrency.lints` — AST lock-discipline lints
  CL005–CL009, dispatched from :mod:`repro.analysis.codelint`.

Lazy like :mod:`repro.analysis` itself: importing the package must not
drag the detector into instrumented production modules, which
only need :mod:`.recorder` and :mod:`.shims`.
"""

from repro import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.analysis.concurrency.detector": "Race detect_races",
    "repro.analysis.concurrency.events": "ConcEvent",
    "repro.analysis.concurrency.recorder": "Recorder",
})
__all__ += ["detector", "events", "lints", "recorder", "shims"]
