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

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = [
    "ConcEvent",
    "Race",
    "Recorder",
    "detect_races",
    "detector",
    "events",
    "lints",
    "race_report",
    "recorder",
    "shims",
]

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.analysis.concurrency.detector import (
        Race,
        detect_races,
        race_report,
    )
    from repro.analysis.concurrency.events import ConcEvent
    from repro.analysis.concurrency.recorder import Recorder

_EXPORTS = {
    "ConcEvent": ("repro.analysis.concurrency.events", "ConcEvent"),
    "Race": ("repro.analysis.concurrency.detector", "Race"),
    "Recorder": ("repro.analysis.concurrency.recorder", "Recorder"),
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
