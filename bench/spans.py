"""Boundary spans and counts, recorded from outside the program.

:func:`installed` replaces public layer functions of ``repro`` with thin
wrappers before the engine is built and puts the original attribute
objects back when its block ends.  A *count* probe only counts calls
(cheap enough for the kernel's hottest entry points); a *timed* probe
also records a span — name, start, end, parent — aggregated per ``(name, parent)`` in
memory, with the first :data:`RAW_CAP` raw spans kept for a Chrome
trace.  A span's self time is its duration minus its child spans'.

Counts are deterministic: two traced runs of one commit give the same
integers, which is what a later change may gate exactly.  Only calls
through the named public attribute are seen — a layer constructing
``Timeout`` directly instead of calling ``Simulator.timeout`` is not.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["Probe", "PROBES", "Recorder", "installed"]

#: Raw spans kept for the Chrome trace; aggregates cover every span.
RAW_CAP = 2000

#: ``fn(args, kwargs, result) -> int`` added to a second counter.
Weigh = Callable[[tuple, dict, Any], int]


@dataclass(frozen=True)
class Probe:
    """One wrapped boundary.  ``targets`` are every namespace the same
    function is bound in, as ``module:Qualified.name``."""

    counter: str
    targets: Tuple[str, ...]
    timed: bool = False
    extra: Tuple[Tuple[str, Weigh], ...] = ()


def _one(counter: str, target: str, **kw) -> Probe:
    return Probe(counter, (target,), **kw)


def _many(counter: str, prefix: str, names: str, **kw) -> List[Probe]:
    return [_one(counter, f"{prefix}.{name}", **kw) for name in names.split()]


_SIM = "repro.sim.engine:Simulator"
_RES = "repro.sim.resources:"
_STATE = "repro.dewe.state:WorkflowState"
_BROKER = "repro.mq.simbroker:SimBroker"
_JOURNAL = "repro.recovery.journal:Journal"

PROBES: Tuple[Probe, ...] = (
    # -- sim.engine -------------------------------------------------------
    _one("sim.engine.timeout", f"{_SIM}.timeout"),
    _one("sim.engine.schedule_call", f"{_SIM}.schedule_call"),
    _one("sim.engine.process", f"{_SIM}.process"),
    # -- sim.resources ----------------------------------------------------
    *_many(
        "sim.resources.transfer", f"{_RES}FairShareLink", "transfer transfer_into",
        extra=(("sim.resources.flow", lambda a, k, r: 1),),
    ),
    _one(
        "sim.resources.transfer", f"{_RES}FairShareLink.transfer_many",
        extra=(("sim.resources.flow", lambda a, k, r: len(a[1])),),
    ),
    _one("sim.resources.core_acquire", f"{_RES}CorePool.acquire"),
    _one("sim.resources.segment_record", f"{_RES}SegmentLog.record"),
    _one("sim.resources.store_put", f"{_RES}PriorityStore.put"),
    _one("sim.resources.store_put", f"{_RES}FifoStore.put"),
    # -- storage ----------------------------------------------------------
    _one(
        "storage.read", "repro.storage.base:SharedFileSystem.read", timed=True,
        extra=(("storage.files_read", lambda a, k, r: len(a[2])),),
    ),
    _one("storage.write", "repro.storage.base:SharedFileSystem.write", timed=True),
    *_many(
        "storage.cache_write", "repro.storage.cache:WriteBackCache",
        "write write_into",
    ),
    # -- mq ---------------------------------------------------------------
    _one(
        "mq.publish", f"{_BROKER}.publish",
        extra=(("mq.shed", lambda a, k, r: 0 if r else 1),),
    ),
    *_many("mq.consume", _BROKER, "consume consume_nowait"),
    _one("mq.reprioritize", f"{_BROKER}.reprioritize"),
    # -- dewe.state -------------------------------------------------------
    *_many(
        "dewe.state.transition", _STATE,
        "mark_dispatched on_running on_completed on_failed",
    ),
    _one("dewe.state.build", f"{_STATE}.__init__", timed=True),
    _one("dewe.state.expired", f"{_STATE}.expired", timed=True),
    # -- engines, generators, workflow, parallel --------------------------
    Probe(
        "engines.base.execute_job",
        (
            "repro.engines.base:execute_job",
            "repro.engines.pull:execute_job",
            "repro.engines.scheduling:execute_job",
        ),
    ),
    Probe(
        "generators.build",
        (
            "repro.generators.montage:montage_workflow",
            "repro.generators:montage_workflow",
        ),
        timed=True,
    ),
    _one(
        "workflow.replicate", "repro.workflow.ensemble:Ensemble.replicated",
        timed=True,
    ),
    Probe(
        "parallel.digest",
        ("repro.parallel.runner:digest_result", "repro.parallel:digest_result"),
        timed=True,
    ),
    # -- recovery, faults -------------------------------------------------
    _one("recovery.append", f"{_JOURNAL}.append", timed=True),
    _one(
        "recovery.resume", "repro.faults.chaos:resume_until_complete", timed=True
    ),
    _one("faults.retry", "repro.faults.retry:RetryPolicy.backoff"),
    # -- liveness, service ------------------------------------------------
    _one(
        "liveness.decide", "repro.liveness.policy:ServiceAdmissionPolicy.decide",
        timed=True,
    ),
    _one("service.build", "repro.service.soak:build_soak", timed=True),
)


class Recorder:
    """Counts, per-``(name, parent)`` span aggregates and capped raw spans."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = defaultdict(int)
        #: (name, parent) -> [calls, total seconds, self seconds]
        self.agg: Dict[Tuple[str, str], List[float]] = {}
        self.raw: List[Tuple[str, float, float, str]] = []
        #: open spans, innermost last: [name, child seconds, start]
        self._stack: List[list] = []

    def _close(self, frame: list, end: float, keep: bool = False) -> None:
        stack = self._stack
        stack.pop()
        name, child_s, start = frame
        duration = end - start
        parent = stack[-1][0] if stack else ""
        if stack:
            stack[-1][1] += duration
        cell = self.agg.get((name, parent))
        if cell is None:
            cell = self.agg[(name, parent)] = [0, 0.0, 0.0]
        cell[0] += 1
        cell[1] += duration
        cell[2] += duration - child_s
        if keep or len(self.raw) < RAW_CAP:
            self.raw.append((name, start, end, parent))

    @contextmanager
    def span(self, name: str):
        """A span opened by the harness itself (set-up, run); always kept
        raw, so the Chrome trace shows what the capped spans ran under."""
        frame = [name, 0.0, time.perf_counter()]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._close(frame, time.perf_counter(), keep=True)

    def seconds(self, name: str) -> float:
        """Total (inclusive) seconds of every span called ``name``."""
        return sum(c[1] for (n, _p), c in self.agg.items() if n == name)

    def table(self) -> List[dict]:
        return [
            {"name": n, "parent": p, "calls": c[0], "total_s": c[1], "self_s": c[2]}
            for (n, p), c in sorted(self.agg.items())
        ]

    def write_chrome_trace(self, path: Path) -> None:
        if not self.raw:
            return
        t0 = min(start for _n, start, _e, _p in self.raw)
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"parent": parent},
            }
            for name, start, end, parent in self.raw
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def _count_wrapper(rec: Recorder, orig, probe: Probe):
    counts, name, extra = rec.counts, probe.counter, probe.extra
    if not extra:
        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)
        return counted

    def weighed(*args, **kwargs):
        counts[name] += 1
        result = orig(*args, **kwargs)
        for other, weigh in extra:
            counts[other] += weigh(args, kwargs, result)
        return result
    return weighed


def _timed_wrapper(rec: Recorder, orig, probe: Probe):
    counts, name, extra = rec.counts, probe.counter, probe.extra
    stack, close, clock = rec._stack, rec._close, time.perf_counter

    def timed(*args, **kwargs):
        counts[name] += 1
        frame = [name, 0.0, clock()]
        stack.append(frame)
        try:
            result = orig(*args, **kwargs)
        finally:
            close(frame, clock())
        for other, weigh in extra:
            counts[other] += weigh(args, kwargs, result)
        return result
    return timed


def _resolve(target: str):
    module_name, _, qualified = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualified.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(rec: Recorder):
    """Wrap every probe target for the duration of the block, then put
    back the exact objects that were replaced.  The wrapper of a
    ``classmethod`` or ``staticmethod`` is re-wrapped so binding behaves
    as before."""
    make = {True: _timed_wrapper, False: _count_wrapper}
    replaced: List[Tuple[Any, str, Any]] = []
    try:
        for probe in PROBES:
            for target in probe.targets:
                owner, attr = _resolve(target)
                original = vars(owner)[attr]
                if isinstance(original, (classmethod, staticmethod)):
                    wrapper = type(original)(
                        make[probe.timed](rec, original.__func__, probe)
                    )
                else:
                    wrapper = make[probe.timed](rec, original, probe)
                setattr(owner, attr, wrapper)
                replaced.append((owner, attr, original))
        yield rec
    finally:
        while replaced:
            owner, attr, original = replaced.pop()
            setattr(owner, attr, original)
