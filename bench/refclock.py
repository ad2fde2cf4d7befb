"""A reference clock: how slow is this machine *right now*?

Host time on a shared sandbox is not steady.  Measured here, the same
0.3 s simulation took 0.26 s, 0.34 s and 0.6 s in plateaus lasting tens
of seconds (a busy sibling hyperthread, other tenants), so ten runs of
one commit spread by 10-29% between their quartiles — wider than any
bound worth gating.  A small fixed kernel timed alongside slows down by
the same factor: dividing by it left 1-3% (``bench/README.md`` has the
series).

The kernel is a miniature discrete-event loop — generators, a heap
agenda, tuple-keyed dict state, small slotted objects — so it stresses
the interpreter the way the simulator does.  It is pure stdlib and lives
in ``bench/``, which a change that claims a gain may not edit, so it is
the same on both sides of any comparison.  :class:`RefClock` times one
slice of it (~1.3 ms) every 50 ms *inside* the measured region from a
``SIGALRM`` handler, plus slices just before and after, and reports

* ``inside_s`` — seconds the slices took inside the region (subtract);
* ``factor`` — trimmed mean slice time over :data:`REF_NOMINAL_S`: 1.0 on
  a quiet machine of this kind, 1.4 when everything runs 1.4x slower.

A time divided by ``factor`` is in *reference seconds* (``ref_s``).
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List

__all__ = ["REF_NOMINAL_S", "RefClock", "slice_s"]

#: One slice on this sandbox's quiet plateau (the fastest state seen:
#: 68,688-job ``single_node`` in 2.6 s).  Only sets the scale of ``ref_s``.
REF_NOMINAL_S = 0.00125


class _Event:
    __slots__ = ("time", "callbacks", "value")

    def __init__(self, when: float) -> None:
        self.time = when
        self.callbacks: list = []
        self.value = None


def _process(steps: int, state: dict):
    for i in range(steps):
        key = ("f", i & 1023)
        state[key] = state.get(key, 0.0) + 1.5
        yield 0.5 + (i % 7) * 0.25


def slice_s(processes: int = 10, steps: int = 200) -> float:
    """Run one fixed slice of the reference kernel; return its seconds."""
    t0 = time.perf_counter()
    agenda: list = []
    seq = 0
    state: dict = {}
    for _ in range(processes):
        seq += 1
        heapq.heappush(agenda, (0.0, seq, _Event(0.0), _process(steps, state)))
    while agenda:
        now, _seq, _event, proc = heapq.heappop(agenda)
        try:
            delay = proc.send(None)
        except StopIteration:
            continue
        seq += 1
        event = _Event(now + delay)
        event.callbacks.append(proc)
        heapq.heappush(agenda, (now + delay, seq, event, proc))
    return time.perf_counter() - t0


class RefClock:
    """Context manager around a measured region (main thread only)."""

    def __init__(self, period: float = 0.05, edge: int = 2) -> None:
        self.period = period
        self.edge = edge
        self._inside: List[float] = []
        self._outside: List[float] = []

    def _tick(self, _signum, _frame) -> None:
        self._inside.append(slice_s())

    def __enter__(self) -> "RefClock":
        self._outside.extend(slice_s() for _ in range(self.edge))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._outside.extend(slice_s() for _ in range(self.edge))

    @property
    def inside_s(self) -> float:
        return sum(self._inside)

    @property
    def factor(self) -> float:
        """Mean slice over nominal, without the slowest tenth of slices.

        Now and then the hypervisor parks the vCPU for tens of
        milliseconds; a 1.3 ms slice caught by that reads 30x long and
        would drag a plain mean (measured: 15% run-to-run against 1.6%
        trimmed).  The kernel tracks how fast the processor runs, not
        how long the host looked away.
        """
        slices = sorted(self._inside + self._outside)
        kept = slices[: len(slices) - len(slices) // 10]
        return statistics.fmean(kept) / REF_NOMINAL_S
