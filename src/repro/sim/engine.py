"""Event loop and process model for the discrete-event simulator.

The design follows the classic generator-coroutine DES pattern (SimPy):

* :class:`Simulator` owns the event agenda and a monotonically increasing
  sequence number that makes event ordering fully deterministic.
* :class:`Event` is a one-shot occurrence; processes ``yield`` events to
  suspend until they trigger.
* :class:`Process` wraps a generator and is itself an event that triggers
  when the generator returns (its value is the generator's return value).

Hot-path design (docs/PERFORMANCE.md):

* The agenda is split into a binary heap for future events and a FIFO
  deque for zero-delay events.  Most events in a workflow run trigger "at
  the current instant" (``succeed``/``fail``, completed transfers, broker
  hand-offs); routing them through a deque avoids two O(log n) heap
  operations each.  Ordering is unchanged: events still fire in global
  ``(time, seq)`` order, because every heap entry that shares the current
  timestamp was necessarily scheduled at an earlier instant (and thus has
  a smaller sequence number), and the deque preserves FIFO within the
  instant.
* :class:`Call` is a closure-free deferred function call: ``(func, args)``
  are stored on the event itself and dispatched without allocating a
  lambda (one object per call instead of three).
* A withdrawn wake-up is cancelled *lazily*: a link's ``_Wake``
  (``sim/resources.py``) is cleared with ``callbacks = None``, so its
  agenda entry stays where it is and is skipped for free when popped,
  instead of paying an O(n) heap removal.
* The sanitizer-active check is cached on the simulator (``_san``) and
  refreshed at every ``run``/``run_until``/``step`` entry, so the
  disabled path costs nothing per scheduled event.
* There is one dispatch loop, :meth:`Simulator._drain`; ``step``,
  ``run`` and ``run_until`` differ only in the stop condition they hand
  it, so the lane merge and the callback dispatch are written once.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Generator, Iterable, Optional

import repro.analysis.sanitizer as _sanitizer

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "JoinEvent",
    "Timeout",
    "Call",
    "Process",
    "AllOf",
    "Simulator",
]


class SimulationError(RuntimeError):
    """Raised for illegal kernel operations (double trigger, bad yield...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries the value passed to ``interrupt`` (e.g. a fault
    description for the robustness experiments).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event states.
_PENDING = 0
_SUCCEEDED = 1
_FAILED = 2


class Event:
    """A one-shot occurrence that processes can wait on.

    Callbacks are callables of one argument (the event).  An event may be
    *succeeded* with a value or *failed* with an exception; waiting
    processes receive the value or get the exception thrown into them.
    """

    __slots__ = ("sim", "callbacks", "_state", "_value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._state = _PENDING
        self._value: Any = None

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state != _PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once processed)."""
        return self._state == _SUCCEEDED

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully; callbacks run at the current time."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._state = _SUCCEEDED
        self._value = value
        sim = self.sim
        sim._seq += 1
        sim._imm.append((sim._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = _FAILED
        self._value = exception
        sim = self.sim
        sim._seq += 1
        sim._imm.append((sim._seq, self))
        return self

    #: Completion protocol of resources that finish many streams into one
    #: waiter: a plain event succeeds, a :class:`JoinEvent` counts down,
    #: any other object with a ``_complete()`` does what it likes.
    _complete = succeed


class JoinEvent(Event):
    """A counting barrier: fires after ``count`` calls to :meth:`arrive`.

    Replaces ``AllOf`` on the storage fan-out paths, where a read or
    write forks into several link streams that all complete into one
    waiter.  Unlike ``AllOf`` it needs no per-stream child events, no
    callback registrations, and no agenda entries for the intermediate
    completions — the final ``arrive`` triggers the join directly.
    """

    __slots__ = ("_pending",)

    def __init__(self, sim: "Simulator", count: int):
        self.sim = sim
        self.callbacks = []
        self._state = _PENDING
        self._value = None
        self._pending = count
        if count <= 0:
            self.succeed()

    def arrive(self) -> None:
        """Record one completed stream; triggers the join on the last.
        (``FairShareLink._wake`` carries a copy of this body.)"""
        pending = self._pending - 1
        if pending < 0:
            raise SimulationError("join arrived more often than its count")
        self._pending = pending
        if pending == 0:
            self.succeed()

    _complete = arrive


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # One chained comparison also rejects NaN, which as a heap key
        # would break (time, seq) ordering silently.
        if not 0.0 <= delay < inf:
            raise ValueError(f"timeout delay must be finite and >= 0: {delay!r}")
        # Flattened Event.__init__ + schedule: this is one of the hottest
        # allocation sites in an engine run.
        self.sim = sim
        self.callbacks = []
        self._state = _SUCCEEDED
        self._value = value
        self.delay = delay
        sim._seq += 1
        if delay == 0.0:
            sim._imm.append((sim._seq, self))
        else:
            heappush(sim._heap, (sim.now + delay, sim._seq, self))


class Call(Timeout):
    """A deferred ``func(*args)`` with no closure allocation.

    The event dispatches itself: it sits in its own callback list, and
    calling it invokes the stored function.  ``Simulator.schedule_call``
    returns these.
    """

    __slots__ = ("func", "args")

    def __init__(self, sim: "Simulator", delay: float, func: Callable, args: tuple):
        # Timeout.__init__ written out (broker latency builds one of these
        # per delivery batch): same check, same agenda entry, one frame.
        if not 0.0 <= delay < inf:
            raise ValueError(f"timeout delay must be finite and >= 0: {delay!r}")
        self.sim = sim
        self.callbacks = [self]
        self._state = _SUCCEEDED
        self._value = None
        self.delay = delay
        self.func = func
        self.args = args
        sim._seq += 1
        if delay == 0.0:
            sim._imm.append((sim._seq, self))
        else:
            heappush(sim._heap, (sim.now + delay, sim._seq, self))

    def __call__(self, _event: Event) -> None:
        self.func(*self.args)


class Process(Event):
    """A running generator; also an event that fires on generator return."""

    __slots__ = ("_generator", "_waiting_on", "_bound_resume")

    def __init__(self, sim: "Simulator", generator: Generator):
        self.sim = sim
        self.callbacks = []
        self._state = _PENDING
        self._value = None
        self._generator = generator
        sim._procs[self] = None  # until it finishes: see Simulator.close
        # One bound method reused for every wait (a fresh bound method per
        # yield is a measurable allocation cost at millions of events).
        resume = self._bound_resume = self._resume
        # Bootstrap: resume once at the current time.  The boot event is
        # tracked in _waiting_on so interrupt() can cancel it like any
        # other pending wait.
        boot = Event(sim)
        boot._state = _SUCCEEDED
        self._waiting_on: Optional[Event] = boot
        boot.callbacks.append(resume)
        sim._seq += 1
        sim._imm.append((sim._seq, boot))

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Used by the fault-injection harness to model worker daemons being
        killed mid-job (paper §V.A.3).  Interrupting a finished process is
        a no-op so fault schedules may outlive their targets.
        """
        if not self.is_alive:
            return
        event = Event(self.sim)
        event.fail(Interrupt(cause))
        # Jump the interrupt ahead of whatever the process was waiting on.
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._bound_resume)
            except ValueError:
                pass
        self._waiting_on = None
        event.callbacks.append(self._bound_resume)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        gen = self._generator
        while True:
            try:
                if event._state == _FAILED:
                    exc = event._value
                    target = gen.throw(exc)
                else:
                    target = gen.send(event._value)
            except StopIteration as stop:
                if self._state == _PENDING:
                    self._state = _SUCCEEDED
                    self._value = stop.value
                    sim = self.sim
                    del sim._procs[self]
                    sim._seq += 1
                    sim._imm.append((sim._seq, self))
                return
            except Interrupt:
                # Interrupt escaped the generator: treat as termination.
                if self._state == _PENDING:
                    self._state = _SUCCEEDED
                    self._value = None
                    sim = self.sim
                    del sim._procs[self]
                    sim._seq += 1
                    sim._imm.append((sim._seq, self))
                return
            except BaseException as exc:  # propagate failure to waiters
                if self._state == _PENDING:
                    self._state = _FAILED
                    self._value = exc
                    sim = self.sim
                    del sim._procs[self]
                    sim._seq += 1
                    sim._imm.append((sim._seq, self))
                    return
                raise
            try:
                target_callbacks = target.callbacks
            except AttributeError:
                raise SimulationError(
                    f"process yielded {target!r}; processes must yield Event"
                ) from None
            if target_callbacks is None:
                # Already processed: loop and resume immediately.
                event = target
                continue
            self._waiting_on = target
            target_callbacks.append(self._bound_resume)
            return


class AllOf(Event):
    """Fires when every component event has fired; value is their values."""

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._pending = 0
        for ev in self._events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                self._pending += 1
                ev.callbacks.append(self._check)
        if self._state == _PENDING and self._pending == 0:
            self.succeed([ev._value for ev in self._events])

    def _check(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if event._state == _FAILED:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending <= 0:
            self.succeed([ev._value for ev in self._events])


class Simulator:
    """The event loop.

    Time is a float in seconds.  Determinism: events scheduled for the
    same time fire in scheduling order (a global sequence number breaks
    ties), so repeated runs with the same seed are bit-identical.

    The agenda has two lanes sharing one sequence-number space: ``_heap``
    for future events as ``(time, seq, event)`` and ``_imm`` for
    zero-delay events as ``(seq, event)``.  A heap entry whose time
    equals ``now`` was scheduled at an earlier instant, so its seq is
    smaller than that of any ``_imm`` entry (which was scheduled *at*
    ``now``); :meth:`_drain`, the one dispatch loop, exploits this to
    merge the lanes in exact ``(time, seq)`` order with one comparison.
    ``step``, ``run`` and ``run_until`` are its three callers.

    The sanitizer hook is sampled at construction and refreshed at every
    ``run``/``run_until``/``step`` entry (see docs/PERFORMANCE.md);
    enabling the sanitizer mid-instant between ``step`` calls is
    supported, enabling it mid-``run`` is not.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._imm: deque = deque()
        self._seq: int = 0
        self._san = _sanitizer._ACTIVE
        #: Every process whose generator has not finished, in creation
        #: order (a dict, so :meth:`close` finalises them in that order).
        self._procs: dict = {}

    # -- scheduling ------------------------------------------------------
    def _schedule(self, delay: float, event: Event) -> None:
        san = self._san
        if san is not None:
            san.check_schedule(self.now, delay)
        self._seq += 1
        if delay == 0.0:
            self._imm.append((self._seq, event))
        else:
            heappush(self._heap, (self.now + delay, self._seq, event))

    def schedule_call(
        self, delay: float, func: Callable[..., Any], *args: Any
    ) -> Call:
        """Run ``func(*args)`` after ``delay``; returns the trigger event.

        ``func`` and ``args`` are stored on the returned :class:`Call`
        directly — no closure is allocated.  Nothing withdraws a call
        once scheduled; the one cancelled agenda entry is a link's
        ``_Wake``, cleared with ``callbacks = None``.
        """
        return Call(self, delay, func, args)

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution -------------------------------------------------------
    def _drain(
        self,
        until: float = inf,
        awaited: Optional[Event] = None,
        limit: float = inf,
    ) -> None:
        """Dispatch agenda entries in ``(time, seq)`` order.

        Stops when ``limit`` events have fired, when ``awaited`` has been
        processed, or when nothing is left at or before ``until`` (a later
        heap entry stays where it is).
        """
        self._san = san = _sanitizer._ACTIVE
        heap = self._heap
        imm = self._imm
        popleft = imm.popleft
        now = self.now
        while limit and (awaited is None or awaited.callbacks is not None):
            # A heap entry at the current instant outranks the imm lane:
            # it was scheduled at an earlier instant, so its seq is smaller.
            if imm and not (heap and heap[0][0] == now and heap[0][1] < imm[0][0]):
                event = popleft()[1]
            elif heap and heap[0][0] <= until:
                time, _seq, event = heappop(heap)
                if san is not None:
                    san.check_step(now, time)
                self.now = now = time
            else:
                return
            limit -= 1
            callbacks = event.callbacks
            event.callbacks = None  # marks the event as processed
            if callbacks:
                for callback in callbacks:
                    callback(event)

    def step(self) -> None:
        """Process one event from the agenda."""
        if not (self._imm or self._heap):
            raise SimulationError("step() on an empty agenda")
        self._drain(limit=1)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the agenda is empty or ``until`` is reached.

        Returns the simulation time at exit.
        """
        if until is None:
            self._drain()
        elif until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        else:
            self._drain(until)
            if self.now < until:
                self.now = until
        return self.now

    def run_until(self, event: Event) -> float:
        """Run until ``event`` has been processed (not merely triggered).

        Engines use this to stop at ensemble completion even though
        service processes (worker pull loops, timeout checkers) still
        have events on the agenda.
        """
        self._drain(awaited=event)
        if event.callbacks is not None:
            raise SimulationError(
                "agenda exhausted before the awaited event triggered"
            )
        return self.now

    def close(self) -> None:
        """Release a finished run: close every suspended generator, then
        empty the agenda.

        A suspended process holds its generator's frame, and the frame
        the objects the run was built from; the agenda holds the
        callbacks that resume it.  Together they keep a run alive in
        reference cycles only the cyclic collector frees.  Engines call
        this once their result is built, so each generator's ``finally``
        runs once, after every simulated value is fixed, and dropping the
        result frees the run by reference counting.  A second call does
        nothing.
        """
        procs = self._procs
        while procs:
            # A ``finally`` may start another process: take the batch.
            batch = list(procs)
            procs.clear()
            for proc in batch:
                proc._generator.close()
        self._heap.clear()
        self._imm.clear()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._imm:
            return self.now
        return self._heap[0][0] if self._heap else inf
