"""Shared resources for the cluster simulator.

Three resource kinds cover everything the workflow engines need:

* :class:`CorePool` — a counting resource with a FIFO wait queue, used for
  vCPU cores (one slot per core, matching the worker daemon's "at most one
  thread per CPU" rule from paper §III.D).
* :class:`FairShareLink` — an exact processor-sharing (PS) bandwidth
  resource, used for disk read/write channels and network links.  PS models
  the kernel's fair I/O scheduling among concurrent streams: each of the
  ``n`` active transfers progresses at ``capacity / n``.
* :class:`FifoStore` — an unbounded FIFO hand-off queue, used by the
  scheduling engine's ready/slot feeds.
* :class:`PriorityStore` — a priority hand-off queue with a deterministic
  FIFO tie-break (publish sequence) and in-place reprioritization, used
  by the simulated message broker.

The PS link uses the standard virtual-time trick: because every active
stream receives the *same* service rate, per-stream progress is a single
shared scalar ``v`` (bytes served per stream).  A transfer of ``S`` bytes
admitted at virtual time ``v0`` completes when ``v`` reaches ``v0 + S``,
so completions are managed with one heap and one pending wake-up (a bare
agenda entry, not an event) — O(log n) per transfer regardless of how
often the active set changes.

Each resource keeps a :class:`SegmentLog` of its utilisation so the
monitoring layer can reconstruct mpstat/iostat-style time series (paper
§IV.A) without per-sample instrumentation overhead in the hot loop; the
link writes its busy/idle edges' codes into the log's columns itself.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from collections import deque
from math import inf
from typing import TYPE_CHECKING, Any, Deque, List, Optional, Tuple

import repro.analysis.sanitizer as _sanitizer
from repro.sim.engine import (
    _PENDING, _SUCCEEDED, Event, JoinEvent, SimulationError, Simulator,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SegmentLog",
    "CorePool",
    "FairShareLink",
    "FifoStore",
    "PriorityStore",
]

_EPS = 1e-9


class SegmentLog:
    """A right-continuous step function recorded as change points.

    ``record(t, value)`` appends a change point; queries integrate or
    resample the step function.  Used for busy-core counts and link
    throughput.

    The history is two flat columns: ``times`` (``array('d')``) and
    ``codes``, one unsigned code per change point into ``levels``, the
    log's distinct values as floats in first-seen order (level 0 is
    ``v0``).  A link log has two levels and a core log one per busy
    count, so ``codes`` is ``array('B')`` and a change point costs 9
    bytes; the 257th level widens it to ``'H'``, the 65,537th to ``'I'``.
    Levels are distinct under ``==``: ``0.0`` and ``-0.0`` share one.
    Nothing else is kept per point: queries run after the simulation,
    so the running integral is computed when asked for.
    """

    __slots__ = ("times", "codes", "levels", "_index")

    def __init__(self, t0: float = 0.0, v0: float = 0.0):
        if not (-inf < t0 < inf and -inf < v0 < inf):
            raise ValueError(f"non-finite start of a log: t0={t0!r}, v0={v0!r}")
        self.times = array("d", (t0,))
        self.codes = array("B", (0,))
        self.levels = [float(v0)]
        self._index = {v0: 0}

    def code(self, value: float) -> int:
        """The code of ``value``, added as a level if unseen, for a writer
        that edits the columns itself (the link's edges).  ``record``
        carries the same new-level branch inline."""
        code = self._index.get(value)
        if code is None:
            if not -inf < value < inf:
                raise ValueError(f"non-finite value for a log: {value!r}")
            levels = self.levels
            code = self._index[value] = len(levels)
            levels.append(float(value))
            if code == 256 or code == 65536:
                self.codes = array("H" if code == 256 else "I", self.codes)
        return code

    def record(self, t: float, value: float) -> None:
        """Append a change point at ``t`` (must be non-decreasing)."""
        try:
            code = self._index[value]
        except KeyError:  # a new level: refuse a bad time or value first
            last = self.times[-1]
            if not last <= t < inf:
                raise ValueError(
                    f"time went backwards or is not finite: {t} < {last}"
                ) from None
            if not -inf < value < inf:
                raise ValueError(f"non-finite value for a log: {value!r}") from None
            levels = self.levels
            code = self._index[value] = len(levels)
            levels.append(float(value))
            if code == 256 or code == 65536:
                self.codes = array("H" if code == 256 else "I", self.codes)
        codes = self.codes
        if code == codes[-1]:
            return
        times = self.times
        last = times[-1]
        if last < t < inf:
            times.append(t)
            codes.append(code)
        elif t == last:
            # Same-instant update: overwrite instead of storing a
            # zero-length segment.
            codes[-1] = code
            if len(times) >= 2 and codes[-2] == code:
                times.pop()
                codes.pop()
        else:
            raise ValueError(f"time went backwards or is not finite: {t} < {last}")

    @property
    def current(self) -> float:
        return self.levels[self.codes[-1]]

    def integrate(self, t_end: float) -> float:
        """Integral of the step function from its start to ``t_end``.

        A left-to-right sum over the segments, each value decoded
        through ``levels`` — the same double arithmetic as the
        sequential ``cumsum`` in :meth:`sample`, so both give the same
        bits at a change point.
        """
        times = self.times
        codes = self.codes
        levels = self.levels
        k = max(bisect_right(times, t_end) - 1, 0)
        acc = 0.0
        for i in range(k):
            acc += (times[i + 1] - times[i]) * levels[codes[i]]
        return acc + max(t_end - times[k], 0.0) * levels[codes[k]]

    def sample(
        self, t_end: float, dt: float, t_start: float = 0.0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Time-weighted average of the step function per ``dt`` bucket.

        Mirrors the paper's 3-second mpstat/iostat sampling.  Returns
        ``(bucket_start_times, bucket_means)``.  The only array-returning
        query, so the only one that imports numpy.

        The prefix integral at every bucket edge is one sequential
        ``cumsum`` over a zero-copy view of ``times`` and the values
        decoded from a view of ``codes``.  The views are locals: an
        ``array`` cannot grow while a buffer export is alive, so they
        must not outlive the query.
        """
        import numpy as np

        if dt <= 0:
            raise ValueError("dt must be positive")
        if t_end <= t_start:
            return np.empty(0), np.empty(0)
        edges = np.arange(t_start, t_end, dt)
        edges = np.append(edges, t_end)  # final bucket may be partial
        times = np.frombuffer(self.times)
        codes = self.codes
        values = np.asarray(self.levels)[np.frombuffer(codes, codes.typecode)]
        cum = np.concatenate(([0.0], np.cumsum(np.diff(times) * values[:-1])))
        idx = np.searchsorted(times, edges, side="right") - 1
        idx = np.clip(idx, 0, len(times) - 1)
        integral = cum[idx] + np.clip(edges - times[idx], 0.0, None) * values[idx]
        area = np.diff(integral)
        widths = np.diff(edges)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(widths > 0, area / widths, 0.0)
        return edges[:-1], means


class CorePool:
    """Counting resource with FIFO queueing (vCPU slots on a node)."""

    __slots__ = (
        "sim", "capacity", "busy", "name", "log", "_queue", "_granted",
    )

    def __init__(self, sim: Simulator, capacity: int, name: str = "cores"):
        # Checked before ``int()``, which would truncate 2.5 to 2 cores,
        # build one from ``True`` and fail on NaN without naming it.
        if (
            isinstance(capacity, bool)
            or not 1 <= capacity < inf
            or capacity != int(capacity)
        ):
            raise ValueError(
                f"capacity must be a whole finite number >= 1, got {capacity!r}"
            )
        self.sim = sim
        self.capacity = int(capacity)
        self.busy = 0
        self.name = name
        self.log = SegmentLog(sim.now, 0.0)
        self._queue: Deque[Event] = deque()
        # Shared already-triggered grant for the uncontended fast path:
        # callers only inspect ``triggered`` (and may yield, which
        # re-enters immediately), so one processed event serves every
        # immediate grant without an allocation or an agenda entry.
        self._granted = Event(sim).succeed()

    @property
    def available(self) -> int:
        return self.capacity - self.busy

    @property
    def queued(self) -> int:
        return len(self._queue)

    def acquire(self) -> Event:
        """Request one core; the returned event fires when it is granted."""
        if self.busy < self.capacity and not self._queue:
            self.busy += 1
            self.log.record(self.sim.now, self.busy)
            event = self._granted
        else:
            event = Event(self.sim)
            self._queue.append(event)
        san = _sanitizer._ACTIVE
        if san is not None:
            san.check_core_pool(self)
        return event

    def cancel(self, event: Event) -> bool:
        """Withdraw a queued acquire; ``False`` if it is not queued here."""
        try:
            self._queue.remove(event)
        except ValueError:
            return False
        return True

    def release(self) -> None:
        """Return one core, handing it to the oldest waiter if any.

        Over-releasing (a release with no matching acquire) raises
        immediately — *before* any state changes — instead of silently
        corrupting the availability count: a pool that believes it has
        more cores than the node would let the simulator overcommit CPUs
        and report impossible makespans.
        """
        if self.busy <= 0:
            raise SimulationError(
                f"{self.name}: release() without a matching acquire() "
                f"(busy={self.busy}, capacity={self.capacity}); every "
                f"release must pair with exactly one granted acquire"
            )
        if self._queue:
            self._queue.popleft().succeed()  # core stays busy, ownership moves
            return
        self.busy -= 1
        self.log.record(self.sim.now, self.busy)
        san = _sanitizer._ACTIVE
        if san is not None:
            san.check_core_pool(self)


class _Wake:
    """A link wake-up as a bare agenda entry: ``Simulator._drain`` reads
    only ``callbacks`` of what it pops, and a wake-up has no value, state
    or waiter.  Holds its link's one callback tuple; cleared to cancel."""

    __slots__ = ("callbacks",)


class FairShareLink:
    """Exact processor-sharing bandwidth resource (disk channel / NIC).

    ``transfer(nbytes)`` returns an event that fires when the stream has
    received ``nbytes`` of service under equal sharing of ``capacity``
    (bytes/second) among all concurrent streams.
    """

    __slots__ = (
        "sim",
        "capacity",
        "name",
        "log",
        "_v",
        "_last",
        "_n",
        "_heap",
        "_seq",
        "_wake_ev",
        "_wake_time",
        "_wake_cb",
        "_busy",
        "bytes_total",
    )

    def __init__(self, sim: Simulator, capacity: float, name: str = "link"):
        if not 0.0 < capacity < inf:
            raise ValueError(f"link capacity must be in (0, inf), got {capacity}")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        # Aggregate throughput (B/s): idle is level 0, the capacity level 1.
        self.log = log = SegmentLog(sim.now, 0.0)
        log.levels.append(self.capacity)
        log._index[self.capacity] = self._busy = 1  # the busy edge's code
        self._v = 0.0  # virtual per-stream service (bytes)
        self._last = sim.now
        self._n = 0
        self._heap: list = []  # (v_target, seq, event)
        self._seq = 0
        self._wake_ev: Optional[_Wake] = None
        self._wake_time = 0.0
        # Every wake-up's callbacks: one tuple of one bound method, built once.
        self._wake_cb = (self._wake,)
        self.bytes_total = 0.0

    def close(self) -> None:
        """Drop the wake-up and its callback tuple once the run is over:
        both lead back to the link, a cycle the link would otherwise
        need the cyclic collector to leave."""
        self._wake_cb = self._wake_ev = None

    # The link's life is one cycle — settle the virtual clock up to now,
    # change the active set, arm the wake-up for the next completion — and
    # most of a run's events are that cycle, so ``_wake`` and
    # ``transfer_into`` each run it in one frame with the helpers' bodies
    # written out: the busy/idle edge is ``SegmentLog.record``'s, a ripe
    # stream's completion ``JoinEvent.arrive``'s and ``Event.succeed``'s,
    # the arming ``Simulator._schedule``'s behind ``Timeout``'s finite
    # check; the arithmetic keeps one operand order on every path.

    def _wake(self, _entry: _Wake) -> None:
        """Wake-up callback: complete every ripe stream, re-arm."""
        self._wake_ev = None
        sim = self.sim
        now = sim.now
        n = self._n
        capacity = self.capacity
        if n > 0 and now > self._last:
            delta = (now - self._last) * capacity / n
            self._v += delta
            self.bytes_total += delta * n
        self._last = now
        v = self._v
        heap = self._heap
        # Tolerance must scale with the magnitudes of both clocks.  The
        # virtual-byte clock: once v reaches ~1e9, double rounding leaves
        # residues far above any fixed epsilon.  The time clock: when the
        # remaining service converts to a dt below the float resolution of
        # `now`, the wake-up cannot advance time at all — so anything
        # within one clock quantum's worth of bytes counts as delivered.
        quantum = 1e-9 * (now if now > 1.0 else 1.0)
        ripe = v + (
            _EPS + 1e-9 * abs(v) + capacity * quantum / (n if n > 0 else 1)
        )
        while heap and heap[0][0] <= ripe:
            event = heapq.heappop(heap)[2]
            n -= 1
            kind = type(event)
            if kind is JoinEvent:
                pending = event._pending - 1
                if pending < 0:
                    raise SimulationError("join arrived more often than its count")
                event._pending = pending
                if pending:
                    continue
            elif kind is not Event:
                event._complete()  # any other waiter, by the protocol
                continue
            if event._state != _PENDING:
                raise SimulationError("event already triggered")
            event._state = _SUCCEEDED
            event._value = None
            sim._seq += 1
            sim._imm.append((sim._seq, event))
        self._n = n
        if n == 0:
            codes = self.log.codes
            if codes[-1]:  # not idle: the idle level is 0.0, code 0
                times = self.log.times
                if now > times[-1]:
                    times.append(now)
                    codes.append(0)
                elif now < times[-1]:
                    raise ValueError(f"time went backwards: {now} < {times[-1]}")
                elif len(times) >= 2 and codes[-2] == 0:
                    times.pop()  # same instant, back to the value before
                    codes.pop()
                else:
                    codes[-1] = 0  # same instant: overwrite
            self._v = 0.0  # rebase the virtual clock between busy periods
        san = _sanitizer._ACTIVE
        if san is not None:
            san.check_link(self)
        if n:
            # No wake-up is pending (this *was* it), so arming needs
            # none of _arm's reuse logic.
            dt = (heap[0][0] - v) * n / capacity
            if dt < 0.0:
                dt = 0.0
            elif not dt < inf:
                raise ValueError(f"wake-up delay must be finite: {dt!r}")
            self._wake_time = target = now + dt
            self._wake_ev = wake = _Wake()
            wake.callbacks = self._wake_cb
            sim._seq += 1
            if dt == 0.0:
                sim._imm.append((sim._seq, wake))
            else:
                heapq.heappush(sim._heap, (target, sim._seq, wake))

    def _arm(self, now: float) -> None:
        """Arm (or keep) the wake-up for the next completion.

        A pending wake-up that fires *no later* than the new target is
        reused: firing early is merely spurious (nothing is ripe, the
        wake re-arms itself), whereas firing late would delay a
        completion.  Since arrivals only push completions later, the
        common churn pattern — transfer starts while others are in
        flight — keeps one wake-up alive instead of cancelling and
        re-allocating an entry per arrival.
        """
        wake = self._wake_ev
        n = self._n
        if n == 0:
            if wake is not None:
                wake.callbacks = None
                self._wake_ev = None
            return
        dt = (self._heap[0][0] - self._v) * n / self.capacity
        if dt < 0.0:
            dt = 0.0
        elif not dt < inf:
            raise ValueError(f"wake-up delay must be finite: {dt!r}")
        target = now + dt
        if wake is not None:
            if wake.callbacks and self._wake_time <= target:
                return
            wake.callbacks = None  # fires too late: supersede
        self._wake_time = target
        self._wake_ev = wake = _Wake()
        wake.callbacks = self._wake_cb
        self.sim._schedule(dt, wake)

    def set_capacity(self, capacity: float) -> None:
        """Change the link's bandwidth mid-run (degraded-disk faults).

        Service already received is settled at the old rate first, then
        pending completions are rescheduled at the new rate — active
        streams simply speed up or slow down from this instant.
        """
        if not 0.0 < capacity < inf:
            raise ValueError(f"link capacity must be in (0, inf), got {capacity}")
        now = self.sim.now
        n = self._n
        if n > 0 and now > self._last:
            delta = (now - self._last) * self.capacity / n
            self._v += delta
            self.bytes_total += delta * n
        self._last = now
        self.capacity = float(capacity)
        self._busy = self.log.code(self.capacity)
        if n > 0:
            self.log.record(now, self.capacity)
        san = _sanitizer._ACTIVE
        if san is not None:
            san.check_link(self)
        self._arm(now)

    def transfer(self, nbytes: float) -> Event:
        """Start a stream of ``nbytes``; returns its completion event."""
        event = Event.__new__(Event)  # Event.__init__, in this frame
        event.sim = self.sim
        event.callbacks = []
        event._state = _PENDING
        event._value = None
        self._admit(nbytes, event)
        return event

    def transfer_into(self, nbytes: float, event: Event) -> None:
        """Start a stream whose completion *arrives into* ``event``.

        ``event`` is normally a :class:`~repro.sim.engine.JoinEvent`
        counting several streams (its ``_complete`` is ``arrive``); the
        stream completes without allocating a per-stream event or an
        agenda entry.  A zero-byte stream arrives immediately.
        """
        if not 0.0 < nbytes < inf:
            if nbytes != 0:
                raise ValueError(f"non-finite or negative transfer size: {nbytes}")
            event._complete()
            return
        sim = self.sim
        now = sim.now
        n = self._n
        capacity = self.capacity
        if n == 0:
            codes = self.log.codes
            busy = self._busy
            if codes[-1] != busy:
                times = self.log.times
                if now > times[-1]:
                    times.append(now)
                    codes.append(busy)
                elif now < times[-1]:
                    raise ValueError(f"time went backwards: {now} < {times[-1]}")
                elif len(times) >= 2 and codes[-2] == busy:
                    times.pop()  # same instant, back to the value before
                    codes.pop()
                else:
                    codes[-1] = busy  # same instant: overwrite
        elif now > self._last:
            delta = (now - self._last) * capacity / n
            self._v += delta
            self.bytes_total += delta * n
        self._last = now
        v = self._v
        heap = self._heap
        self._seq += 1
        heapq.heappush(heap, (v + nbytes, self._seq, event))
        self._n = n = n + 1
        san = _sanitizer._ACTIVE
        if san is not None:
            san.check_link(self)
        # Inlined _arm (n >= 1 here).
        dt = (heap[0][0] - v) * n / capacity
        if dt < 0.0:
            dt = 0.0
        elif not dt < inf:
            raise ValueError(f"wake-up delay must be finite: {dt!r}")
        target = now + dt
        wake = self._wake_ev
        if wake is not None:
            if wake.callbacks and self._wake_time <= target:
                return
            wake.callbacks = None
        self._wake_time = target
        self._wake_ev = wake = _Wake()
        wake.callbacks = self._wake_cb
        sim._seq += 1
        if dt == 0.0:
            sim._imm.append((sim._seq, wake))
        else:
            heapq.heappush(sim._heap, (target, sim._seq, wake))

    #: ``transfer``'s way in: the same function under a private name, so
    #: a wrapper installed on the public attribute (bench/spans.py counts
    #: calls there) sees one call per stream, not two.
    _admit = transfer_into

    def transfer_many(self, sizes, event: Event) -> None:
        """Start one stream per entry of the sequence ``sizes``, all
        arriving into ``event``, with a *single* bandwidth re-partition
        for the batch.

        N same-instant starts on one link cost one settle / log record /
        sanitizer check / wake-up arming instead of N — the streams are
        admitted at the same virtual time either way, so the heap ends
        up byte-identical to N ``transfer_into`` calls.  Every size is
        validated before anything is touched: a bad batch leaves link,
        ``event`` and log as they were.
        """
        for nbytes in sizes:
            if not 0.0 <= nbytes < inf:
                raise ValueError(f"non-finite or negative transfer size: {nbytes}")
        now = self.sim.now
        n = self._n
        if n > 0 and now > self._last:
            delta = (now - self._last) * self.capacity / n
            self._v += delta
            self.bytes_total += delta * n
        self._last = now
        v = self._v
        heap = self._heap
        seq = self._seq
        started = 0
        for nbytes in sizes:
            if nbytes == 0:
                event._complete()
                continue
            seq += 1
            heapq.heappush(heap, (v + nbytes, seq, event))
            started += 1
        self._seq = seq
        if started == 0:
            return
        if n == 0:
            self.log.record(now, self.capacity)
        self._n = n + started
        san = _sanitizer._ACTIVE
        if san is not None:
            san.check_link(self)
        self._arm(now)


class FifoStore:
    """Unbounded FIFO queue with event-based ``get`` (simulated broker)."""

    __slots__ = ("sim", "_items", "_getters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter._state:
                continue  # cancelled getter
            getter._state = _SUCCEEDED  # Event.succeed, in this frame
            getter._value = item
            sim = self.sim
            sim._seq += 1
            sim._imm.append((sim._seq, getter))
            return
        self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def peek_all(self) -> List[Any]:
        """The queued items in consumption order, without removing them."""
        return list(self._items)

    def pop_nowait(self) -> Any:
        """Remove and return the next item, or ``None`` when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def cancel(self, event: Event) -> bool:
        """Abandon a pending get (the event is failed so waiters wake up)."""
        if event.triggered:
            return False
        event.succeed(None)
        return True


class _PriorityEntry:
    """One queued :class:`PriorityStore` item.

    Slotted and mutable: ``reprioritize`` flips ``alive`` in place (lazy
    deletion) and re-publishes under the same ``seq``.  Heap order is
    ``(neg_priority, seq)``; ``seq`` is unique so comparison never falls
    through to the payload.
    """

    __slots__ = ("neg_priority", "seq", "item", "alive")

    def __init__(self, neg_priority: float, seq: int, item: Any):
        self.neg_priority = neg_priority
        self.seq = seq
        self.item = item
        self.alive = True

    def __lt__(self, other: "_PriorityEntry") -> bool:
        if self.neg_priority != other.neg_priority:
            return self.neg_priority < other.neg_priority
        return self.seq < other.seq


class PriorityStore:
    """Priority hand-off queue with a deterministic FIFO tie-break.

    Higher ``priority`` values are consumed first; entries of equal
    priority leave in publish order (each entry carries a monotonically
    increasing sequence number, so ordering is a pure function of the
    ``put``/``reprioritize`` history — no ties, no hash order, no
    identity comparisons).

    The default-priority hot path stays O(1) *and allocation-free*: the
    store starts in a plain mode where the FIFO lane holds raw items —
    no entry record, no sequence stamp, no heap — so a workload that
    never sets a priority pays deque costs identical to
    :class:`FifoStore` (the fast-path microbench pins parity within
    10%).  The first prioritized put or ``reprioritize`` materializes
    the queued items into :class:`_PriorityEntry` records (arrival order
    preserved) and the store stays in entry mode from then on.
    ``reprioritize`` retags queued entries in place (lazy deletion +
    re-push under the *same* sequence number, so a reprioritized message
    keeps its arrival order within its new priority level).
    """

    __slots__ = (
        "sim", "_fifo", "_heap", "_getters", "_seq", "_live", "_dead", "_plain"
    )

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: Plain mode: raw items.  Entry mode: ``_PriorityEntry`` records.
        self._fifo: Deque[Any] = deque()  # priority == 0.0 lane
        self._heap: List[_PriorityEntry] = []  # everything else (lazy deletion)
        self._getters: Deque[Event] = deque()
        self._seq = 0
        self._live = 0  # entry mode only; plain mode uses len(_fifo)
        self._dead = 0
        self._plain = True

    def __len__(self) -> int:
        return len(self._fifo) if self._plain else self._live

    def _materialize(self) -> None:
        """Switch (permanently) from raw items to entry records.

        Seqs are assigned in deque order — exactly arrival order, since
        plain mode implies no other entry exists anywhere yet."""
        if not self._plain:
            return
        self._plain = False
        entries: Deque[_PriorityEntry] = deque()
        for item in self._fifo:
            self._seq += 1
            entries.append(_PriorityEntry(0.0, self._seq, item))
        self._live = len(entries)
        self._fifo = entries

    def _pop_entry(self) -> Optional[_PriorityEntry]:
        """Remove and return the live entry with the best (priority, seq)
        key, or ``None`` when empty."""
        fifo, heap = self._fifo, self._heap
        while fifo and not fifo[0].alive:
            fifo.popleft()
            self._dead -= 1
        while heap and not heap[0].alive:
            heapq.heappop(heap)
            self._dead -= 1
        if fifo and heap:
            if heap[0] < fifo[0]:
                entry = heapq.heappop(heap)
            else:
                entry = fifo.popleft()
        elif fifo:
            entry = fifo.popleft()
        elif heap:
            entry = heapq.heappop(heap)
        else:
            return None
        entry.alive = False
        self._live -= 1
        return entry

    def put(self, item: Any, priority: float = 0.0) -> None:
        """Deposit an item, waking the oldest waiting getter if any.

        A waiting getter implies the queue is empty, so the item is
        handed over directly — priority only orders *queued* entries.
        """
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter._state:
                continue  # cancelled getter
            getter.succeed(item)
            return
        if self._plain:
            if priority == 0.0:
                self._fifo.append(item)  # allocation-free fast path
                return
            self._materialize()
        self._seq += 1
        entry = _PriorityEntry(-priority, self._seq, item)
        self._live += 1
        if priority == 0.0:
            self._fifo.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        event = Event(self.sim)
        if self._plain:
            if self._fifo:
                event.succeed(self._fifo.popleft())
            else:
                self._getters.append(event)
            return event
        entry = self._pop_entry()
        if entry is not None:
            event.succeed(entry.item)
        else:
            self._getters.append(event)
        return event

    def pop_nowait(self) -> Any:
        """Remove and return the next item, or ``None`` when empty."""
        if self._plain:
            fifo = self._fifo
            return fifo.popleft() if fifo else None
        entry = self._pop_entry()
        return None if entry is None else entry.item

    def reprioritize(self, selector, priority: float) -> int:
        """Retag every queued entry for which ``selector(item)`` is
        true with ``priority``, preserving each entry's original sequence
        number (so arrival order still breaks ties at the new level).
        Returns the number of entries retagged."""
        self._materialize()
        moved: List[_PriorityEntry] = []
        for entry in list(self._fifo) + self._heap:
            if (
                entry.alive
                and -entry.neg_priority != priority
                and selector(entry.item)
            ):
                entry.alive = False
                self._dead += 1
                moved.append(_PriorityEntry(-priority, entry.seq, entry.item))
        for entry in moved:
            heapq.heappush(self._heap, entry)
        # Purge dead entries once they outnumber live ones (bounds the
        # garbage a reprioritize-heavy run can accumulate).
        if self._dead > 64 and self._dead > self._live:
            self._fifo = deque(e for e in self._fifo if e.alive)
            self._heap = [e for e in self._heap if e.alive]
            heapq.heapify(self._heap)
            self._dead = 0
        return len(moved)

    def cancel(self, event: Event) -> bool:
        """Abandon a pending get (the event is failed so waiters wake up)."""
        if event.triggered:
            return False
        event.succeed(None)
        return True
