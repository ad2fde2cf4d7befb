"""Page-cache write-back buffering.

**Write-back** (paper §IV.A): "The operating system caches the disk writes
and flushes them to the disk in batches, resulting in the intermittent
disk writes at full capacity."  Jobs therefore complete as soon as their
output bytes are absorbed by the cache; a background flusher drains dirty
bytes through the disk/NIC links at device speed.  Because of this, stage
1 of Montage takes the same time on all three instance types despite their
very different write throughput — unless the dirty set outgrows the cache,
in which case writers throttle (exactly the kernel's dirty-page limit).

The read side of the page cache (an LRU stack distance per file) lives
in :meth:`repro.storage.base.SharedFileSystem.read`.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Deque, List, Tuple

import repro.analysis.sanitizer as _sanitizer
from repro.sim import Event, FairShareLink, JoinEvent, Simulator
from repro.sim.engine import _SUCCEEDED

__all__ = ["WriteBackCache"]


class WriteBackCache:
    """Per-node dirty-page buffer with a background flusher process.

    ``write(nbytes, links)`` returns an event that fires once the bytes
    are buffered (immediately while below the dirty limit).  The flusher
    drains entries FIFO, pushing chunks through every link of the entry's
    route in parallel (local disk write, or NIC + remote disk for files
    homed on another node).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity_bytes: float,
        chunk_bytes: float = 64e6,
        flush_interval: float = 5.0,
        name: str = "wbcache",
    ):
        # Chained comparisons also refuse NaN: a NaN chunk never flushes
        # and a NaN or infinite capacity never throttles a writer.
        if not 0.0 < capacity_bytes < inf:
            raise ValueError(
                f"capacity_bytes must be finite and > 0, got {capacity_bytes!r}"
            )
        if not 0.0 < chunk_bytes < inf:
            raise ValueError(f"chunk_bytes must be finite and > 0, got {chunk_bytes!r}")
        if not 0.0 <= flush_interval < inf:
            raise ValueError(
                f"flush_interval must be finite and >= 0, got {flush_interval!r}"
            )
        self.sim = sim
        self.capacity = float(capacity_bytes)
        self.chunk = float(chunk_bytes)
        #: Pause between flush batches, mirroring the kernel's periodic
        #: write-back (dirty_writeback_centisecs).  This is what produces
        #: the paper's "intermittent disk writes at full capacity" (§IV.A):
        #: dirty pages accumulate during the pause and then drain in one
        #: burst at device speed.
        self.flush_interval = float(flush_interval)
        self.name = name
        self.dirty = 0.0
        self.bytes_written = 0.0
        self.bytes_flushed = 0.0
        self._queue: Deque[Tuple[float, Tuple[FairShareLink, ...]]] = deque()
        self._stalled: Deque[Tuple[Event, float, Tuple[FairShareLink, ...]]] = deque()
        self._flusher_started = False
        self._work: Event | None = None
        self._drained: List[Event] = []

    def write(self, nbytes: float, links: Tuple[FairShareLink, ...]) -> Event:
        """Buffer ``nbytes`` destined for ``links``; event fires on buffer."""
        if nbytes < 0:
            raise ValueError(f"negative write size: {nbytes}")
        if nbytes == 0:
            return Event(self.sim).succeed()
        self.bytes_written += nbytes
        if self._stalled or self.dirty + nbytes > self.capacity:
            # Dirty limit reached: the writer throttles until the flusher
            # frees space (kernel dirty_ratio behaviour).
            event = Event(self.sim)
            self._stalled.append((event, nbytes, links))
        else:
            self.dirty += nbytes
            self._queue.append((nbytes, links))
            # Buffered at once: Event.__init__ and succeed in this frame.
            event = Event.__new__(Event)
            event.sim = sim = self.sim
            event.callbacks = []
            event._state = _SUCCEEDED
            event._value = None
            sim._seq += 1
            sim._imm.append((sim._seq, event))
        san = _sanitizer._ACTIVE
        if san is not None:
            san.check_cache(self)
        work = self._work
        if work is not None and not work._state:
            work.succeed()  # the flusher is parked: nudge it
        elif not self._flusher_started:
            self._ensure_flusher()
        return event

    def write_into(self, nbytes: float, links: Tuple[FairShareLink, ...],
                   event: Event) -> None:
        """Buffer ``nbytes`` arriving into ``event`` when buffered.

        ``event`` is normally a :class:`~repro.sim.engine.JoinEvent`
        counting one arrival per route of a multi-route write, so a
        fan-out write allocates one event total instead of one per route
        plus an ``AllOf``.
        """
        if nbytes < 0:
            raise ValueError(f"negative write size: {nbytes}")
        if nbytes == 0:
            event._complete()
            return
        self.bytes_written += nbytes
        if self._stalled or self.dirty + nbytes > self.capacity:
            self._stalled.append((event, nbytes, links))
        else:
            self.dirty += nbytes
            self._queue.append((nbytes, links))
            event._complete()
        san = _sanitizer._ACTIVE
        if san is not None:
            san.check_cache(self)
        work = self._work
        if work is not None and not work._state:
            work.succeed()  # the flusher is parked: nudge it
        elif not self._flusher_started:
            self._ensure_flusher()

    def drained(self) -> Event:
        """Event that fires when every buffered byte has hit the device."""
        event = Event(self.sim)
        if self.dirty == 0 and not self._stalled:
            return event.succeed()
        self._drained.append(event)
        return event

    # -- internals ---------------------------------------------------------
    def _ensure_flusher(self) -> None:
        # One persistent flusher process per cache: it parks on a signal
        # event between busy periods instead of being re-spawned per
        # burst (a generator + Process + bootstrap event each time).
        self._flusher_started = True
        self.sim.process(self._flush_loop())

    def _admit_stalled(self) -> None:
        while self._stalled:
            event, nbytes, links = self._stalled[0]
            if self.dirty + nbytes > self.capacity and self.dirty > 0:
                break
            self._stalled.popleft()
            self.dirty += nbytes
            self._queue.append((nbytes, links))
            event._complete()  # succeed() for write(), arrive() for write_into()

    def _flush_loop(self):
        """The flusher: park while idle, then drain in bursts.  One
        generator, so a resume after a chunk re-enters one frame."""
        sim = self.sim
        queue = self._queue
        chunk = self.chunk
        while True:
            while not (queue or self._stalled):
                # Idle: park until the next write signals new work.
                event = self._work = Event(sim)
                yield event
                self._work = None
            first_batch = True
            while queue or self._stalled:
                if not first_batch and self.flush_interval > 0:
                    # Let dirty pages accumulate, then drain in one burst.
                    yield sim.timeout(self.flush_interval)
                first_batch = False
                if self._stalled:
                    self._admit_stalled()
                while queue:
                    nbytes, links = queue.popleft()
                    # Coalesce queued entries bound for the same route, up
                    # to one chunk: the links see one stream with the same
                    # total bytes either way (PS-exact), and dirty pages
                    # were already released at burst granularity.
                    while (
                        queue
                        and queue[0][1] == links
                        and nbytes + queue[0][0] <= chunk
                    ):
                        nbytes += queue.popleft()[0]
                    remaining = nbytes
                    while remaining > 0:
                        burst = min(chunk, remaining)
                        if len(links) == 1:
                            yield links[0].transfer(burst)
                        else:
                            join = JoinEvent(sim, len(links))
                            for link in links:
                                link.transfer_into(burst, join)
                            yield join
                        remaining -= burst
                        self.dirty -= burst
                        self.bytes_flushed += burst
                        san = _sanitizer._ACTIVE
                        if san is not None:
                            san.check_cache(self)
                        if self._stalled:
                            self._admit_stalled()
            if self.dirty <= 1e-6 and not self._stalled:
                san = _sanitizer._ACTIVE
                if san is not None:
                    san.check_cache_drained(self)
                drained, self._drained = self._drained, []
                for event in drained:
                    event.succeed()
