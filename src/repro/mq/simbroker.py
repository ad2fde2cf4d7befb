"""Simulated topic broker for the discrete-event engines.

Same topic semantics as :class:`repro.mq.broker.Broker`, but ``consume``
returns a DES event.  An optional per-message ``latency`` models broker
round-trip time; the default of a few milliseconds matches a co-located
RabbitMQ node and is deliberately negligible next to job runtimes — the
pull model's point is that coordination is cheap.

Topics are priority queues: ``publish(..., priority=...)`` ranks a
message above or below the default band (higher first, FIFO within a
priority — the tie-break is the deterministic publish sequence carried
by :class:`~repro.sim.PriorityStore`), and ``reprioritize`` retags
*already queued* messages in place, which is what lets a running
ensemble re-rank still-queued jobs as completions land.  Messages still
in the in-flight latency batch are retagged too — a reprioritize
logically happens broker-side, after the publish left the producer.

Topics may be *bounded* (``limits``): a publish that would exceed a
topic's backlog capacity is deterministically shed — ``publish`` returns
``False`` and the per-topic ``shed`` counter advances.  This is the
broker half of the backpressure story; the polite half is the master's
:class:`~repro.liveness.admission.AdmissionControl` gate (and, for
multi-tenant runs, the :class:`~repro.liveness.policy.ServiceAdmissionPolicy`
ladder in front of it).

Service plane: publishes may carry a sheddability ``klass`` (the SLA
class rank — higher is more sheddable) and an attribution ``tag``
(``(tenant, sla)``).  At capacity a classed publish *evicts* the newest
strictly-more-sheddable message already in the topic instead of being
dropped itself — a gold dispatch arriving at a full topic displaces a
queued best-effort one, never the other way around — and every shed is
recorded on ``shed_records`` with its tag for post-mortems.  Untagged
messages (``klass=None``) are never evicted.  The record list is a
bounded deque (:data:`SHED_RECORD_CAP`): the ``shed`` counters stay
exact over arbitrarily long soaks while ``dropped_records`` counts how
many of the oldest records the cap discarded.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.sim import Event, PriorityStore, Simulator

__all__ = ["SHED_RECORD_CAP", "SimBroker"]

#: Upper bound on retained shed records (per broker).  Counters stay
#: exact; only the per-record attribution ring is capped.
SHED_RECORD_CAP = 256


class SimBroker:
    """Topic broker living inside a :class:`~repro.sim.Simulator`."""

    def __init__(
        self,
        sim: Simulator,
        latency: float = 0.002,
        limits: Optional[Dict[str, int]] = None,
    ):
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        for name, cap in (limits or {}).items():
            if cap < 1:
                raise ValueError(f"limit for {name!r} must be >= 1, got {cap}")
        self.sim = sim
        self.latency = latency
        #: Per-topic backlog capacity; absent topics are unbounded.
        self.limits: Dict[str, int] = dict(limits or {})
        self._topics: Dict[str, PriorityStore] = {}
        #: Per-topic in-flight delivery batch: messages published at the
        #: same instant share one agenda entry (they all arrive at
        #: ``now + latency`` anyway, in publish order).  Batches are
        #: ``(now, [[message, klass, tag, priority], ...])`` — entries
        #: are lists so ``reprioritize`` can retag them in flight.
        self._pending: Dict[str, Any] = {}
        self.published = 0
        self.consumed = 0
        #: Per-topic count of publishes shed at the capacity bound
        #: (including evictions — something was still dropped).
        self.shed: Dict[str, int] = {}
        #: ``(topic, tag, kind)`` per shed message; ``kind`` is
        #: ``"incoming"`` (the publish itself was dropped) or
        #: ``"evicted"`` (a queued lower-priority message made room).
        #: Bounded: the newest :data:`SHED_RECORD_CAP` records.
        self.shed_records: Deque[Tuple[str, Any, str]] = deque(
            maxlen=SHED_RECORD_CAP
        )
        #: How many shed records the cap discarded (oldest-first).
        self.dropped_records = 0

    def topic(self, name: str) -> PriorityStore:
        store = self._topics.get(name)
        if store is None:
            store = PriorityStore(self.sim)
            self._topics[name] = store
        return store

    # -- bounded-topic bookkeeping ----------------------------------------
    def _evict(self, topic_name: str, klass: int) -> bool:
        """Drop the newest message strictly more sheddable than ``klass``
        from the topic's backlog (in-flight batch first — it is the
        newest — then the queue).  Returns ``True`` if room was made."""
        best: Optional[int] = None
        pending = self._pending.get(topic_name)
        if pending is not None:
            for _msg, k, _tag, _prio in pending[1]:
                if k is not None and k > klass and (best is None or k > best):
                    best = k
        store = self._topics.get(topic_name)
        queued = store.snapshot() if store is not None else []
        for _seq, _msg, meta in queued:
            k = meta[0] if meta is not None else None
            if k is not None and k > klass and (best is None or k > best):
                best = k
        if best is None:
            return False
        if pending is not None:
            for i in range(len(pending[1]) - 1, -1, -1):
                if pending[1][i][1] == best:
                    tag = pending[1][i][2]
                    del pending[1][i]
                    self._count_shed(topic_name, tag, "evicted")
                    return True
        # Newest queued victim = the highest publish sequence among the
        # most-sheddable class (snapshot order is consumption order, not
        # arrival order).
        victim: Optional[Tuple[int, Any]] = None
        for seq, _msg, meta in queued:
            if meta is not None and meta[0] == best:
                if victim is None or seq > victim[0]:
                    victim = (seq, meta[1])
        if victim is None:
            return False
        store.remove(victim[0])
        self._count_shed(topic_name, victim[1], "evicted")
        return True

    def _count_shed(self, topic_name: str, tag: Any, kind: str) -> None:
        self.shed[topic_name] = self.shed.get(topic_name, 0) + 1
        if len(self.shed_records) == SHED_RECORD_CAP:
            self.dropped_records += 1
        self.shed_records.append((topic_name, tag, kind))

    def publish(
        self,
        topic_name: str,
        message: Any,
        klass: Optional[int] = None,
        tag: Any = None,
        priority: float = 0.0,
    ) -> bool:
        """Deliver ``message`` to the topic after the broker latency.

        ``priority`` ranks the message among queued ones (higher first,
        publish order within a priority).  Returns ``False`` (and counts
        a shed) when the topic is bounded and its backlog — queued plus
        in-flight deliveries — is at capacity and nothing more sheddable
        than ``klass`` could be evicted; the message is dropped and the
        publisher is expected to back off and retry.  A ``None`` message
        is refused with :class:`ValueError` before anything is counted.
        """
        if message is None:
            # ``None`` is what a cancelled consume delivers and what
            # ``consume_nowait`` returns for "empty": as a payload it
            # would silently end the consumer that reads it.
            raise ValueError(f"cannot publish None to {topic_name!r}")
        limit = self.limits.get(topic_name)
        if limit is not None:
            backlog = len(self.topic(topic_name))
            pending = self._pending.get(topic_name)
            if pending is not None:
                backlog += len(pending[1])
            if backlog >= limit and (
                klass is None or not self._evict(topic_name, klass)
            ):
                self._count_shed(topic_name, tag, "incoming")
                return False
        self.published += 1
        entry = [message, klass, tag, priority]
        now = self.sim.now
        if self.latency == 0:
            self._deliver(topic_name, (now, [entry]))
            return True
        pending = self._pending.get(topic_name)
        if pending is not None and pending[0] == now:
            pending[1].append(entry)
            return True
        batch = (now, [entry])
        self._pending[topic_name] = batch
        self.sim.schedule_call(self.latency, self._deliver, topic_name, batch)
        return True

    def _deliver(self, topic_name: str, batch) -> None:
        """A batch arrives: each message into the store in publish order,
        its shedding meta on the store entry itself (no parallel mirror
        to desync).  The one place a message enters a topic — a latency
        batch, a zero-latency publish and the chaos shim's delayed
        message (one-entry batches that never were ``_pending``)."""
        if self._pending.get(topic_name) is batch:
            del self._pending[topic_name]
        store = self._topics.get(topic_name)
        if store is None:
            store = self.topic(topic_name)
        for message, klass, tag, priority in batch[1]:
            store.put(
                message, priority,
                (klass, tag) if klass is not None or tag is not None else None,
            )

    def consume(self, topic_name: str) -> Event:
        """Event that fires with the next message of the topic."""
        self.consumed += 1
        store = self._topics.get(topic_name)
        if store is None:
            store = self.topic(topic_name)
        return store.get()

    def consume_nowait(self, topic_name: str) -> Any:
        """Pop the next queued message synchronously, or ``None``.

        Lets a consumer loop drain a burst of same-instant deliveries
        without one suspend/resume round-trip per message.
        """
        store = self._topics.get(topic_name)
        if store is None:
            store = self.topic(topic_name)
        message = store.pop_nowait()
        if message is not None:
            self.consumed += 1
        return message

    def reprioritize(self, topic_name: str, selector, priority: float) -> int:
        """Retag queued messages for which ``selector(message)`` is true
        with ``priority``; messages still in the in-flight latency batch
        are retagged too.  Returns the number of messages retagged."""
        count = self.topic(topic_name).reprioritize(
            lambda item, _meta: selector(item), priority
        )
        pending = self._pending.get(topic_name)
        if pending is not None:
            for entry in pending[1]:
                if entry[3] != priority and selector(entry[0]):
                    entry[3] = priority
                    count += 1
        return count

    def cancel(self, topic_name: str, event: Event) -> bool:
        """Abandon a pending consume (worker daemon shutting down)."""
        return self.topic(topic_name).cancel(event)

    def depth(self, topic_name: str) -> int:
        return len(self.topic(topic_name))
