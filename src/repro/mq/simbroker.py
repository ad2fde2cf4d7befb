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

Topics are unbounded, like the paper's RabbitMQ work queues (§III.C):
a publish is never refused or shed.  Backpressure lives in front of the
broker — the master's :class:`~repro.liveness.admission.AdmissionControl`
gate and, for multi-tenant runs, the
:class:`~repro.liveness.policy.ServiceAdmissionPolicy` ladder, both
reading :meth:`SimBroker.depth`.
"""

from __future__ import annotations

from math import inf
from typing import Any, Dict

from repro.sim import Event, PriorityStore, Simulator

__all__ = ["SimBroker"]


class SimBroker:
    """Topic broker living inside a :class:`~repro.sim.Simulator`."""

    def __init__(self, sim: Simulator, latency: float = 0.002):
        if not 0.0 <= latency < inf:
            raise ValueError(f"latency must be finite and >= 0, got {latency!r}")
        self.sim = sim
        self.latency = latency
        self._topics: Dict[str, PriorityStore] = {}
        #: Per-topic in-flight delivery batch: messages published at the
        #: same instant share one agenda entry (they all arrive at
        #: ``now + latency`` anyway, in publish order).  Batches are
        #: ``(now, [[message, priority], ...])`` — entries are lists so
        #: ``reprioritize`` can retag them in flight.
        self._pending: Dict[str, Any] = {}

    def topic(self, name: str) -> PriorityStore:
        store = self._topics.get(name)
        if store is None:
            store = PriorityStore(self.sim)
            self._topics[name] = store
        return store

    def publish(
        self, topic_name: str, message: Any, priority: float = 0.0
    ) -> bool:
        """Deliver ``message`` to the topic after the broker latency.

        ``priority`` ranks the message among queued ones (higher first,
        publish order within a priority).  A ``None`` message or a
        non-finite priority is refused with :class:`ValueError` before
        anything is batched or scheduled.
        """
        if message is None:
            # ``None`` is what a cancelled consume delivers and what
            # ``consume_nowait`` returns for "empty": as a payload it
            # would silently end the consumer that reads it.
            raise ValueError(f"cannot publish None to {topic_name!r}")
        if priority and not -inf < priority < inf:
            # The store would refuse it only at delivery, inside the run.
            raise ValueError(f"priority must be finite, got {priority!r}")
        entry = [message, priority]
        now = self.sim.now
        # Every path returns True although no caller reads it: topics are
        # unbounded, and bench/spans.py counts a falsy return as
        # ``mq.shed``.
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

    def publish_after(
        self, delay: float, topic_name: str, message: Any, priority: float = 0.0
    ) -> None:
        """:meth:`publish`, ``delay`` seconds late (the chaos decorator's
        delay band, which refuses ``None``): a one-entry batch, never
        ``_pending``, so no reprioritize reaches it in flight."""
        if priority and not -inf < priority < inf:
            raise ValueError(f"priority must be finite, got {priority!r}")
        self.sim.schedule_call(
            self.latency + delay, self._deliver, topic_name,
            (self.sim.now, [[message, priority]]),
        )

    def _deliver(self, topic_name: str, batch) -> None:
        """A batch arrives: each message into the store in publish order.
        The one place a message enters a topic — a latency batch, a
        zero-latency publish and a :meth:`publish_after`."""
        if self._pending.get(topic_name) is batch:
            del self._pending[topic_name]
        store = self._topics.get(topic_name)
        if store is None:
            store = self.topic(topic_name)
        for message, priority in batch[1]:
            store.put(message, priority)

    def consume(self, topic_name: str) -> Event:
        """Event that fires with the next message of the topic."""
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
        return store.pop_nowait()

    def reprioritize(
        self, topic_name: str, workflow: str, job_id: str, priority: float
    ) -> int:
        """Retag the queued dispatch ``(workflow, job_id, attempt)`` with
        ``priority``; one still in the in-flight latency batch is retagged
        too.  Returns the number of messages retagged."""

        def match(message) -> bool:
            return message[0] == workflow and message[1] == job_id

        count = self.topic(topic_name).reprioritize(match, priority)
        pending = self._pending.get(topic_name)
        if pending is not None:
            for entry in pending[1]:
                if entry[1] != priority and match(entry[0]):
                    entry[1] = priority
                    count += 1
        return count

    def cancel(self, topic_name: str, event: Event) -> bool:
        """Abandon a pending consume (worker daemon shutting down)."""
        return self.topic(topic_name).cancel(event)

    def depth(self, topic_name: str) -> int:
        return len(self.topic(topic_name))
