"""Thread-safe in-process topic broker (the RabbitMQ stand-in).

Work-queue semantics per topic: ``publish`` appends, ``consume`` pops the
best-ranked message and makes it invisible to every other consumer —
exactly the check-out behaviour DEWE v2 relies on ("the job is no longer
visible to other worker nodes", paper §III.C).  There is no broker-side
ack or redelivery: lost jobs are recovered by the master daemon's
timeout mechanism, as in the paper.

Topics are priority queues: ``publish(..., priority=...)`` ranks a
message above the default band, and ``reprioritize`` retags
already-queued messages in place so the master can re-rank still-queued
jobs as completions land.  The order is
:class:`repro.sim.resources.PriorityQueue`'s, the one the simulated
broker's topics use too: higher first, publish order within a priority.

Race detection: each message's envelope number is the per-topic publish
sequence the queue hands back, assigned at publish time under the topic
condition.  The sequence number lets the happens-before detector pair
each ``send`` with exactly the ``recv`` that took it — even with
competing consumers — so "the producer's writes are visible to the
message's consumer" becomes a provable edge instead of an assumption.
Queue entries never escape: ``consume`` unwraps before returning.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

import repro.analysis.concurrency.recorder as _conc
from repro.mq.messages import JobDispatch
from repro.sim.resources import PriorityQueue

__all__ = ["Topic", "Broker"]


class Topic:
    """One named priority message stream.

    ``_cond`` (a condition over a plain lock) guards the queue and the
    counters and makes ``seq`` assignment atomic with the enqueue, so
    envelope numbers are in arrival order (the detector's send/recv
    pairing relies on that).  It is deliberately built on a *plain* lock
    even under ``REPRO_RACEDETECT``: tracing it would add
    publisher→consumer happens-before edges through the counters and
    mask real races that only the message itself should order.
    """

    _guarded_by_ = {
        "published": "_cond",
        "consumed": "_cond",
        "_queue": "_cond",
    }

    def __init__(self, name: str):
        self.name = name
        self._queue = PriorityQueue()
        self.published = 0
        self.consumed = 0
        self._cond = threading.Condition(threading.Lock())
        rec = _conc.active()
        self._key = (
            rec.new_key("topic", name) if rec is not None
            else ("topic", name, 0)
        )

    def publish(self, message: Any, priority: float = 0.0) -> None:
        if message is None:
            # ``consume`` returns ``None`` for "empty": as a payload it
            # would be counted, then read as no message at all.
            raise ValueError(f"cannot publish None to {self.name!r}")
        with self._cond:
            # Enqueue under the condition: atomicity keeps envelope
            # numbers in arrival order, and the notify hands the message
            # to at most one blocked consumer.
            seq = self._queue.push(message, priority)
            self.published += 1
            rec = _conc.active()
            if rec is not None:
                rec.on_send(self._key, seq)
            self._cond.notify()

    def consume(self, timeout: Optional[float] = None) -> Optional[Any]:
        """Pop the best-ranked message; ``None`` when empty after
        ``timeout``.

        ``timeout=None`` polls without blocking (returns immediately).
        """
        with self._cond:
            if not self._queue:
                if timeout is None:
                    return None
                self._cond.wait_for(lambda: bool(self._queue), timeout)
                if not self._queue:
                    return None
            _neg_priority, seq, message = self._queue.pop()
            self.consumed += 1
            rec = _conc.active()
            if rec is not None:
                rec.on_recv(self._key, seq)
        return message

    def reprioritize(self, selector, priority: float) -> int:
        """Retag every queued message for which ``selector(message)`` is
        true with ``priority``, preserving arrival order within the new
        priority level.  Atomic against concurrent publish/consume: a
        racing consumer sees either the old or the new ranking, never a
        torn heap.  Returns the number of messages retagged."""
        with self._cond:
            return self._queue.retag(selector, priority)

    def snapshot(self) -> Dict[str, int]:
        """Stats of this topic, read atomically under its own lock."""
        with self._cond:
            return {
                "published": self.published,
                "consumed": self.consumed,
                "depth": len(self._queue),
            }

    @property
    def depth(self) -> int:
        """Number of queued messages."""
        with self._cond:
            return len(self._queue)


class Broker:
    """A set of named topics; topics are created on first use."""

    _guarded_by_ = {"_topics": "_lock"}

    def __init__(self) -> None:
        self._topics: Dict[str, Topic] = {}
        self._lock = threading.Lock()

    def topic(self, name: str) -> Topic:
        with self._lock:
            topic = self._topics.get(name)
            if topic is None:
                topic = Topic(name)
                self._topics[name] = topic
            return topic

    def publish(
        self, topic_name: str, message: Any, priority: float = 0.0
    ) -> None:
        self.topic(topic_name).publish(message, priority=priority)

    def consume(self, topic_name: str, timeout: Optional[float] = None) -> Optional[Any]:
        return self.topic(topic_name).consume(timeout)

    def publish_after(
        self, delay: float, topic_name: str, message: Any, priority: float = 0.0
    ) -> None:
        """:meth:`publish` from a daemon timer ``delay`` seconds from now
        (the chaos decorator's delay band, which refuses ``None`` first)."""
        timer = threading.Timer(
            delay, self.publish, args=(topic_name, message, priority)
        )
        timer.daemon = True
        timer.start()

    def reprioritize(
        self, topic_name: str, workflow: str, job_id: str, priority: float
    ) -> int:
        """Retag the queued :class:`JobDispatch` of ``job_id`` of
        ``workflow`` (see :meth:`Topic.reprioritize`)."""
        return self.topic(topic_name).reprioritize(
            lambda m: isinstance(m, JobDispatch)
            and m.workflow_name == workflow and m.job_id == job_id,
            priority,
        )

    def depth(self, topic_name: str) -> int:
        return self.topic(topic_name).depth

    def stats(self) -> Dict[str, Dict[str, int]]:
        # Snapshot the topic table under the broker lock, then read each
        # topic under its *own* lock — the per-topic counters are guarded
        # by the topic condition, not by the broker lock (CL009).
        with self._lock:
            topics = list(self._topics.items())
        return {name: topic.snapshot() for name, topic in topics}
