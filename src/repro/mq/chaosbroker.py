"""Lossy/duplicating/delaying broker shims (message-level chaos).

The paper assumes a reliable RabbitMQ; real brokers under partition or
failover lose messages, redeliver them, and reorder them.  These shims
wrap the two broker implementations with a seeded fault band: each
published message draws one uniform variate and is *dropped*,
*duplicated*, *delayed*, or delivered normally.  The draw sequence comes
from an explicit ``random.Random(seed)``, so a simulated run's message
chaos is exactly reproducible.

Dropped dispatches are recovered by the master's dispatch-loss deadline
(``RetryPolicy.redispatch_lost``); dropped acks by the ordinary timeout;
duplicated messages are absorbed by the idempotent
:class:`~repro.dewe.state.WorkflowState` transitions.  That closed loop —
chaos here, recovery there — is what the chaos harness certifies.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from math import inf
from typing import Any, Optional, Tuple

from repro.mq.broker import Broker
from repro.mq.messages import TOPIC_ACK, TOPIC_HEARTBEAT
from repro.mq.simbroker import SimBroker

__all__ = ["MessageChaos", "ChaosSimBroker", "ChaosBroker"]


@dataclass(frozen=True)
class MessageChaos:
    """Fault band for published messages.

    One uniform draw per publish selects the outcome:
    ``[0, p_drop)`` drop, ``[p_drop, p_drop + p_duplicate)`` duplicate,
    next ``p_delay`` band delay by ``delay`` seconds, rest deliver
    normally.  ``topics`` restricts the chaos to the named topics
    (``None`` = all; submission topics are usually worth excluding so
    the scenario exercises recovery, not workflow loss).
    """

    p_drop: float = 0.0
    p_duplicate: float = 0.0
    p_delay: float = 0.0
    delay: float = 1.0
    seed: int = 0
    topics: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        for name in ("p_drop", "p_duplicate", "p_delay"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.p_drop + self.p_duplicate + self.p_delay > 1.0 + 1e-12:
            raise ValueError("p_drop + p_duplicate + p_delay must be <= 1")
        if not 0.0 <= self.delay < inf:
            raise ValueError(f"delay must be finite and >= 0, got {self.delay!r}")

    def applies_to(self, topic_name: str) -> bool:
        return self.topics is None or topic_name in self.topics


def _describe(topic_name: str, message: Any) -> str:
    """Compact, deterministic message label for fault traces."""
    job_id = getattr(message, "job_id", None)
    if job_id is not None:
        return f"{topic_name}:{job_id}"
    if isinstance(message, tuple):
        return f"{topic_name}:{message!r}"
    return f"{topic_name}:{type(message).__name__}"


class ChaosSimBroker(SimBroker):
    """:class:`SimBroker` with a seeded drop/duplicate/delay band."""

    def __init__(
        self,
        sim,
        chaos: MessageChaos,
        latency: float = 0.002,
        trace=None,
    ):
        super().__init__(sim, latency)
        self.chaos = chaos
        self.trace = trace
        self._rng = random.Random(chaos.seed)
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0

    def stats(self) -> dict:
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
        }

    def _record(self, kind: str, topic_name: str, message: Any) -> None:
        if self.trace is not None:
            self.trace.record(
                self.sim.now, kind, detail=_describe(topic_name, message)
            )

    def publish(
        self, topic_name: str, message: Any, priority: float = 0.0
    ) -> bool:
        # True on every path, for the reason SimBroker.publish gives.
        chaos = self.chaos
        if message is None:
            # Refused like SimBroker.publish does, before the draw: the
            # delayed band below bypasses it.
            raise ValueError(f"cannot publish None to {topic_name!r}")
        if not chaos.applies_to(topic_name):
            return super().publish(topic_name, message, priority=priority)
        u = self._rng.random()
        if u < chaos.p_drop:
            self.dropped += 1
            self._record("mq-drop", topic_name, message)
            return True  # accepted by the broker, then lost — not backpressure
        if u < chaos.p_drop + chaos.p_duplicate:
            self.duplicated += 1
            self._record("mq-duplicate", topic_name, message)
            super().publish(topic_name, message, priority=priority)
            return super().publish(topic_name, message, priority=priority)
        if u < chaos.p_drop + chaos.p_duplicate + chaos.p_delay:
            self.delayed += 1
            self._record("mq-delay", topic_name, message)
            self.published += 1
            # Its own one-entry batch, so a delayed message keeps its
            # priority.
            self.sim.schedule_call(
                self.latency + chaos.delay, self._deliver, topic_name,
                (self.sim.now, [[message, priority]]),
            )
            return True
        return super().publish(topic_name, message, priority=priority)


class ChaosBroker(Broker):
    """Thread-safe :class:`Broker` with the same seeded fault band.

    Delayed messages are re-published from a ``threading.Timer``; the
    draw order is serialized under a lock, so with a single publisher
    thread (the usual master + one worker topology of the tests) the
    outcome sequence is reproducible.

    Partition shim: :meth:`begin_partition` cuts named workers off the
    control plane — their publishes to the partitioned topics (by
    default the uplink: acks and heartbeats, i.e. the threaded shim
    realizes the ``to-master`` direction of
    :class:`~repro.faults.models.NetworkPartitionModel`; cutting the
    dispatch downlink would need per-worker queues the shared
    work-queue topic model doesn't have) are *held* in publish order
    instead of delivered.  :meth:`heal_partition` releases the held
    messages back through the ordinary chaos band, preserving their
    order, which is what lets tests exercise duplicate-ack idempotency
    and redelivery ordering across a heal.
    """

    _guarded_by_ = {
        "dropped": "_rng_lock",
        "duplicated": "_rng_lock",
        "delayed": "_rng_lock",
        "_rng": "_rng_lock",
        "_partitioned": "_partition_lock",
        "_held": "_partition_lock",
        "held": "_partition_lock",
        "flushed": "_partition_lock",
    }

    #: Topics cut by a partition unless the caller names others: the
    #: worker uplink (job acks and heartbeat renewals).
    PARTITION_TOPICS: Tuple[str, ...] = (TOPIC_ACK, TOPIC_HEARTBEAT)

    def __init__(self, chaos: MessageChaos):
        super().__init__()
        self.chaos = chaos
        self._rng = random.Random(chaos.seed)
        self._rng_lock = threading.Lock()
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self._partition_lock = threading.Lock()
        #: worker name -> tuple of topics cut for it.
        self._partitioned: dict = {}
        #: Held (topic, message, priority) triples in publish order.
        self._held: list = []
        self.held = 0
        self.flushed = 0

    def chaos_stats(self) -> dict:
        with self._rng_lock:
            stats = {
                "dropped": self.dropped,
                "duplicated": self.duplicated,
                "delayed": self.delayed,
            }
        with self._partition_lock:
            stats["held"] = self.held
            stats["flushed"] = self.flushed
        return stats

    # -- partition shim --------------------------------------------------
    def begin_partition(
        self, workers, topics: Optional[Tuple[str, ...]] = None
    ) -> None:
        """Cut ``workers`` (names or one name) off ``topics``."""
        if isinstance(workers, str):
            workers = (workers,)
        cut = tuple(topics) if topics is not None else self.PARTITION_TOPICS
        with self._partition_lock:
            for worker in workers:
                self._partitioned[worker] = cut

    def heal_partition(self, workers=None) -> int:
        """Heal ``workers`` (default: all); redeliver their held messages.

        Held messages re-enter through the normal chaos band in their
        original publish order — a healed partition looks to the master
        like a burst of late, possibly duplicated traffic, exactly the
        at-least-once story the state machine must absorb.  Returns the
        number of messages released.
        """
        if isinstance(workers, str):
            workers = (workers,)
        with self._partition_lock:
            if workers is None:
                healed = set(self._partitioned)
                self._partitioned.clear()
            else:
                healed = set()
                for worker in workers:
                    if self._partitioned.pop(worker, None) is not None:
                        healed.add(worker)
            flush = []
            kept = []
            for topic_name, message, priority in self._held:
                if getattr(message, "worker", None) in healed:
                    flush.append((topic_name, message, priority))
                else:
                    kept.append((topic_name, message, priority))
            self._held = kept
            self.flushed += len(flush)
        # Re-publish outside the lock (the chaos band takes its own).
        for topic_name, message, priority in flush:
            self.publish(topic_name, message, priority=priority)
        return len(flush)

    def _hold_if_partitioned(
        self, topic_name: str, message: Any, priority: float
    ) -> bool:
        worker = getattr(message, "worker", None)
        if worker is None:
            return False
        with self._partition_lock:
            cut = self._partitioned.get(worker)
            if cut is None or topic_name not in cut:
                return False
            self._held.append((topic_name, message, priority))
            self.held += 1
            return True

    def publish(
        self, topic_name: str, message: Any, priority: float = 0.0
    ) -> None:
        chaos = self.chaos
        if message is None:
            # Refused like Topic.publish does, before a hold or a draw:
            # the drop band below never reaches the topic.
            raise ValueError(f"cannot publish None to {topic_name!r}")
        if self._hold_if_partitioned(topic_name, message, priority):
            return  # in flight until the partition heals
        if not chaos.applies_to(topic_name):
            super().publish(topic_name, message, priority=priority)
            return
        with self._rng_lock:
            u = self._rng.random()
            if u < chaos.p_drop:
                self.dropped += 1
                outcome = "drop"
            elif u < chaos.p_drop + chaos.p_duplicate:
                self.duplicated += 1
                outcome = "duplicate"
            elif u < chaos.p_drop + chaos.p_duplicate + chaos.p_delay:
                self.delayed += 1
                outcome = "delay"
            else:
                outcome = "deliver"
        if outcome == "drop":
            return  # accepted, then lost
        if outcome == "duplicate":
            super().publish(topic_name, message, priority=priority)  # + below
        if outcome == "delay":
            timer = threading.Timer(
                chaos.delay,
                super().publish,
                args=(topic_name, message),
                kwargs={"priority": priority},
            )
            timer.daemon = True
            timer.start()
            return
        super().publish(topic_name, message, priority=priority)
