"""Lossy/duplicating/delaying broker decorator (message-level chaos).

The paper assumes a reliable RabbitMQ; real brokers under partition or
failover lose messages, redeliver them, and reorder them.
:class:`ChaosBroker` wraps either transport — the simulated
:class:`~repro.mq.simbroker.SimBroker` or the threaded
:class:`~repro.mq.broker.Broker` — with a seeded fault band: each
published message draws one uniform variate and is *dropped*,
*duplicated*, *delayed*, or delivered normally.  The draw sequence comes
from an explicit ``random.Random(seed)``, so a simulated run's message
chaos is exactly reproducible.

Dropped dispatches are recovered by the master's dispatch-loss deadline
(``RetryPolicy.redispatch_lost``); dropped acks by the ordinary timeout;
duplicated messages are absorbed by the idempotent
:class:`~repro.dewe.state.WorkflowState` transitions.  That closed loop —
chaos here, recovery there — is what the chaos harness certifies.

A network partition is not a broker fault: it cuts one worker's link,
so the worker itself holds its acks and drops its heartbeats
(:meth:`~repro.dewe.worker.WorkerDaemon.begin_partition`, by the rules
the DES ``PullRun`` follows).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from math import inf
from typing import Any

__all__ = ["MessageChaos", "ChaosBroker"]


@dataclass(frozen=True)
class MessageChaos:
    """Fault band for published messages.

    One uniform draw per publish selects the outcome:
    ``[0, p_drop)`` drop, ``[p_drop, p_drop + p_duplicate)`` duplicate,
    next ``p_delay`` band delay by ``delay`` seconds, rest deliver
    normally.
    """

    p_drop: float = 0.0
    p_duplicate: float = 0.0
    p_delay: float = 0.0
    delay: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("p_drop", "p_duplicate", "p_delay"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.p_drop + self.p_duplicate + self.p_delay > 1.0 + 1e-12:
            raise ValueError("p_drop + p_duplicate + p_delay must be <= 1")
        if not 0.0 <= self.delay < inf:
            raise ValueError(f"delay must be finite and >= 0, got {self.delay!r}")


def _describe(topic_name: str, message: Any) -> str:
    """Compact, deterministic message label for fault traces."""
    job_id = getattr(message, "job_id", None)
    if job_id is not None:
        return f"{topic_name}:{job_id}"
    if isinstance(message, tuple):
        return f"{topic_name}:{message!r}"
    return f"{topic_name}:{type(message).__name__}"


class ChaosBroker:
    """A transport behind a seeded drop/duplicate/delay band.

    ``broker`` is a :class:`~repro.mq.simbroker.SimBroker` or a threaded
    :class:`~repro.mq.broker.Broker`; a delayed message goes through its
    ``publish_after``.  One lock serializes the draw, so a single
    publisher thread gets a reproducible outcome sequence.  ``trace``
    (simulated transports only) records each fault at ``sim.now``.  Only
    ``publish`` is this class's own: the other broker methods are the
    transport's bound methods, so a consume crosses no frame here.
    """

    _guarded_by_ = {
        "dropped": "_lock",
        "duplicated": "_lock",
        "delayed": "_lock",
        "_rng": "_lock",
    }

    def __init__(self, broker, chaos: MessageChaos, trace=None):
        self.broker = broker
        self.chaos = chaos
        self.trace = trace
        self._lock = threading.Lock()
        self._rng = random.Random(chaos.seed)
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        for name in ("consume", "consume_nowait", "cancel", "depth",
                     "reprioritize", "stats"):
            if hasattr(broker, name):
                setattr(self, name, getattr(broker, name))

    def chaos_stats(self) -> dict:
        with self._lock:
            return {
                "dropped": self.dropped,
                "duplicated": self.duplicated,
                "delayed": self.delayed,
            }

    def publish(
        self, topic_name: str, message: Any, priority: float = 0.0
    ) -> None:
        if message is None:
            # ``consume`` reads ``None`` as "empty".  Refused before the
            # draw: the drop and delay bands never reach the transport's
            # own refusal.
            raise ValueError(f"cannot publish None to {topic_name!r}")
        chaos = self.chaos
        fault = None
        with self._lock:
            u = self._rng.random()
            if u < chaos.p_drop:
                self.dropped += 1
                fault = "mq-drop"
            elif u < chaos.p_drop + chaos.p_duplicate:
                self.duplicated += 1
                fault = "mq-duplicate"
            elif u < chaos.p_drop + chaos.p_duplicate + chaos.p_delay:
                self.delayed += 1
                fault = "mq-delay"
        broker = self.broker
        if fault is None:
            broker.publish(topic_name, message, priority)
            return
        if self.trace is not None:
            self.trace.record(
                broker.sim.now, fault, detail=_describe(topic_name, message)
            )
        if fault == "mq-duplicate":
            broker.publish(topic_name, message, priority)
            broker.publish(topic_name, message, priority)
        elif fault == "mq-delay":
            broker.publish_after(chaos.delay, topic_name, message, priority)
        # A drop was accepted by the broker, then lost: not backpressure.
