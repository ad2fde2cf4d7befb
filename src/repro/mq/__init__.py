"""Message-queue substrate (the paper's RabbitMQ).

DEWE v2 coordinates exclusively through three topics (paper §III.C):

* ``workflow-submission`` — submission application -> master daemon;
* ``job-dispatching`` — master daemon -> worker daemons (work queue);
* ``job-acknowledgment`` — worker daemons -> master daemon.

:class:`~repro.mq.broker.Broker` is a thread-safe in-process broker with
RabbitMQ-like work-queue semantics (a consumed message is invisible to
other consumers; redelivery is the master's timeout responsibility).
:class:`~repro.mq.simbroker.SimBroker` offers the same topics inside the
discrete-event simulator, with configurable publish latency.
:class:`~repro.mq.chaosbroker.ChaosBroker` / ``ChaosSimBroker`` wrap them
with a seeded :class:`~repro.mq.chaosbroker.MessageChaos` band that
drops, duplicates or delays published messages.

All five brokers (those four and the TCP client
:class:`~repro.mq.tcpbroker.RemoteBroker`) publish with one signature,
``publish(topic_name, message, priority=0.0)``, into unbounded topics:
backpressure is the admission gate and the service ladder reading
``depth``, never a refused or evicted message.
"""

from repro.mq.broker import Broker, Topic
from repro.mq.chaosbroker import ChaosBroker, ChaosSimBroker, MessageChaos
from repro.mq.tcpbroker import BrokerServer, RemoteBroker
from repro.mq.messages import (
    TOPIC_ACK,
    TOPIC_DISPATCH,
    TOPIC_HEARTBEAT,
    TOPIC_SUBMIT,
    AckKind,
    JobAck,
    JobDispatch,
    PriorityUpdate,
    WorkerHeartbeat,
    WorkflowSubmission,
)
from repro.mq.priority import PRIORITY_BAND, RepriorityPolicy, base_band, rank_for_sla
from repro.mq.simbroker import SimBroker

__all__ = [
    "AckKind",
    "Broker",
    "BrokerServer",
    "ChaosBroker",
    "ChaosSimBroker",
    "MessageChaos",
    "PRIORITY_BAND",
    "PriorityUpdate",
    "RemoteBroker",
    "RepriorityPolicy",
    "JobAck",
    "JobDispatch",
    "SimBroker",
    "TOPIC_ACK",
    "TOPIC_DISPATCH",
    "TOPIC_HEARTBEAT",
    "TOPIC_SUBMIT",
    "Topic",
    "WorkerHeartbeat",
    "WorkflowSubmission",
    "base_band",
    "rank_for_sla",
]
