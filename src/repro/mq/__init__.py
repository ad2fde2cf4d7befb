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
:class:`~repro.mq.chaosbroker.ChaosBroker` wraps either of them with a
seeded :class:`~repro.mq.chaosbroker.MessageChaos` band that drops,
duplicates or delays published messages.

All four brokers (those three and the TCP client
:class:`~repro.mq.tcpbroker.RemoteBroker`) share two signatures,
``publish(topic_name, message, priority=0.0)`` into unbounded topics and
``reprioritize(topic_name, workflow, job_id, priority)``: backpressure
is the admission gate and the service ladder reading ``depth``, never a
refused or evicted message.
"""

from repro import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.mq.broker": "Broker Topic",
    "repro.mq.chaosbroker": "ChaosBroker MessageChaos",
    "repro.mq.tcpbroker": "BrokerServer RemoteBroker",
    "repro.mq.messages": "TOPIC_ACK TOPIC_DISPATCH TOPIC_HEARTBEAT TOPIC_SUBMIT "
                         "AckKind JobAck JobDispatch WorkerHeartbeat "
                         "WorkflowSubmission",
    "repro.mq.priority": "PRIORITY_BAND RepriorityPolicy base_band",
    "repro.mq.simbroker": "SimBroker",
})
