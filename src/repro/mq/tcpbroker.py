"""TCP broker: DEWE v2 across OS processes.

The in-process :class:`~repro.mq.broker.Broker` serves threads; this
module serves *processes* (and, in principle, hosts) the way the paper's
RabbitMQ did.  A :class:`BrokerServer` wraps a Broker behind a newline-
delimited JSON protocol; :class:`RemoteBroker` is a drop-in client with
the same ``publish``/``consume`` interface, so the unchanged
:class:`~repro.dewe.master.MasterDaemon` and
:class:`~repro.dewe.worker.WorkerDaemon` run against it — the worker
daemon's only knowledge of the system really is "the address of the
message queue" (paper §III.D).

Protocol (one JSON object per line)::

    -> {"op": "publish", "topic": "...", "message": {...}, "priority": 0.0}
    <- {"ok": true}
    -> {"op": "consume", "topic": "...", "timeout": 0.05}
    <- {"ok": true, "message": {...} | null}
    -> {"op": "reprioritize", "topic": "...", "workflow": "...",
        "job_id": "...", "priority": 5.0}
    <- {"ok": true, "count": 1}
    -> {"op": "depth", "topic": "..."}
    <- {"ok": true, "depth": 3}

Messages are the codec's JSON forms of the four DEWE message types.
The server decodes on publish and encodes on consume, so its Broker
holds what an in-process one holds; a request that does not decode, or
whose priority is not a finite number, gets ``ok: false`` before
anything is enqueued.  Job actions survive the wire only as argv lists
(subprocess jobs) — Python callables cannot cross processes, matching
reality: remote workers run binaries from the shared file system.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
from dataclasses import fields
from operator import attrgetter
from typing import Any, Optional, Tuple

from repro.mq.broker import Broker
from repro.mq.messages import (
    AckKind,
    JobAck,
    JobDispatch,
    WorkerHeartbeat,
    WorkflowSubmission,
)
from repro.workflow.dag import Job
from repro.workflow.serialize import workflow_from_dict, workflow_to_dict

__all__ = ["encode_message", "decode_message", "BrokerServer", "RemoteBroker"]


# ---------------------------------------------------------------------------
# Message codec
# ---------------------------------------------------------------------------


#: The :class:`Job` arguments a dispatch carries: all a stateless worker
#: needs to run the job.
_JOB_FIELDS = ("id", "task_type", "runtime", "threads", "timeout", "action")


def _encode_job(job: Optional[Job]) -> Optional[dict]:
    if job is None:
        return None
    action = job.action
    if action is not None and not isinstance(action, (list, tuple)):
        raise TypeError(
            f"job {job.id}: only argv-list actions can cross the TCP broker, "
            f"got {type(action).__name__}"
        )
    return {name: getattr(job, name) for name in _JOB_FIELDS}


def _decode_job(data: Optional[dict]) -> Optional[Job]:
    if data is None:
        return None
    return Job(**{name: data[name] for name in _JOB_FIELDS if name in data})


#: Wire tag of each message type.
_TAGS = {
    WorkflowSubmission: "submission",
    JobDispatch: "dispatch",
    JobAck: "ack",
    WorkerHeartbeat: "heartbeat",
}
_TYPES = {tag: cls for cls, tag in _TAGS.items()}
#: Field name -> (to the wire, from the wire); other fields are JSON
#: values as they stand.
_CONVERT = {
    "workflow": (workflow_to_dict, workflow_from_dict),
    "job": (_encode_job, _decode_job),
    "kind": (attrgetter("value"), AckKind),
}


def encode_message(message: Any) -> dict:
    """Dataclass message -> JSON-able dict with a type tag."""
    tag = _TAGS.get(type(message))
    if tag is None:
        raise TypeError(f"cannot encode message of type {type(message).__name__}")
    data = {"type": tag}
    for f in fields(message):
        value = getattr(message, f.name)
        convert = _CONVERT.get(f.name)
        data[f.name] = value if convert is None else convert[0](value)
    return data


def decode_message(data: dict) -> Any:
    """Inverse of :func:`encode_message`; an absent field takes its
    default, and a missing required one raises."""
    cls = _TYPES.get(data.get("type"))
    if cls is None:
        raise ValueError(f"unknown message type: {data.get('type')!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name in data:
            convert = _CONVERT.get(f.name)
            value = data[f.name]
            kwargs[f.name] = value if convert is None else convert[1](value)
    return cls(**kwargs)


def _priority(request: dict) -> float:
    """The request's priority, refused unless a finite number: NaN
    compares false both ways and would jump the queue."""
    priority = request.get("priority", 0.0)
    if type(priority) not in (int, float) or not math.isfinite(priority):
        raise ValueError(f"priority must be a finite number, got {priority!r}")
    return priority


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        broker: Broker = self.server.broker  # type: ignore[attr-defined]
        try:
            for line in self.rfile:
                try:
                    request = json.loads(line)
                    response = self._execute(broker, request)
                except Exception as exc:  # noqa: BLE001 - protocol error path
                    response = {"ok": False, "error": repr(exc)}
                self.wfile.write((json.dumps(response) + "\n").encode())
                self.wfile.flush()
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            # A client (e.g. a terminated worker process) dropped the
            # connection mid-request; nothing to clean up server-side.
            pass

    @staticmethod
    def _execute(broker: Broker, request: dict) -> dict:
        op = request.get("op")
        if op == "publish":
            message = decode_message(request["message"])
            broker.publish(request["topic"], message, _priority(request))
            return {"ok": True}
        if op == "consume":
            message = broker.consume(request["topic"], request.get("timeout"))
            return {
                "ok": True,
                "message": None if message is None else encode_message(message),
            }
        if op == "reprioritize":
            count = broker.reprioritize(
                request["topic"], request["workflow"], request["job_id"],
                _priority(request),
            )
            return {"ok": True, "count": count}
        if op == "depth":
            return {"ok": True, "depth": broker.depth(request["topic"])}
        if op == "stats":
            return {"ok": True, "stats": broker.stats()}
        return {"ok": False, "error": f"unknown op {op!r}"}


class BrokerServer:
    """Serves a :class:`Broker` over TCP; start()/stop() lifecycle."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.broker = Broker()
        self._server = socketserver.ThreadingTCPServer(
            (host, port), _Handler, bind_and_activate=True
        )
        self._server.daemon_threads = True
        self._server.broker = self.broker  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address  # type: ignore[return-value]

    def start(self) -> "BrokerServer":
        if self._thread is not None:
            raise RuntimeError("broker server already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="broker-server", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "BrokerServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class RemoteBroker:
    """Drop-in ``Broker`` client speaking the TCP protocol.

    Thread-safe (one request at a time per client); daemons that poll
    concurrently should each hold their own RemoteBroker, exactly like
    separate AMQP connections.  ``_lock`` serializes whole request/
    response round-trips, so it is deliberately held across the blocking
    ``readline`` — interleaving two requests on one socket would corrupt
    the protocol framing.
    """

    _guarded_by_ = {"_sock": "_lock", "_file": "_lock"}

    def __init__(self, host: str, port: int, connect_timeout: float = 5.0):
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()

    def close(self) -> None:
        # Under the request lock: closing mid-round-trip from another
        # thread would race _call's use of the socket and file.
        with self._lock:
            try:
                self._file.close()
            finally:
                self._sock.close()

    def __enter__(self) -> "RemoteBroker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, request: dict, timeout: Optional[float] = None) -> dict:
        with self._lock:
            # Server-side blocking consume needs a matching socket timeout.
            self._sock.settimeout((timeout or 0.0) + 10.0)
            self._file.write((json.dumps(request) + "\n").encode())
            self._file.flush()
            line = self._file.readline()
        if not line:
            raise ConnectionError("broker server closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise RuntimeError(f"broker error: {response.get('error')}")
        return response

    # -- Broker interface ----------------------------------------------------
    def publish(
        self, topic_name: str, message: Any, priority: float = 0.0
    ) -> None:
        self._call(
            {
                "op": "publish",
                "topic": topic_name,
                "message": encode_message(message),
                "priority": priority,
            }
        )

    def reprioritize(
        self, topic_name: str, workflow: str, job_id: str, priority: float
    ) -> int:
        """Retag a queued dispatch server-side; returns the count retagged."""
        return self._call({
            "op": "reprioritize", "topic": topic_name, "workflow": workflow,
            "job_id": job_id, "priority": priority,
        })["count"]

    def consume(self, topic_name: str, timeout: Optional[float] = None) -> Optional[Any]:
        response = self._call(
            {"op": "consume", "topic": topic_name, "timeout": timeout},
            timeout=timeout,
        )
        message = response.get("message")
        return decode_message(message) if message is not None else None

    def depth(self, topic_name: str) -> int:
        return self._call({"op": "depth", "topic": topic_name})["depth"]

    def stats(self) -> dict:
        return self._call({"op": "stats"})["stats"]
