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

    -> {"op": "publish", "topic": "...", "message": {...}}
    <- {"ok": true}
    -> {"op": "consume", "topic": "...", "timeout": 0.05}
    <- {"ok": true, "message": {...} | null}
    -> {"op": "depth", "topic": "..."}
    <- {"ok": true, "depth": 3}

Messages are the codecs' JSON forms of the three DEWE message types.
Job actions survive the wire only as argv lists (subprocess jobs) —
Python callables cannot cross processes, matching reality: remote
workers run binaries from the shared file system, not closures.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Any, Optional, Tuple

from repro.mq.broker import Broker
from repro.mq.messages import (
    AckKind,
    JobAck,
    JobDispatch,
    PriorityUpdate,
    WorkerHeartbeat,
    WorkflowSubmission,
)
from repro.workflow.dag import Job
from repro.workflow.serialize import workflow_from_dict, workflow_to_dict

__all__ = ["encode_message", "decode_message", "BrokerServer", "RemoteBroker"]


# ---------------------------------------------------------------------------
# Message codecs
# ---------------------------------------------------------------------------


def _encode_job(job: Job) -> dict:
    action = job.action
    if action is not None and not isinstance(action, (list, tuple)):
        raise TypeError(
            f"job {job.id}: only argv-list actions can cross the TCP broker, "
            f"got {type(action).__name__}"
        )
    return {
        "id": job.id,
        "task_type": job.task_type,
        "runtime": job.runtime,
        "threads": job.threads,
        "timeout": job.timeout,
        "action": list(action) if action is not None else None,
    }


def _decode_job(data: dict) -> Job:
    return Job(
        data["id"],
        data["task_type"],
        runtime=data.get("runtime", 0.0),
        threads=data.get("threads", 1),
        timeout=data.get("timeout"),
        action=data.get("action"),
    )


def encode_message(message: Any) -> dict:
    """Dataclass message -> JSON-able dict with a type tag."""
    if isinstance(message, WorkflowSubmission):
        return {
            "type": "submission",
            "workflow": workflow_to_dict(message.workflow),
            "folder": message.folder,
        }
    if isinstance(message, JobDispatch):
        return {
            "type": "dispatch",
            "workflow_name": message.workflow_name,
            "job_id": message.job_id,
            "attempt": message.attempt,
            "job": _encode_job(message.job) if message.job is not None else None,
        }
    if isinstance(message, JobAck):
        return {
            "type": "ack",
            "workflow_name": message.workflow_name,
            "job_id": message.job_id,
            "kind": message.kind.value,
            "worker": message.worker,
            "attempt": message.attempt,
            "error": message.error,
        }
    if isinstance(message, WorkerHeartbeat):
        return {
            "type": "heartbeat",
            "worker": message.worker,
            "epoch": message.epoch,
            "seq": message.seq,
        }
    if isinstance(message, PriorityUpdate):
        return {
            "type": "priority",
            "topic": message.topic,
            "workflow_name": message.workflow_name,
            "job_id": message.job_id,
            "priority": message.priority,
        }
    raise TypeError(f"cannot encode message of type {type(message).__name__}")


def decode_message(data: dict) -> Any:
    """Inverse of :func:`encode_message`."""
    kind = data.get("type")
    if kind == "submission":
        return WorkflowSubmission(
            workflow=workflow_from_dict(data["workflow"]), folder=data.get("folder", "")
        )
    if kind == "dispatch":
        job = data.get("job")
        return JobDispatch(
            workflow_name=data["workflow_name"],
            job_id=data["job_id"],
            attempt=data.get("attempt", 1),
            job=_decode_job(job) if job is not None else None,
        )
    if kind == "ack":
        return JobAck(
            workflow_name=data["workflow_name"],
            job_id=data["job_id"],
            kind=AckKind(data["kind"]),
            worker=data.get("worker", ""),
            attempt=data.get("attempt", 1),
            error=data.get("error"),
        )
    if kind == "heartbeat":
        return WorkerHeartbeat(
            worker=data["worker"],
            epoch=data.get("epoch", 0),
            seq=data.get("seq", 0),
        )
    if kind == "priority":
        return PriorityUpdate(
            topic=data["topic"],
            workflow_name=data.get("workflow_name", ""),
            job_id=data.get("job_id", ""),
            priority=data.get("priority", 0.0),
        )
    raise ValueError(f"unknown message type: {kind!r}")


def _selector_for(update: PriorityUpdate):
    """Message predicate for a server-side reprioritize.

    Queued messages live server-side in their encoded (dict) form; empty
    ``workflow_name``/``job_id`` fields are wildcards.
    """

    def selector(message: Any) -> bool:
        if not isinstance(message, dict):
            return False
        if update.workflow_name and (
            message.get("workflow_name") != update.workflow_name
        ):
            return False
        if update.job_id and message.get("job_id") != update.job_id:
            return False
        return True

    return selector


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
            broker.publish(
                request["topic"],
                request["message"],
                priority=request.get("priority", 0.0),
            )
            return {"ok": True}
        if op == "consume":
            timeout = request.get("timeout")
            message = broker.consume(request["topic"], timeout=timeout)
            return {"ok": True, "message": message}
        if op == "reprioritize":
            update = decode_message(request["update"])
            count = broker.reprioritize(
                update.topic, _selector_for(update), update.priority
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
        self,
        topic_name: str,
        priority: float,
        workflow_name: str = "",
        job_id: str = "",
    ) -> int:
        """Retag queued dispatches server-side; returns the count retagged."""
        update = PriorityUpdate(
            topic=topic_name,
            workflow_name=workflow_name,
            job_id=job_id,
            priority=priority,
        )
        return self._call(
            {"op": "reprioritize", "update": encode_message(update)}
        )["count"]

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
