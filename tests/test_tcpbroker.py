"""Tests for the TCP broker and multi-process DEWE v2 deployment."""

import dataclasses
import json
import socket
import subprocess
import sys

import pytest

from repro.dewe import DeweConfig, MasterDaemon, WorkerDaemon, submit_workflow
from repro.mq.messages import (
    AckKind,
    JobAck,
    JobDispatch,
    WorkerHeartbeat,
    WorkflowSubmission,
)
from repro.mq.tcpbroker import (
    BrokerServer,
    RemoteBroker,
    decode_message,
    encode_message,
)
from repro.workflow import Job, Workflow
from repro.workflow.serialize import workflow_to_dict

CFG = DeweConfig(
    default_timeout=5.0,
    master_poll_interval=0.005,
    worker_poll_interval=0.01,
    max_concurrent_jobs=4,
)


def small_workflow(name="tcpwf", argv=None) -> Workflow:
    wf = Workflow(name)
    for jid in ("a", "b", "c"):
        wf.new_job(jid, "t", runtime=0.0, action=argv)
    wf.add_dependency("a", "b")
    wf.add_dependency("a", "c")
    return wf


# ---------------------------------------------------------------------------
# Codecs
# ---------------------------------------------------------------------------


def test_codec_round_trip_submission():
    msg = WorkflowSubmission(workflow=small_workflow(), folder="/data/wf")
    restored = decode_message(encode_message(msg))
    assert isinstance(restored, WorkflowSubmission)
    assert restored.folder == "/data/wf"
    assert set(restored.workflow.jobs) == {"a", "b", "c"}
    assert restored.workflow.job("b").parents == ["a"]


def test_codec_round_trip_dispatch_with_argv():
    job = Job("j", "t", runtime=2.5, threads=2, timeout=60.0, action=["true", "-x"])
    msg = JobDispatch(workflow_name="wf", job_id="j", attempt=3, job=job)
    restored = decode_message(encode_message(msg))
    assert restored.attempt == 3
    assert restored.job.action == ["true", "-x"]
    assert restored.job.timeout == 60.0
    assert restored.job.threads == 2


def test_codec_round_trip_ack():
    msg = JobAck("wf", "j", AckKind.FAILED, worker="w1", attempt=2, error="boom")
    restored = decode_message(encode_message(msg))
    assert restored.kind is AckKind.FAILED
    assert restored.error == "boom"


def _compared(value):
    """A field value as the wire carries it: a workflow as its dict, a
    job as the fields of the codec's job payload."""
    if isinstance(value, Workflow):
        return workflow_to_dict(value)
    if isinstance(value, Job):
        return (value.id, value.task_type, value.runtime, value.threads,
                value.timeout, value.action)
    return value


@pytest.mark.parametrize(
    "message",
    [
        WorkflowSubmission(
            small_workflow(), folder="/data/wf", tenant="acme", sla="gold"
        ),
        JobDispatch(
            "wf", "j", attempt=3,
            job=Job("j", "t", runtime=2.5, threads=2, timeout=60.0,
                    action=["true", "-x"]),
        ),
        JobAck("wf", "j", AckKind.FAILED, worker="w1", attempt=2, error="boom"),
        WorkerHeartbeat("w1", epoch=4, seq=9),
    ],
    ids=["submission", "dispatch", "ack", "heartbeat"],
)
def test_codec_round_trip_keeps_every_field(message):
    """Every field, each set to a value other than its default, comes
    back through JSON text as it went in."""
    wire = json.loads(json.dumps(encode_message(message)))
    restored = decode_message(wire)
    assert type(restored) is type(message)
    for field in dataclasses.fields(message):
        sent = getattr(message, field.name)
        assert sent != field.default, field.name
        assert _compared(getattr(restored, field.name)) == _compared(sent), (
            field.name
        )


def test_codec_rejects_callable_actions():
    job = Job("j", "t", action=lambda: None)
    with pytest.raises(TypeError, match="argv-list"):
        encode_message(JobDispatch(workflow_name="wf", job_id="j", job=job))


def test_codec_rejects_unknown():
    with pytest.raises(TypeError):
        encode_message({"not": "a dataclass"})
    with pytest.raises(ValueError):
        decode_message({"type": "mystery"})


# ---------------------------------------------------------------------------
# Server / client basics
# ---------------------------------------------------------------------------


def test_remote_publish_consume():
    with BrokerServer() as server:
        host, port = server.address
        with RemoteBroker(host, port) as client:
            client.publish("t", JobAck("wf", "j", AckKind.RUNNING))
            assert client.depth("t") == 1
            msg = client.consume("t")
            assert isinstance(msg, JobAck)
            assert client.consume("t", timeout=0.01) is None


def test_two_clients_share_topics():
    with BrokerServer() as server:
        host, port = server.address
        with RemoteBroker(host, port) as a, RemoteBroker(host, port) as b:
            a.publish("t", JobAck("wf", "j", AckKind.COMPLETED))
            msg = b.consume("t", timeout=1.0)
            assert msg.kind is AckKind.COMPLETED


def test_stats_over_the_wire():
    with BrokerServer() as server:
        host, port = server.address
        with RemoteBroker(host, port) as client:
            client.publish("t", JobAck("wf", "j", AckKind.RUNNING))
            stats = client.stats()
            assert stats["t"]["published"] == 1


_ACK = encode_message(JobAck("wf", "j", AckKind.RUNNING))
_NAN = float("nan")


def _retag(priority):
    return {"op": "reprioritize", "topic": "t", "workflow": "wf",
            "job_id": "j", "priority": priority}


@pytest.mark.parametrize(
    "request_line",
    [
        json.dumps({"op": "publish", "topic": "t", "message": _ACK,
                    "priority": _NAN}),
        json.dumps({"op": "publish", "topic": "t", "message": _ACK,
                    "priority": float("inf")}),
        json.dumps({"op": "publish", "topic": "t", "message": _ACK,
                    "priority": "5"}),
        json.dumps(_retag(_NAN)),
        json.dumps(_retag("5")),
        json.dumps({"op": "publish", "topic": "t", "message": {"type": "ack"}}),
        json.dumps({"op": "publish", "topic": "t",
                    "message": {**_ACK, "type": "mystery"}}),
        json.dumps(["publish", "t", _ACK]),
        "publish t",
    ],
    ids=["nan", "inf", "string-priority", "reprioritize-nan",
         "reprioritize-string-priority", "missing-field", "unknown-type",
         "json-non-object", "non-json"],
)
def test_server_refuses_a_hostile_frame_and_keeps_serving(request_line):
    """A frame that does not decode, or a priority that is not a finite
    number, is refused before anything is enqueued: a NaN priority would
    jump the queue, and an undecodable message would kill the consumer
    that dequeues it."""
    with BrokerServer() as server, socket.create_connection(
        server.address, timeout=5.0
    ) as sock:
        stream = sock.makefile("rwb")

        def call(line):
            stream.write(line.encode() + b"\n")
            stream.flush()
            return json.loads(stream.readline())

        queued = encode_message(JobDispatch("wf", "j"))
        publish = {"op": "publish", "topic": "t", "message": queued}
        assert call(json.dumps(publish)) == {"ok": True}
        response = call(request_line)
        assert response["ok"] is False and response["error"]
        assert server.broker.depth("t") == 1
        assert server.broker.topic("t").snapshot()["published"] == 1
        # The connection still serves, and the queued dispatch is intact:
        # still at priority 0.0, so retagging it to 0.0 moves nothing.
        assert call(json.dumps(_retag(0.0))) == {"ok": True, "count": 0}
        assert call(json.dumps({"op": "consume", "topic": "t"})) == {
            "ok": True, "message": queued,
        }
        stream.close()


# ---------------------------------------------------------------------------
# Full system over TCP
# ---------------------------------------------------------------------------


def test_master_and_worker_over_tcp():
    """Master and worker in the same process but communicating only via
    TCP — the daemons are unchanged."""
    with BrokerServer() as server:
        host, port = server.address
        master_conn = RemoteBroker(host, port)
        worker_conn = RemoteBroker(host, port)
        submit_conn = RemoteBroker(host, port)
        try:
            with MasterDaemon(master_conn, CFG) as master, WorkerDaemon(
                worker_conn, config=CFG
            ):
                submit_workflow(submit_conn, small_workflow())
                assert master.wait("tcpwf", timeout=20.0)
                assert master.states["tcpwf"].is_complete
        finally:
            master_conn.close()
            worker_conn.close()
            submit_conn.close()


def test_worker_in_separate_process():
    """The real deal: the worker daemon is another OS process started
    with nothing but the broker address (paper §III.D)."""
    with BrokerServer() as server:
        host, port = server.address
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.dewe.remote_worker",
                "--host", host,
                "--port", str(port),
                "--name", "proc-worker",
                "--slots", "4",
                "--executor", "subprocess",
                "--idle-exit", "30",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        master_conn = RemoteBroker(host, port)
        submit_conn = RemoteBroker(host, port)
        try:
            with MasterDaemon(master_conn, CFG) as master:
                submit_workflow(submit_conn, small_workflow(argv=["true"]))
                assert master.wait("tcpwf", timeout=30.0)
        finally:
            master_conn.close()
            submit_conn.close()
            proc.terminate()
            out, _ = proc.communicate(timeout=10)
    assert "proc-worker connected" in out
