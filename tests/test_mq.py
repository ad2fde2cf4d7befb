"""Tests for the threaded broker and the simulated broker."""

import sys
import threading

import pytest

from repro.mq import Broker, SimBroker
from repro.mq.chaosbroker import ChaosBroker, MessageChaos
from repro.mq.messages import TOPIC_ACK, AckKind, JobAck, JobDispatch
from repro.sim import Simulator


def test_publish_consume_fifo():
    broker = Broker()
    for i in range(5):
        broker.publish("t", i)
    assert [broker.consume("t") for _ in range(5)] == [0, 1, 2, 3, 4]


def test_consume_empty_returns_none():
    broker = Broker()
    assert broker.consume("t") is None
    assert broker.consume("t", timeout=0.01) is None


def test_consumed_message_invisible_to_others():
    """Work-queue semantics: one consumer checks a message out, the other
    finds the queue empty (paper §III.C: 'the job is no longer visible to
    other worker nodes')."""
    broker = Broker()
    broker.publish("jobs", "only-job")
    assert broker.consume("jobs") == "only-job"
    assert broker.consume("jobs") is None


def test_topics_are_independent():
    broker = Broker()
    broker.publish("a", 1)
    broker.publish("b", 2)
    assert broker.consume("b") == 2
    assert broker.consume("a") == 1


def _threaded_broker_state(broker):
    state = [broker.stats()]
    if isinstance(broker, ChaosBroker):
        state += [broker.chaos_stats(), broker._rng.getstate()]
    return state


@pytest.mark.parametrize(
    "make",
    [
        Broker,
        lambda: ChaosBroker(Broker(), MessageChaos(p_drop=1.0)),
    ],
    ids=["plain", "chaos-drop"],
)
def test_threaded_broker_refuses_a_none_payload_before_counting(make):
    """``consume`` returns ``None`` for "empty": as a payload it would be
    counted as published and consumed and then read as no message.
    Refused like the DES brokers refuse it, with no counter, recorder
    send or chaos draw spent."""
    broker = make()
    broker.publish(TOPIC_ACK, JobAck("wf", "j0", AckKind.COMPLETED, worker="w1"))
    before = _threaded_broker_state(broker)
    with pytest.raises(ValueError, match="None"):
        broker.publish(TOPIC_ACK, None)
    assert _threaded_broker_state(broker) == before


def test_depth_and_stats():
    broker = Broker()
    broker.publish("t", "x")
    broker.publish("t", "y")
    assert broker.depth("t") == 2
    broker.consume("t")
    stats = broker.stats()
    assert stats["t"]["published"] == 2
    assert stats["t"]["consumed"] == 1
    assert stats["t"]["depth"] == 1


def test_concurrent_consumers_each_message_once():
    broker = Broker()
    n = 500
    for i in range(n):
        broker.publish("jobs", i)
    got = []
    lock = threading.Lock()

    def consumer():
        while True:
            msg = broker.consume("jobs")
            if msg is None:
                return
            with lock:
                got.append(msg)

    threads = [threading.Thread(target=consumer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(got) == list(range(n))


def test_reprioritize_races_consumers_without_loss_or_duplication():
    """Live reprioritization against concurrent consumers: every retag
    either lands before the message is consumed or misses it entirely —
    a racing consumer must never see a duplicate, a loss, or a torn
    heap.  Run under REPRO_RACEDETECT this also proves the topic
    condition covers the retag path."""
    broker = Broker()
    n = 400
    for i in range(n):
        broker.publish("jobs", JobDispatch("wf", str(i)))
    got = []
    lock = threading.Lock()
    stop = threading.Event()

    def consumer():
        while True:
            msg = broker.consume("jobs", timeout=0.05)
            if msg is None:
                if stop.is_set():
                    return
                continue
            with lock:
                got.append(int(msg.job_id))

    def repriority_caller():
        # Deterministic retag pattern cycling over residue classes so
        # retags keep landing while the queue drains.
        for round_ in range(1, 40):
            for i in range(round_ % 5, n, 40):
                broker.reprioritize("jobs", "wf", str(i), float(round_))
        stop.set()

    threads = [threading.Thread(target=consumer) for _ in range(6)]
    threads.append(threading.Thread(target=repriority_caller))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(got) == list(range(n))
    stats = broker.stats()["jobs"]
    assert stats["published"] == n
    assert stats["consumed"] == n
    assert stats["depth"] == 0


def test_chaos_counters_survive_concurrent_publishers():
    """One lock covers the draw and the counters: with more publisher
    threads than cores and a short switch interval, every message is
    dropped, duplicated or delivered once, and the counters say which."""
    broker = ChaosBroker(
        Broker(), MessageChaos(p_drop=0.3, p_duplicate=0.3, seed=3)
    )
    threads, per_thread = 8, 250
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(
                target=lambda t=t: [
                    broker.publish("t", (t, i)) for i in range(per_thread)
                ]
            )
            for t in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    stats = broker.chaos_stats()
    sent = threads * per_thread
    assert stats["dropped"] > 0 and stats["duplicated"] > 0
    assert broker.depth("t") == sent - stats["dropped"] + stats["duplicated"]
    assert broker.stats()["t"]["published"] == broker.depth("t")


def test_blocking_consume_wakes_on_publish():
    broker = Broker()
    result = []

    def consumer():
        result.append(broker.consume("t", timeout=5.0))

    t = threading.Thread(target=consumer)
    t.start()
    broker.publish("t", "hello")
    t.join(timeout=5.0)
    assert result == ["hello"]


# ---------------------------------------------------------------------------
# SimBroker
# ---------------------------------------------------------------------------


def test_simbroker_delivery_latency():
    sim = Simulator()
    broker = SimBroker(sim, latency=0.5)
    got = []

    def consumer():
        msg = yield broker.consume("t")
        got.append((msg, sim.now))

    sim.process(consumer())
    broker.publish("t", "m")
    sim.run()
    assert got == [("m", 0.5)]


def test_simbroker_zero_latency():
    sim = Simulator()
    broker = SimBroker(sim, latency=0.0)
    broker.publish("t", 1)
    got = []

    def consumer():
        msg = yield broker.consume("t")
        got.append((msg, sim.now))

    sim.process(consumer())
    sim.run()
    assert got == [(1, 0.0)]


def test_simbroker_fifo_per_topic():
    sim = Simulator()
    broker = SimBroker(sim, latency=0.0)
    for i in range(4):
        broker.publish("t", i)
    got = []

    def consumer():
        for _ in range(4):
            msg = yield broker.consume("t")
            got.append(msg)

    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2, 3]


def test_simbroker_cancel_consume():
    sim = Simulator()
    broker = SimBroker(sim, latency=0.0)
    pending = broker.consume("t")
    assert broker.cancel("t", pending)
    broker.publish("t", "x")
    sim.run()
    assert broker.depth("t") == 1  # the cancelled getter did not take it


def test_simbroker_negative_latency_rejected():
    """Refused at construction, naming the knob — not at the first
    publish, as the agenda's non-finite timeout."""
    sim = Simulator()
    for latency in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="latency"):
            SimBroker(sim, latency=latency)
    assert sim._seq == 0


@pytest.mark.parametrize("delay", [-1.0, float("nan"), float("inf")])
def test_message_chaos_refuses_a_negative_or_non_finite_delay(delay):
    with pytest.raises(ValueError, match="delay"):
        MessageChaos(p_delay=1.0, delay=delay)


def _broker_state(broker, sim):
    return (
        dict(broker._pending), broker.depth("t"), sim._seq,
    )


def _chaos(chaos, latency=0.002):
    return lambda sim: ChaosBroker(SimBroker(sim, latency), chaos)


@pytest.mark.parametrize(
    "make",
    [
        lambda sim: SimBroker(sim, latency=0.5),
        lambda sim: SimBroker(sim, latency=0.0),
        _chaos(MessageChaos(), latency=0.5),
        _chaos(MessageChaos(p_delay=1.0, delay=0.2), latency=0.5),
        _chaos(MessageChaos(p_duplicate=1.0)),
        _chaos(MessageChaos(p_drop=1.0)),
    ],
    ids=["latency", "direct", "chaos-pass", "chaos-delay",
         "chaos-duplicate", "chaos-drop"],
)
def test_simbroker_refuses_a_none_payload_before_counting(make):
    """``None`` is what a cancelled consume delivers and what
    ``consume_nowait`` returns for "empty": as a payload it would end the
    master's ack loop silently.  Refused on every publish path, with no
    batch, store entry, agenda entry or chaos draw spent."""
    sim = Simulator()
    broker = make(sim)
    transport = getattr(broker, "broker", broker)
    before = _broker_state(transport, sim)
    draw = getattr(broker, "_rng", None) and broker._rng.getstate()
    with pytest.raises(ValueError, match="None"):
        broker.publish("t", None)
    assert _broker_state(transport, sim) == before
    if draw:
        assert broker._rng.getstate() == draw
        assert set(broker.chaos_stats().values()) == {0}
    sim.run()
    assert broker.consume_nowait("t") is None


@pytest.mark.parametrize(
    "priority", [float("nan"), float("inf"), -float("inf")],
    ids=["nan", "inf", "minus-inf"],
)
@pytest.mark.parametrize("latency", [0.002, 0.0], ids=["batched", "direct"])
def test_simbroker_refuses_a_non_finite_priority_at_the_call(latency, priority):
    """``publish`` and ``publish_after`` refuse a NaN or infinite priority
    themselves.  The store's own refusal came only at delivery: inside
    the run, after the batch's later messages were lost (``b`` here) or,
    with no latency, never, for a getter already waiting."""
    sim = Simulator()
    broker = SimBroker(sim, latency=latency)
    waiting = broker.consume("t")
    broker.publish("t", "a")
    with pytest.raises(ValueError, match="finite"):
        broker.publish("t", "n", priority)
    with pytest.raises(ValueError, match="finite"):
        broker.publish_after(1.0, "t", "n", priority)
    broker.publish("t", "b", 5.0)
    sim.run()
    assert waiting._value == "a"
    assert broker.consume_nowait("t") == "b"
    assert broker.depth("t") == 0


def test_chaos_simbroker_priority_survives_the_delay_band_and_the_latency_batch():
    """Both ways a message reaches ``_deliver`` carry ``[message,
    priority]``: a delayed message travels as its own one-entry batch
    (never ``_pending``, so only a reprioritize after it lands retags
    it), a pass-through publish (the transport's own, which the
    decorator calls outside the band) joins the latency batch, which a
    reprioritize retags in flight."""
    sim = Simulator()
    transport = SimBroker(sim, latency=0.5)
    broker = ChaosBroker(transport, MessageChaos(p_delay=1.0, delay=0.2))
    broker.publish("slow", ("wf", "bulk", 1))
    broker.publish("slow", ("wf", "urgent", 1), priority=10.0)
    assert broker.chaos_stats()["delayed"] == 2 and not transport._pending
    assert broker.reprioritize("slow", "wf", "bulk", 3.0) == 0  # out of reach
    transport.publish("fast", ("wf", "a", 1))
    transport.publish("fast", ("wf", "b", 1))
    assert broker.reprioritize("fast", "wf", "b", 7.0) == 1
    sim.run()
    assert sim.now == 0.7

    def drain(topic):
        return [
            broker.consume_nowait(topic)[1] for _ in range(broker.depth(topic))
        ]

    assert drain("fast") == ["b", "a"]
    assert broker.reprioritize("slow", "wf", "bulk", 20.0) == 1
    assert drain("slow") == ["bulk", "urgent"]


def test_simbroker_consume_nowait_counts_only_what_it_pops():
    """The topic's depth falls by one per message popped, and an empty
    topic's ``None`` takes nothing from it."""
    sim = Simulator()
    broker = SimBroker(sim, latency=0.0)
    assert broker.consume_nowait("t") is None
    assert broker.depth("t") == 0
    broker.publish("t", 0)  # a falsy payload is still a payload
    broker.publish("t", "m")
    assert broker.depth("t") == 2
    assert broker.consume_nowait("t") == 0
    assert broker.depth("t") == 1
    assert broker.consume_nowait("t") == "m"
    assert broker.consume_nowait("t") is None
    assert broker.depth("t") == 0
