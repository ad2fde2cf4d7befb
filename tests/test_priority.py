"""Priority topics and live reprioritization (ROADMAP item 2).

Covers the whole stack: the scoring model, the :class:`PriorityStore`
kernel primitive, priority-inversion regressions in every broker
(simulated, threaded, the chaos decorator over both, TCP), the master-side rerank
machinery, and FIFO-vs-priority end-to-end runs on a deadline-skewed
ensemble.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cloud import ClusterSpec
from repro.dewe.state import JobStatus, WorkflowState
from repro.engines import PullEngine, pull
from repro.mq import Broker, ChaosBroker, MessageChaos, SimBroker
from repro.mq.broker import Topic
from repro.mq.messages import JobDispatch
from repro.mq.priority import (
    PRIORITY_BAND,
    RepriorityPolicy,
    base_band,
)
from repro.mq.tcpbroker import BrokerServer, RemoteBroker
from repro.sim import FifoStore, PriorityStore, Simulator
from repro.workflow import Ensemble, Workflow
from tests.callcount import count_calls


# ---------------------------------------------------------------------------
# Scoring model
# ---------------------------------------------------------------------------


def test_base_band_orders_sla_ranks():
    gold, silver, best_effort = base_band(0), base_band(1), base_band(2)
    assert gold > silver > best_effort > base_band(None) == 0.0
    assert gold - silver == PRIORITY_BAND


def test_base_band_collapses_deep_ranks():
    assert base_band(3) == base_band(7) == 0.0


def test_policy_score_combines_cp_slack_and_age():
    policy = RepriorityPolicy(aging_rate=0.5)
    assert policy.score(10.0, 4.0, 2.0) == 10 - 4 + 0.5 * 2


def test_policy_score_clamped_within_half_band():
    policy = RepriorityPolicy()
    clamp = PRIORITY_BAND / 2.0 - 1.0
    assert policy.score(1e9, 0.0, 0.0) == clamp
    assert policy.score(0.0, 1e9, 0.0) == -clamp


def test_policy_clamp_means_bands_never_invert():
    """A best-effort job at maximal score still ranks below a gold job
    at minimal score — SLA bands are structural, not advisory."""
    policy = RepriorityPolicy()
    best_effort_max = base_band(2) + policy.score(1e9, 0.0, 0.0)
    gold_min = base_band(0) + policy.score(0.0, 1e9, 0.0)
    assert gold_min > best_effort_max


def test_policy_rejects_negative_knobs():
    with pytest.raises(ValueError):
        RepriorityPolicy(aging_rate=-0.1)
    with pytest.raises(ValueError):
        RepriorityPolicy(interval=-1.0)


# ---------------------------------------------------------------------------
# PriorityStore (the DES kernel primitive)
# ---------------------------------------------------------------------------


def _drain(store):
    out = []
    while True:
        item = store.pop_nowait()
        if item is None:
            return out
        out.append(item)


def test_store_higher_priority_first():
    store = PriorityStore(Simulator())
    store.put("low", priority=1.0)
    store.put("high", priority=9.0)
    store.put("mid", priority=5.0)
    assert _drain(store) == ["high", "mid", "low"]


def test_store_fifo_tie_break_within_priority():
    store = PriorityStore(Simulator())
    for i in range(5):
        store.put(i, priority=3.0)
    assert _drain(store) == [0, 1, 2, 3, 4]


def test_store_zero_priority_path_matches_fifostore():
    sim = Simulator()
    fifo, prio = FifoStore(sim), PriorityStore(sim)
    for i in range(6):
        fifo.put(i)
        prio.put(i)
    assert _drain(prio) == [fifo.get()._value for _ in range(6)] == [
        0, 1, 2, 3, 4, 5,
    ]


def test_store_negative_priority_sorts_below_default():
    store = PriorityStore(Simulator())
    store.put("demoted", priority=-1.0)
    store.put("normal")
    assert _drain(store) == ["normal", "demoted"]


def test_store_put_hands_to_waiting_getter_directly():
    store = PriorityStore(Simulator())
    event = store.get()
    store.put("x", priority=-100.0)
    assert event.triggered and event._value == "x"
    assert len(store) == 0


def test_store_reprioritize_retags_and_keeps_arrival_order():
    store = PriorityStore(Simulator())
    for name in ("a", "b", "c", "d"):
        store.put(name)
    moved = store.reprioritize(lambda item: item in ("b", "d"), 5.0)
    assert moved == 2
    # b and d jump ahead; within the new level they keep arrival order.
    assert _drain(store) == ["b", "d", "a", "c"]


def test_store_reprioritize_same_priority_is_a_noop():
    store = PriorityStore(Simulator())
    store.put("a", priority=2.0)
    assert store.reprioritize(lambda item: True, 2.0) == 0
    assert _drain(store) == ["a"]


def test_store_compaction_bounds_garbage():
    """A reprioritize-heavy run leaves no garbage: a retag rewrites each
    entry in place, so after many rounds the core holds exactly the
    queued items and still drains in arrival order."""
    store = PriorityStore(Simulator())
    n = 50
    for i in range(n):
        store.put(i, priority=1.0)
    for round_ in range(2, 12):
        assert store.reprioritize(lambda item: True, float(round_)) == n
    assert len(store) == n
    assert len(store._queue._heap) == n and not store._fifo
    assert _drain(store) == list(range(n))


def test_store_fifo_only_workload_never_allocates_the_heap():
    """The priority-0.0 fast path: a workload that never names a
    priority stays in plain mode — raw items, no entry records, no heap
    — through arbitrary put/get/pop interleavings."""
    store = PriorityStore(Simulator())
    waiting = store.get()  # empty-store getter, handed off below
    for i in range(50):
        store.put(i)
    assert waiting._value == 0
    assert store.pop_nowait() == 1
    got = store.get()
    assert got._value == 2
    assert store._plain  # never left the fast path
    assert store._queue is None  # no PriorityQueue was ever built
    assert list(store._fifo) == list(range(3, 50))  # raw items
    assert _drain(store) == list(range(3, 50))


def test_store_first_priority_put_materializes_in_arrival_order():
    store = PriorityStore(Simulator())
    for name in ("a", "b", "c"):
        store.put(name)
    store.put("vip", priority=5.0)  # leaves plain mode
    assert not store._plain
    assert _drain(store) == ["vip", "a", "b", "c"]


def test_store_reprioritize_reaches_plain_mode_backlog():
    store = PriorityStore(Simulator())
    for name in ("a", "b", "c"):
        store.put(name)
    assert store.reprioritize(lambda item: item == "c", 9.0) == 1
    assert _drain(store) == ["c", "a", "b"]


def test_store_zero_priority_microbench_parity_with_fifostore():
    """The fast path must price like :class:`FifoStore`: the event-based
    producer/consumer cycle (the broker hot path) enters exactly as many
    Python frames and makes exactly as many builtin calls.  Counted, not
    timed — a count repeats on any host."""

    def cycle(cls, n=1000):
        store = cls(Simulator())

        def work():
            for i in range(n):
                store.put(i)
            for _ in range(n):
                store.get()

        counted = count_calls(work)
        return counted.python, counted.c

    # put; get -> Event.__init__, succeed / append; popleft, append.
    assert cycle(FifoStore) == cycle(PriorityStore) == (4000, 3000)


_NON_FINITE = [math.nan, math.inf, -math.inf]


def _refuse_store_put(priority):
    store = PriorityStore(Simulator())
    store.put("a")
    store.put("b")
    with pytest.raises(ValueError, match="priority must be finite"):
        store.put("x", priority)
    assert store._plain  # refused before the store left plain mode
    store.put("c", 1.0)
    with pytest.raises(ValueError, match="priority must be finite"):
        store.put("y", priority)
    return _drain(store)


def _refuse_store_reprioritize(priority):
    store = PriorityStore(Simulator())
    for name in ("a", "b", "c"):
        store.put(name)
    with pytest.raises(ValueError, match="priority must be finite"):
        store.reprioritize(lambda item: item == "b", priority)
    assert store._plain
    store.reprioritize(lambda item: item == "c", 1.0)
    with pytest.raises(ValueError, match="priority must be finite"):
        store.reprioritize(lambda item: item == "b", priority)
    return _drain(store)


def _refuse_broker_publish(priority):
    broker = Broker()
    for name, rank in (("a", 0.0), ("b", 0.0), ("c", 1.0)):
        broker.publish("t", name, rank)
    with pytest.raises(ValueError, match="priority must be finite"):
        broker.publish("t", "x", priority)
    assert broker.stats()["t"] == {"published": 3, "consumed": 0, "depth": 3}
    return [broker.consume("t") for _ in range(3)]


def _refuse_broker_reprioritize(priority):
    broker = Broker()
    for job_id, rank in (("a", 0.0), ("b", 0.0), ("c", 1.0)):
        broker.publish("t", JobDispatch("wf", job_id), rank)
    with pytest.raises(ValueError, match="priority must be finite"):
        broker.reprioritize("t", "wf", "b", priority)
    return [broker.consume("t").job_id for _ in range(3)]


@pytest.mark.parametrize("priority", _NON_FINITE, ids=repr)
@pytest.mark.parametrize("refuse", [
    _refuse_store_put, _refuse_store_reprioritize,
    _refuse_broker_publish, _refuse_broker_reprioritize,
])
def test_non_finite_priority_is_refused(refuse, priority):
    """A NaN compares false both ways, so a queued NaN would break the
    heap order of the finite entries around it; an infinity outranks
    every band.  Both transports refuse them and keep their order."""
    assert refuse(priority) == ["c", "a", "b"]


class _SortedListTopic:
    """The order every topic promises, spelled as a sorted list: highest
    priority first, publish order within a priority; a retag changes an
    entry's priority and keeps its publish number."""

    def __init__(self):
        self.entries = []  # [priority, publish number, item]
        self.published = 0

    def put(self, item, priority):
        self.published += 1
        self.entries.append([priority, self.published, item])

    def reprioritize(self, selector, priority):
        moved = [e for e in self.entries if e[0] != priority and selector(e[2])]
        for entry in moved:
            entry[0] = priority
        return len(moved)

    def pop(self):
        self.entries.sort(key=lambda e: (-e[0], e[1]))
        return self.entries.pop(0)[2] if self.entries else None


_RANKS = st.sampled_from([0.0, 0.0, -0.0, 1.0, -1.0, 5.0])
_TOPIC_OPS = st.one_of(
    st.tuples(st.just("put"), _RANKS),
    st.tuples(st.just("retag"), st.integers(1, 3), st.integers(0, 2), _RANKS),
    st.tuples(st.just("pop")),
)


@given(st.lists(_TOPIC_OPS, max_size=40))
@example([
    ("put", 0.0), ("put", 0.0), ("pop",), ("put", 0.0),
    ("put", 5.0), ("put", 0.0), ("retag", 2, 0, 1.0), ("pop",),
])
@example([("put", 0.0), ("put", 0.0), ("retag", 1, 0, 0.0), ("put", 0.0)])
@settings(max_examples=200, deadline=None)
def test_store_and_topic_drain_in_the_model_order(program):
    """The DES store (``pop_nowait``) and the threaded topic (a polling
    ``consume``) give the sorted-list model's answer to every retag and
    pop, including programs that leave the store's plain mode part-way."""
    store, topic, model = PriorityStore(Simulator()), Topic("t"), _SortedListTopic()
    transports = [
        (store.put, store.reprioritize, store.pop_nowait),
        (topic.publish, topic.reprioritize, lambda: topic.consume(None)),
        (model.put, model.reprioritize, model.pop),
    ]
    logs = []
    for put, retag, pop in transports:
        log = []
        for item, op in enumerate(program):
            if op[0] == "put":
                put(item, op[1])
            elif op[0] == "retag":
                _, mod, rest, priority = op
                log.append(retag(lambda m: m % mod == rest, priority))
            else:
                log.append(pop())
        while (item := pop()) is not None:
            log.append(item)
        logs.append(log)
    assert logs[0] == logs[1] == logs[2]


# ---------------------------------------------------------------------------
# Priority-inversion regressions, one per broker
# ---------------------------------------------------------------------------


def test_simbroker_no_priority_inversion():
    sim = Simulator()
    broker = SimBroker(sim, latency=0.0)
    broker.publish("t", "bulk")
    broker.publish("t", "urgent", priority=10.0)
    got = []

    def consumer():
        for _ in range(2):
            msg = yield broker.consume("t")
            got.append(msg)

    sim.process(consumer())
    sim.run()
    assert got == ["urgent", "bulk"]


def test_simbroker_reprioritize_reaches_in_flight_batch():
    """A reprioritize is broker-side: messages still inside the latency
    window are retagged too, not just already-queued ones."""
    sim = Simulator()
    broker = SimBroker(sim, latency=0.5)
    broker.publish("t", ("wf", "a", 1))
    broker.publish("t", ("wf", "b", 1))
    assert broker.reprioritize("t", "wf", "b", 7.0) == 1
    got = []

    def consumer():
        # Start pulling after the latency window so the retag is judged
        # on queue order (a pending get would take the first delivery
        # directly — priority only orders *queued* messages).
        yield sim.timeout(1.0)
        for _ in range(2):
            msg = yield broker.consume("t")
            got.append(msg[1])

    sim.process(consumer())
    sim.run()
    assert got == ["b", "a"]


def test_threaded_broker_no_priority_inversion():
    broker = Broker()
    broker.publish("t", "bulk")
    broker.publish("t", "urgent", priority=10.0)
    broker.publish("t", "bulk2")
    assert [broker.consume("t") for _ in range(3)] == [
        "urgent", "bulk", "bulk2",
    ]


def test_threaded_broker_reprioritize():
    broker = Broker()
    for name in ("a", "b", "c"):
        broker.publish("t", JobDispatch("wf", name))
    assert broker.reprioritize("t", "wf", "c", 5.0) == 1
    assert [broker.consume("t").job_id for _ in range(3)] == ["c", "a", "b"]


def test_chaos_simbroker_zero_band_no_priority_inversion():
    sim = Simulator()
    broker = ChaosBroker(SimBroker(sim, latency=0.0), MessageChaos())
    broker.publish("t", "bulk")
    broker.publish("t", "urgent", priority=10.0)
    got = []

    def consumer():
        for _ in range(2):
            msg = yield broker.consume("t")
            got.append(msg)

    sim.process(consumer())
    sim.run()
    assert got == ["urgent", "bulk"]


def test_chaos_simbroker_delayed_message_keeps_priority():
    sim = Simulator()
    broker = ChaosBroker(
        SimBroker(sim, latency=0.0), MessageChaos(p_delay=1.0, delay=0.2)
    )
    broker.publish("t", "urgent", priority=10.0)  # delayed by the band
    broker.publish("t", "bulk")
    got = []

    def consumer():
        yield sim.timeout(1.0)  # let the delayed delivery land first
        for _ in range(2):
            msg = yield broker.consume("t")
            got.append(msg)

    sim.process(consumer())
    sim.run()
    assert broker.chaos_stats()["delayed"] == 2
    assert got == ["urgent", "bulk"]


def test_chaos_threaded_broker_no_priority_inversion():
    broker = ChaosBroker(Broker(), MessageChaos())
    broker.publish("t", "bulk")
    broker.publish("t", "urgent", priority=10.0)
    assert [broker.consume("t") for _ in range(2)] == ["urgent", "bulk"]


def test_remote_broker_no_priority_inversion():
    with BrokerServer() as server:
        host, port = server.address
        with RemoteBroker(host, port) as client:
            client.publish("t", JobDispatch("wf", "bulk"))
            client.publish("t", JobDispatch("wf", "urgent"), priority=10.0)
            assert client.consume("t").job_id == "urgent"
            assert client.consume("t").job_id == "bulk"


def test_remote_reprioritize_by_fields():
    """Selectors cannot cross the wire; the TCP protocol addresses
    queued dispatches by (workflow, job) fields instead."""
    with BrokerServer() as server:
        host, port = server.address
        with RemoteBroker(host, port) as client:
            for job_id in ("a", "b", "c"):
                client.publish("t", JobDispatch("wf", job_id))
            assert client.reprioritize("t", "wf", "c", 5.0) == 1
            assert [client.consume("t").job_id for _ in range(3)] == [
                "c", "a", "b",
            ]


@pytest.mark.parametrize("transport", ["threaded", "tcp"])
def test_broker_reprioritize_moves_only_the_named_job(transport):
    """The threaded and TCP twin of the DES port test below: the
    :class:`JobDispatch` predicate retags the job it names, of the member
    it names — not that member's other queued jobs, and not the same job
    id of another member."""
    with BrokerServer() as server:
        broker = (
            Broker() if transport == "threaded" else RemoteBroker(*server.address)
        )
        for priority, (name, job_id) in enumerate(
            [("a", "leaf00"), ("a", "leaf01"), ("a", "leaf02"), ("b", "leaf01")],
            start=1,
        ):
            broker.publish("t", JobDispatch(name, job_id), float(priority))
        assert broker.reprioritize("t", "a", "leaf01", 10.0) == 1
        order = [broker.consume("t") for _ in range(4)]
        if transport == "tcp":
            broker.close()
    assert [(m.workflow_name, m.job_id) for m in order] == [
        ("a", "leaf01"), ("b", "leaf01"), ("a", "leaf02"), ("a", "leaf00"),
    ]


# ---------------------------------------------------------------------------
# Master-side scoring state
# ---------------------------------------------------------------------------


def _chain(name="chain", links=4, runtime=2.0):
    wf = Workflow(name)
    prev = None
    for i in range(links):
        job = wf.new_job(f"link{i}", "chain", runtime=runtime)
        if prev is not None:
            wf.add_dependency(prev.id, job.id)
        prev = job
    return wf


def _wide(name="wide", leaves=6, runtime=1.0):
    wf = Workflow(name)
    for i in range(leaves):
        wf.new_job(f"leaf{i:02d}", "wide", runtime=runtime)
    return wf


def test_skeleton_critical_path():
    wf = _chain(links=4, runtime=2.0)
    cp = wf.skeleton().critical_path()
    assert cp["link0"] == 8.0
    assert cp["link3"] == 2.0
    assert wf.skeleton().critical_path_total() == 8.0


def test_state_queued_jobs_tracks_status():
    state = WorkflowState(_chain(), 60.0)
    assert state.queued_jobs() == []
    state.initial_ready()
    assert state.queued_jobs() == ["link0"]
    state.mark_dispatched("link0", 0.0)
    state.on_running("link0", 1, 0.1)
    assert state.queued_jobs() == []


def test_state_job_priority_scores_cp_slack_and_band():
    policy = RepriorityPolicy()
    state = WorkflowState(_chain(links=4, runtime=2.0), 60.0)
    state.initial_ready()
    state.mark_dispatched("link0", 0.0)
    # At t=0 the root's slack is zero, so its score is its cp-remaining.
    assert state.job_priority("link0", 0.0, policy) == pytest.approx(8.0)
    # Later, the evaporating slack raises urgency 1:1 with elapsed time.
    assert state.job_priority("link0", 3.0, policy) == pytest.approx(11.0)
    # The SLA band rides on top untouched.
    assert state.job_priority(
        "link0", 0.0, policy, base=base_band(0)
    ) == pytest.approx(base_band(0) + 8.0)


def test_state_job_priority_aging_from_first_dispatch():
    state = WorkflowState(_chain(), 60.0)
    state.initial_ready()
    state.mark_dispatched("link0", 5.0)
    aged = state.job_priority("link0", 9.0, RepriorityPolicy(aging_rate=2.0))
    plain = state.job_priority("link0", 9.0, RepriorityPolicy())
    assert aged - plain == pytest.approx(8.0)  # 2.0 points/s x 4 s queued


def test_pull_run_reprioritize_moves_only_the_named_job():
    """The DES master's reprioritize port retags one queued dispatch:
    the job it names, of the member it names — not that member's other
    queued jobs, and not the same job id of another member."""
    members = Ensemble([_wide("a", leaves=3), _wide("b", leaves=3)])
    run = pull.PullRun(
        PullEngine(ClusterSpec("m3.2xlarge", 1, filesystem="local")), members
    )
    for priority, (name, job_id) in enumerate(
        [("a", "leaf00"), ("a", "leaf01"), ("a", "leaf02"), ("b", "leaf01")],
        start=1,
    ):
        run._publish(run.workflows[name], job_id, 1, float(priority))
    run.sim.run()  # the broker's latency batch lands in the topic
    run._reprioritize("a", "leaf01", 10.0)
    order = []
    while (msg := run.broker.consume_nowait(pull._DISPATCH)) is not None:
        order.append(msg[:2])
    assert order == [
        ("a", "leaf01"), ("b", "leaf01"), ("a", "leaf02"), ("a", "leaf00"),
    ]


# ---------------------------------------------------------------------------
# End-to-end: FIFO vs priority on a deadline-skewed ensemble
# ---------------------------------------------------------------------------


def _skewed_members(leaves=20, links=12):
    """Wide members first — FIFO's worst case for the trailing chain."""
    members = [_wide(f"wide-{i}", leaves=leaves) for i in range(3)]
    members.append(_chain("deadline-chain", links=links, runtime=2.0))
    return members


def _run_skewed(repriority, **geometry):
    spec = ClusterSpec("m3.2xlarge", 1, filesystem="local")
    members = _skewed_members(**geometry)
    controllers = [repriority] if repriority is not None else []
    return PullEngine(spec, controllers=controllers).run(
        Ensemble([wf.relabel(wf.name) for wf in members])
    )


def _starved(result):
    """``(member, status) -> count`` of admitted jobs left un-completed."""
    return {
        (name, status): n
        for name, counts in result.job_counts.items()
        for status, n in counts.items()
        if status != JobStatus.COMPLETED.value and n
    }


def _chain_start(result):
    return min(
        r.start for r in result.records
        if r.workflow == "deadline-chain" and r.job_id == "link0"
    )


def test_priority_beats_fifo_on_deadline_skew():
    fifo = _run_skewed(None)
    prio = _run_skewed(RepriorityPolicy())
    # The chain's critical-path score pulls its root to the front of the
    # backlog at the first queue pop instead of behind 60 wide jobs.
    assert _chain_start(prio) < _chain_start(fifo) * 0.5
    assert prio.makespan < fifo.makespan
    # The same work ran either way — priority reorders, never drops.
    assert prio.jobs_executed == fifo.jobs_executed == 72


def test_priority_gain_on_deadline_skew_is_pinned():
    """README's and docs/FAULTS.md's "11.9%": 3 x 30 one-second leaves
    ahead of a 24-link x 2 s chain on the 8 slots of one m3.2xlarge.
    Simulated values, so exact literals."""
    fifo = _run_skewed(None, leaves=30, links=24)
    prio = _run_skewed(
        RepriorityPolicy(aging_rate=0.25, interval=2.0), leaves=30, links=24
    )
    assert repr(fifo.makespan) == "107.36872727272721"
    assert repr(prio.makespan) == "94.62945454545451"
    assert round(1.0 - prio.makespan / fifo.makespan, 3) == 0.119
    for result in (fifo, prio):
        assert result.jobs_executed == 114
        assert _starved(result) == {}


def test_priority_run_is_deterministic():
    policy = RepriorityPolicy(aging_rate=0.25, interval=2.0)
    a = _run_skewed(policy)
    b = _run_skewed(policy)
    assert a.makespan == b.makespan
    assert [
        (r.workflow, r.job_id, r.start, r.end, r.node) for r in a.records
    ] == [(r.workflow, r.job_id, r.start, r.end, r.node) for r in b.records]


def test_aging_leaves_no_job_starved():
    result = _run_skewed(RepriorityPolicy(aging_rate=0.25, interval=2.0))
    assert _starved(result) == {}


def test_priority_run_surfaces_shed_record_drops():
    """A constant since the shed ledger went: the key stays because the
    quick-soak digest in tests/test_golden_runs.py hashes the dict."""
    result = _run_skewed(RepriorityPolicy())
    assert result.liveness_stats["shed_record_drops"] == 0


def test_fifo_run_without_policy_is_unchanged():
    """The priority plane is opt-in: without a policy every publish goes
    out at priority 0.0, which is byte-identical to the seed's FIFO."""
    a = _run_skewed(None)
    b = _run_skewed(None)
    assert a.makespan == b.makespan
    assert a.liveness_stats == {}
