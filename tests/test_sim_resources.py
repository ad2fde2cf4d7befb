"""Unit tests for CorePool, FairShareLink, FifoStore and SegmentLog."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.engines.base import execute_job
from repro.sim import (
    CorePool,
    FairShareLink,
    FifoStore,
    Interrupt,
    JoinEvent,
    SegmentLog,
    Simulator,
)
from repro.sim.engine import Event, SimulationError
from repro.workflow.dag import Job
from tests.test_sim_properties import log_values

# ---------------------------------------------------------------------------
# SegmentLog
# ---------------------------------------------------------------------------


def test_segment_log_integrate_simple():
    log = SegmentLog(0.0, 0.0)
    log.record(1.0, 2.0)
    log.record(3.0, 0.0)
    # 0 on [0,1), 2 on [1,3), 0 after
    assert log.integrate(4.0) == pytest.approx(4.0)
    assert log.integrate(2.0) == pytest.approx(2.0)
    assert log.integrate(0.5) == pytest.approx(0.0)


def test_segment_log_dedupes_equal_values():
    log = SegmentLog(0.0, 1.0)
    log.record(2.0, 1.0)
    assert len(log.times) == 1


def test_segment_log_same_instant_overwrite():
    log = SegmentLog(0.0, 0.0)
    log.record(1.0, 5.0)
    log.record(1.0, 7.0)
    # The later value wins and no zero-length segment is kept.
    assert log.current == 7.0
    assert len(log.times) == len(log_values(log)) == 2
    assert log.integrate(3.0) == 14.0
    _times, means = log.sample(t_end=3.0, dt=1.0)
    assert means.tolist() == [0.0, 7.0, 7.0]


def test_segment_log_same_instant_collapse_back():
    log = SegmentLog(0.0, 3.0)
    log.record(1.0, 5.0)
    log.record(1.0, 3.0)  # back to previous value: change point vanishes
    assert log.current == 3.0
    assert len(log.times) == len(log_values(log)) == 1
    assert log.integrate(2.0) == 6.0
    # The vanished point left nothing behind: the log keeps recording.
    log.record(2.0, 1.0)
    assert log.integrate(4.0) == 8.0
    _times, means = log.sample(t_end=4.0, dt=2.0)
    assert means.tolist() == [3.0, 1.0]


def test_segment_log_time_backwards_raises():
    log = SegmentLog(0.0, 0.0)
    log.record(5.0, 1.0)
    with pytest.raises(ValueError):
        log.record(4.0, 2.0)


def test_segment_log_refuses_non_finite_times_and_values():
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError, match="t0=nan"):
        SegmentLog(nan, 0.0)
    with pytest.raises(ValueError, match="v0=inf"):
        SegmentLog(0.0, inf)
    log = SegmentLog(0.0, 0.0)
    log.record(1.0, 2.0)
    refused = [
        (nan, 1.0, "not finite: nan"),  # a new level at a bad time
        (nan, 0.0, "not finite: nan"),  # a known level at a bad time
        (inf, 3.0, "not finite: inf"),
        (0.5, 3.0, "backwards"),
        (2.0, nan, "value for a log: nan"),
        (2.0, -inf, "value for a log: -inf"),
    ]
    for t, value, match in refused:
        with pytest.raises(ValueError, match=match):
            log.record(t, value)
    # Nothing was mutated: no point, no level, and a later time records.
    assert list(log.times) == [0.0, 1.0] and list(log_values(log)) == [0.0, 2.0]
    assert log.levels == [0.0, 2.0]
    log.record(2.0, 0.0)
    assert log.integrate(3.0) == 2.0


def test_segment_log_widens_its_codes_past_256_levels():
    """A straggler run that calls ``set_capacity`` with many factors gives
    a link log one level per factor: the codes widen, values stay exact."""
    log = SegmentLog(0.0, 0.0)
    for i in range(1, 70_001):
        log.record(float(i), i * 0.5)
        if i == 255:
            assert log.codes.typecode == "B"
        elif i == 256:
            assert log.codes.typecode == "H"
        elif i == 65_536:
            assert log.codes.typecode == "I"
    log.record(70_001.0, 0.5)  # an old level again: no new one
    assert len(log.levels) == 70_001
    assert log_values(log)[:3].tolist() == [0.0, 0.5, 1.0]
    assert log_values(log)[-2:].tolist() == [35_000.0, 0.5]
    assert log.integrate(70_001.0) == sum(i * 0.5 for i in range(70_001))


def test_segment_log_sample_bucket_means():
    log = SegmentLog(0.0, 0.0)
    log.record(1.0, 4.0)
    log.record(2.0, 0.0)
    times, means = log.sample(t_end=4.0, dt=2.0)
    assert times.tolist() == [0.0, 2.0]
    # Bucket [0,2): half at 0, half at 4 -> mean 2.  Bucket [2,4): 0.
    assert means == pytest.approx([2.0, 0.0])


def test_segment_log_sample_partial_last_bucket():
    log = SegmentLog(0.0, 6.0)
    times, means = log.sample(t_end=5.0, dt=2.0)
    assert len(times) == 3
    assert means == pytest.approx([6.0, 6.0, 6.0])


def test_segment_log_sample_empty_range():
    log = SegmentLog(0.0, 1.0)
    times, means = log.sample(t_end=0.0, dt=1.0)
    assert times.size == 0 and means.size == 0


# ---------------------------------------------------------------------------
# CorePool
# ---------------------------------------------------------------------------


def test_core_pool_grants_up_to_capacity():
    sim = Simulator()
    pool = CorePool(sim, 2)
    grants = []

    def proc(name, hold):
        yield pool.acquire()
        grants.append((name, sim.now))
        yield sim.timeout(hold)
        pool.release()

    sim.process(proc("a", 5.0))
    sim.process(proc("b", 5.0))
    sim.process(proc("c", 1.0))
    sim.run()
    assert grants == [("a", 0.0), ("b", 0.0), ("c", 5.0)]


def test_core_pool_fifo_order():
    sim = Simulator()
    pool = CorePool(sim, 1)
    order = []

    def proc(name):
        yield pool.acquire()
        order.append(name)
        yield sim.timeout(1.0)
        pool.release()

    for name in "abcd":
        sim.process(proc(name))
    sim.run()
    assert order == list("abcd")


def test_core_pool_busy_log_tracks_utilisation():
    sim = Simulator()
    pool = CorePool(sim, 4)

    def proc():
        yield pool.acquire()
        yield sim.timeout(10.0)
        pool.release()

    sim.process(proc())
    sim.process(proc())
    sim.run()
    # 2 cores busy for 10 s -> 20 core-seconds
    assert pool.log.integrate(sim.now) == pytest.approx(20.0)
    assert pool.busy == 0


def test_core_pool_release_without_acquire_raises():
    sim = Simulator()
    pool = CorePool(sim, 1)
    with pytest.raises(SimulationError):
        pool.release()


def test_core_pool_cancel_queued_acquire():
    sim = Simulator()
    pool = CorePool(sim, 1)
    granted = []

    def holder():
        yield pool.acquire()
        yield sim.timeout(10.0)
        pool.release()

    sim.process(holder())
    sim.run(until=1.0)
    req = pool.acquire()  # queued behind holder
    assert pool.cancel(req)

    def late():
        yield pool.acquire()
        granted.append(sim.now)
        pool.release()

    sim.process(late())
    sim.run()
    # The cancelled request must be skipped; `late` gets the core at t=10.
    assert granted == [10.0]


def test_core_pool_cancel_refuses_an_event_it_does_not_queue():
    sim = Simulator()
    pool = CorePool(sim, 1)
    granted = pool.acquire()
    assert not pool.cancel(granted)  # already granted
    assert not pool.cancel(Event(sim))  # never this pool's
    queued = pool.acquire()
    assert pool.queued == 1
    assert pool.cancel(queued) and not pool.cancel(queued)
    assert pool.queued == 0 and pool.busy == 1


@pytest.mark.parametrize("handed_over", [False, True])
def test_core_waiter_killed_in_the_queue_leaks_no_core(handed_over):
    """A holds the only core to t=5; B queues behind it and is killed,
    either at t=2 or at t=5 just after A's release handed it the core;
    C asks for the core at t=10 and must get it."""
    sim = Simulator()
    node = SimpleNamespace(cores=CorePool(sim, 1))
    log = []

    def a():
        yield from execute_job(sim, node, None, Job("a", "t", 5.0))
        log.append(("a done", sim.now))
        if handed_over:
            b.interrupt()

    def b_():
        try:
            yield from execute_job(sim, node, None, Job("b", "t", 1.0))
        except Interrupt:
            log.append(("b killed", sim.now))

    def c():
        yield sim.timeout(10.0)
        yield from execute_job(sim, node, None, Job("c", "t", 1.0))
        log.append(("c done", sim.now))

    sim.process(a())
    b = sim.process(b_())
    sim.process(c())
    if not handed_over:
        sim.schedule_call(2.0, b.interrupt)
    sim.run()
    killed = ("b killed", 5.0 if handed_over else 2.0)
    assert sorted(log, key=lambda e: e[1]) == sorted(
        [("a done", 5.0), killed, ("c done", 11.0)], key=lambda e: e[1]
    )
    assert (node.cores.busy, node.cores.queued) == (0, 0)


def test_core_pool_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        CorePool(sim, 0)


@pytest.mark.parametrize(
    "capacity", [2.5, True, False, float("nan"), float("inf"), 0.5, -3]
)
def test_core_pool_refuses_a_capacity_that_is_not_a_whole_number(capacity):
    # int() would build 2 cores from 2.5 and 1 from True.
    with pytest.raises(ValueError, match="capacity"):
        CorePool(Simulator(), capacity)


def test_core_pool_accepts_a_whole_float_capacity():
    assert CorePool(Simulator(), 4.0).capacity == 4


# ---------------------------------------------------------------------------
# FairShareLink
# ---------------------------------------------------------------------------


def test_link_single_transfer_rate():
    sim = Simulator()
    link = FairShareLink(sim, capacity=100.0)
    done = []

    def proc():
        yield link.transfer(500.0)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [pytest.approx(5.0)]


def test_link_equal_sharing_two_streams():
    sim = Simulator()
    link = FairShareLink(sim, capacity=100.0)
    done = {}

    def proc(name, nbytes):
        yield link.transfer(nbytes)
        done[name] = sim.now

    sim.process(proc("a", 100.0))
    sim.process(proc("b", 100.0))
    sim.run()
    # Both share 100 B/s -> each runs at 50 B/s -> both finish at t=2.
    assert done["a"] == pytest.approx(2.0)
    assert done["b"] == pytest.approx(2.0)


def test_link_processor_sharing_unequal_sizes():
    sim = Simulator()
    link = FairShareLink(sim, capacity=100.0)
    done = {}

    def proc(name, nbytes):
        yield link.transfer(nbytes)
        done[name] = sim.now

    sim.process(proc("small", 100.0))
    sim.process(proc("big", 300.0))
    sim.run()
    # Shared until small finishes: each got 100 B at t=2.  Then big runs
    # alone for its remaining 200 B -> finishes at t=4.
    assert done["small"] == pytest.approx(2.0)
    assert done["big"] == pytest.approx(4.0)


def test_link_late_arrival_shares_remaining():
    sim = Simulator()
    link = FairShareLink(sim, capacity=100.0)
    done = {}

    def proc(name, start, nbytes):
        yield sim.timeout(start)
        yield link.transfer(nbytes)
        done[name] = sim.now

    sim.process(proc("first", 0.0, 300.0))
    sim.process(proc("second", 1.0, 100.0))
    sim.run()
    # first alone [0,1): 100 B done.  Shared at 50 B/s each until second
    # gets 100 B at t=3 (first now has 200 B).  First finishes remaining
    # 100 B alone at t=4.
    assert done["second"] == pytest.approx(3.0)
    assert done["first"] == pytest.approx(4.0)


def test_link_zero_byte_transfer_completes_immediately():
    sim = Simulator()
    link = FairShareLink(sim, capacity=10.0)
    ev = link.transfer(0.0)
    assert ev.triggered


def test_link_negative_transfer_raises():
    sim = Simulator()
    link = FairShareLink(sim, capacity=10.0)
    with pytest.raises(ValueError):
        link.transfer(-1.0)


def test_link_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        FairShareLink(sim, capacity=0.0)


def test_link_throughput_log_full_capacity_when_busy():
    sim = Simulator()
    link = FairShareLink(sim, capacity=100.0)

    def proc():
        yield link.transfer(200.0)
        yield sim.timeout(3.0)  # idle gap
        yield link.transfer(100.0)

    sim.process(proc())
    sim.run()
    # Busy [0,2) and [5,6): total bytes = 300.
    assert link.log.integrate(sim.now) == pytest.approx(300.0)
    assert sim.now == pytest.approx(6.0)


def test_link_conservation_many_streams():
    sim = Simulator()
    link = FairShareLink(sim, capacity=57.0)
    sizes = [13.0, 99.0, 1.0, 250.0, 40.0, 40.0, 7.5]
    finish = []

    def proc(nbytes, start):
        yield sim.timeout(start)
        yield link.transfer(nbytes)
        finish.append(sim.now)

    for i, size in enumerate(sizes):
        sim.process(proc(size, start=i * 0.5))
    sim.run()
    # Work conservation: all bytes drained at capacity once saturated.
    assert link.log.integrate(sim.now) == pytest.approx(sum(sizes), rel=1e-6)
    assert max(finish) == pytest.approx(sim.now)


def run_fixed_link_plan():
    """Twelve flows through one link by every entry point: staggered
    ``transfer`` / ``transfer_into`` / ``transfer_many`` arrivals, two
    zero-byte streams, two equal targets, two mid-flight capacity
    changes, an idle gap (virtual clock rebased) and one stream large
    enough for the magnitude-scaled tolerance.  Returns each stream's
    ``(label, repr(completion instant), sim._seq when it was observed)``,
    the simulator and the link."""
    sim = Simulator()
    link = FairShareLink(sim, capacity=57.0)
    seen = []

    class Arrival:
        # What the link needs of a completion target: ``_complete()``.
        def __init__(self, label):
            self.label = label

        def _complete(self):
            seen.append((self.label, repr(sim.now), sim._seq))

    def single(label, nbytes):
        link.transfer(nbytes).callbacks.append(
            lambda _event: seen.append((label, repr(sim.now), sim._seq))
        )

    def into(label, nbytes):
        link.transfer_into(nbytes, Arrival(label))

    sim.schedule_call(0.0, single, "a", 13.0)
    sim.schedule_call(0.0, into, "b", 99.5)
    sim.schedule_call(0.3, into, "c", 1.0 / 3.0)
    sim.schedule_call(
        0.7, link.transfer_many, [250.0, 0.0, 40.0, 40.0], Arrival("d")
    )
    sim.schedule_call(1.1, single, "e", 0.0)
    sim.schedule_call(1.9, link.set_capacity, 23.0)
    sim.schedule_call(2.5, into, "f", 7.5)
    sim.schedule_call(2.5, single, "g", 7.5)
    sim.schedule_call(6.0, link.set_capacity, 111.0)
    sim.schedule_call(40.0, single, "h", 1e-3)
    sim.schedule_call(40.0, into, "i", 5e9)
    sim.run()
    return seen, sim, link


def test_link_fixed_plan_exact_floats_and_event_count():
    """The link's exact arithmetic and the number of events it schedules,
    pinned as literals (taken before the wake cycle was fused into one
    frame): bounds and conservation laws cannot see a changed rounding
    or an extra wake-up, whole-engine digests see it only from afar."""
    seen, sim, link = run_fixed_link_plan()
    assert seen == [
        ("c", "0.31754385964912285", 14),
        ("a", "0.4619883040935673", 17),
        ("d", "0.7", 17),
        ("e", "1.1", 18),
        ("f", "4.456521739130435", 21),
        ("g", "4.456521739130435", 23),
        ("d", "6.110810810810811", 24),
        ("d", "6.110810810810811", 24),
        ("b", "6.7042042042042045", 25),
        ("d", "8.2993993993994", 26),
        ("h", "40.00001801801802", 30),
        ("i", "45045085.04505405", 30),
    ]
    assert sim._seq == 30
    assert repr(link.log.integrate(sim.now)) == "5000000457.834332"
    assert list(link.log.times) == [
        0.0, 1.9, 6.0, 8.2993993993994, 40.0, 45045085.04505405
    ]
    assert list(log_values(link.log)) == [57.0, 23.0, 111.0, 0.0, 111.0, 0.0]


def test_join_arriving_more_often_than_its_count_raises():
    """``JoinEvent(sim, 2)`` used to take a third ``arrive()`` in silence
    (``_pending`` -1) while a second ``succeed()`` raised.  The link's
    in-frame copy of ``arrive`` refuses the same way."""
    sim = Simulator()
    join = JoinEvent(sim, 2)
    join.arrive()
    join.arrive()
    assert join.triggered and join._pending == 0
    with pytest.raises(SimulationError, match="more often than its count"):
        join.arrive()
    assert join._pending == 0
    with pytest.raises(SimulationError, match="more often than its count"):
        JoinEvent(sim, 0).arrive()

    link = FairShareLink(sim, capacity=100.0)
    short = JoinEvent(sim, 1)
    link.transfer_into(50.0, short)
    link.transfer_into(60.0, short)  # one stream too many for the count
    with pytest.raises(SimulationError, match="more often than its count"):
        sim.run()
    assert short.triggered and short._pending == 0


def test_link_in_frame_completion_refuses_a_triggered_event():
    """Completing a stream into an event somebody already triggered raises
    what ``succeed()`` raises."""
    sim = Simulator()
    link = FairShareLink(sim, capacity=100.0)
    event = sim.event()
    link.transfer_into(50.0, event)
    event.succeed()
    with pytest.raises(SimulationError, match="event already triggered"):
        sim.run()


_BAD_SIZES = [float("inf"), float("nan"), -1.0]


def _assert_untouched_then_honest(sim, link, join):
    """After a refused call: link, barrier, log and agenda as they were,
    and an honest stream still completes at the exact instant."""
    assert (link._n, link._heap, link._seq, link._wake_ev) == (0, [], 0, None)
    assert link._v == 0.0
    assert list(link.log.times) == [0.0] and list(log_values(link.log)) == [0.0]
    assert join._pending == 1 and not join.triggered
    assert sim._seq == 0 and sim.peek() == float("inf")
    link.transfer_into(50.0, join)
    sim.run()
    assert join.callbacks is None and sim.now == 0.5
    assert list(link.log.times) == [0.0, 0.5]
    assert list(log_values(link.log)) == [link.capacity, 0.0]


@pytest.mark.parametrize("bad", _BAD_SIZES, ids=repr)
@pytest.mark.parametrize("how", ["transfer", "transfer_into", "transfer_many"])
def test_link_refuses_a_bad_size_before_it_mutates(how, bad, _strict_sanitizer):
    """``transfer_into(inf, join)`` used to push the stream, count it and
    log the link busy, and only then die arming the wake-up; the orphan
    blew up inside ``run()`` on the next honest transfer.  ``nan`` did
    the same and poisoned the heap order."""
    sim = Simulator()
    link = FairShareLink(sim, capacity=100.0)
    join = JoinEvent(sim, 1)
    with pytest.raises(ValueError, match="transfer size"):
        if how == "transfer":
            link.transfer(bad)
        elif how == "transfer_into":
            link.transfer_into(bad, join)
        else:
            link.transfer_many([25.0, bad], join)
    _assert_untouched_then_honest(sim, link, join)
    assert not _strict_sanitizer.violations


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -5.0], ids=repr)
def test_link_refuses_a_bad_capacity(bad, _strict_sanitizer):
    """``nan <= 0`` is false: the constructor and ``set_capacity`` took
    ``nan`` and ``inf``.  A refused ``set_capacity`` leaves the rate."""
    sim = Simulator()
    with pytest.raises(ValueError, match="link capacity"):
        FairShareLink(sim, capacity=bad)
    link = FairShareLink(sim, capacity=100.0)
    with pytest.raises(ValueError, match="link capacity"):
        link.set_capacity(bad)
    assert link.capacity == 100.0
    _assert_untouched_then_honest(sim, link, JoinEvent(sim, 1))
    assert not _strict_sanitizer.violations


def test_link_overflowing_wake_up_delay_is_refused_at_arm_time():
    """Finite size over a tiny finite capacity: the delay overflows, and
    the arm-time check (``Timeout``'s) raises before the agenda is
    touched."""
    sim = Simulator()
    link = FairShareLink(sim, capacity=1e-300)
    with pytest.raises(ValueError, match="delay must be finite"):
        link.transfer(1e300)
    assert sim._seq == 0 and sim.peek() == float("inf")


def test_link_transfer_many_validates_before_it_mutates(_strict_sanitizer):
    """A batch with a bad size is refused whole.  It used to raise with
    the streams before the bad one already on the heap: ``_n`` and
    ``_seq`` not advanced (the next stream reused a sequence number), no
    wake-up armed, and an orphan waiting to fire into the abandoned
    barrier during a later busy period."""
    sim = Simulator()
    link = FairShareLink(sim, capacity=100.0)
    join = JoinEvent(sim, 3)
    with pytest.raises(ValueError, match="negative transfer size"):
        link.transfer_many([50.0, 0.0, -1.0], join)
    assert (link._n, link._heap, link._seq, link._wake_ev) == (0, [], 0, None)
    assert link._v == 0.0
    assert list(link.log.times) == [0.0] and list(log_values(link.log)) == [0.0]
    assert join._pending == 3 and not join.triggered
    assert sim._seq == 0
    # The link is as good as new: a later busy period runs clean under
    # the strict sanitizer and nothing arrives into the refused barrier.
    done = link.transfer(50.0)
    sim.run()
    assert done.ok and sim.now == 0.5
    assert join._pending == 3
    assert not _strict_sanitizer.violations


# ---------------------------------------------------------------------------
# FifoStore
# ---------------------------------------------------------------------------


def test_fifo_store_put_then_get():
    sim = Simulator()
    store = FifoStore(sim)
    store.put("x")
    got = []

    def proc():
        item = yield store.get()
        got.append(item)

    sim.process(proc())
    sim.run()
    assert got == ["x"]


def test_fifo_store_get_blocks_until_put():
    sim = Simulator()
    store = FifoStore(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, sim.now))

    def producer():
        yield sim.timeout(4.0)
        store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("late", 4.0)]


def test_fifo_store_order_preserved():
    sim = Simulator()
    store = FifoStore(sim)
    for i in range(5):
        store.put(i)
    got = []

    def consumer():
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def _slots(event):
    return type(event), event.sim, event.callbacks, event._state, event._value


def test_transfer_and_put_build_what_the_kernel_builds():
    """``FairShareLink.transfer`` carries ``Event.__init__`` and
    ``FifoStore.put`` carries ``Event.succeed`` in their own frames: slot
    for slot and agenda entry for agenda entry what the kernel's own
    methods leave behind."""
    sim = Simulator()
    assert _slots(FairShareLink(sim, 100.0).transfer(50.0)) == _slots(Event(sim))
    store = FifoStore(sim)
    getter, reference = store.get(), Event(sim)
    before = sim._seq
    store.put("item")
    reference.succeed("item")
    assert _slots(getter) == _slots(reference)
    assert list(sim._imm)[-2:] == [(before + 1, getter), (before + 2, reference)]
    with pytest.raises(SimulationError, match="already triggered"):
        getter.succeed("again")
