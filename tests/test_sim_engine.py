"""Unit tests for the DES kernel event loop and process model."""

import random

import pytest

import repro.analysis.sanitizer as sanitizer
from repro.sim import (
    AllOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(5.0)
        log.append(sim.now)
        yield sim.timeout(2.5)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [5.0, 7.5]


def test_timeout_value_passthrough():
    sim = Simulator()
    seen = []

    def proc():
        value = yield sim.timeout(1.0, value="tick")
        seen.append(value)

    sim.process(proc())
    sim.run()
    assert seen == ["tick"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append((sim.now, value))

    def opener():
        yield sim.timeout(3.0)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert seen == [(3.0, "open")]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_fail_throws_into_process():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    gate.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_process_return_value_propagates():
    sim = Simulator()
    results = []

    def child():
        yield sim.timeout(2.0)
        return 42

    def parent():
        value = yield sim.process(child())
        results.append(value)

    sim.process(parent())
    sim.run()
    assert results == [42]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def child():
        yield sim.timeout(1.0)
        raise ValueError("child failed")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent())
    sim.run()
    assert caught == ["child failed"]


def test_yield_on_already_fired_event_resumes_immediately():
    sim = Simulator()
    ticks = []

    def proc():
        done = sim.timeout(0.0)
        yield sim.timeout(1.0)
        # `done` fired at t=0; yielding it must not block.
        yield done
        ticks.append(sim.now)

    sim.process(proc())
    sim.run()
    assert ticks == [1.0]


def test_deterministic_fifo_ordering_same_time():
    sim = Simulator()
    order = []

    def proc(name):
        yield sim.timeout(1.0)
        order.append(name)

    for name in "abcde":
        sim.process(proc(name))
    sim.run()
    assert order == list("abcde")


def test_run_until_stops_clock():
    sim = Simulator()

    def proc():
        while True:
            yield sim.timeout(10.0)

    sim.process(proc())
    end = sim.run(until=35.0)
    assert end == 35.0
    assert sim.now == 35.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


@pytest.mark.parametrize("until", [float("inf"), float("nan"), -float("inf")], ids=repr)
def test_run_refuses_a_non_finite_until_before_popping(until):
    """``run(until=inf)`` drained the agenda and then set ``now`` to inf;
    ``run(until=nan)`` returned 0.0 with the agenda untouched.  Both are
    refused, as ``Timeout`` refuses such a delay, with nothing popped."""
    sim = Simulator()
    fired = []
    sim.timeout(1.0).callbacks.append(lambda _ev: fired.append(sim.now))
    sim.timeout(0.0).callbacks.append(lambda _ev: fired.append(sim.now))
    with pytest.raises(ValueError, match="until must be finite"):
        sim.run(until=until)
    assert fired == [] and sim.now == 0.0 and sim.peek() == 0.0
    assert sim.run() == 1.0 and fired == [0.0, 1.0]


def test_run_until_runs_a_callback_appended_to_the_awaited_event():
    """The stop test comes after the whole callback list: a callback that
    an earlier event appends to the awaited one, and a process that
    starts waiting on it, both run before ``run_until`` returns."""
    sim = Simulator()
    awaited = sim.timeout(2.0)
    log = []

    def waiter():
        log.append(("resumed", (yield awaited)))

    def arm(_ev):
        awaited.callbacks.append(lambda _ev: log.append(("callback", sim.now)))
        sim.process(waiter())

    sim.timeout(1.0).callbacks.append(arm)
    sim.timeout(2.0).callbacks.append(lambda _ev: log.append(("later", sim.now)))
    assert sim.run_until(awaited) == 2.0
    assert log == [("callback", 2.0), ("resumed", None)]
    sim.run()
    assert log[-1] == ("later", 2.0)


def test_interrupt_waiting_process():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100.0)
            log.append("finished")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    def killer(proc):
        yield sim.timeout(7.0)
        proc.interrupt("node failure")

    proc = sim.process(victim())
    sim.process(killer(proc))
    sim.run()
    assert log == [("interrupted", 7.0, "node failure")]


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def victim():
        yield sim.timeout(1.0)

    proc = sim.process(victim())
    sim.run()
    assert not proc.is_alive
    proc.interrupt("too late")  # must not raise
    sim.run()


def test_interrupted_wait_does_not_resume_twice():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(10.0)
        except Interrupt:
            log.append("interrupted")
        yield sim.timeout(50.0)
        log.append("second wait done at %g" % sim.now)

    proc = sim.process(victim())

    def killer():
        yield sim.timeout(4.0)
        proc.interrupt()

    sim.process(killer())
    sim.run()
    # The abandoned 10 s timeout must not resume the process at t=10.
    assert log == ["interrupted", "second wait done at 54"]


def test_uncaught_interrupt_terminates_process():
    sim = Simulator()

    def victim():
        yield sim.timeout(10.0)

    proc = sim.process(victim())

    def killer():
        yield sim.timeout(1.0)
        proc.interrupt()

    sim.process(killer())
    sim.run()
    assert not proc.is_alive


def test_all_of_waits_for_every_event():
    sim = Simulator()
    seen = []

    def proc():
        events = [sim.timeout(t, value=t) for t in (3.0, 1.0, 2.0)]
        values = yield AllOf(sim, events)
        seen.append((sim.now, values))

    sim.process(proc())
    sim.run()
    assert seen == [(3.0, [3.0, 1.0, 2.0])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    seen = []

    def proc():
        values = yield AllOf(sim, [])
        seen.append((sim.now, values))

    sim.process(proc())
    sim.run()
    assert seen == [(0.0, [])]


def test_schedule_call_runs_function():
    sim = Simulator()
    calls = []
    sim.schedule_call(4.0, calls.append, "x")
    sim.run()
    assert calls == ["x"]
    assert sim.now == 4.0


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(9.0)
    assert sim.peek() == 9.0


def test_yielding_non_event_raises():
    sim = Simulator()

    def proc():
        yield 17  # not an Event

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_nested_processes_chain():
    sim = Simulator()
    trace = []

    def level(depth):
        if depth > 0:
            yield sim.process(level(depth - 1))
        yield sim.timeout(1.0)
        trace.append((depth, sim.now))

    sim.process(level(3))
    sim.run()
    assert trace == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_delay_rejected(delay):
    # A NaN key in the heap would break (time, seq) ordering silently.
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(delay)
    with pytest.raises(ValueError):
        sim.schedule_call(delay, lambda: None)
    assert sim.peek() == float("inf") and sim._seq == 0


def test_negative_zero_delay_takes_the_zero_delay_lane():
    sim = Simulator()
    log = []
    sim.timeout(-0.0).callbacks.append(lambda ev: log.append("timeout"))
    sim.schedule_call(-0.0, log.append, "call")
    assert not sim._heap and sim.peek() == 0.0
    sim.run()
    assert log == ["timeout", "call"] and sim.now == 0.0


def test_step_on_empty_agenda_raises():
    sim = Simulator()
    with pytest.raises(SimulationError, match="empty agenda"):
        sim.step()
    sim.timeout(1.0)
    sim.step()
    assert sim.now == 1.0
    with pytest.raises(SimulationError, match="empty agenda"):
        sim.step()


def test_run_until_exhausted_agenda_raises():
    sim = Simulator()
    sim.timeout(1.0)
    with pytest.raises(SimulationError, match="agenda exhausted"):
        sim.run_until(sim.event())
    assert sim.now == 1.0


def _tagged(sim, log, delay, tag):
    timer = sim.timeout(delay)
    timer.callbacks.append(lambda ev: log.append((sim.now, tag)))
    return timer


def test_same_instant_ties_break_by_schedule_order():
    sim = Simulator()
    log = []
    for tag in "abc":
        _tagged(sim, log, 2.0, tag)
    _tagged(sim, log, 1.0, "edge")
    sim.run()
    assert log == [(1.0, "edge"), (2.0, "a"), (2.0, "b"), (2.0, "c")]


def test_succeed_during_same_instant_dispatch_runs_after_peers():
    # An event succeeded while an instant drains gets a fresh (larger)
    # seq, so the timers already scheduled for that instant go first.
    sim = Simulator()
    log = []
    side = Event(sim)
    side.callbacks.append(lambda ev: log.append("side"))
    first = sim.timeout(0.5)
    first.callbacks.append(lambda ev: (log.append("first"), side.succeed()))
    sim.timeout(0.5).callbacks.append(lambda ev: log.append("second"))
    sim.run()
    assert log == ["first", "second", "side"]


def _step_to_end(sim, fired):
    """Drive with ``step()``; returns what had fired after each call."""
    after = []
    while sim.peek() < float("inf"):
        sim.step()
        after.append(list(fired))
    return after


@pytest.mark.parametrize("drive", ["run", "run_until", "step"])
def test_a_heap_entry_at_this_instant_keeps_its_seq_between_immediate_ones(drive):
    """At now = 1e17, now + 1.0 == now: ``Timeout(1.0)`` goes on the heap
    at this very instant.  Scheduled between two ``succeed()`` calls, it
    fires between them, so the loop's lane test compares seqs, not only
    times — and ``step()``, which names the event it stops behind by
    the same test, processes exactly one event per call."""
    sim = Simulator()
    sim.run(until=1e17)
    fired = []
    first, last = Event(sim), Event(sim)
    first.callbacks.append(lambda ev: fired.append("first"))
    last.callbacks.append(lambda ev: fired.append("last"))
    first.succeed()
    timer = sim.timeout(1.0)
    timer.callbacks.append(lambda ev: fired.append("timer"))
    last.succeed()
    assert sim._heap[0][0] == sim.now  # the heap lane, at this instant
    if drive == "run":
        sim.run()
    elif drive == "run_until":
        sim.run_until(last)
    else:
        assert _step_to_end(sim, fired) == [
            ["first"], ["first", "timer"], ["first", "timer", "last"],
        ]
    assert fired == ["first", "timer", "last"]
    assert sim.now == 1e17


def test_far_future_timer_fires_after_near_one():
    sim = Simulator()
    log = []
    _tagged(sim, log, 1000.0, "far")
    _tagged(sim, log, 2.0, "near")
    sim.run()
    assert log == [(2.0, "near"), (1000.0, "far")]


def test_run_until_boundary_leaves_later_entry_on_the_agenda():
    sim = Simulator()
    log = []
    _tagged(sim, log, 3.0, "late")
    assert sim.run(until=2.0) == 2.0
    assert log == []
    assert sim.peek() == 3.0  # entry survived the early stop
    sim.run()
    assert log == [(3.0, "late")]


def test_cancelled_timer_is_skipped():
    # The lazy cancel a link's _Wake uses: the entry stays on the agenda
    # with its callbacks cleared, and the dispatch loop skips it.
    sim = Simulator()
    log = []
    doomed = _tagged(sim, log, 1.0, "doomed")
    _tagged(sim, log, 2.0, "keeper")
    doomed.callbacks = None
    sim.run()
    assert log == [(2.0, "keeper")]


def test_peek_tracks_the_earliest_timer():
    sim = Simulator()
    sim.timeout(2.5)
    assert sim.peek() == 2.5
    sim.timeout(1.25)
    assert sim.peek() == 1.25
    sim.timeout(0.0)
    assert sim.peek() == 0.0


def test_sanitized_run_matches_unsanitized_run(monkeypatch):
    def burst(sim, log):
        rng = random.Random(11)
        for i in range(300):
            delay = rng.choice([0.0, 1.0, 2.0, 2.0, rng.uniform(0.0, 8.0), 3e3])
            timer = _tagged(sim, log, delay, i)
            if rng.random() < 0.1:
                timer.callbacks = None
            if rng.random() < 0.2:
                yield sim.timeout(rng.uniform(0.1, 3.0))

    def trace():
        sim, log = Simulator(), []
        sim.process(burst(sim, log))
        sim.run()
        return log

    assert sanitizer.active() is not None  # conftest arms the strict one
    checked = trace()
    monkeypatch.setattr(sanitizer, "_ACTIVE", None)
    assert trace() == checked and len(checked) > 250
