"""Property-based tests (hypothesis) for the DES kernel invariants."""

from array import array
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.sanitizer as sanitizer
from repro.sim import (
    CorePool,
    Event,
    FairShareLink,
    Interrupt,
    JoinEvent,
    Process,
    SegmentLog,
    SimulationError,
    Simulator,
)

# ---------------------------------------------------------------------------
# The agenda against a naive model that can disagree
# ---------------------------------------------------------------------------

INF = float("inf")

#: One op: ``(kind, delay, parent key, victim key)``.  Op ``i`` runs when
#: op ``parent key % (i + 1) - 1`` fires (-1: before the run starts), so a
#: program schedules from inside callbacks as well as up front.  A
#: ``cancel`` acts on the ``victim key``-th (cyclically) of the timeouts,
#: calls and succeeds scheduled so far (one that runs before any is
#: scheduled waits, and acts on the first one as it is scheduled), a
#: ``trigger`` or an ``interrupt`` on that of the processes started so far
#: that it can act on (:data:`_TARGETS`); a process op ends as ``victim
#: key % 3`` says (:data:`_ENDS`).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["timeout", "call", "succeed", "cancel",
             "sleeper", "gated", "trigger", "interrupt"]
        ),
        # Zero, tied, short and week-long delays.
        st.sampled_from([0.0, 1.0, 1.0, 2.0, 1e7]) | st.floats(0.001, 8.0),
        st.integers(0, 1000),
        st.integers(0, 1000),
    ),
    max_size=16,
)
_SLICES = st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e7]), max_size=6)

#: How a process op ends once its wait is over: it returns, it yields the
#: event it waited on again (already processed: it resumes at once) and
#: then returns, or it raises.  A ``sleeper`` waits on a timeout of its
#: own, a ``gated`` process on an event a ``trigger`` op succeeds.
_ENDS = ("return", "again", "raise")
#: The process ops a targeting op can act on (``None``: the scheduled
#: timeouts, calls and succeeds, ``agenda.handles``).
_TARGETS = {"cancel": None, "trigger": ("gated",), "interrupt": ("sleeper", "gated")}


def log_values(log):
    """A ``SegmentLog``'s value column, decoded from its codes."""
    return array("d", map(log.levels.__getitem__, log.codes))


def _program(ops, agenda):
    """Start ``ops`` on ``agenda``.  Returns the log the run will fill;
    every op scheduled so far is in ``agenda.handles`` (timeouts, calls,
    succeeds) or ``agenda.procs`` (processes)."""
    log = agenda.log
    waiting = []  # cancels that ran before any handle was scheduled

    def act(i):
        kind, _delay, _parent, victim = ops[i]
        kinds = _TARGETS[kind]
        if kinds is None:
            targets = list(agenda.handles)
        else:
            targets = [k for k in agenda.procs if ops[k][0] in kinds] or [None]
        j = targets[victim % len(targets)]
        log.append((agenda.now(), i, getattr(agenda, kind)(j)))

    def execute(i):
        kind, delay, _parent, victim = ops[i]
        if kind == "cancel" and not agenda.handles:
            log.append((agenda.now(), i, "waits"))
            waiting.append(i)
        elif kind in _TARGETS:
            act(i)
        elif kind in ("sleeper", "gated"):
            agenda.start(i, kind, delay, _ENDS[victim % 3], lambda: fire(i))
        else:
            delay = 0.0 if kind == "succeed" else delay
            agenda.handles[i] = agenda.after(kind, delay, lambda: fire(i))
            for j in waiting:
                act(j)
            waiting.clear()

    def execute_children(i):
        for j in range(i + 1, len(ops)):
            if ops[j][2] % (j + 1) - 1 == i:
                execute(j)

    def fire(i):
        log.append((agenda.now(), i))
        execute_children(i)

    execute_children(-1)
    return log


class _NaiveAgenda:
    """The agenda as a plain list of ``[time, seq, fire]``, sorted before
    every pop; a cancelled entry keeps its place and fires nothing, and
    a cancel reports whether the entry was still live.  A process is a
    state and a wait token: an entry that would resume it does so only
    if the process still waits on that token.  Every kernel object that
    takes a ``sim._seq`` — boot event, a sleeper's timeout, a succeeded
    gate, an interrupt, the finished process — is one entry here."""

    def __init__(self):
        self.time, self.seq, self.entries, self.log = 0.0, 0, [], []
        self.handles, self.procs, self.gates = {}, {}, {}

    def now(self):
        return self.time

    def after(self, _kind, delay, fire):
        self.seq += 1
        self.entries.append([self.time + delay, self.seq, fire])
        return self.entries[-1]

    def cancel(self, j):
        entry = self.handles.get(j)
        if entry is None:
            return False
        live = entry[2] is not None and any(other is entry for other in self.entries)
        entry[2] = None
        return live

    def start(self, i, kind, delay, end, fire):
        proc = self.procs[i] = {"state": "booting", "wait": object()}
        if kind == "gated":
            self.gates[i] = {"triggered": False, "waiter": None}
        token = proc["wait"]
        self.after(None, 0.0, lambda: self._boot(i, kind, delay, end, fire, token))

    def _boot(self, i, kind, delay, end, fire, token):
        proc = self.procs[i]
        if proc["wait"] is not token:  # interrupted before it began
            return
        proc["state"], proc["wait"] = "waiting", object()
        resume = lambda token=proc["wait"]: self._resume(i, end, fire, token)
        if kind == "sleeper":
            self.after(None, delay, resume)
        else:
            self.gates[i]["waiter"] = resume

    def _resume(self, i, end, fire, token):
        proc = self.procs[i]
        if proc["wait"] is not token:  # an interrupt took it off this wait
            return
        proc["state"], proc["wait"] = "running", None
        fire()
        if end == "again":
            self.log.append((self.time, i, "again"))
        self._finish(proc, "failed" if end == "raise" else "ok")

    def _finish(self, proc, outcome="ok"):
        proc["state"], proc["outcome"] = "done", outcome
        self.after(None, 0.0, lambda: None)

    def outcomes(self):
        return {i: proc.get("outcome", "alive") for i, proc in self.procs.items()}

    def trigger(self, j):
        gate = self.gates.get(j)
        if gate is None or gate["triggered"]:
            return False
        gate["triggered"] = True
        # No waiter: its process was interrupted before it began.
        self.after(None, 0.0, lambda: gate["waiter"] and gate["waiter"]())
        return True

    def interrupt(self, j):
        proc = self.procs.get(j)
        if proc is None or proc["state"] == "done":
            return False
        proc["wait"] = None  # taken off whatever it waited on
        self.after(None, 0.0, lambda: self._interrupted(j))
        return True

    def _interrupted(self, j):
        proc = self.procs[j]
        if proc["state"] == "done":  # thrown into a finished generator
            return
        if proc["state"] == "waiting":  # caught at its wait
            self.log.append((self.time, j, "interrupted"))
        # A process that never began meets it at its first line: it ends,
        # and an Interrupt that escapes a generator is a plain end.
        self._finish(proc)

    def drain(self):
        entries = self.entries
        while entries:
            entries.sort(key=lambda entry: entry[:2])
            self.time, _seq, fire = entries.pop(0)
            if fire is not None:
                fire()


def _naive_trace(ops):
    agenda = _NaiveAgenda()
    log = _program(ops, agenda)
    agenda.drain()
    return log, agenda.outcomes()


def _clear(event):
    """The kernel's lazy cancel, as a link's ``_Wake`` does it: clear the
    callbacks and the entry is skipped when it surfaces.  The list is
    emptied as well, so a caller still holding it sees the cancel."""
    callbacks = event.callbacks
    if callbacks is None:
        return False
    callbacks.clear()
    event.callbacks = None
    return True


class _KernelAgenda:
    """The same program on a :class:`Simulator`, processes as generators."""

    def __init__(self):
        self.sim, self.log = Simulator(), []
        self.handles, self.procs, self.gates = {}, {}, {}

    def now(self):
        return self.sim.now

    def after(self, kind, delay, fire):
        sim = self.sim
        if kind == "call":
            return sim.schedule_call(delay, fire)
        event = sim.event().succeed() if kind == "succeed" else sim.timeout(delay)
        event.callbacks.append(lambda _event: fire())
        return event

    def cancel(self, j):
        handle = self.handles.get(j)
        return handle is not None and _clear(handle)

    def start(self, i, kind, delay, end, fire):
        sim, log = self.sim, self.log
        gate = self.gates[i] = sim.event() if kind == "gated" else None

        def body():
            try:
                waited = sim.timeout(delay) if gate is None else gate
                yield waited
            except Interrupt:
                log.append((sim.now, i, "interrupted"))
                if end == "raise":
                    raise  # escapes the generator: a plain end
                return
            fire()
            if end == "again":
                assert (yield waited) is None
                log.append((sim.now, i, "again"))
            elif end == "raise":
                raise RuntimeError(f"op {i} fails its process")

        self.procs[i] = sim.process(body())

    def trigger(self, j):
        gate = self.gates.get(j)
        if gate is None or gate.triggered:
            return False
        gate.succeed()
        return True

    def interrupt(self, j):
        proc = self.procs.get(j)
        if proc is None or not proc.is_alive:
            return False
        proc.interrupt("op")
        return True

    def outcomes(self):
        return {
            i: "alive" if proc.is_alive else "ok" if proc.ok else "failed"
            for i, proc in self.procs.items()
        }


def _kernel_trace(ops, drive):
    agenda = _KernelAgenda()
    log = _program(ops, agenda)
    roots = sorted({**agenda.handles, **agenda.procs}.items())
    drive(agenda.sim, log, roots)
    assert agenda.sim.peek() == INF
    return log, agenda.outcomes()


def _by_steps(sim, _log, _roots):
    def size():
        return len(sim._heap) + len(sim._imm) - sim._seq

    while sim.peek() < INF:
        before = size()
        sim.step()
        # Every sim._seq is one push: one step pops exactly one entry.
        assert before - size() == 1


def _by_slices(widths):
    def drive(sim, log, _roots):
        for width in widths:
            until = sim.now + width
            assert sim.run(until=until) == until == sim.now
            assert sim.peek() > until and all(entry[0] <= until for entry in log)
        sim.run()

    return drive


def _by_awaiting(sim, log, roots):
    for i, handle in roots:
        live = handle.callbacks  # emptied by a cancel; a process's is []
        try:
            sim.run_until(handle)
        except SimulationError:  # a gated process nothing triggers
            assert isinstance(handle, Process) and handle.is_alive
            assert sim.peek() == INF
            continue
        assert handle.callbacks is None
        if live:  # stopped right behind it: nothing has fired since
            assert [entry for entry in log if len(entry) == 2][-1] == (sim.now, i)
    sim.run()


#: Cancel ops run and those that reached a live entry, on the model.
_CANCELS = {"run": 0, "live": 0}


@given(_OPS, _SLICES)
@settings(max_examples=300, deadline=None)
def _agenda_matches_naive_sorted_list(ops, widths):
    expected = _naive_trace(ops)
    cancels = [entry for entry in expected[0]
               if len(entry) == 3 and ops[entry[1]][0] == "cancel"]
    _CANCELS["run"] += len({entry[1] for entry in cancels})
    _CANCELS["live"] += sum(entry[2] is True for entry in cancels)
    drives = [lambda sim, *_: sim.run(), _by_slices(widths), _by_awaiting, _by_steps]
    assert sanitizer.active() is not None  # conftest arms the strict one
    for armed in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not armed:
                patch.setattr(sanitizer, "_ACTIVE", None)
            for drive in drives:
                assert _kernel_trace(ops, drive) == expected


def test_agenda_matches_naive_sorted_list():
    """Timeouts, ``schedule_call``s, ``succeed``s and cancels, and
    processes that wait on a timeout or on an event another op succeeds,
    are interrupted, yield an already-processed event, return or raise —
    up front and from callbacks and processes: ``run()``, ``run(until)``
    in slices, ``run_until`` on each up-front event and process in turn
    and a ``step()`` loop all leave the model's trace, with the sanitizer
    on and off; every process ends as the model's does (returned,
    failed, or still waiting)."""
    _CANCELS.update(run=0, live=0)
    _agenda_matches_naive_sorted_list()
    run, live = _CANCELS["run"], _CANCELS["live"]
    print(f"cancels reaching a live entry: {live} of {run} "
          f"({100 * live / max(run, 1):.0f}%)")


# ---------------------------------------------------------------------------
# FairShareLink invariants
# ---------------------------------------------------------------------------


@st.composite
def transfer_plans(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    sizes = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=1e4, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    starts = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    capacity = draw(st.floats(min_value=1.0, max_value=1e3, allow_nan=False))
    return capacity, list(zip(starts, sizes))


@given(transfer_plans())
@settings(max_examples=60, deadline=None)
def test_link_work_conservation(plan):
    """Total delivered bytes equal total requested bytes."""
    capacity, transfers = plan
    sim = Simulator()
    link = FairShareLink(sim, capacity=capacity)
    finished = []

    def proc(start, size):
        yield sim.timeout(start)
        yield link.transfer(size)
        finished.append(size)

    for start, size in transfers:
        sim.process(proc(start, size))
    sim.run()
    assert len(finished) == len(transfers)
    total = sum(size for _, size in transfers)
    assert link.log.integrate(sim.now) == pytest.approx(total, rel=1e-6)


@given(transfer_plans())
@settings(max_examples=60, deadline=None)
def test_link_no_transfer_beats_dedicated_rate(plan):
    """No stream finishes faster than running alone at full capacity."""
    capacity, transfers = plan
    sim = Simulator()
    link = FairShareLink(sim, capacity=capacity)
    records = []

    def proc(start, size):
        yield sim.timeout(start)
        t0 = sim.now
        yield link.transfer(size)
        records.append((size, sim.now - t0))

    for start, size in transfers:
        sim.process(proc(start, size))
    sim.run()
    for size, elapsed in records:
        assert elapsed >= size / capacity - 1e-6


@given(transfer_plans())
@settings(max_examples=40, deadline=None)
def test_link_makespan_at_least_serial_bound(plan):
    """The last completion cannot beat total_bytes / capacity from t=0."""
    capacity, transfers = plan
    sim = Simulator()
    link = FairShareLink(sim, capacity=capacity)

    def proc(start, size):
        yield sim.timeout(start)
        yield link.transfer(size)

    for start, size in transfers:
        sim.process(proc(start, size))
    end = sim.run()
    total = sum(size for _, size in transfers)
    earliest = min(start for start, _ in transfers)
    assert end >= earliest + total / capacity - 1e-6


class _Arrival:
    """A completion target that only records: the link asks nothing of
    one but ``_complete()``."""

    def __init__(self, sim, done, flow):
        self.sim, self.done, self.flow = sim, done, flow

    def _complete(self):
        self.done.append((self.flow, self.sim.now))


def _naive_processor_sharing(capacity, batches, change):
    """Reference model: remaining bytes per flow, recomputed at every
    arrival, capacity change and completion.  ``batches`` is a list of
    ``(time, sizes)`` in arrival order, ``change`` a ``(time, capacity)``
    pair or ``None``.  Returns ``{flow number: completion instant}``."""
    pending = sorted(
        [(t, 0, i, sizes) for i, (t, sizes) in enumerate(batches)]
        + ([(change[0], -1, -1, change[1])] if change else [])
    )
    remaining, finished = {}, {}
    now, flow = 0.0, 0
    while pending or remaining:
        ahead = pending[0][0] if pending else float("inf")
        if remaining:
            least = min(remaining.values())
            ends = now + least * len(remaining) / capacity
            if ends <= ahead:
                served = least
                for f in list(remaining):
                    remaining[f] -= served
                    if remaining[f] <= 0.0:
                        del remaining[f]
                        finished[f] = ends
                now = ends
                continue
            served = (ahead - now) * capacity / len(remaining)
            for f in remaining:
                remaining[f] -= served
        now = ahead
        _t, order, _i, payload = pending.pop(0)
        if order < 0:
            capacity = payload
            continue
        for size in payload:
            if size > 0.0:
                remaining[flow] = size
            else:
                finished[flow] = now
            flow += 1
    return finished


def _run_replaying_link_log(sim, link):
    """Run ``sim`` dry one event at a time, feeding the throughput the
    link shows after each to a fresh log through ``SegmentLog.record``:
    the link writes its busy/idle edges into its own log without calling
    ``record``, and the two logs must hold the same bytes."""
    replayed = SegmentLog(sim.now, 0.0)
    while sim.peek() < INF:
        sim.step()
        replayed.record(sim.now, link.capacity if link._n else 0.0)
    assert link.log.times.tobytes() == replayed.times.tobytes()
    assert log_values(link.log).tobytes() == log_values(replayed).tobytes()
    return replayed


#: A stream size: zero-byte streams are legal and complete on admission.
_stream_size = st.one_of(
    st.just(0.0), st.floats(min_value=0.5, max_value=1e4, allow_nan=False)
)


@st.composite
def link_schedules(draw):
    batches = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                st.sampled_from(["transfer", "transfer_into", "transfer_many"]),
                st.lists(_stream_size, min_size=1, max_size=4),
                # What the streams complete into: a plain Event each, one
                # of three JoinEvents shared with whoever else drew it,
                # or the duck-typed recorder.
                st.sampled_from(["event", "join0", "join1", "join2", "arrival"]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    # One entry point admits one stream; only transfer_many takes a list.
    # ``transfer`` makes its own Event, and one Event takes one stream.
    def fitting(how, sizes, waiter):
        if how == "transfer":
            return "event"
        if how == "transfer_many" and waiter == "event" and len(sizes) > 1:
            return "arrival"
        return waiter

    batches = sorted(
        (t, how, sizes, fitting(how, sizes, waiter))
        for t, how, sizes, waiter in (
            (t, how, sizes if how == "transfer_many" else sizes[:1], waiter)
            for t, how, sizes, waiter in batches
        )
    )
    capacity = st.floats(min_value=1.0, max_value=1e3, allow_nan=False)
    change = draw(
        st.none()
        | st.tuples(st.floats(min_value=0.0, max_value=60.0, allow_nan=False), capacity)
    )
    return draw(capacity), batches, change


@given(link_schedules())
@settings(max_examples=200, deadline=None)
def test_link_matches_naive_processor_sharing(schedule):
    """One link, every entry point, every kind of waiter (plain ``Event``
    and shared ``JoinEvent``, which ``_wake`` completes in its own frame,
    and a duck-typed ``_Arrival``, which it completes by ``_complete()``),
    zero-byte streams and a mid-flight capacity change, against a model
    that shares no code or idea with the virtual-time heap.  The link
    counts a stream delivered once it is within a part in 1e9 of the byte
    clock and of the time clock (``_wake``'s tolerance); ``n`` sharers
    stretch a byte of slack to ``n`` bytes of wall service, hence the
    factor on the bound.

    The run is stepped, and the link's log compared with a replay of its
    edges through ``SegmentLog.record`` (``_run_replaying_link_log``)."""
    capacity, batches, change = schedule
    sim = Simulator()
    link = FairShareLink(sim, capacity=capacity)
    done = []
    flow = 0
    # The change is scheduled first, so it precedes a same-instant
    # arrival in the simulator as it does in the model.
    if change is not None:
        sim.schedule_call(change[0], link.set_capacity, change[1])

    def watch(event, f):
        event.callbacks.append(lambda _e: done.append((f, sim.now)))
        return event

    def single(f, nbytes):
        watch(link.transfer(nbytes), f)

    members = {}  # join name -> flows completing into it
    for _t, _how, sizes, waiter in batches:
        if waiter.startswith("join"):
            members.setdefault(waiter, []).extend(range(flow, flow + len(sizes)))
        flow += len(sizes)
    joins = {
        name: watch(JoinEvent(sim, len(flows)), name)
        for name, flows in members.items()
    }

    flow = 0
    for t, how, sizes, waiter in batches:
        if how == "transfer":
            target = None  # the link makes the Event
        elif waiter in joins:
            target = joins[waiter]
        elif waiter == "event":
            target = watch(Event(sim), flow)
        else:
            # One target for a batch: its streams are told apart by
            # completion order, which is size order.
            key = ("many", flow) if how == "transfer_many" else flow
            target = _Arrival(sim, done, key)
        if how == "transfer":
            sim.schedule_call(t, single, flow, sizes[0])
        elif how == "transfer_into":
            sim.schedule_call(t, link.transfer_into, sizes[0], target)
        else:
            sim.schedule_call(t, link.transfer_many, sizes, target)
        flow += len(sizes)

    _run_replaying_link_log(sim, link)

    expected = _naive_processor_sharing(
        capacity, [(t, sizes) for t, _how, sizes, _waiter in batches], change
    )
    got = {}
    many = {}
    for f, when in done:
        if isinstance(f, tuple):
            many.setdefault(f[1], []).append(when)
        else:
            got[f] = when
    flow = 0
    for _t, how, sizes, waiter in batches:
        if how == "transfer_many" and waiter == "arrival":
            order = sorted(range(len(sizes)), key=lambda k: sizes[k])
            for k, when in zip(order, sorted(many[flow])):
                got[flow + k] = when
        flow += len(sizes)
    slack = 1e-9 * (flow + 1)
    # A join fires once, when the last of its streams is delivered.
    for name, flows in members.items():
        last = max(expected.pop(f) for f in flows)
        assert got.pop(name) == pytest.approx(last, rel=slack, abs=slack), name
        assert joins[name]._pending == 0
    assert got.keys() == expected.keys()
    for f, when in expected.items():
        assert got[f] == pytest.approx(when, rel=slack, abs=slack), (f, got, expected)
    total = sum(sum(sizes) for _t, _how, sizes, _waiter in batches)
    assert link.log.integrate(sim.now) == pytest.approx(total, rel=slack, abs=1e-9)
    assert link._n == 0 and not link._heap


def test_link_log_same_instant_edges_match_record():
    """The same-instant branches of the edge logging that generated
    schedules almost never reach: an edge at the log's first point, idle
    and busy again at one instant (every back-to-back flusher chunk),
    busy and idle at one instant, an idle edge on top of a same-instant
    capacity change, and time running backwards."""
    sim = Simulator()
    link = FairShareLink(sim, capacity=1e3)
    sim.schedule_call(3.0, link.set_capacity, 500.0)

    def chain():
        yield link.transfer(500.0)  # t=0: overwrites the first point
        yield link.transfer(250.0)  # t=0.5: idle, busy again -> collapses
        yield sim.timeout(1.25)
        # Ends at t=3 exactly, after the capacity change of that instant:
        # the idle edge overwrites the point the change appended.
        yield link.transfer(1e3)
        yield sim.timeout(1e7)
        # Below the clock's resolution at this instant: busy and idle at
        # once, and the busy point collapses away again.
        yield link.transfer(1e-9)

    sim.process(chain())
    replayed = _run_replaying_link_log(sim, link)
    assert list(replayed.times) == [0.0, 0.75, 2.0, 3.0]
    assert list(log_values(replayed)) == [1e3, 0.0, 1e3, 0.0]

    # What the link's own invariants keep it from reaching, by hand: a
    # point that already holds the value's code is left alone, on both
    # edges...
    link.log.codes[-1] = link._busy
    link.transfer(1.0)
    link.log.codes[-1] = 0
    sim.run()
    assert list(link.log.times) == [0.0, 0.75, 2.0, 3.0] and link._n == 0
    # ... and a clock behind the log's last point is refused, on both.
    link.log.times[-1] = sim.now + 1.0
    with pytest.raises(ValueError, match="time went backwards"):
        link.transfer(1.0)
    link.log.times[-1] = 3.0
    link.transfer(1.0)
    link.log.times[-1] = sim.now + 1.0
    with pytest.raises(ValueError, match="time went backwards"):
        sim.run()


def test_superseded_link_wake_up_is_an_ordinary_dead_agenda_entry():
    """A link wake-up is a bare object with the one slot ``_drain`` reads.
    Superseded, it stays on the agenda like a cancelled ``Timeout``: it
    took its ``sim._seq``, ``peek()`` still sees its instant,
    ``run(until)`` pops it in order, and nothing is called."""
    sim = Simulator()
    link = FairShareLink(sim, capacity=100.0)
    woken = []
    wake = link._wake_cb[0]
    link._wake_cb = (lambda entry: (woken.append(sim.now), wake(entry)),)
    slow, fast = Event(sim), Event(sim)
    link.transfer_into(1000.0, slow)  # alone: wake-up at t=10
    dead = link._wake_ev
    assert sim._seq == 1 and sim.peek() == 10.0
    link.transfer_into(100.0, fast)  # shared: t=2 comes first, supersede
    live = link._wake_ev
    assert live is not dead and dead.callbacks is None
    assert sim._seq == 2 and sim.peek() == 2.0
    assert [time for time, _seq, _entry in sorted(sim._heap)] == [2.0, 10.0]

    assert sim.run(until=5.0) == 5.0
    assert woken == [2.0] and fast.callbacks is None
    # fast's completion and the wake-up re-armed for slow took 3 and 4;
    # the entry that fired is the one re-armed, and the dead entry (seq
    # 1, t=10) is still the agenda's head.
    assert link._wake_ev is live and live.callbacks is link._wake_cb
    assert sim._seq == 4 and sim.peek() == 10.0
    assert [entry for _t, _seq, entry in sorted(sim._heap)] == [dead, live]
    assert sim.run(until=10.5) == 10.5
    assert woken == [2.0] and sim.peek() == 11.0 and not slow.triggered
    sim.run()
    assert woken == [2.0, 11.0] and slow.callbacks is None and sim.now == 11.0
    assert sim._seq == 5 and link._n == 0 and link._wake_ev is None


@given(
    st.lists(_stream_size, min_size=1, max_size=6),
    st.lists(
        st.floats(min_value=0.5, max_value=1e4, allow_nan=False), max_size=3
    ),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_link_transfer_many_is_repeated_transfer_into(sizes, in_flight, at):
    """``transfer_many(sizes, j)`` admits exactly what ``len(sizes)``
    calls of ``transfer_into`` admit — same heap (so the same virtual
    clock at admission), same link sequence numbers, same log, same
    zero-byte arrivals — whatever is already in flight."""

    def run(batched):
        sim = Simulator()
        link = FairShareLink(sim, capacity=100.0)
        done = []
        target = _Arrival(sim, done, "batch")
        for nbytes in in_flight:
            link.transfer_into(nbytes, _Arrival(sim, done, "earlier"))
        admitted = []

        def admit():
            if batched:
                link.transfer_many(sizes, target)
            else:
                for nbytes in sizes:
                    link.transfer_into(nbytes, target)
            admitted.append(
                (
                    sorted((v, seq) for v, seq, _event in link._heap),
                    link._seq,
                    link._n,
                    list(link.log.times),
                    list(log_values(link.log)),
                    list(done),
                )
            )

        sim.schedule_call(at, admit)
        sim.run()
        return admitted[0], done, list(link.log.times), list(log_values(link.log))

    state_many, done_many, times_many, values_many = run(batched=True)
    state_each, done_each, times_each, values_each = run(batched=False)
    assert state_many == state_each
    # A wake-up armed for the first of several same-instant admissions
    # may fire early and re-arm, which settles the clock in two steps
    # instead of one: instants agree to rounding, not to the bit.
    assert [f for f, _ in done_many] == [f for f, _ in done_each]
    assert [t for _, t in done_many] == pytest.approx(
        [t for _, t in done_each], rel=1e-12, abs=1e-12
    )
    assert values_many == values_each
    assert times_many == pytest.approx(times_each, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# CorePool invariants
# ---------------------------------------------------------------------------


@given(
    capacity=st.integers(min_value=1, max_value=8),
    holds=st.lists(
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=60, deadline=None)
def test_core_pool_never_exceeds_capacity(capacity, holds):
    sim = Simulator()
    pool = CorePool(sim, capacity)
    peak = [0]

    def proc(hold):
        yield pool.acquire()
        peak[0] = max(peak[0], pool.busy)
        yield sim.timeout(hold)
        pool.release()

    for hold in holds:
        sim.process(proc(hold))
    sim.run()
    assert peak[0] <= capacity
    assert pool.busy == 0
    # Busy-time integral equals the sum of hold times (full utilisation
    # accounting, no lost or double-counted core-seconds).
    assert pool.log.integrate(sim.now) == pytest.approx(sum(holds), rel=1e-9)


@given(
    capacity=st.integers(min_value=1, max_value=4),
    n_jobs=st.integers(min_value=1, max_value=25),
)
@settings(max_examples=40, deadline=None)
def test_core_pool_equal_jobs_finish_in_fifo_batches(capacity, n_jobs):
    sim = Simulator()
    pool = CorePool(sim, capacity)
    order = []

    def proc(i):
        yield pool.acquire()
        yield sim.timeout(1.0)
        pool.release()
        order.append(i)

    for i in range(n_jobs):
        sim.process(proc(i))
    sim.run()
    assert order == sorted(order)
    assert sim.now == pytest.approx(np.ceil(n_jobs / capacity))


# ---------------------------------------------------------------------------
# SegmentLog invariants
# ---------------------------------------------------------------------------


@given(
    points=st.lists(
        st.tuples(
            st.floats(min_value=0.001, max_value=5.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    ),
    dt=st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_segment_log_sample_is_consistent_with_integrate(points, dt):
    """Sum of bucket_mean * bucket_width equals the integral."""
    log = SegmentLog(0.0, 0.0)
    t = 0.0
    for gap, value in points:
        t += gap
        log.record(t, value)
    t_end = t + 1.0
    times, means = log.sample(t_end, dt)
    widths = np.diff(np.append(times, t_end))
    assert float(np.dot(means, widths)) == pytest.approx(
        log.integrate(t_end), rel=1e-9, abs=1e-9
    )


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=50, deadline=None)
def test_segment_log_monotone_times(values):
    log = SegmentLog(0.0, 0.0)
    for i, value in enumerate(values):
        log.record(float(i + 1), value)
    assert all(a < b for a, b in zip(log.times, log.times[1:]))
    assert len(log.times) == len(log_values(log))


# ---------------------------------------------------------------------------
# SegmentLog against a naive model that can disagree
# ---------------------------------------------------------------------------


class _NaiveLog:
    """Every record kept as given — no dedupe, no same-instant overwrite,
    no collapse — and every query answered by a loop over the segments."""

    def __init__(self, t0, v0):
        self.points = [(t0, v0)]

    def record(self, t, value):
        self.points.append((t, value))

    @property
    def current(self):
        return self.points[-1][1]

    def integrate(self, t_end):
        ends = [t for t, _v in self.points[1:]] + [float("inf")]
        return sum(
            (min(end, t_end) - t) * v
            for (t, v), end in zip(self.points, ends)
            if min(end, t_end) > t
        )


@given(
    points=st.lists(
        st.tuples(
            # Half the gaps are zero: same-instant overwrite and collapse.
            st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=5.0)),
            # Few distinct values: equal-value dedupe and collapse-back.
            st.sampled_from([0.0, 1.0, 2.0, 32.0, 4.0e8]),
        ),
        max_size=40,
    ),
    v0=st.sampled_from([0.0, 1.0, 2.0]),
    dt=st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=150, deadline=None)
def test_segment_log_matches_naive_model(points, v0, dt):
    log, naive = SegmentLog(0.0, v0), _NaiveLog(0.0, v0)
    t = 0.0
    for gap, value in points:
        t += gap
        log.record(t, value)
        naive.record(t, value)
        assert log.current == naive.current
    t_end = t + 1.0
    for at in [0.0, t / 3.0, t, t_end] + [p[0] for p in naive.points]:
        assert log.integrate(at) == pytest.approx(
            naive.integrate(at), rel=1e-12, abs=1e-9
        )
    # A running integral kept point by point is the same left-to-right
    # double arithmetic, so the two agree to the last bit.
    running = 0.0
    for t0, t1, value in zip(log.times, log.times[1:], log_values(log)):
        running += (t1 - t0) * value
    assert log.integrate(log.times[-1]) == running
    starts, means = log.sample(t_end, dt)
    edges = np.append(starts, t_end)
    expected = [
        naive.integrate(hi) - naive.integrate(lo)
        for lo, hi in zip(edges, edges[1:])
    ]
    # Bucket areas, not means: a sliver of a last bucket would divide
    # the cancellation error of two ~1e10 integrals (4e8 B/s links) by
    # its width.
    assert means * np.diff(edges) == pytest.approx(expected, rel=1e-9, abs=1e-3)
    # Recording continues after a query (no buffer export left behind).
    log.record(t_end, 3.0)
    assert log.current == 3.0


def _numpy_integral(log, t):
    """``integrate`` as it was written over numpy: one sequential
    ``cumsum`` of the segment areas, looked up by ``searchsorted``."""
    times = np.frombuffer(log.times)
    values = np.frombuffer(log_values(log))
    cum = np.concatenate(([0.0], np.cumsum(np.diff(times) * values[:-1])))
    idx = np.searchsorted(times, t, side="right") - 1
    idx = np.clip(idx, 0, len(times) - 1)
    return float(cum[idx] + np.clip(t - times[idx], 0.0, None) * values[idx])


@given(
    t0=st.floats(min_value=0.0, max_value=1e4),
    v0=st.floats(min_value=0.0, max_value=64.0),
    points=st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e3)),
            st.one_of(
                st.sampled_from([0.0, 1.0, 32.0]),
                st.floats(min_value=0.0, max_value=4.0e8),
            ),
        ),
        max_size=40,
    ),
)
@settings(max_examples=200, deadline=None)
def test_segment_log_integrate_is_bitwise_the_numpy_formula(t0, v0, points):
    """The pure-Python sum gives the same bits as the numpy formula: the
    pinned ``sim_node_load_cv`` reprs depend on it."""
    log = SegmentLog(t0, v0)
    t = t0
    for gap, value in points:
        t += gap
        log.record(t, value)
    times = list(log.times)
    mids = [(a + b) / 2.0 for a, b in zip(times, times[1:])]
    for at in [t0 - 1.0, *times, *mids, times[-1] + 0.5, times[-1] * 2.0 + 7.0]:
        assert log.integrate(at) == _numpy_integral(log, at)


# ---------------------------------------------------------------------------
# The coded log against the two-column log it replaced
# ---------------------------------------------------------------------------


class _TwoColumnLog:
    """``SegmentLog`` before its values were coded: two double columns."""

    def __init__(self, t0, v0):
        self.times, self.values = array("d", (t0,)), array("d", (v0,))

    def record(self, t, value):
        times, values = self.times, self.values
        if value == values[-1]:
            return
        if t != times[-1]:
            times.append(t)
            values.append(value)
        elif len(times) >= 2 and values[-2] == value:
            times.pop()
            values.pop()
        else:
            values[-1] = value

    def integrate(self, t_end):
        times, values = self.times, self.values
        k, acc = max(bisect_right(times, t_end) - 1, 0), 0.0
        for i in range(k):
            acc += (times[i + 1] - times[i]) * values[i]
        return acc + max(t_end - times[k], 0.0) * values[k]

    def sample(self, t_end, dt, t_start):
        edges = np.append(np.arange(t_start, t_end, dt), t_end)
        times, values = np.frombuffer(self.times), np.frombuffer(self.values)
        cum = np.concatenate(([0.0], np.cumsum(np.diff(times) * values[:-1])))
        idx = np.clip(np.searchsorted(times, edges, "right") - 1, 0, len(times) - 1)
        area = np.diff(cum[idx] + np.clip(edges - times[idx], 0.0, None) * values[idx])
        with np.errstate(invalid="ignore", divide="ignore"):
            return edges[:-1], np.where(np.diff(edges) > 0, area / np.diff(edges), 0.0)


# Values are >= 0.0, so never -0.0: levels are distinct under ``==`` and
# -0.0 would decode as whichever zero the log saw first (SegmentLog says so).
_LEVEL = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 32.0, 4.0e8]),
    st.integers(0, 40).map(float),
    st.floats(min_value=0.0, max_value=4.0e8),
)


@given(
    t0=st.floats(min_value=0.0, max_value=1e4),
    v0=_LEVEL,
    points=st.lists(
        st.tuples(
            # Half the gaps are zero: same-instant overwrite and collapse.
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e3)),
            _LEVEL,
        ),
        max_size=40,
    ),
    # A run of fresh levels spliced in: past 256 the codes widen.
    ramp=st.sampled_from([0, 255, 256, 257, 300]) | st.integers(0, 300),
    at=st.integers(0, 40),
    ends=st.lists(st.floats(min_value=-10.0, max_value=6e4), max_size=4),
    buckets=st.integers(1, 40),
    lead=st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=120, deadline=None)
def test_coded_log_matches_the_two_column_log(
    t0, v0, points, ramp, at, ends, buckets, lead
):
    at = min(at, len(points))
    fresh = [(0.0 if i % 3 == 0 else 0.25, 1000.0 + i) for i in range(ramp)]
    log, ref = SegmentLog(t0, v0), _TwoColumnLog(t0, v0)
    t = t0
    for gap, value in points[:at] + fresh + points[at:]:
        t += gap
        log.record(t, value)
        ref.record(t, value)
        assert log.current == ref.values[-1]
    assert log.times.tobytes() == ref.times.tobytes()
    assert log_values(log).tobytes() == ref.values.tobytes()
    assert log.codes.typecode == ("B" if len(log.levels) <= 256 else "H")
    times = list(ref.times)
    mids = [(a + b) / 2.0 for a, b in zip(times, times[1:])]
    for at_t in [t0 - 1.0, *times, *mids, *ends, t + 0.5]:
        assert log.integrate(at_t) == ref.integrate(at_t)
    t_start, t_end = t0 - lead, t + 1.0
    dt = (t_end - t_start) / buckets
    got, want = log.sample(t_end, dt, t_start), ref.sample(t_end, dt, t_start)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
