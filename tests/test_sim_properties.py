"""Property-based tests (hypothesis) for the DES kernel invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CorePool, FairShareLink, SegmentLog, Simulator

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
    assert len(log.times) == len(log.values)


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
    for t0, t1, value in zip(log.times, log.times[1:], log.values):
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
