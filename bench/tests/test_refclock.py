"""The reference clock measures, subtracts and restores."""

import signal
import time

from bench.refclock import REF_NOMINAL_S, RefClock, slice_s


def test_a_slice_is_about_the_nominal_length():
    best = min(slice_s() for _ in range(20))
    # Same order of magnitude on any machine this runs on; the constant
    # only sets the scale of a reference second.
    assert REF_NOMINAL_S / 5 < best < REF_NOMINAL_S * 20


def test_region_longer_than_the_period_is_sampled_inside():
    with RefClock(period=0.02) as ref:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    assert len(ref._inside) >= 5
    assert 0 < ref.inside_s < 0.2
    assert 0.2 < ref.factor < 50


def test_short_region_falls_back_on_the_edge_slices():
    with RefClock(edge=2) as ref:
        pass
    assert ref.inside_s == 0 or len(ref._inside) <= 1
    assert len(ref._outside) == 4 and ref.factor > 0


def test_handler_and_timer_are_restored():
    before = signal.getsignal(signal.SIGALRM)
    with RefClock():
        pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
