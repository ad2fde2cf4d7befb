"""Shared test configuration.

The whole tier-1 suite runs with the simulation invariant sanitizer
enabled in *strict* mode (docs/STATIC_ANALYSIS.md): every simulator
step, core acquire/release, fair-share wake-up, cache flush and billing
computation is cross-checked against its conservation laws.  A clean
suite therefore certifies not just the observable results but the
internal bookkeeping of every simulation the tests run.

With ``REPRO_RACEDETECT`` set (the CI ``concurrency`` job), every test
additionally runs under a fresh concurrency event recorder and the
happens-before race detector replays its log at teardown — a test that
provokes an unsynchronized access to registered daemon state fails with
the race's fingerprint, even if its assertions passed.
"""

import os

import pytest

import repro.analysis.sanitizer as sanitizer


@pytest.fixture(autouse=True)
def _strict_sanitizer():
    san = sanitizer.enable(strict=True)
    try:
        yield san
    finally:
        # A test may install its own sanitizer (or disable ours); only
        # tear down if ours is still the active one.
        if sanitizer.active() is san:
            sanitizer._ACTIVE = None
    assert not san.violations, (
        "simulation invariant violations: "
        + "; ".join(str(v) for v in san.violations)
    )


if os.environ.get("REPRO_RACEDETECT", "").strip().lower() not in (
    "", "0", "off", "false", "no"
):
    import repro.analysis.concurrency.recorder as _race_recorder
    from repro.analysis.concurrency.detector import detect_races as _detect

    @pytest.fixture(autouse=True)
    def _race_detector():
        rec = _race_recorder.enable()
        try:
            yield rec
        finally:
            # A test may install its own recorder (the mutation suite
            # does); only tear down if ours is still the active one.
            if _race_recorder.active() is rec:
                _race_recorder.disable()
        races = _detect(rec.events, rec.thread_names)
        assert not races, "data races detected: " + "; ".join(
            str(r) for r in races
        )
