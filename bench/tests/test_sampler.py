"""The sampler charges CPU time to the right layer."""

import importlib.util

from bench.sampler import Sampler

_SPIN = '''
import json
import time

def spin(seconds):
    t0 = time.process_time()
    while time.process_time() - t0 < seconds:
        pass

def encode(seconds):
    payload = {"k": list(range(200))}
    t0 = time.process_time()
    while time.process_time() - t0 < seconds:
        json.dumps(payload)
'''


def _load(root, package):
    path = root / package / "work.py"
    path.parent.mkdir()
    path.write_text(_SPIN)
    spec = importlib.util.spec_from_file_location(f"{package}_work", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sampler(root):
    return Sampler(
        root=root, classify=lambda parts: parts[0], layers=("alpha", "beta", "other")
    )


def test_two_module_load_is_attributed_within_five_points(tmp_path):
    alpha, beta = _load(tmp_path, "alpha"), _load(tmp_path, "beta")
    sampler = _sampler(tmp_path)
    sampler.calibrate()
    with sampler:
        alpha.spin(0.6)
        beta.spin(0.3)
    shares = sampler.shares()
    assert abs(shares["alpha"] - 2 / 3) < 0.05, shares
    assert abs(shares["beta"] - 1 / 3) < 0.05, shares
    assert abs(sampler.coverage - 1.0) < 0.10


def test_stdlib_frames_are_charged_to_the_nearest_caller_under_root(tmp_path):
    alpha = _load(tmp_path, "alpha")
    sampler = _sampler(tmp_path)
    with sampler:
        alpha.encode(0.4)
    shares = sampler.shares()
    assert shares["alpha"] > 0.95, shares


def test_handler_and_timer_are_restored():
    import signal

    before = signal.getsignal(signal.SIGPROF)
    with Sampler():
        pass
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
