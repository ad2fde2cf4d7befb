"""The boundary wrappers change nothing the program computes."""

import time

from repro.parallel import execute_spec

from bench import child, spans, workloads


def _targets():
    for probe in spans.PROBES:
        for target in probe.targets:
            owner, attr = spans._resolve(target)
            yield target, owner, attr


def test_install_and_uninstall_leave_every_attribute_identical():
    before = {t: vars(owner)[attr] for t, owner, attr in _targets()}
    with spans.installed(spans.Recorder()):
        for target, owner, attr in _targets():
            assert vars(owner)[attr] is not before[target], target
    for target, owner, attr in _targets():
        assert vars(owner)[attr] is before[target], target


def test_uninstall_happens_when_the_block_raises():
    before = {t: vars(owner)[attr] for t, owner, attr in _targets()}
    try:
        with spans.installed(spans.Recorder()):
            raise KeyError("boom")
    except KeyError:
        pass
    assert all(vars(o)[a] is before[t] for t, o, a in _targets())


def _run(workload, rec=None):
    if rec is None:
        ctx = workload.setup(0)
        return workload.facts(ctx, workload.run(ctx, 0))
    return child._wrapped_repetition(workload, 0, rec).facts


def test_traced_single_node_matches_untraced_and_execute_spec():
    workload = workloads.get("single_node", "smoke")
    plain = _run(workload)
    rec = spans.Recorder()
    traced = _run(workload, rec)
    assert traced.fingerprint == plain.fingerprint
    assert traced.events == plain.events
    # setup() + run() here is the same run repro.parallel describes.
    digest = execute_spec(workload.spec())
    assert (digest.fingerprint, digest.events_scheduled, digest.jobs_executed) == (
        plain.fingerprint, plain.events, plain.jobs_done,
    )
    assert rec.counts["engines.base.execute_job"] == plain.jobs_done
    assert rec.counts["dewe.state.transition"] == 3 * plain.jobs_done


def test_counts_repeat_exactly_between_two_traced_runs():
    workload = workloads.get("crash_recovery", "smoke")
    first, second = spans.Recorder(), spans.Recorder()
    _run(workload, first)
    _run(workload, second)
    assert dict(first.counts) == dict(second.counts)
    assert first.counts["recovery.append"] > 0


def test_self_time_is_duration_minus_children():
    rec = spans.Recorder()
    with rec.span("outer"):
        time.sleep(0.02)
        with rec.span("inner"):
            time.sleep(0.03)
    (outer,) = [r for r in rec.table() if r["name"] == "outer"]
    (inner,) = [r for r in rec.table() if r["name"] == "inner"]
    assert inner["parent"] == "outer" and outer["parent"] == ""
    assert abs(outer["self_s"] - (outer["total_s"] - inner["total_s"])) < 1e-9
    assert 0.015 < outer["self_s"] < outer["total_s"]
