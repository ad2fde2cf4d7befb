"""Tests for metrics sampling, timelines and reports."""

import numpy as np
import pytest

from repro.cloud import ClusterSpec
from repro.engines import PullEngine, RunConfig
from repro.generators import montage_workflow
from repro.monitor import (
    format_series,
    node_metrics,
    run_summary,
    slot_timeline,
    summary_table,
)
from repro.monitor.timeline import stage_windows
from repro.workflow import Ensemble


@pytest.fixture(scope="module")
def result():
    template = montage_workflow(degree=1.0)
    return PullEngine(ClusterSpec("c3.8xlarge", 1, filesystem="local")).run(
        Ensemble([template])
    )


def test_node_metrics_shapes(result):
    m = node_metrics(result, 0, dt=3.0)
    n = len(m.times)
    assert n == int(np.ceil(result.makespan / 3.0))
    assert len(m.cpu_util) == n
    assert len(m.disk_write) == n
    assert len(m.disk_read) == n
    assert len(m.threads) == n


def test_cpu_util_bounded(result):
    m = node_metrics(result, 0)
    assert m.cpu_util.min() >= 0.0
    assert m.cpu_util.max() <= 100.0 + 1e-9


def test_stage_pattern_visible_in_cpu(result):
    """Montage's three-stage pattern (Fig 4a): near-full utilisation in
    stage 1, a low-utilisation blocking window, then activity again."""
    m = node_metrics(result, 0)
    (s2_start, s2_end) = next(iter(stage_windows(result).values()))
    in_stage2 = (m.times >= s2_start) & (m.times + 3.0 <= s2_end)
    stage1 = m.times + 3.0 <= s2_start
    if in_stage2.sum() >= 1 and stage1.sum() >= 1:
        assert m.cpu_util[in_stage2].mean() < m.cpu_util[stage1].mean()
        # Blocking stage: a single busy core out of 32 -> ~3%.
        assert m.cpu_util[in_stage2].mean() < 20.0


def test_threads_peak_capped(result):
    m = node_metrics(result, 0)
    assert m.peak_threads <= 32


def test_slot_timeline_no_overlap(result):
    segments = slot_timeline(result)
    by_slot = {}
    for seg in segments:
        by_slot.setdefault((seg.node, seg.slot), []).append(seg)
    for segs in by_slot.values():
        segs.sort(key=lambda s: s.start)
        for a, b in zip(segs, segs[1:]):
            assert a.end <= b.start + 1e-9


def test_slot_timeline_covers_all_records(result):
    segments = slot_timeline(result)
    assert len(segments) == len(result.records)
    assert max(s.slot for s in segments) < 32


def test_slot_timeline_requires_records():
    template = montage_workflow(degree=0.5)
    res = PullEngine(
        ClusterSpec("c3.8xlarge", 1, filesystem="local"),
        config=RunConfig(record_jobs=False),
    ).run(Ensemble([template]))
    with pytest.raises(ValueError, match="no job records"):
        slot_timeline(res)


def test_stage_windows_present(result):
    windows = stage_windows(result)
    assert len(windows) == 1
    (start, end) = next(iter(windows.values()))
    assert 0 < start < end < result.makespan


def test_run_summary_fields(result):
    summary = run_summary(result)
    assert summary["engine"] == "dewe-v2"
    assert summary["jobs"] == result.jobs_executed
    assert summary["makespan_s"] == pytest.approx(result.makespan, abs=0.1)
    assert summary["cost_usd"] == pytest.approx(result.cost(), abs=0.01)


def test_summary_table_renders():
    rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123456}]
    text = summary_table(rows)
    assert "a" in text and "b" in text
    assert "10" in text
    assert summary_table([]) == "(no rows)"


def test_format_series():
    text = format_series("fig5a", [1, 2], [10.0, 20.0], unit="s")
    assert text.startswith("fig5a [s]:")
    assert "1:10" in text and "2:20" in text
