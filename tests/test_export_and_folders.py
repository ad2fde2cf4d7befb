"""Tests for trace export and workflow folders."""

import json

import pytest

from repro.cloud import ClusterSpec
from repro.dewe import DeweConfig, MasterDaemon, NullExecutor, WorkerDaemon
from repro.dewe.folder import (
    create_workflow_folder,
    load_workflow_folder,
    submit_workflow_folder,
)
from repro.engines import PullEngine
from repro.generators import montage_workflow
from repro.monitor import node_metrics
from repro.monitor.export import ascii_gantt, metrics_to_csv, to_chrome_trace
from repro.mq import Broker
from repro.workflow import Ensemble
from repro.workflow.serialize import save_dax


@pytest.fixture(scope="module")
def result():
    template = montage_workflow(degree=0.5)
    return PullEngine(ClusterSpec("c3.8xlarge", 1, filesystem="local")).run(
        Ensemble([template])
    )


# ---------------------------------------------------------------------------
# Chrome trace / CSV / ASCII exports
# ---------------------------------------------------------------------------


def test_chrome_trace_structure(result, tmp_path):
    path = tmp_path / "trace.json"
    doc = to_chrome_trace(result, path)
    loaded = json.loads(path.read_text())
    assert loaded["otherData"]["engine"] == "dewe-v2"
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(events) == len(result.records)
    for ev in events:
        assert ev["dur"] >= 0
        assert ev["ts"] >= 0
        assert 0 <= ev["tid"] < 32
    metadata = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert len(metadata) == len(result.cluster.nodes)


def test_chrome_trace_events_sorted_within_track(result):
    doc = to_chrome_trace(result)
    tracks = {}
    for ev in doc["traceEvents"]:
        if ev["ph"] != "X":
            continue
        tracks.setdefault((ev["pid"], ev["tid"]), []).append(ev)
    for events in tracks.values():
        times = [(e["ts"], e["ts"] + e["dur"]) for e in events]
        times.sort()
        for (s1, e1), (s2, _e2) in zip(times, times[1:]):
            assert e1 <= s2 + 1  # microsecond rounding slack


def test_metrics_csv(result, tmp_path):
    metrics = node_metrics(result, 0)
    path = tmp_path / "metrics.csv"
    text = metrics_to_csv(metrics, path)
    lines = text.strip().splitlines()
    assert lines[0] == "time_s,cpu_util_pct,disk_write_mb_s,disk_read_mb_s,threads"
    assert len(lines) == len(metrics.times) + 1
    assert path.exists()


def test_ascii_gantt_renders(result):
    art = ascii_gantt(result, width=60, max_slots=4)
    lines = art.splitlines()
    assert len(lines) > 1
    assert any("#" in line for line in lines[1:])
    assert all(len(line) <= 60 for line in lines)


# ---------------------------------------------------------------------------
# Workflow folders
# ---------------------------------------------------------------------------


def test_folder_round_trip(tmp_path):
    wf = montage_workflow(degree=0.5)
    folder = create_workflow_folder(wf, tmp_path / "wf")
    assert (folder / "workflow.json").exists()
    assert (folder / "bin").is_dir()
    restored = load_workflow_folder(folder)
    assert restored.name == wf.name
    assert len(restored) == len(wf)


def test_folder_dax_fallback(tmp_path):
    wf = montage_workflow(degree=0.5)
    folder = tmp_path / "wf"
    folder.mkdir()
    save_dax(wf, folder / "workflow.dax")
    restored = load_workflow_folder(folder)
    assert len(restored) == len(wf)


def test_folder_errors(tmp_path):
    with pytest.raises(FileNotFoundError, match="not found"):
        load_workflow_folder(tmp_path / "missing")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FileNotFoundError, match="no DAG file"):
        load_workflow_folder(empty)
    wf = montage_workflow(degree=0.5)
    folder = create_workflow_folder(wf, tmp_path / "wf")
    with pytest.raises(FileExistsError):
        create_workflow_folder(wf, folder)


def test_submit_workflow_folder_end_to_end(tmp_path):
    wf = montage_workflow(degree=0.25)
    folder = create_workflow_folder(wf, tmp_path / "wf")
    broker = Broker()
    cfg = DeweConfig(default_timeout=30.0, max_concurrent_jobs=8)
    with MasterDaemon(broker, cfg) as master, WorkerDaemon(broker, NullExecutor(), cfg):
        name = submit_workflow_folder(broker, folder)
        assert master.wait(name, timeout=30.0)

