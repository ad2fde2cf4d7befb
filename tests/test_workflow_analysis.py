"""Tests for workflow analysis: levels, critical path, stages, stats."""

from collections import Counter

import pytest

from repro.generators import montage_workflow
from repro.workflow import DataFile, Workflow
from repro.workflow.analysis import (
    blocking_jobs,
    critical_path,
    stage_decomposition,
    summarize,
    topological_levels,
)


def chain(runtimes) -> Workflow:
    wf = Workflow("chain")
    prev = None
    for i, rt in enumerate(runtimes):
        wf.new_job(f"j{i}", "t", runtime=rt)
        if prev is not None:
            wf.add_dependency(prev, f"j{i}")
        prev = f"j{i}"
    return wf


def test_levels_of_chain():
    wf = chain([1, 1, 1])
    assert topological_levels(wf) == {"j0": 0, "j1": 1, "j2": 2}


def test_critical_path_of_chain_is_total():
    wf = chain([1.0, 2.0, 3.0])
    length, path = critical_path(wf)
    assert length == pytest.approx(6.0)
    assert path == ["j0", "j1", "j2"]


def test_critical_path_picks_heavier_branch():
    wf = Workflow("w")
    wf.new_job("a", "t", runtime=1.0)
    wf.new_job("fast", "t", runtime=1.0)
    wf.new_job("slow", "t", runtime=10.0)
    wf.new_job("z", "t", runtime=1.0)
    wf.add_dependency("a", "fast")
    wf.add_dependency("a", "slow")
    wf.add_dependency("fast", "z")
    wf.add_dependency("slow", "z")
    length, path = critical_path(wf)
    assert length == pytest.approx(12.0)
    assert path == ["a", "slow", "z"]


def test_critical_path_empty_workflow():
    length, path = critical_path(Workflow("empty"))
    assert length == 0.0 and path == []


def test_montage_blocking_jobs_detected():
    wf = montage_workflow(degree=0.5)
    blockers = blocking_jobs(wf)
    assert "mConcatFit" in blockers
    assert "mBgModel" in blockers
    # The fan jobs are never blocking.
    assert not any(b.startswith("mProjectPP") for b in blockers)
    assert not any(b.startswith("mDiffFit") for b in blockers)


def test_montage_stage_decomposition():
    wf = montage_workflow(degree=0.5)
    stages = stage_decomposition(wf)
    stage1 = set(stages["stage1"])
    stage2 = set(stages["stage2"])
    stage3 = set(stages["stage3"])
    assert stage1 | stage2 | stage3 == set(wf.jobs)
    assert all(j.startswith(("mProjectPP", "mDiffFit")) for j in stage1)
    assert stage2 == {"mConcatFit", "mBgModel"}
    assert "mAdd" in stage3 and "mJpeg" in stage3
    assert all(not j.startswith("mBackground") or j in stage3 for j in stage3)


def test_stage_decomposition_no_blockers():
    wf = Workflow("flat")
    for i in range(5):
        wf.new_job(f"j{i}", "t", runtime=1.0)
    stages = stage_decomposition(wf)
    assert len(stages["stage1"]) == 5
    assert stages["stage2"] == [] and stages["stage3"] == []


def test_summarize_montage_small():
    wf = montage_workflow(degree=1.0)
    stats = summarize(wf)
    counts = Counter(job.task_type for job in wf)
    assert stats.n_jobs == len(wf)
    assert stats.count_by_type == counts
    assert stats.max_parallelism >= counts["mDiffFit"]
    assert 0.0 < stats.parallel_fraction < 1.0
    assert stats.critical_path_length <= stats.total_runtime
    assert stats.n_input_files == counts["mProjectPP"]


def test_summarize_file_accounting_matches_bytes_by_kind():
    wf = montage_workflow(degree=0.5)
    stats = summarize(wf)
    by_kind = Counter()
    for f in wf.skeleton().files:
        by_kind[f.kind] += f.size
    assert stats.input_bytes == pytest.approx(by_kind["input"])
    assert stats.intermediate_bytes == pytest.approx(by_kind["intermediate"])
    assert stats.output_bytes == pytest.approx(by_kind["output"])


def test_parallel_fraction_zero_for_chain():
    wf = chain([1.0, 1.0])
    stats = summarize(wf)
    assert stats.parallel_fraction == pytest.approx(0.0)
