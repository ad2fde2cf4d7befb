"""Tests for the workflow generators, including paper-anchored counts."""

import pytest

from repro.generators import (
    cybershake_workflow,
    ligo_workflow,
    make_workflow,
    montage_workflow,
    random_layered_workflow,
)
from repro.generators.montage import montage_grid_size
from repro.workflow import validate_workflow
from repro.workflow.analysis import summarize

NAN = float("nan")
INF = float("inf")

# ---------------------------------------------------------------------------
# Montage
# ---------------------------------------------------------------------------


def test_montage_6deg_matches_paper_counts():
    """Paper §II: a 6.0-degree workflow has 8,586 jobs, 1,444 input files
    (4.0 GB) and ~22,850 intermediate files (~35 GB)."""
    wf = montage_workflow(degree=6.0)
    stats = summarize(wf)
    assert stats.n_jobs == 8586
    assert stats.n_input_files == 1444
    assert stats.input_bytes == pytest.approx(4.0e9, rel=1e-6)
    assert abs(stats.n_intermediate_files - 22850) <= 10
    assert stats.intermediate_bytes == pytest.approx(35.0e9, rel=0.02)


def test_montage_6deg_job_type_mix():
    wf = montage_workflow(degree=6.0)
    counts = summarize(wf).count_by_type
    assert counts["mProjectPP"] == 1444
    assert counts["mBackground"] == 1444
    assert counts["mDiffFit"] == 5692
    for singleton in ("mConcatFit", "mBgModel", "mImgTbl", "mAdd", "mShrink", "mJpeg"):
        assert counts[singleton] == 1


def test_montage_valid_structure():
    validate_workflow(montage_workflow(degree=1.0))


def test_montage_job_count_scales_with_degree():
    small = montage_workflow(degree=1.0)
    large = montage_workflow(degree=2.0)
    assert len(large) > len(small) * 3  # area scaling ~ degree^2


def test_montage_grid_size():
    assert montage_grid_size(6.0) == 38
    assert montage_grid_size(3.0) == 19
    assert montage_grid_size(0.1) == 2  # floor
    with pytest.raises(ValueError):
        montage_grid_size(0.0)


def test_montage_diff_fit_depends_on_two_projections():
    wf = montage_workflow(degree=0.5)
    for job in wf:
        if job.task_type == "mDiffFit":
            assert len(job.parents) == 2
            assert all(p.startswith("mProjectPP") for p in job.parents)


def test_montage_background_gated_by_bgmodel():
    wf = montage_workflow(degree=0.5)
    for job in wf:
        if job.task_type == "mBackground":
            assert "mBgModel" in job.parents


def test_montage_deterministic_without_jitter():
    a = montage_workflow(degree=0.5)
    b = montage_workflow(degree=0.5)
    assert [j.runtime for j in a] == [j.runtime for j in b]


def test_montage_parallel_blocking_jobs_flag():
    wf = montage_workflow(degree=0.5, parallel_blocking_jobs=True)
    assert wf.job("mConcatFit").threads > 1
    assert wf.job("mBgModel").threads > 1
    wf_default = montage_workflow(degree=0.5)
    assert wf_default.job("mConcatFit").threads == 1


def test_montage_rejects_bad_args():
    for degree in (-1.0, 0.0, NAN, INF):
        with pytest.raises(ValueError, match="degree"):
            montage_workflow(degree=degree)


# ---------------------------------------------------------------------------
# LIGO
# ---------------------------------------------------------------------------


def test_ligo_valid_and_shaped():
    wf = ligo_workflow(blocks=10, group=5)
    validate_workflow(wf)
    counts = summarize(wf).count_by_type
    assert counts["TmpltBank"] == 10
    assert counts["Inspiral"] == 10
    assert counts["Thinca"] == 2
    assert counts["Inspiral2"] == 10
    assert counts["Thinca2"] == 2


def test_ligo_uneven_groups():
    wf = ligo_workflow(blocks=7, group=3)
    validate_workflow(wf)
    assert summarize(wf).count_by_type["Thinca"] == 3  # 3+3+1


def test_ligo_no_blocking_stage():
    from repro.workflow.analysis import stage_decomposition

    wf = ligo_workflow(blocks=10, group=5)
    stages = stage_decomposition(wf)
    # Grouped coincidence never serializes the whole workflow.
    assert stages["stage2"] == []


def test_ligo_rejects_bad_args():
    for blocks in (0, NAN, INF):
        with pytest.raises(ValueError, match="blocks"):
            ligo_workflow(blocks=blocks)
    with pytest.raises(ValueError):
        ligo_workflow(blocks=5, group=0)


# ---------------------------------------------------------------------------
# CyberShake
# ---------------------------------------------------------------------------


def test_cybershake_valid_and_shaped():
    wf = cybershake_workflow(ruptures=4, variations=3)
    validate_workflow(wf)
    counts = summarize(wf).count_by_type
    assert counts["ExtractSGT"] == 4
    assert counts["SeismogramSynthesis"] == 12
    assert counts["PeakValCalc"] == 12
    assert counts["ZipSeis"] == 1
    assert counts["ZipPSA"] == 1


def test_cybershake_aggregators_depend_on_all_variations():
    wf = cybershake_workflow(ruptures=3, variations=2)
    assert len(wf.job("ZipSeis").parents) == 6
    assert len(wf.job("ZipPSA").parents) == 6


def test_cybershake_rejects_bad_args():
    for ruptures in (0, NAN, INF):
        with pytest.raises(ValueError, match="ruptures"):
            cybershake_workflow(ruptures=ruptures)
    with pytest.raises(ValueError, match="variations"):
        cybershake_workflow(ruptures=2, variations=0)


# ---------------------------------------------------------------------------
# Random layered DAGs
# ---------------------------------------------------------------------------


def test_random_dag_valid():
    wf = random_layered_workflow(n_jobs=40, n_levels=6, seed=3)
    validate_workflow(wf)
    assert len(wf) == 40


def test_random_dag_deterministic_per_seed():
    a = random_layered_workflow(n_jobs=30, seed=7)
    b = random_layered_workflow(n_jobs=30, seed=7)
    assert [j.children for j in a] == [j.children for j in b]
    assert [j.runtime for j in a] == [j.runtime for j in b]


def test_random_dag_levels_clamped_to_jobs():
    wf = random_layered_workflow(n_jobs=3, n_levels=10, seed=0)
    validate_workflow(wf)
    assert len(wf) == 3


def test_random_dag_every_non_root_has_parent():
    wf = random_layered_workflow(n_jobs=50, n_levels=5, seed=1)
    levels0 = [j for j in wf if not j.parents]
    from repro.workflow.analysis import topological_levels

    levels = topological_levels(wf)
    assert all(levels[j.id] == 0 for j in levels0)


# ---------------------------------------------------------------------------
# make_workflow: the size every CLI, RunSpec and chaos scenario passes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, size",
    [
        ("ligo", -3),
        ("cybershake", -2),
        ("cybershake", 2.7),
        ("ligo", 0.5),
        ("montage", 0.0),
        ("montage", -1.0),
        ("montage", float("nan")),
        ("montage", float("inf")),
        ("ligo", float("inf")),
    ],
)
def test_make_workflow_refuses_a_size_it_cannot_build(kind, size):
    with pytest.raises(ValueError, match=f"{kind} size .* got {size!r}"):
        make_workflow(kind, size)


def test_make_workflow_builds_whole_sizes_as_given():
    assert make_workflow("ligo", 2.0).name == ligo_workflow(blocks=2).name
    assert len(make_workflow("cybershake", 2).jobs) == len(
        cybershake_workflow(ruptures=2).jobs
    )
    assert len(make_workflow("montage", 0.5).jobs) == len(
        montage_workflow(degree=0.5).jobs
    )
    with pytest.raises(ValueError, match="unknown workflow kind"):
        make_workflow("sipht", 1)


def test_a_run_spec_with_a_bad_size_is_refused_before_it_runs():
    from repro.parallel import RunSpec, execute_spec

    with pytest.raises(ValueError, match="ligo size"):
        execute_spec(RunSpec(workflow="ligo", size=-3.0))
