"""Round-trip tests for JSON and DAX serialization."""

import pytest

from repro.generators import ligo_workflow, montage_workflow
from repro.workflow import Workflow
from repro.workflow.serialize import (
    FORMAT_VERSION,
    load_dax,
    load_json,
    save_dax,
    save_json,
    workflow_from_dict,
    workflow_to_dict,
)


def assert_same_structure(a: Workflow, b: Workflow) -> None:
    assert a.name == b.name
    assert set(a.jobs) == set(b.jobs)
    for job_id, job in a.jobs.items():
        other = b.job(job_id)
        assert other.task_type == job.task_type
        assert other.runtime == pytest.approx(job.runtime)
        assert other.threads == job.threads
        assert other.timeout == job.timeout
        assert other.max_attempts == job.max_attempts
        assert sorted(other.parents) == sorted(job.parents)
        assert [(f.name, f.size, f.kind) for f in other.inputs] == [
            (f.name, f.size, f.kind) for f in job.inputs
        ]
        assert [(f.name, f.size, f.kind) for f in other.outputs] == [
            (f.name, f.size, f.kind) for f in job.outputs
        ]


def test_dict_round_trip_montage():
    wf = montage_workflow(degree=0.5)
    assert_same_structure(wf, workflow_from_dict(workflow_to_dict(wf)))


def test_json_round_trip(tmp_path):
    wf = ligo_workflow(blocks=6, group=3)
    path = tmp_path / "wf.json"
    save_json(wf, path)
    assert_same_structure(wf, load_json(path))


def test_dax_round_trip(tmp_path):
    wf = montage_workflow(degree=0.5)
    path = tmp_path / "wf.dax"
    save_dax(wf, path)
    assert_same_structure(wf, load_dax(path))


def test_dax_preserves_timeout_and_threads(tmp_path):
    wf = Workflow("w")
    wf.new_job("a", "t", runtime=1.5, threads=4, timeout=60.0)
    path = tmp_path / "wf.dax"
    save_dax(wf, path)
    restored = load_dax(path)
    job = restored.job("a")
    assert job.threads == 4
    assert job.timeout == pytest.approx(60.0)


def test_dax_rejects_non_dax(tmp_path):
    path = tmp_path / "bad.xml"
    path.write_text("<notadag></notadag>")
    with pytest.raises(ValueError, match="not a DAX"):
        load_dax(path)


def test_dict_round_trip_preserves_retry_metadata():
    wf = Workflow("w")
    wf.new_job("a", "t", runtime=1.0, max_attempts=3)
    wf.new_job("b", "t", runtime=1.0)  # no per-job budget
    data = workflow_to_dict(wf)
    assert data["version"] == FORMAT_VERSION
    assert data["jobs"][0]["max_attempts"] == 3
    restored = workflow_from_dict(data)
    assert restored.job("a").max_attempts == 3
    assert restored.job("b").max_attempts is None
    assert_same_structure(wf, restored)


def test_dax_round_trip_preserves_retry_metadata(tmp_path):
    wf = Workflow("w")
    wf.new_job("a", "t", runtime=1.0, max_attempts=5)
    wf.new_job("b", "t", runtime=1.0)
    path = tmp_path / "wf.dax"
    save_dax(wf, path)
    restored = load_dax(path)
    assert restored.job("a").max_attempts == 5
    assert restored.job("b").max_attempts is None


def test_version_1_documents_still_load():
    """Pre-versioning payloads (no "version" key) must keep loading."""
    wf = montage_workflow(degree=0.5)
    data = workflow_to_dict(wf)
    del data["version"]
    for spec in data["jobs"]:
        del spec["max_attempts"]
    assert_same_structure(wf, workflow_from_dict(data))


def test_future_version_rejected():
    data = workflow_to_dict(Workflow("w"))
    data["version"] = FORMAT_VERSION + 1
    with pytest.raises(ValueError, match="version"):
        workflow_from_dict(data)


def test_round_trip_shares_file_objects():
    """A file produced by one job and consumed by another must be a single
    object after deserialization (engines rely on identity for caching)."""
    wf = montage_workflow(degree=0.5)
    restored = workflow_from_dict(workflow_to_dict(wf))
    concat = restored.job("mConcatFit")
    bg = restored.job("mBgModel")
    assert concat.outputs[0] is bg.inputs[0]
