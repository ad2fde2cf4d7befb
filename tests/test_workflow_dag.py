"""Unit tests for the workflow DAG model and validation."""

import json

import pytest

from repro.generators import make_workflow
from repro.workflow import DataFile, Job, ValidationError, Workflow, validate_workflow
from repro.workflow.analysis import summarize
from repro.workflow.serialize import load_json, workflow_to_dict
from repro.workflow.validation import find_problems

NAN = float("nan")
INF = float("inf")


def diamond() -> Workflow:
    """a -> (b, c) -> d with data files along the edges."""
    wf = Workflow("diamond")
    fa = DataFile("a.out", 100.0)
    fb = DataFile("b.out", 100.0)
    fc = DataFile("c.out", 100.0)
    wf.new_job("a", "src", runtime=1.0, inputs=[DataFile("in", 10.0, "input")], outputs=[fa])
    wf.new_job("b", "mid", runtime=2.0, inputs=[fa], outputs=[fb])
    wf.new_job("c", "mid", runtime=3.0, inputs=[fa], outputs=[fc])
    wf.new_job("d", "sink", runtime=1.0, inputs=[fb, fc],
               outputs=[DataFile("final", 50.0, "output")])
    wf.add_dependency("a", "b")
    wf.add_dependency("a", "c")
    wf.add_dependency("b", "d")
    wf.add_dependency("c", "d")
    return wf


def test_roots_and_leaves():
    wf = diamond()
    assert wf.skeleton().roots == ("a",)
    assert [j.id for j in wf if not j.children] == ["d"]


def test_topological_order_respects_dependencies():
    wf = diamond()
    order = [j.id for j in wf.topological_order()]
    assert order.index("a") < order.index("b") < order.index("d")
    assert order.index("a") < order.index("c") < order.index("d")


def test_cycle_detection():
    wf = diamond()
    wf.add_dependency("d", "a")
    with pytest.raises(ValueError, match="cycle"):
        wf.topological_order()


def test_duplicate_job_id_rejected():
    wf = Workflow("w")
    wf.new_job("x", "t")
    with pytest.raises(ValueError, match="duplicate"):
        wf.new_job("x", "t")


def test_self_dependency_rejected():
    wf = Workflow("w")
    wf.new_job("x", "t")
    with pytest.raises(ValueError, match="self-dependency"):
        wf.add_dependency("x", "x")


def test_unknown_dependency_endpoints_rejected():
    wf = Workflow("w")
    wf.new_job("x", "t")
    with pytest.raises(KeyError):
        wf.add_dependency("x", "ghost")
    with pytest.raises(KeyError):
        wf.add_dependency("ghost", "x")


def test_repeated_dependency_is_idempotent():
    wf = Workflow("w")
    wf.new_job("a", "t")
    wf.new_job("b", "t")
    wf.add_dependency("a", "b")
    wf.add_dependency("a", "b")
    assert wf.job("a").children == ["b"]
    assert wf.job("b").parents == ["a"]


def test_edges_and_counts():
    wf = diamond()
    assert summarize(wf).n_edges == 4
    edges = {(job.id, child) for job in wf for child in job.children}
    assert edges == {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}
    assert len(wf) == 4
    assert "a" in wf.jobs and "z" not in wf.jobs


def test_total_runtime_and_bytes():
    wf = diamond()
    stats = summarize(wf)
    assert stats.total_runtime == pytest.approx(7.0)
    assert stats.input_bytes == pytest.approx(10.0)
    assert stats.intermediate_bytes == pytest.approx(300.0)
    assert stats.output_bytes == pytest.approx(50.0)


def test_count_by_type():
    wf = diamond()
    assert summarize(wf).count_by_type == {"src": 1, "mid": 2, "sink": 1}


def test_relabel_shares_structure():
    wf = diamond()
    clone = wf.relabel("copy")
    assert clone.name == "copy"
    assert clone.jobs is wf.jobs


def test_job_validation():
    for runtime in (-1.0, NAN, INF):
        with pytest.raises(ValueError, match="runtime"):
            Job("j", "t", runtime=runtime)
    for timeout in (0.0, -5.0, NAN, INF):
        with pytest.raises(ValueError, match="timeout"):
            Job("j", "t", timeout=timeout)
    with pytest.raises(ValueError):
        Job("j", "t", threads=0)
    for size in (-5.0, NAN, INF):
        with pytest.raises(ValueError, match="size"):
            DataFile("f", size)
    with pytest.raises(ValueError):
        DataFile("f", 5.0, kind="bogus")


@pytest.mark.parametrize("field, value", [
    ("runtime", NAN), ("timeout", -1.0), ("size", NAN),
])
def test_load_json_refuses_a_bad_number(tmp_path, field, value):
    data = workflow_to_dict(diamond())
    job = data["jobs"][0]
    (job["inputs"][0] if field == "size" else job)[field] = value
    path = tmp_path / "wf.json"
    path.write_text(json.dumps(data))  # writes NaN, which json.loads reads
    with pytest.raises(ValueError, match=field):
        load_json(path)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_validate_accepts_diamond():
    assert validate_workflow(diamond()) is not None
    # Reading a grandparent's output is legal (Montage's mAdd reads the
    # mBackground images through mImgTbl).
    wf = diamond()
    wf.job("d").inputs.append(wf.job("a").outputs[0])
    assert find_problems(wf) == []


def test_validate_rejects_empty():
    with pytest.raises(ValidationError, match="no jobs"):
        validate_workflow(Workflow("empty"))


def test_validate_detects_cycle():
    wf = diamond()
    wf.add_dependency("d", "a")
    problems = find_problems(wf)
    assert any("cycle" in p for p in problems)
    wf = diamond()
    wf.add_dependency("b", "c")
    wf.add_dependency("c", "b")  # a two-job cycle off the root
    with pytest.raises(ValidationError, match="cycle"):
        validate_workflow(wf)


def test_validate_detects_asymmetric_links():
    wf = Workflow("w")
    wf.new_job("a", "t")
    wf.new_job("b", "t")
    wf.job("b").parents.append("a")  # bypass add_dependency
    problems = find_problems(wf)
    assert any("not mirrored" in p for p in problems)


def test_validate_detects_unknown_parent():
    wf = Workflow("w")
    wf.new_job("a", "t")
    wf.job("a").parents.append("ghost")
    problems = find_problems(wf)
    assert any("unknown parent" in p for p in problems)


def test_validate_detects_double_producer():
    wf = Workflow("w")
    shared = DataFile("shared.out", 1.0)
    wf.new_job("a", "t", outputs=[shared])
    wf.new_job("b", "t", outputs=[shared])
    problems = find_problems(wf)
    assert any("produced by both" in p for p in problems)
    wf = diamond()
    wf.new_job("rogue", "mid", outputs=[DataFile("b.out", 100.0)])
    with pytest.raises(ValidationError, match="'b.out' produced by both b and rogue"):
        validate_workflow(wf)


def test_validate_detects_orphan_intermediate_input():
    wf = Workflow("w")
    wf.new_job("a", "t", inputs=[DataFile("nowhere.dat", 1.0, "intermediate")])
    problems = find_problems(wf)
    assert any("no producer" in p for p in problems)
    wf = diamond()
    wf.job("d").inputs.append(DataFile("ghost.dat", 5.0))
    with pytest.raises(ValidationError, match="d: consumes 'ghost.dat'"):
        validate_workflow(wf)


def test_validate_detects_racing_consumer():
    """A job reading a file from a producer it does not descend from would
    read before the write; the master refuses it at submission."""
    wf = Workflow("race")
    big = DataFile("big.dat", 5e9)
    wf.new_job("writer", "t", runtime=100.0, outputs=[big])
    wf.new_job("racer", "t", runtime=1.0, inputs=[big])
    with pytest.raises(ValidationError) as err:
        validate_workflow(wf)
    assert err.value.problems == [
        "racer: reads 'big.dat' produced by writer without depending on it "
        "(the read may race the write)"
    ]
    wf = diamond()
    wf.job("c").inputs.append(wf.job("b").outputs[0])  # siblings: no path
    assert find_problems(wf) == [
        "c: reads 'b.out' produced by b without depending on it "
        "(the read may race the write)"
    ]
    wf = diamond()
    loop = DataFile("loop.dat", 1.0)
    wf.job("b").inputs.append(loop)
    wf.job("b").outputs.append(loop)
    assert find_problems(wf) == ["b: consumes its own output 'loop.dat'"]


@pytest.mark.parametrize(
    "kind, size", [("montage", 6.0), ("ligo", 4), ("cybershake", 8)],
    ids=["montage", "ligo", "cybershake"],
)
def test_paper_generators_are_clean(kind, size):
    assert find_problems(make_workflow(kind, size)) == []


def test_validation_error_reports_workflow_name():
    with pytest.raises(ValidationError) as err:
        validate_workflow(Workflow("broken"))
    assert err.value.workflow_name == "broken"
    assert err.value.problems
