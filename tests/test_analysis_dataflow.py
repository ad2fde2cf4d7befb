"""Seeded-defect corpus for the data-flow checks of the workflow validator.

Each test plants exactly one class of defect in an otherwise healthy
two-job chain and asserts :func:`find_problems` reports it once, naming
the job and file it concerns.  These are the refusals the master makes at
submission: a cycle, an intermediate no job writes, a file two jobs
write, and a read that may race its write.  A bad timeout never reaches
the validator: :class:`Job` refuses it on construction.
"""

import pytest

from repro.workflow import DataFile, ValidationError, Workflow, validate_workflow
from repro.workflow.validation import find_problems


def _base_workflow():
    """A healthy two-job produce/consume chain to seed defects into."""
    wf = Workflow("seeded")
    raw = DataFile("raw.dat", 100.0, "input")
    mid = DataFile("mid.dat", 50.0)
    out = DataFile("final.dat", 10.0, "output")
    wf.new_job("producer", "gen", runtime=1.0, inputs=[raw], outputs=[mid])
    wf.new_job("consumer", "use", runtime=1.0, inputs=[mid], outputs=[out])
    wf.add_dependency("producer", "consumer")
    return wf


def test_clean_base_workflow_has_no_findings():
    wf = _base_workflow()
    assert find_problems(wf) == []
    assert validate_workflow(wf) is wf


def test_st001_cycle():
    wf = _base_workflow()
    wf.add_dependency("consumer", "producer")  # closes a cycle
    assert find_problems(wf) == ["dependency graph contains a cycle"]
    with pytest.raises(ValidationError, match="cycle"):
        validate_workflow(wf)


def test_df001_no_producer():
    wf = _base_workflow()
    ghost = DataFile("ghost.dat", 5.0)  # intermediate nobody writes
    wf.jobs["consumer"].inputs.append(ghost)
    assert find_problems(wf) == [
        "consumer: consumes 'ghost.dat' (intermediate) with no producer"
    ]


def test_df002_double_producer():
    wf = _base_workflow()
    clash = DataFile("mid.dat", 50.0)  # same name as producer's output
    extra = DataFile("extra.dat", 1.0, "output")
    wf.new_job("rogue", "gen", runtime=1.0, outputs=[clash, extra])
    # The consumer does not depend on the second writer either, so its
    # read of mid.dat may race that write too.
    assert find_problems(wf) == [
        "file 'mid.dat' produced by both producer and rogue",
        "consumer: reads 'mid.dat' produced by rogue without depending on it "
        "(the read may race the write)",
    ]


def test_df004_consumer_not_descendant():
    wf = _base_workflow()
    out2 = DataFile("other.dat", 1.0, "output")
    # Reads mid.dat but has no dependency path from its producer.
    wf.new_job(
        "racer", "use", runtime=1.0,
        inputs=[wf.jobs["producer"].outputs[0]], outputs=[out2],
    )
    assert find_problems(wf) == [
        "racer: reads 'mid.dat' produced by producer without depending on it "
        "(the read may race the write)"
    ]


def test_df004_self_consumption():
    wf = _base_workflow()
    loop = DataFile("loop.dat", 1.0)
    job = wf.jobs["producer"]
    job.inputs.append(loop)
    job.outputs.append(loop)
    [problem] = find_problems(wf)
    assert problem.startswith("producer:")
    assert "own output 'loop.dat'" in problem


def test_df004_transitive_dependency_is_fine():
    """Reading a grandparent's output is legal (mImgTbl does this)."""
    wf = _base_workflow()
    mid = wf.jobs["producer"].outputs[0]
    final = DataFile("grand.dat", 1.0, "output")
    wf.new_job("grandchild", "use", runtime=1.0, inputs=[mid], outputs=[final])
    wf.add_dependency("consumer", "grandchild")
    assert find_problems(wf) == []


def test_cm003_nonpositive_timeout():
    wf = _base_workflow()
    for timeout in (0.0, -5.0):
        with pytest.raises(ValueError, match="timeout"):
            wf.new_job("late", "use", runtime=1.0, timeout=timeout)
    assert "late" not in wf.jobs
    assert find_problems(wf) == []
