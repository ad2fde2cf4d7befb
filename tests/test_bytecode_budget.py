"""Bytecodes per simulated job, pinned exactly.

Frames per job (``tests/test_frame_budget.py``) fall when a helper is
folded into its caller just as they fall when work is removed; the
bytecodes the interpreter executes under ``repro/`` lose only the call's
own in the first case and the work itself in the second, and they repeat
exactly from run to run under a pinned interpreter (``PYTHONHASHSEED``
does not move them).  Each case is counted with the sanitizer off, after
one untraced warm-up run of the same geometry in the same process, so
that no module body, import or first-call cache fill is counted.  The
pins are CPython 3.11's: another interpreter compiles other bytecode, so
the test skips there.

Each count includes the run's teardown, which runs once per run, not
per job: closing the simulator finalises the generators still suspended
(a pull worker slot's ``finally`` closes its node's lease), every
process registers with its simulator when created, and every node's
core pool and write-back cache check their sizes once.

A change meant only to save memory or move code between modules leaves
these integers as they are; a change that adds or removes per-job work
moves them, and a failing pin prints the difference and the 15 largest
files, in bytecodes per job.
"""

import os
import platform
import sys

import pytest

import repro
import repro.analysis.sanitizer as sanitizer
from repro.cloud import ClusterSpec
from repro.engines import PullEngine, SchedulingEngine
from repro.engines.base import RunConfig
from repro.generators import montage_workflow
from repro.workflow import Ensemble
from tests.callcount import count_opcodes

REPRO_DIR = os.path.dirname(repro.__file__) + os.sep

pytestmark = pytest.mark.skipif(
    platform.python_implementation() != "CPython" or sys.version_info[:2] != (3, 11),
    reason="bytecodes per job are pinned on CPython 3.11",
)

#: Case -> (engine, members, degree, instance type, nodes, file system,
#: jobs, bytecodes under ``repro/``).
CASES = {
    "pull, 4 x 1.0 deg on 2 x r3.8xlarge MooseFS": (
        PullEngine, 4, 1.0, "r3.8xlarge", 2, "moosefs", 848, 4_653_453,
    ),
    "pull, 2 x 2.0 deg on 1 x c3.8xlarge local": (
        PullEngine, 2, 2.0, "c3.8xlarge", 1, "local", 2020, 7_000_819,
    ),
    "central dispatch, 2 x 2.0 deg on 1 x c3.8xlarge local": (
        SchedulingEngine, 2, 2.0, "c3.8xlarge", 1, "local", 2020, 7_788_287,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bytecodes_per_job_are_pinned(case):
    engine_cls, members, degree, itype, nodes, fs, jobs, pinned = CASES[case]

    def run():
        engine = engine_cls(
            ClusterSpec(itype, nodes, filesystem=fs),
            RunConfig(default_timeout=600.0, record_jobs=False),
        )
        ensemble = Ensemble.replicated(montage_workflow(degree=degree), members)
        return lambda: results.append(engine.run(ensemble))

    results = []
    previous, sanitizer._ACTIVE = sanitizer._ACTIVE, None
    try:
        run()()
        counted = count_opcodes(run(), under=(REPRO_DIR,))
    finally:
        sanitizer._ACTIVE = previous
    assert [r.jobs_executed for r in results] == [jobs, jobs]
    total = counted.total
    print(f"bytecodes per job, {case}: {total / jobs:.2f} ({total:,})")
    assert total == pinned, (
        f"{total:,} bytecodes under repro/ != {pinned:,} pinned "
        f"({(total - pinned) / jobs:+.2f} per job)\n" + counted.top(per=jobs)
    )
