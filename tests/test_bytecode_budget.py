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
(a pull worker slot ends at its yield: it closes its node's lease only
on its own exits, so the two pull pins fell by 1,058 and 2,116, one
node's 32 and two nodes' 64 slots), every process registers with its
simulator when created, and every node's core pool and write-back cache
check their sizes once.  A pull run builds two broker topics, so when
``PriorityStore.__init__`` stopped setting three attributes (its order
moved into ``PriorityQueue``) the two pull pins fell by 2 x 9 = 18:
6,671,920 -> 6,671,902 and 4,409,984 -> 4,409,966.  When
``SimBroker.publish`` began to refuse a non-finite priority at the call
(``if priority and ...``: two bytecodes for the default 0.0), the two
pull pins rose by 2 per publish, three publishes per job (the dispatch
and its two acks): 6,671,902 -> 6,684,022 and 4,409,966 -> 4,415,054.

Each case is pinned as two integers: a one-member run of the same
geometry (the run's set-up and teardown plus one member's jobs) and the
difference between the whole run and that one-member run (the other
members' per-job work alone).  A refactor of what a run does once — its
construction, controller installs, result assembly — moves only the
first; per-job work moves the second.  They were split from the
whole-run pins above, which they summed to exactly: 1,082,181 +
3,332,873, 3,424,155 + 3,259,867 and 3,844,699 + 3,628,261.  Taking the
front door, the repriority policy and the open-loop service's settle off
the engine and the master core then lowered both pull set-up pins by 18
and left the per-member differences where they were.

A change meant only to save memory or move code between modules leaves
these integers as they are; a change that adds or removes per-job work
moves them, and a failing pin prints both differences and the 15 largest
files of the whole run, in bytecodes per job.
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
#: jobs, bytecodes under ``repro/`` of a one-member run, and of the whole
#: run less that one-member run).
CASES = {
    "pull, 4 x 1.0 deg on 2 x r3.8xlarge MooseFS": (
        PullEngine, 4, 1.0, "r3.8xlarge", 2, "moosefs", 848,
        1_082_163, 3_332_873,
    ),
    "pull, 2 x 2.0 deg on 1 x c3.8xlarge local": (
        PullEngine, 2, 2.0, "c3.8xlarge", 1, "local", 2020,
        3_424_137, 3_259_867,
    ),
    "central dispatch, 2 x 2.0 deg on 1 x c3.8xlarge local": (
        SchedulingEngine, 2, 2.0, "c3.8xlarge", 1, "local", 2020,
        3_844_699, 3_628_261,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bytecodes_per_job_are_pinned(case):
    engine_cls, members, degree, itype, nodes, fs, jobs, one_pin, rest_pin = CASES[case]

    def run(n_members):
        engine = engine_cls(
            ClusterSpec(itype, nodes, filesystem=fs),
            RunConfig(default_timeout=600.0, record_jobs=False),
        )
        ensemble = Ensemble.replicated(montage_workflow(degree=degree), n_members)
        return lambda: results.append(engine.run(ensemble))

    results = []
    previous, sanitizer._ACTIVE = sanitizer._ACTIVE, None
    try:
        run(members)()
        counted = count_opcodes(run(members), under=(REPRO_DIR,))
        one = count_opcodes(run(1), under=(REPRO_DIR,)).total
    finally:
        sanitizer._ACTIVE = previous
    assert [r.jobs_executed for r in results] == [jobs, jobs, jobs // members]
    total = counted.total
    rest = total - one
    print(
        f"bytecodes per job, {case}: {total / jobs:.2f} ({total:,}: "
        f"one member {one:,}, {members - 1} more {rest:,})"
    )
    assert (one, rest) == (one_pin, rest_pin), (
        f"one member {one:,} ({one - one_pin:+,}), {members - 1} more "
        f"{rest:,} ({rest - rest_pin:+,}; "
        f"{(rest - rest_pin) / (jobs - jobs // members):+.2f} per job)\n"
        + counted.top(per=jobs)
    )
