"""Tier-1 stand-in for the benchmark's ``jobs_per_ref_s`` (CI cannot run
the bench): how many interpreter frames the kernel and the storage layer
enter per simulated job.

Every storage read fans out into fair-share flows, and a flow's life —
admit, wake, arrive — is paid in Python frames under ``repro/sim`` and
``repro/storage``.  Measured with the sanitizer off for the counted run
(its hooks are frames too), ``PullEngine``, 16 x 1.0-degree Montage on
4 x r3.8xlarge sharing one MooseFS, ``record_jobs=False`` (3,392 jobs,
61,162 events), Python 3.11:

* before PR 17 (link wake-up armed through ``_reschedule ->
  schedule_call -> Call.__init__ -> Timeout.__init__`` and fired through
  ``Call.__call__ -> _wake -> _advance``): 169.84 sim + 24.25 storage =
  194.1 per job;
* PR 17, wake cycle fused into ``_wake`` and ``transfer_into``, wake-up a
  plain ``Timeout``, placement memoised per file name: 110.17 + 17.65 =
  127.8;
* PR 19, the bucket ring in front of the heap deleted: a timed
  ``Timeout`` pushes onto the heap itself, and no bucket is flushed or
  peeked on the way out: 92.85 + 17.65 = 110.5.

The budget is 1.05 x the last, which each earlier row misses (by 67% and
10%).  A second case pins one uncontended flow: 4 frames to admit it and
5 inside ``run()`` to complete it, where the first row took 8 and 8.
"""

import os

import repro.analysis.sanitizer as sanitizer
import repro.sim
import repro.storage
from repro.cloud import ClusterSpec
from repro.engines import PullEngine
from repro.engines.base import RunConfig
from repro.generators import montage_workflow
from repro.sim import FairShareLink, JoinEvent, Simulator
from repro.workflow import Ensemble
from tests.callcount import count_calls

SIM_DIR = os.path.dirname(repro.sim.__file__) + os.sep
STORAGE_DIR = os.path.dirname(repro.storage.__file__) + os.sep

MEASURED_SIM_FRAMES_PER_JOB = 92.85
MEASURED_STORAGE_FRAMES_PER_JOB = 17.65


def _unsanitized(fn):
    """Count ``fn`` with no sanitizer installed, restoring the suite's
    strict one (the conftest fixture checks it is still the active one
    at teardown)."""
    previous = sanitizer.disable()
    try:
        return count_calls(fn, under=(SIM_DIR, STORAGE_DIR))
    finally:
        sanitizer._ACTIVE = previous


def test_sim_and_storage_frames_per_job_within_budget():
    ensemble = Ensemble.replicated(montage_workflow(degree=1.0), 16)
    engine = PullEngine(
        ClusterSpec("r3.8xlarge", 4, filesystem="moosefs"),
        RunConfig(default_timeout=600.0, record_jobs=False),
    )
    results = []
    counted = _unsanitized(lambda: results.append(engine.run(ensemble)))
    jobs = ensemble.total_jobs
    assert results[0].jobs_executed == jobs == 3392
    sim = counted.under(SIM_DIR) / jobs
    storage = counted.under(STORAGE_DIR) / jobs
    budget = 1.05 * (MEASURED_SIM_FRAMES_PER_JOB + MEASURED_STORAGE_FRAMES_PER_JOB)
    assert sim + storage <= budget, (
        f"{sim:.2f} sim + {storage:.2f} storage frames/job > {budget:.1f}\n"
        + counted.top(per=jobs)
    )


def test_uncontended_flow_frames():
    sim = Simulator()
    link = FairShareLink(sim, 100.0)
    join = JoinEvent(sim, 1)
    admit = _unsanitized(lambda: link.transfer_into(50.0, join))
    finish = _unsanitized(sim.run)
    assert join.callbacks is None and sim.now == 0.5
    assert admit.python <= 4, admit.top(per=1)
    assert finish.python <= 5, finish.top(per=1)
