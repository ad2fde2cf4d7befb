"""Tier-1 stand-in for the benchmark's ``jobs_per_ref_s`` (CI cannot run
the bench): how many interpreter frames the kernel, the storage layer
and the control plane enter per simulated job.

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
  peeked on the way out: 92.85 + 17.65 = 110.5;
* PR 20, one frame per flow edge: the wake-up a bare agenda entry the
  link pushes itself, ripe streams completed and the busy/idle edge
  logged inside ``_wake`` / ``transfer_into``, and the one-line hops of
  the per-job path (``home_of``, ``topic``, ``triggered``, ``send_up``,
  the flusher nudge) folded into their callers: 53.50 + 7.94 = 61.4,
  and 99.61 under all of ``repro`` (157.74 before), of which the control
  plane — everything that is neither ``sim/`` nor ``storage/`` — 38.17;
* PR 21, one frame per message hop: a run without a journal, a lease
  table or a partition calls no ``jlog``, no ``_handle_ack``, no
  ``send_ack``; a latency batch enters the store from ``_deliver``;
  ``Call`` builds itself and the flusher is one generator; six one-line
  lookups read in their callers' frames: 50.41 + 6.47 = 56.9, 79.02
  under all of ``repro``, control plane 22.14.  On ``single_node``'s
  geometry (second case below) 84.45 -> 64.13;
* PR 24, one frame per resume on the central-dispatch path (third case
  below: ``SchedulingEngine`` on ``single_node``'s geometry, the bench's
  ``pegasus_baseline`` in small): ``run_job`` folded into a persistent
  slot runner, ``_read_with_miss`` a plain function that skips placement
  on a sole node, ``output_bytes`` summed in the runner's frame,
  ``FifoStore.put`` / ``WriteBackCache.write`` / ``FairShareLink.transfer``
  building and triggering their event in their own frame: 86.78 -> 59.47.
  The last two folds are on the pull engine's path too: 49.24 + 6.47 =
  55.7 and 77.89 under all of ``repro`` on the first case, 64.13 -> 60.39
  on the second;
* no frame per resume: a waiting process sits in its event's callback
  list itself and ``Simulator._drain`` resumes it in the loop's frame
  (``Process._resume`` and its bound method are gone), and a process's
  boot event is built in ``Process.__init__``'s frame: 44.58 + 6.47 =
  51.05 and 73.30 under all of ``repro`` on the first case, 60.40 ->
  56.22 on the second, 59.47 -> 50.45 on the third.  The control-plane
  remainder (22.26) does not move.  It reads 0.12 above the 22.14 of
  one frame per message hop because of two costs per run, not per
  message, spread over the case's 3,392 jobs: ``PullRun.spawn``, one
  frame for each of the run's 131 processes (it attaches the callback
  that fails the run on an escaped exception), and the teardown once
  the result is built, where ``Simulator.close`` finalises the 128
  suspended worker slots (each ran its ``finally``, ``_slot_exit``, and
  on each node's last slot a ``jlog`` the journal-free run refuses)
  and ``release`` closes the 16 links: 283 frames;
* a worker slot closes its node's lease only on its own exits
  (interrupt, cancelled pull, drain), not when the finished run
  finalises it: 132 teardown frames fewer (128 ``_slot_exit``, 4
  ``jlog``), 22.26 -> 22.22 control plane and 73.30 -> 73.27 under all
  of ``repro`` on the first case; the second case's 33 frames over
  8,080 jobs do not show at two decimals.

The budget is 1.05 x the last, which each row before PR 21's misses (by
232%, 118%, 89% and 5%); the whole-``repro`` budget is there so that a hop
moved out of ``sim/`` into an engine does not pass, and the control-plane
remainder and the single-node and central-dispatch cases have their own,
the last row plus 0.75 of a frame, so that one hop moved back fails by name.  The same
counted runs pin what was *not* allowed to move: ``sim._seq`` and the
wake-up census (armed, fired, cancelled, fired with nothing ripe) are the
integers the parent of PR 20 gave.  A last case pins one uncontended
flow: 1 frame to admit it and 2 inside ``run()`` to complete it, where
the first row took 8 and 8.
"""

import os
from collections import Counter

import repro
import repro.analysis.sanitizer as sanitizer
import repro.sim
import repro.storage
from repro.cloud import ClusterSpec
from repro.engines import PullEngine, SchedulingEngine
from repro.engines.base import RunConfig
from repro.generators import montage_workflow
from repro.sim import FairShareLink, JoinEvent, Simulator
from repro.workflow import Ensemble
from tests.callcount import count_calls

REPRO_DIR = os.path.dirname(repro.__file__) + os.sep
SIM_DIR = os.path.dirname(repro.sim.__file__) + os.sep
STORAGE_DIR = os.path.dirname(repro.storage.__file__) + os.sep

MEASURED_SIM_FRAMES_PER_JOB = 44.58
MEASURED_STORAGE_FRAMES_PER_JOB = 6.47
MEASURED_REPRO_FRAMES_PER_JOB = 73.27
#: Everything under ``repro/`` that is neither ``sim/`` nor ``storage/``:
#: broker, pull engine, master core, workflow state, ``execute_job``.
MEASURED_CONTROL_FRAMES_PER_JOB = 22.22
#: ``single_node``'s geometry at 2.0 degrees: no shared file system and
#: no remote flow, so the control plane is a third of the frames.
MEASURED_SINGLE_NODE_FRAMES_PER_JOB = 56.22
SINGLE_NODE_EVENTS_SCHEDULED = 73976
#: The same inputs through ``SchedulingEngine``: 13.1 events per job
#: (three stores, three timeouts, stage-in) against the pull engine's 9.2.
MEASURED_CENTRAL_DISPATCH_FRAMES_PER_JOB = 50.45
CENTRAL_DISPATCH_EVENTS_SCHEDULED = 105890

#: Wake-ups of the counted run, all links together, taken on the parent
#: of PR 20 (where a wake-up was a ``Timeout``): every one armed took a
#: ``sim._seq``, and armed - fired - cancelled were pending at the end.
WAKE_CENSUS = {"armed": 34892, "fired": 28824, "cancelled": 6064, "spurious": 2788}
EVENTS_SCHEDULED = 61162


def _unsanitized(fn):
    """Count ``fn`` with no sanitizer installed, restoring the suite's
    strict one (the conftest fixture checks it is still the active one
    at teardown)."""
    previous, sanitizer._ACTIVE = sanitizer._ACTIVE, None
    try:
        return count_calls(fn, under=(REPRO_DIR,))
    finally:
        sanitizer._ACTIVE = previous


def _take_wake_census(monkeypatch):
    """Count every link's wake-ups from outside, by the identity of the
    pending ``_wake_ev`` around each entry point — nothing here knows
    what a wake-up is made of.  The wrappers are frames of this file, so
    they do not count under ``repro/``."""
    census = Counter(armed=0, fired=0, cancelled=0, spurious=0)
    wake = FairShareLink._wake

    def fired(link, entry):
        active = link._n
        wake(link, entry)
        census["fired"] += 1
        census["spurious"] += link._n == active
        census["armed"] += link._wake_ev is not None

    def admitting(original):
        def admit(link, *args):
            pending = link._wake_ev
            original(link, *args)
            if link._wake_ev is not pending:
                census["cancelled"] += pending is not None
                census["armed"] += link._wake_ev is not None

        return admit

    monkeypatch.setattr(FairShareLink, "_wake", fired)
    for name in ("transfer_into", "_admit", "transfer_many", "set_capacity"):
        monkeypatch.setattr(
            FairShareLink, name, admitting(FairShareLink.__dict__[name])
        )
    return census


def _counted_run(engine, ensemble):
    """One unsanitized run under the frame counter: the counts, the
    job count and the run's ``sim._seq``."""
    results = []
    counted = _unsanitized(lambda: results.append(engine.run(ensemble)))
    jobs = ensemble.total_jobs
    assert results[0].jobs_executed == jobs
    return counted, jobs, results[0].cluster.sim._seq


def test_sim_and_storage_frames_per_job_within_budget(monkeypatch):
    census = _take_wake_census(monkeypatch)
    ensemble = Ensemble.replicated(montage_workflow(degree=1.0), 16)
    engine = PullEngine(
        ClusterSpec("r3.8xlarge", 4, filesystem="moosefs"),
        RunConfig(default_timeout=600.0, record_jobs=False),
    )
    counted, jobs, events = _counted_run(engine, ensemble)
    assert jobs == 3392
    sim = counted.under(SIM_DIR) / jobs
    storage = counted.under(STORAGE_DIR) / jobs
    everything = counted.under(REPRO_DIR) / jobs
    control = everything - sim - storage
    print(
        f"frames per job: {sim:.2f} sim + {storage:.2f} storage + "
        f"{control:.2f} control plane = {everything:.2f} under repro/"
    )
    print(
        "wake-ups per job: "
        + ", ".join(f"{name} {census[name] / jobs:.3f}" for name in WAKE_CENSUS)
        + f" ({dict(census)})"
    )
    budget = 1.05 * (MEASURED_SIM_FRAMES_PER_JOB + MEASURED_STORAGE_FRAMES_PER_JOB)
    assert sim + storage <= budget, (
        f"{sim:.2f} sim + {storage:.2f} storage frames/job > {budget:.1f}\n"
        + counted.top(per=jobs)
    )
    budget = 1.05 * MEASURED_REPRO_FRAMES_PER_JOB
    assert everything <= budget, (
        f"{everything:.2f} frames/job under repro/ > {budget:.1f}\n"
        + counted.top(per=jobs)
    )
    # A hop on the per-message path is a whole frame per job: less slack
    # than one, so that one coming back fails here by name.
    budget = MEASURED_CONTROL_FRAMES_PER_JOB + 0.75
    assert control <= budget, (
        f"{control:.2f} control-plane frames/job > {budget:.1f}\n"
        + counted.top(per=jobs, limit=40)
    )
    # Same events: fewer frames may not mean fewer (or other) wake-ups.
    assert events == EVENTS_SCHEDULED
    assert dict(census) == WAKE_CENSUS


def test_single_node_frames_per_job_within_budget():
    """The benchmark's claimed workload in small: 8 members on one
    c3.8xlarge with node-local storage, where the three messages and
    three transitions of a job are most of what is left."""
    ensemble = Ensemble.replicated(montage_workflow(degree=2.0), 8)
    engine = PullEngine(
        ClusterSpec("c3.8xlarge", 1, filesystem="local"),
        RunConfig(default_timeout=600.0, record_jobs=False),
    )
    counted, jobs, events = _counted_run(engine, ensemble)
    assert jobs == 8080
    everything = counted.under(REPRO_DIR) / jobs
    print(f"frames per job, single node: {everything:.2f} under repro/")
    budget = MEASURED_SINGLE_NODE_FRAMES_PER_JOB + 0.75
    assert everything <= budget, (
        f"{everything:.2f} frames/job under repro/ > {budget:.1f}\n"
        + counted.top(per=jobs, limit=40)
    )
    assert events == SINGLE_NODE_EVENTS_SCHEDULED


def test_central_dispatch_frames_per_job_within_budget():
    """The Pegasus baseline on the same inputs: a job is nine resumes
    (four of its slot runner, three of the dispatcher, two of the
    flusher), and each enters one generator frame — two while
    ``execute_job`` is in its phases."""
    ensemble = Ensemble.replicated(montage_workflow(degree=2.0), 8)
    engine = SchedulingEngine(
        ClusterSpec("c3.8xlarge", 1, filesystem="local"),
        RunConfig(default_timeout=600.0, record_jobs=False),
    )
    counted, jobs, events = _counted_run(engine, ensemble)
    assert jobs == 8080
    everything = counted.under(REPRO_DIR) / jobs
    print(f"frames per job, central dispatch: {everything:.2f} under repro/")
    budget = MEASURED_CENTRAL_DISPATCH_FRAMES_PER_JOB + 0.75
    assert everything <= budget, (
        f"{everything:.2f} frames/job under repro/ > {budget:.1f}\n"
        + counted.top(per=jobs, limit=40)
    )
    assert events == CENTRAL_DISPATCH_EVENTS_SCHEDULED


def test_uncontended_flow_frames():
    sim = Simulator()
    link = FairShareLink(sim, 100.0)
    join = JoinEvent(sim, 1)
    admit = _unsanitized(lambda: link.transfer_into(50.0, join))
    finish = _unsanitized(sim.run)
    assert join.callbacks is None and sim.now == 0.5
    assert admit.python <= 1, admit.top(per=1)
    assert finish.python <= 2, finish.top(per=1)
