"""Fast-path regressions: kernel semantics, shared structure, parallel runner.

The throughput work (docs/PERFORMANCE.md) must not change what the
simulator computes — only how fast.  These tests pin the semantic edges
the optimisations touched: deferred calls are closure-free, workflow
skeletons are shared copy-on-write, and the sharded sweep runner
reproduces the serial run byte for byte.
"""

from repro.dewe.state import JobStatus, WorkflowState
from repro.parallel import RunSpec, execute_spec, run_many, run_serial
from repro.sim import Simulator
from repro.workflow.dag import Job, Workflow


def _diamond() -> Workflow:
    wf = Workflow("diamond")
    wf.add_job(Job("a", "setup", runtime=1.0))
    wf.add_job(Job("b", "left", runtime=1.0))
    wf.add_job(Job("c", "right", runtime=1.0))
    wf.add_job(Job("d", "join", runtime=1.0))
    wf.add_dependency("a", "b")
    wf.add_dependency("a", "c")
    wf.add_dependency("b", "d")
    wf.add_dependency("c", "d")
    return wf


# -- kernel: closure-free deferred calls -----------------------------------

def test_schedule_call_stores_func_and_args_on_event():
    sim = Simulator()
    seen = []

    def note(tag):
        seen.append(tag)

    call = sim.schedule_call(5.0, note, "x")
    assert call.func is note  # stored directly, no closure wrapper
    assert call.args == ("x",)
    sim.run(until=10.0)
    assert seen == ["x"]


def test_schedule_call_cancel_withdraws_the_call():
    # The kernel's one cancel is lazy (a link's _Wake uses it): the
    # entry keeps its agenda slot with its callbacks cleared, and the
    # dispatch loop skips it.
    sim = Simulator()
    seen = []
    call = sim.schedule_call(5.0, seen.append, "x")
    call.callbacks = None
    sim.run(until=10.0)
    assert seen == [] and sim.now == 10.0


# -- shared-structure ensembles --------------------------------------------

def test_relabelled_members_share_one_skeleton():
    wf = _diamond()
    clones = [wf.relabel(f"m{i}") for i in range(5)]
    skeletons = {id(c.skeleton()) for c in clones}
    assert skeletons == {id(wf.skeleton())}


def test_skeleton_invalidated_by_mutation():
    wf = _diamond()
    before = wf.skeleton()
    wf.add_job(Job("e", "extra", runtime=1.0))
    wf.add_dependency("d", "e")
    after = wf.skeleton()
    assert after is not before
    assert "e" in after.initial_pending
    assert "e" not in before.initial_pending


def test_state_is_copy_on_write_not_aliased():
    wf = _diamond()
    sk = wf.skeleton()
    s1 = WorkflowState(wf, default_timeout=60.0, validate=False)
    s2 = WorkflowState(wf.relabel("other"), default_timeout=60.0, validate=False)
    assert s1.pending is not sk.initial_pending
    assert s1.pending is not s2.pending
    s1._pending_arr[s1._arena.index_of["d"]] = 99
    assert s2.pending["d"] == sk.initial_pending["d"] == 2
    s1._status_arr[s1._arena.index_of["a"]] = 1
    assert s2.status["a"] is JobStatus.WAITING


def test_sanitizer_flags_aliased_member_state():
    from repro.analysis.sanitizer import Sanitizer

    wf = _diamond()
    sk = wf.skeleton()
    state = WorkflowState(wf, default_timeout=60.0, validate=False)
    san = Sanitizer(strict=False)
    san.check_cow_isolation(state, sk)
    assert not san.violations  # properly copied state is clean
    state.pending = sk.initial_pending  # alias the shared skeleton
    san.check_cow_isolation(state, sk)
    assert any(v.check == "cow-isolation" for v in san.violations)


# -- parallel runner --------------------------------------------------------

SWEEP = [
    RunSpec(engine="dewe-v2", workflow="montage", size=0.25, workflows=2,
            nodes=1, filesystem="local", label=f"s{i}")
    for i in range(3)
]


def test_execute_spec_is_deterministic():
    a = execute_spec(SWEEP[0])
    b = execute_spec(SWEEP[0])
    assert a.fingerprint == b.fingerprint
    assert a == b


def test_sharded_sweep_matches_serial_byte_for_byte():
    serial = run_serial(SWEEP)
    sharded = run_many(SWEEP, workers=2)
    assert [d.fingerprint for d in serial] == [d.fingerprint for d in sharded]
    assert serial == sharded  # full digests, canonical order


def test_run_many_single_worker_is_serial_path():
    assert run_many(SWEEP[:2], workers=1) == run_serial(SWEEP[:2])


# -- end-to-end determinism (journal + fault traces) ------------------------

def test_chaos_fault_trace_and_journal_identical_across_runs():
    import repro.analysis.sanitizer as sanitizer
    from repro.faults.chaos import SCENARIOS, run_chaos

    with sanitizer.enabled(strict=True):
        a = run_chaos(SCENARIOS["master-crash"])
        b = run_chaos(SCENARIOS["master-crash"])
    assert a.trace_text == b.trace_text
    assert a.makespan == b.makespan
    assert a.journal is not None
    assert a.journal.records == b.journal.records
