"""The one master core, driven three ways.

* alone, through recording fake ports: the exact command sequence for a
  scripted admit / ack / timeout / fence history;
* through the DES driver (:class:`PullEngine`) and the thread driver
  (:class:`MasterDaemon` + :class:`WorkerDaemon`) over the same small
  ensemble with the same scripted per-attempt failures: both must settle
  the same workflows with the same per-job attempt counts and the same
  dead letters (ROADMAP 4b, first slice).
"""

import threading

import pytest

import repro.engines.pull as pull
from repro.cloud import ClusterSpec
from repro.dewe import DeweConfig, MasterDaemon, WorkerDaemon, submit_workflow
from repro.dewe.core import COMPLETED, CORRUPT, FAILED, RUNNING, MasterCore
from repro.dewe.state import WorkflowState
from repro.engines import PullEngine, RunConfig
from repro.faults.models import TransientFaultModel
from repro.faults.retry import RetryPolicy
from repro.liveness import LeaseConfig
from repro.mq import Broker
from repro.mq.messages import AckKind, JobAck, WorkflowSubmission
from repro.mq.priority import RepriorityPolicy
from repro.workflow import Ensemble, Workflow


def diamond(name: str, actions=None) -> Workflow:
    """a -> (b, c) -> d."""
    wf = Workflow(name)
    for job_id in "abcd":
        action = actions(name, job_id) if actions is not None else None
        wf.new_job(job_id, "t", runtime=0.01, action=action)
    for parent, child in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
        wf.add_dependency(parent, child)
    return wf


class RecordingPorts:
    """Fake driver: every command the core issues, in order."""

    def __init__(self):
        self.commands = []
        self.timers = []

    def publish(self, state, job_id, attempt, priority):
        self.commands.append(("publish", state.name, job_id, attempt, priority))

    def reprioritize(self, workflow, job_id, priority):
        self.commands.append(("reprioritize", workflow, job_id, priority))

    def call_later(self, delay, fn):
        self.commands.append(("call_later", delay))
        self.timers.append(fn)

    def log(self, kind, workflow, job_id, attempt, detail):
        self.commands.append(("log", kind, workflow, job_id, attempt, detail))

    def trace(self, now, kind, node, detail):
        self.commands.append(("trace", now, kind, detail))

    def on_settled(self, state):
        self.commands.append(("settled", state.name))

    def take(self):
        out, self.commands = self.commands, []
        return out


def make_core(ports, **policies) -> MasterCore:
    return MasterCore(
        10.0,
        policies.pop("retry", RetryPolicy(max_attempts=2, base_delay=1.0)),
        publish=ports.publish,
        reprioritize=ports.reprioritize,
        call_later=ports.call_later,
        on_settled=ports.on_settled,
        log=ports.log,
        trace=ports.trace,
        **policies,
    )


def test_core_issues_the_exact_command_sequence():
    ports = RecordingPorts()
    core = make_core(
        ports, liveness=LeaseConfig(heartbeat_interval=1.0)
    )
    wf = diamond("wf")

    # Admission journals and publishes the root, nothing else.
    core.admit(wf, now=0.0)
    assert ports.take() == [
        ("log", "dispatch", "wf", "a", 1, ""),
        ("publish", "wf", "a", 1, 0.0),
    ]
    assert core.admissions["wf"] == (0.0, 1.0)

    # running + completed: both children are dispatched, in DAG order.
    core.on_ack(RUNNING, "wf", "a", 1, "w1", 0.1)
    assert core.assignments == {("wf", "a"): ("w1", 1)}
    core.on_ack(COMPLETED, "wf", "a", 1, "w1", 0.2)
    assert core.assignments == {}
    assert ports.take() == [
        ("log", "ack-running", "wf", "a", 1, ""),
        ("log", "ack-complete", "wf", "a", 1, ""),
        ("log", "dispatch", "wf", "b", 1, ""),
        ("publish", "wf", "b", 1, 0.0),
        ("log", "dispatch", "wf", "c", 1, ""),
        ("publish", "wf", "c", 1, 0.0),
    ]

    # A duplicate completion and a stale running ack change nothing.
    core.on_ack(COMPLETED, "wf", "a", 1, "w1", 0.3)
    core.on_ack(RUNNING, "wf", "b", 7, "w1", 0.3)
    assert ports.take() == [
        ("log", "ack-complete", "wf", "a", 1, ""),
        ("log", "ack-running", "wf", "b", 7, ""),
    ]
    assert core.assignments == {}
    assert core.states["wf"].duplicate_acks == 2

    # A failure backs off through call_later; the timer redispatches.
    core.on_ack(RUNNING, "wf", "c", 1, "w2", 0.4)
    core.on_ack(RUNNING, "wf", "b", 1, "w1", 0.4)
    core.on_ack(FAILED, "wf", "b", 1, "w1", 0.5)
    assert ports.take() == [
        ("log", "ack-running", "wf", "c", 1, ""),
        ("log", "ack-running", "wf", "b", 1, ""),
        ("log", "ack-failed", "wf", "b", 1, ""),
        ("call_later", 1.0),
    ]
    ports.timers.pop()(1.5)
    core.on_ack(RUNNING, "wf", "b", 2, "w1", 1.6)
    assert ports.take() == [
        ("log", "dispatch", "wf", "b", 2, ""),
        ("publish", "wf", "b", 2, 0.0),
        ("log", "ack-running", "wf", "b", 2, ""),
    ]

    # c's completion ack misses its deadline (0.4 + 10): the sweep
    # requeues it as attempt 2, behind the same backoff.
    core.sweep_timeouts(10.3)
    assert ports.take() == []
    core.sweep_timeouts(10.4)
    assert ports.take() == [
        ("log", "timeout-requeue", "wf", "c", 2, ""),
        ("call_later", 1.0),
    ]
    ports.timers.pop()(11.4)
    assert ports.take() == [
        ("log", "dispatch", "wf", "c", 2, ""),
        ("publish", "wf", "c", 2, 0.0),
    ]

    # w1's lease is fenced while it holds b's second delivery: out of
    # budget, so b dead-letters, d cascades, and nothing is requeued.
    core.fence("w1", 11.5)
    assert ports.take() == [
        ("log", "dead-letter", "wf", "b", 2, "lease-expired"),
        ("trace", 11.5, "dead-letter", "wf/b (lease-expired, 2 attempts)"),
        ("log", "dead-letter", "wf", "d", 0, "upstream-dead"),
        ("trace", 11.5, "dead-letter", "wf/d (upstream-dead, 0 attempts)"),
    ]
    assert core.assignments == {("wf", "c"): ("w2", 1)}
    assert not core.settled

    # c's second attempt completes: the workflow settles exactly once.
    core.on_ack(COMPLETED, "wf", "c", 2, "w2", 12.0)
    core.on_ack(COMPLETED, "wf", "c", 2, "w2", 12.1)
    assert ports.take() == [
        ("log", "ack-complete", "wf", "c", 2, ""),
        ("settled", "wf"),
        ("log", "ack-complete", "wf", "c", 2, ""),
    ]
    assert list(core.settled) == ["wf"] and not core.states
    assert [(e.job_id, e.reason) for e in core.dead_letters] == [
        ("b", "lease-expired"), ("d", "upstream-dead"),
    ]


def test_core_restore_requeues_in_flight_and_keeps_admission_facts():
    ports = RecordingPorts()
    primary = make_core(ports, retry=RetryPolicy())
    wf = diamond("wf")
    primary.admit(wf, now=3.0, timeout_factor=2.0)
    primary.on_ack(COMPLETED, "wf", "a", 1, None, 4.0)
    snapshots = primary.snapshots()
    ports.take()

    standby = make_core(ports, retry=RetryPolicy())
    late = diamond("late")
    standby.restore(
        {"wf": (wf, snapshots["wf"])}, primary.admissions, 9.0,
        readmit=[(late, "", "")],
    )
    assert ports.take() == [
        ("log", "submit", "late", "", 0, "jobs=4"),
        ("log", "dispatch", "late", "a", 1, ""),
        ("publish", "late", "a", 1, 0.0),
        ("log", "requeue", "wf", "b", 2, ""),
        ("log", "dispatch", "wf", "b", 2, ""),
        ("publish", "wf", "b", 2, 0.0),
        ("log", "requeue", "wf", "c", 2, ""),
        ("log", "dispatch", "wf", "c", 2, ""),
        ("publish", "wf", "c", 2, 0.0),
    ]
    restored = standby.states["wf"]
    assert (restored.arrival, restored.deadline_factor) == (3.0, 2.0)
    assert restored.default_timeout == 20.0
    assert standby.states["late"].arrival == 9.0
    assert standby.states["wf"].n_completed == 1


def _settle(core, name):
    for job_id in "abcd":
        core.on_ack(COMPLETED, name, job_id, 1, None, 1.0)


def test_sweeps_visit_live_members_only(monkeypatch):
    ports = RecordingPorts()
    core = make_core(ports, retry=RetryPolicy(), repriority=RepriorityPolicy())
    names = [f"m{i}" for i in (3, 0, 4, 1, 2)]  # admission order, not sorted
    for name in names:
        core.admit(diamond(name), now=0.0)
    for name in ("m0", "m4", "m2"):
        _settle(core, name)
    # A settled member is its snapshot: no state is left for a sweep.
    assert list(core.settled) == ["m0", "m4", "m2"]
    assert list(core.states) == ["m3", "m1"]
    ports.take()

    entered = []
    expired = WorkflowState.expired
    monkeypatch.setattr(
        WorkflowState, "expired",
        lambda state, now: entered.append(state.name) or expired(state, now),
    )
    # Both live members hold a QUEUED root past its dispatch deadline.
    for state in core.states.values():
        state.deadline["a"] = 5.0
    core.sweep_timeouts(6.0)
    assert entered == ["m3", "m1"]  # admission order
    assert [c for c in ports.take() if c[0] == "log"] == [
        ("log", "timeout-requeue", "m3", "a", 2, ""),
        ("log", "dispatch", "m3", "a", 2, ""),
        ("log", "timeout-requeue", "m1", "a", 2, ""),
        ("log", "dispatch", "m1", "a", 2, ""),
    ]
    core.sweep_priorities(7.0)
    assert [c[1] for c in ports.take()] == ["m1", "m3"]  # name order

    # A member that settles leaves the live set.
    _settle(core, "m3")
    assert list(core.states) == ["m1"] and "m3" in core.settled

    # A restored core files a settled snapshot as it is, building no
    # state for it.
    standby = make_core(ports, retry=RetryPolicy())
    standby.restore(
        {"m1": (diamond("m1"), core.states["m1"].snapshot()), "m3": core.settled["m3"]},
        core.admissions, 8.0,
    )
    assert list(standby.states) == ["m1"] and list(standby.settled) == ["m3"]
    assert standby.settled["m3"][1] is core.settled["m3"][1]
    assert standby.admissions["m3"] == core.admissions["m3"]


# -- late acks to a settled member -------------------------------------------
def _settled_core():
    """A core whose member ``wf`` (a -> b) settled with ``a`` completed
    and ``b`` dead-lettered by its ack deadline while w1 held it, so a
    fence of w1 still finds that assignment."""
    ports = RecordingPorts()
    core = make_core(
        ports, retry=RetryPolicy(max_attempts=1),
        liveness=LeaseConfig(heartbeat_interval=1.0),
    )
    wf = Workflow("wf")
    wf.new_job("a", "t")
    wf.new_job("b", "t")
    wf.add_dependency("a", "b")
    core.admit(wf, now=0.0)
    core.on_ack(RUNNING, "wf", "a", 1, "w1", 0.1)
    core.on_ack(COMPLETED, "wf", "a", 1, "w1", 0.2)
    core.on_ack(RUNNING, "wf", "b", 1, "w1", 0.3)
    core.sweep_timeouts(20.0)
    assert ports.take()[-1] == ("settled", "wf")
    assert list(core.settled) == ["wf"] and not core.states
    assert core.assignments == {("wf", "b"): ("w1", 1)}
    return core, ports, wf


#: Late call -> (ack kind, the journal record the live path writes, the
#: same call on a WorkflowState).
LATE = {
    "running": (RUNNING, "ack-running", lambda s, j: s.on_running(j, 1, 30.0)),
    "completed": (COMPLETED, "ack-complete", lambda s, j: s.on_completed(j, 1)),
    "failed": (FAILED, "ack-failed", lambda s, j: s.on_failed(j, 1, 30.0)),
    "corrupt": (CORRUPT, "ack-corrupt", lambda s, j: s.on_corrupt(j, 1, [], 30.0)),
}


@pytest.mark.parametrize(
    "call, job_id", [(call, job_id) for call in LATE for job_id in "ab"] + [("fence", "b")]
)
def test_a_late_ack_to_a_settled_member_is_a_duplicate(call, job_id):
    """The oracle is the state machine itself: the settled snapshot after
    a late ack (or a fence) equals a state restored from it that took
    the same call, and the journal gets what the live path writes."""
    core, ports, wf = _settled_core()
    before = core.settled["wf"][1]
    oracle = WorkflowState.restore(wf, before)
    if call == "fence":
        core.fence("w1", 30.0)
        oracle.on_lease_expired(job_id, 1, 30.0)
        records = []
    else:
        kind, record, same_call = LATE[call]
        bad = ("x.dat", "y.dat") if kind == CORRUPT else ()
        core.on_ack(kind, "wf", job_id, 1, "w1", 30.0, bad)
        same_call(oracle, job_id)
        records = [("log", record, "wf", job_id, 1, ",".join(bad))]
    assert ports.take() == records
    after = core.settled["wf"][1]
    assert after == oracle.snapshot()
    counted = call in ("running", "completed", "corrupt")
    assert after.duplicate_acks == before.duplicate_acks + counted
    assert not core.states and list(core.settled) == ["wf"]
    # Every ack but a RUNNING one drops its delivery's assignment; a
    # fence drops the worker's.
    dropped = call == "fence" or (call != "running" and job_id == "b")
    assert core.assignments == ({} if dropped else {("wf", "b"): ("w1", 1)})


def test_a_duplicated_completion_on_the_threaded_master_is_a_duplicate():
    """The threaded master's ack gate lets a late ack to a settled member
    through to the core (not ``dropped_acks``), which counts it on the
    snapshot as the state machine would."""
    master = MasterDaemon(Broker(), DeweConfig(default_timeout=5.0))
    wf = Workflow("dup")
    wf.new_job("a", "t")
    wf.new_job("b", "t")
    wf.add_dependency("a", "b")
    with master._state_lock:
        master._handle_submission(WorkflowSubmission(workflow=wf))
        for job_id in "ab":
            master._handle_ack(JobAck("dup", job_id, AckKind.RUNNING))
            master._handle_ack(JobAck("dup", job_id, AckKind.COMPLETED))
        before = master.settled["dup"][1]
        oracle = WorkflowState.restore(wf, before)
        master._handle_ack(JobAck("dup", "b", AckKind.COMPLETED))
    oracle.on_completed("b", 1)
    after = master.settled["dup"][1]
    assert after == oracle.snapshot()
    assert after.duplicate_acks == before.duplicate_acks + 1
    assert master.dropped_acks == 0 and "dup" not in master.states
    assert master.completion_event("dup").is_set()


# -- DES <-> threads ---------------------------------------------------------
#: (workflow, job) -> attempts that fail.  m1/b recovers on its second
#: delivery; m2/c exhausts the three-attempt budget and takes d with it.
FAILING = {("m1", "b"): {1}, ("m2", "c"): {1, 2, 3}}
RETRY = RetryPolicy(max_attempts=3, base_delay=0.01)


class ScriptedFailures(TransientFaultModel):
    """The DES run's ``transient`` hook, scripted instead of sampled."""

    def should_fail(self, name, job_id, attempt):
        return attempt in FAILING.get((name, job_id), ())


def _outcome(core, dead_letters):
    return {
        "settled": set(core.settled),
        "attempts": {
            name: snapshot.to_dict()["attempt"]
            for name, snapshot in core.snapshots().items()
        },
        "dead": sorted(
            (e.workflow, e.job_id, e.attempts, e.reason) for e in dead_letters
        ),
    }


def _run_des(monkeypatch):
    runs = []
    execute = pull.PullRun.execute

    def spy(run):
        runs.append(run)
        return execute(run)

    monkeypatch.setattr(pull.PullRun, "execute", spy)
    PullEngine(
        ClusterSpec("c3.8xlarge", 1, filesystem="local"),
        RunConfig(default_timeout=5.0),
        retry=RETRY,
        controllers=[ScriptedFailures()],
    ).run(Ensemble([diamond(f"m{i}") for i in range(3)]))
    core = runs[0].core
    return core, _outcome(core, core.dead_letters)


def _run_threads():
    calls = {}
    lock = threading.Lock()

    def actions(name, job_id):
        def action():
            with lock:
                attempt = calls[(name, job_id)] = calls.get((name, job_id), 0) + 1
            if attempt in FAILING.get((name, job_id), ()):
                raise RuntimeError(f"scripted failure of {name}/{job_id}#{attempt}")

        return action

    cfg = DeweConfig(
        default_timeout=5.0,
        master_poll_interval=0.002,
        worker_poll_interval=0.005,
        max_concurrent_jobs=4,
    )
    broker = Broker()
    with MasterDaemon(broker, cfg, retry=RETRY) as master, WorkerDaemon(
        broker, config=cfg
    ):
        for i in range(3):
            submit_workflow(broker, diamond(f"m{i}", actions))
        for i in range(3):
            assert master.wait(f"m{i}", timeout=20.0)
    return master._core, _outcome(master._core, master.dead_letters)


def test_des_and_threads_agree_on_settlement_attempts_and_dead_letters(monkeypatch):
    des_core, des = _run_des(monkeypatch)
    thread_core, threads = _run_threads()
    assert type(des_core) is MasterCore
    assert type(thread_core) is MasterCore
    assert des == threads
    assert des["settled"] == {"m0", "m1", "m2"}
    assert des["attempts"]["m1"]["b"] == 2
    assert des["dead"] == [
        ("m2", "c", 3, "failed"),
        ("m2", "d", 0, "upstream-dead"),
    ]
