"""The happens-before/lockset race detector: unit, mutation, regression.

Three layers:

* **unit** — hand-built event logs exercising every ordering edge the
  detector knows (fork/join, message, event, lockset exclusion) and the
  predictive property (lock-induced edges do not mask races);
* **mutation** — a clean log is mutated the way real bugs happen (a
  dropped lock, a reordered ack) and the detector must flag exactly the
  seeded defect while staying silent on the clean original;
* **regression** — the real threaded daemons run under the recorder; the
  two races fixed in this package's PR are re-seeded via subclasses and
  pinned by fingerprint, and the *fixed* daemons must report zero races.
"""

import time

import repro.analysis.concurrency.recorder as rec_mod
from repro.analysis.concurrency.detector import detect_races, race_fingerprint
from repro.analysis.concurrency.events import ConcEvent
from repro.dewe import DeweConfig, MasterDaemon, WorkerDaemon, submit_workflow
from repro.mq import Broker
from repro.recovery.checkpoint import MasterCrashModel
from repro.workflow import Workflow

FAST = DeweConfig(
    default_timeout=1.0,
    master_poll_interval=0.002,
    worker_poll_interval=0.005,
    max_concurrent_jobs=8,
)

#: The two historical races this PR fixed, pinned by stable fingerprint
#: (variable + access sites; thread- and line-number-insensitive).
REJECT_RACE = race_fingerprint(
    "master.state",
    ("read", "master.checkpoint"),
    ("write", "master.reject"),
)
COUNTER_RACE = race_fingerprint(
    "worker.progress",
    ("write", "worker.record_outcome"),
    ("write", "worker.record_outcome"),
)

LOCK = ("lock", "l", 1)
VAR = ("var", "x", 1)
CHAN = ("topic", "t", 1)
EVENT = ("event", "e", 1)


def log(*specs):
    """Build a ConcEvent list from (ltid, op, key[, seq_or_site]) tuples."""
    events = []
    for i, spec in enumerate(specs):
        ltid, op, key = spec[0], spec[1], spec[2]
        seq = site = None
        if len(spec) > 3:
            if op in ("send", "recv"):
                seq = spec[3]
            else:
                site = spec[3]
        events.append(ConcEvent(i, ltid, op, key, seq=seq, site=site))
    return events


# ---------------------------------------------------------------------------
# Unit: ordering edges
# ---------------------------------------------------------------------------


def test_unsynchronized_writes_race():
    races = detect_races(
        log((1, "write", VAR, "a"), (2, "write", VAR, "b"))
    )
    assert len(races) == 1
    assert races[0].var == "x"
    assert races[0].fingerprint == race_fingerprint(
        "x", ("write", "a"), ("write", "b")
    )


def test_read_read_never_races():
    races = detect_races(log((1, "read", VAR, "a"), (2, "read", VAR, "b")))
    assert races == []


def test_common_lock_excludes():
    races = detect_races(
        log(
            (1, "acquire", LOCK),
            (1, "write", VAR, "a"),
            (1, "release", LOCK),
            (2, "acquire", LOCK),
            (2, "write", VAR, "b"),
            (2, "release", LOCK),
        )
    )
    assert races == []


def test_disjoint_locks_race():
    other = ("lock", "m", 2)
    races = detect_races(
        log(
            (1, "acquire", LOCK),
            (1, "write", VAR, "a"),
            (1, "release", LOCK),
            (2, "acquire", other),
            (2, "write", VAR, "b"),
            (2, "release", other),
        )
    )
    assert len(races) == 1


def test_lock_edges_do_not_mask_races():
    """The predictive property: an unlocked write stays racy even when
    the recorded schedule orders it through an unrelated lock bounce."""
    races = detect_races(
        log(
            (1, "write", VAR, "unlocked"),
            (1, "acquire", LOCK),
            (1, "release", LOCK),
            (2, "acquire", LOCK),
            (2, "read", VAR, "locked"),
            (2, "release", LOCK),
        )
    )
    assert len(races) == 1
    assert {races[0].a.site, races[0].b.site} == {"unlocked", "locked"}


def test_message_edge_orders():
    races = detect_races(
        log(
            (1, "write", VAR, "w"),
            (1, "send", CHAN, 1),
            (2, "recv", CHAN, 1),
            (2, "read", VAR, "r"),
        )
    )
    assert races == []


def test_event_edge_orders():
    races = detect_races(
        log(
            (1, "write", VAR, "w"),
            (1, "set", EVENT),
            (2, "wait", EVENT),
            (2, "read", VAR, "r"),
        )
    )
    assert races == []


def test_fork_join_orders():
    races = detect_races(
        log(
            (1, "write", VAR, "before"),
            (1, "fork", ("thread", 2)),
            (2, "begin", ("thread", 2)),
            (2, "write", VAR, "child"),
            (2, "end", ("thread", 2)),
            (1, "join", ("thread", 2)),
            (1, "read", VAR, "after"),
        )
    )
    assert races == []


def test_unjoined_child_races_with_parent():
    races = detect_races(
        log(
            (1, "fork", ("thread", 2)),
            (2, "begin", ("thread", 2)),
            (2, "write", VAR, "child"),
            (1, "write", VAR, "parent"),
        )
    )
    assert len(races) == 1


def test_earlier_unlocked_epoch_stays_visible():
    """A later properly-locked access by the same thread must not hide
    its earlier unlocked one (per-lockset epochs)."""
    races = detect_races(
        log(
            (1, "write", VAR, "unlocked"),
            (1, "acquire", LOCK),
            (1, "write", VAR, "locked1"),
            (1, "release", LOCK),
            (2, "acquire", LOCK),
            (2, "write", VAR, "locked2"),
            (2, "release", LOCK),
        )
    )
    assert len(races) == 1
    assert {races[0].a.site, races[0].b.site} == {"unlocked", "locked2"}


def test_fingerprint_is_order_and_thread_insensitive():
    a = race_fingerprint("x", ("write", "s1"), ("read", "s2"))
    b = race_fingerprint("x", ("read", "s2"), ("write", "s1"))
    assert a == b
    assert len(a) == 12
    assert a != race_fingerprint("y", ("write", "s1"), ("read", "s2"))


# ---------------------------------------------------------------------------
# Mutation: a clean log, broken the way real bugs break
# ---------------------------------------------------------------------------

CLEAN_LOCKED = (
    (1, "acquire", LOCK),
    (1, "write", VAR, "t1"),
    (1, "release", LOCK),
    (2, "acquire", LOCK),
    (2, "write", VAR, "t2"),
    (2, "release", LOCK),
)

CLEAN_MESSAGE = (
    (1, "write", VAR, "produce"),
    (1, "send", CHAN, 1),
    (2, "recv", CHAN, 1),
    (2, "read", VAR, "consume"),
)


def test_mutation_clean_logs_are_silent():
    assert detect_races(log(*CLEAN_LOCKED)) == []
    assert detect_races(log(*CLEAN_MESSAGE)) == []


def test_mutation_dropped_lock_is_flagged():
    """Delete one thread's acquire/release (the 'forgot the lock' bug)."""
    mutated = [
        spec for spec in CLEAN_LOCKED
        if not (spec[0] == 2 and spec[1] in ("acquire", "release"))
    ]
    races = detect_races(log(*mutated))
    assert len(races) == 1
    assert {races[0].a.site, races[0].b.site} == {"t1", "t2"}


def test_mutation_reordered_ack_is_flagged():
    """Move the send after the recv (the ack overtook its message): the
    consumer's read loses its ordering edge to the producer's write."""
    specs = list(CLEAN_MESSAGE)
    send = specs.pop(1)
    specs.append(send)
    races = detect_races(log(*specs))
    assert len(races) == 1
    assert {races[0].a.site, races[0].b.site} == {"produce", "consume"}


# ---------------------------------------------------------------------------
# Regression: the real daemons, clean and re-seeded
# ---------------------------------------------------------------------------


def _noop():
    return None


def test_threaded_daemons_run_clean_under_detector():
    """The fixed master/worker/broker/checkpointer produce zero races."""
    with rec_mod.enabled() as rec:
        broker = Broker()
        wf = Workflow("clean")
        for jid in ("a", "b", "c"):
            wf.new_job(jid, "t", runtime=0.0, action=_noop)
        wf.add_dependency("a", "b")
        wf.add_dependency("b", "c")
        model = MasterCrashModel(checkpoint_interval=0.005)
        with MasterDaemon(broker, FAST) as master, WorkerDaemon(
            broker, config=FAST
        ):
            model.attach(master)
            submit_workflow(broker, wf)
            assert master.wait("clean", timeout=10.0)
            master.checkpoint()
            assert master.dead_letters == []
            assert master.makespan("clean") >= 0.0
            model.detach()
    assert len(rec.events) > 50  # the run really was instrumented
    assert detect_races(rec.events, rec.thread_names) == []


class BuggyMaster(MasterDaemon):
    """Re-seeds the historical bug: ``rejected`` written with no lock."""

    def _reject(self, workflow_name, exc):
        self._trace("write", "master.reject")
        self.rejected[workflow_name] = repr(exc)


def test_detector_flags_unlocked_reject_against_checkpointer():
    with rec_mod.enabled() as rec:
        broker = Broker()
        good = Workflow("good")
        good.new_job("j", "t", action=_noop)
        model = MasterCrashModel(checkpoint_interval=0.005)
        with BuggyMaster(broker, FAST) as master, WorkerDaemon(
            broker, config=FAST
        ):
            model.attach(master)
            submit_workflow(broker, good)
            assert master.wait("good", timeout=10.0)
            dup = Workflow("good")
            dup.new_job("j", "t")
            submit_workflow(broker, dup)
            deadline = time.monotonic() + 5.0
            while "good" not in master.rejected and time.monotonic() < deadline:
                time.sleep(0.005)
            model.detach()
        assert model.checkpoints  # the reader side actually ran
    fingerprints = {
        r.fingerprint for r in detect_races(rec.events, rec.thread_names)
    }
    assert REJECT_RACE in fingerprints


class BuggyWorker(WorkerDaemon):
    """Re-seeds the historical bug: bare ``+=`` from concurrent job threads."""

    def _record_outcome(self, failed):
        self._trace("write", "worker.record_outcome")
        if failed:
            self.jobs_failed += 1
        else:
            self.jobs_completed += 1


def test_detector_flags_bare_counter_increments():
    with rec_mod.enabled() as rec:
        broker = Broker()
        wf = Workflow("wide")
        for i in range(8):
            wf.new_job(f"j{i}", "t", runtime=0.0, action=_noop)
        with MasterDaemon(broker, FAST) as master, BuggyWorker(
            broker, config=FAST
        ):
            submit_workflow(broker, wf)
            assert master.wait("wide", timeout=10.0)
    fingerprints = {
        r.fingerprint for r in detect_races(rec.events, rec.thread_names)
    }
    assert COUNTER_RACE in fingerprints


def test_seeded_fingerprints_are_stable_literals():
    """The pinned fingerprints double as documentation; a change here
    means the access sites moved and every pin must be re-audited."""
    assert REJECT_RACE == "d49f04054ab4"
    assert COUNTER_RACE == "b9811d4e923a"


def test_recorder_env_flag_names():
    assert rec_mod.ENV_FLAG == "REPRO_RACEDETECT"
    assert rec_mod.active() is rec_mod.active()  # idempotent query


def test_enabled_context_restores_previous_recorder():
    before = rec_mod.active()
    with rec_mod.enabled() as rec:
        assert rec_mod.active() is rec
    assert rec_mod.active() is before
