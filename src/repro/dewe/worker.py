"""The DEWE v2 worker daemon (real, threaded).

"The worker daemon has a stateless design.  The only knowledge it has
about the whole workflow execution system is the address of the message
queue" (paper §III.D).  The daemon pulls the job-dispatching topic, sends
a running ack, runs the job in its own thread, and sends a completed (or
failed) ack.  It stops pulling while the number of in-flight job threads
equals the CPU count.

Fault injection: :meth:`kill` emulates the process being killed — pulling
stops immediately and acknowledgments of in-flight jobs are suppressed, so
the master's timeout mechanism must recover them (paper §V.A.3).  A killed
worker cannot be restarted; start a fresh daemon, exactly like restarting
the real process.

Locking discipline (lint CL005 enforces the ``_guarded_by_`` map): the
progress counters are guarded by the ``_progress`` condition — they were
historically bare ``+= 1`` from concurrent job threads, a lost-update
race the happens-before detector surfaces (its fingerprint is pinned in
``tests/test_concurrency_detector.py``).  ``_progress`` also gives
observers :meth:`wait_progress` instead of polling the counters.  A
network partition cuts the worker's own link by the DES ``PullRun``'s
rules (:meth:`begin_partition`); ``_link`` guards it, and every ack is
sent or held under it, so a heal's flush precedes any newer ack.
"""

from __future__ import annotations

import threading
from typing import Optional

import repro.analysis.concurrency.recorder as _conc
from repro.analysis.concurrency import shims as _shims
from repro.dewe.config import DeweConfig
from repro.dewe.executors import CallableExecutor, Executor
from repro.faults.models import DOWNLINK_CUT, PARTITION_MODES, UPLINK_CUT
from repro.mq.broker import Broker
from repro.mq.messages import (
    TOPIC_ACK,
    TOPIC_DISPATCH,
    TOPIC_HEARTBEAT,
    AckKind,
    JobAck,
    JobDispatch,
    WorkerHeartbeat,
)

__all__ = ["WorkerDaemon"]


class WorkerDaemon:
    """Pulls and executes jobs; start()/stop()/kill() lifecycle."""

    _guarded_by_ = {
        "jobs_started": "_progress",
        "jobs_completed": "_progress",
        "jobs_failed": "_progress",
        "_active": "_active_lock",
        "_cut": "_link",
        "_held": "_link",
    }

    def __init__(
        self,
        broker: Broker,
        executor: Optional[Executor] = None,
        config: Optional[DeweConfig] = None,
        name: str = "worker-0",
    ):
        self.broker = broker
        self.executor = executor or CallableExecutor()
        self.config = config or DeweConfig()
        self.name = name
        self.jobs_started = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self._active = 0
        self._active_lock = _shims.make_lock(f"{name}.active")
        #: Guards the progress counters; notified on every job outcome.
        self._progress = _shims.make_condition(f"{name}.progress")
        self._stop = _shims.make_event(f"{name}.stop")
        self._killed = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._hb_thread: Optional[threading.Thread] = None
        self._job_threads: list = []
        self._link = _shims.make_lock(f"{name}.link")
        #: ``None`` (connected) or the active ``PARTITION_MODES`` entry.
        self._cut: Optional[str] = None
        #: Acks held behind an uplink cut, in send order.
        self._held: list = []

    def _trace(self, op: str, site: str) -> None:
        """Report a counter access to the race recorder, if any."""
        rec = _conc.active()
        if rec is not None:
            hook = rec.on_read if op == "read" else rec.on_write
            hook("worker.progress", id(self), site)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "WorkerDaemon":
        if self._thread is not None:
            raise RuntimeError(f"worker {self.name} already started")
        self._thread = _shims.new_thread(self._loop, f"dewe-{self.name}")
        self._thread.start()
        if self.config.liveness is not None:
            self._hb_thread = _shims.new_thread(
                self._heartbeat_loop, f"dewe-{self.name}-hb"
            )
            self._hb_thread.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop pulling, let in-flight jobs finish."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._hb_thread is not None:
            self._hb_thread.join()
            self._hb_thread = None
        for t in self._job_threads:
            t.join()
        self._job_threads.clear()

    def kill(self) -> None:
        """Abrupt death: in-flight jobs never acknowledge (fault injection)."""
        self._killed.set()
        self._stop.set()
        with self._link:
            self._held.clear()  # acks held behind a cut die with the process
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._hb_thread is not None:
            self._hb_thread.join()
            self._hb_thread = None

    def join_jobs(self, timeout: Optional[float] = None) -> None:
        """Wait for in-flight job threads (after :meth:`kill`, the acks
        are suppressed but the threads still wind down)."""
        for t in self._job_threads:
            t.join(timeout)

    def __enter__(self) -> "WorkerDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- network partition -------------------------------------------------
    def begin_partition(self, mode: str) -> None:
        """Cut this worker's link to the master in ``mode`` (a
        :data:`~repro.faults.models.PARTITION_MODES` entry): an uplink
        cut holds acks and drops heartbeats, a downlink cut stops
        pulling.  Jobs already running run on."""
        if mode not in PARTITION_MODES:
            raise ValueError(f"mode must be one of {PARTITION_MODES}, got {mode!r}")
        with self._link:
            self._cut = mode

    def end_partition(self) -> int:
        """Heal the link: the held acks go out in send order, before any
        newer ack.  Returns how many were held."""
        with self._link:
            self._cut = None
            held, self._held = self._held, []
            for ack in held:
                self.broker.publish(TOPIC_ACK, ack)
        return len(held)

    def _deaf(self) -> bool:
        """True while a downlink cut keeps this worker from pulling."""
        with self._link:
            return self._cut in DOWNLINK_CUT

    # -- progress observation ----------------------------------------------
    def wait_progress(
        self, seen: int, timeout: Optional[float] = None
    ) -> int:
        """Block until completed+failed exceeds ``seen`` (or timeout);
        returns the current completed+failed count.  The event-driven
        replacement for polling the counters with ``time.sleep``."""
        with self._progress:
            self._progress.wait_for(
                lambda: self.jobs_completed + self.jobs_failed > seen,
                timeout,
            )
            self._trace("read", "worker.wait_progress")
            return self.jobs_completed + self.jobs_failed

    # -- internals -----------------------------------------------------------
    def _ack(self, msg: JobDispatch, kind: AckKind, error: str = None) -> None:
        ack = JobAck(
            workflow_name=msg.workflow_name,
            job_id=msg.job_id,
            kind=kind,
            worker=self.name,
            attempt=msg.attempt,
            error=error,
        )
        with self._link:
            if self._killed.is_set():
                return  # a dead process sends nothing
            if self._cut in UPLINK_CUT:
                self._held.append(ack)  # in flight until the heal
            else:
                self.broker.publish(TOPIC_ACK, ack)

    def _record_outcome(self, failed: bool) -> None:
        """Count one finished job and wake :meth:`wait_progress` waiters."""
        with self._progress:
            self._trace("write", "worker.record_outcome")
            if failed:
                self.jobs_failed += 1
            else:
                self.jobs_completed += 1
            self._progress.notify_all()

    def _run_job(self, msg: JobDispatch) -> None:
        try:
            self.executor.run(msg.job)
        except Exception as exc:  # noqa: BLE001 - worker must survive any job
            self._record_outcome(failed=True)
            self._ack(msg, AckKind.FAILED, error=repr(exc))
        else:
            self._record_outcome(failed=False)
            self._ack(msg, AckKind.COMPLETED)
        finally:
            with self._active_lock:
                self._active -= 1

    def _heartbeat_loop(self) -> None:
        """Renew the lease every ``config.liveness.heartbeat_interval`` s.

        The first beat announces the worker (the master grants a lease on
        first contact); a killed worker stops beating immediately, which
        is exactly the signal the lease sweep turns into a fence.  A beat
        due while the uplink is cut is dropped, not held: a stale beat
        carries no information.
        """
        seq = 0
        while True:
            with self._link:
                if self._cut not in UPLINK_CUT:
                    beat = WorkerHeartbeat(worker=self.name, seq=seq)
                    self.broker.publish(TOPIC_HEARTBEAT, beat)
            # Event-wait between beats (lint CL008): wakes early on stop/kill.
            if self._stop.wait(self.config.liveness.heartbeat_interval):
                return
            seq += 1

    def _loop(self) -> None:
        slots = self.config.worker_slots
        poll = self.config.worker_poll_interval
        while not self._stop.is_set():
            with self._active_lock:
                full = self._active >= slots
            if full or self._deaf():
                # At the concurrency cap (paper §III.D) or cut off from
                # the master: stop pulling.
                self._stop.wait(poll)
                continue
            msg = self.broker.consume(TOPIC_DISPATCH, timeout=poll)
            if msg is None:
                continue
            if self._stop.is_set():
                if not self._killed.is_set():
                    # Graceful shutdown mid-checkout: hand the job back.
                    self.broker.publish(TOPIC_DISPATCH, msg)
                break
            if self._deaf():
                # A downlink cut began while this pull waited: the
                # dispatch never reached the worker; back to the queue.
                self.broker.publish(TOPIC_DISPATCH, msg)
                continue
            with self._progress:
                self._trace("write", "worker.job_started")
                self.jobs_started += 1
            with self._active_lock:
                self._active += 1
            self._ack(msg, AckKind.RUNNING)
            thread = _shims.new_thread(
                self._run_job, f"{self.name}-job", args=(msg,)
            )
            self._job_threads.append(thread)
            thread.start()
