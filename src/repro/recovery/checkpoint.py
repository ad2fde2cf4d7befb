"""Checkpoint/restore and crash injection for the threaded master.

The threaded :class:`~repro.dewe.master.MasterDaemon` recovers the way
the DES master does (:mod:`repro.recovery.journal`) and production
schedulers do: restore the last periodic :class:`MasterCheckpoint`
through :meth:`~repro.dewe.core.MasterCore.restore` and re-dispatch
whatever was in flight, leaning on the at-least-once idempotency of
:class:`~repro.dewe.state.WorkflowState` to absorb acks from pre-crash
workers.  Completed jobs stay completed — a 1.7M-job ensemble resumes
from where it was, not from scratch.

:class:`MasterCrashModel` is the fault injector: it runs a periodic
checkpointer thread against a live master, then kills the master
abruptly (everything since the last checkpoint is lost, exactly like a
process crash) and restarts a replacement from that checkpoint.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.concurrency import shims as _shims
from repro.workflow.dag import Workflow

__all__ = ["MasterCheckpoint", "MasterCrashModel"]


@dataclass(frozen=True)
class MasterCheckpoint:
    """One consistent snapshot of a master daemon's scheduler state.

    ``states`` maps workflow name to ``(workflow, snapshot)`` — the DAG
    itself plus the JSON-able :meth:`~repro.dewe.state.WorkflowState.snapshot`;
    ``elapsed`` is each workflow's age (seconds since submission) at the
    checkpoint, so the restored master's makespans stay meaningful;
    ``repriority`` is the checkpointed master's live-reprioritization
    policy, so a restart keeps publishing banded priorities.
    """

    states: Dict[str, Tuple[Workflow, Dict[str, Any]]] = field(
        default_factory=dict
    )
    elapsed: Dict[str, float] = field(default_factory=dict)
    makespans: Dict[str, float] = field(default_factory=dict)
    rejected: Dict[str, str] = field(default_factory=dict)
    repriority: Optional[Any] = None

    @property
    def n_workflows(self) -> int:
        return len(self.states)

    def completed_jobs(self) -> Dict[str, List[str]]:
        """Per workflow, the jobs already completed at the checkpoint —
        the work a restart must *not* redo."""
        return {
            name: sorted(
                job_id
                for job_id, status in snapshot["status"].items()
                if status == "completed"
            )
            for name, (_wf, snapshot) in self.states.items()
        }


class MasterCrashModel:
    """Kill-and-restart fault for the threaded master.

    Usage::

        model = MasterCrashModel(checkpoint_interval=0.05)
        master = MasterDaemon(broker).start()
        model.attach(master)          # periodic checkpointer thread
        ...
        checkpoint = model.crash()    # abrupt kill; last checkpoint only
        master = model.restart(broker)  # replacement daemon, started

    The crash is honest: :meth:`crash` does **not** snapshot the dying
    master — everything after the last periodic checkpoint is lost and
    must be recovered by redelivery.
    """

    def __init__(self, checkpoint_interval: float = 0.05):
        if checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be positive, got {checkpoint_interval}"
            )
        self.checkpoint_interval = checkpoint_interval
        #: Every checkpoint taken, oldest first.
        self.checkpoints: List[MasterCheckpoint] = []
        self.crashes = 0
        self._master = None
        self._ticker: Optional[threading.Thread] = None
        # Traced under REPRO_RACEDETECT: the checkpointer is the reader
        # side of the master's scheduler state, so its accesses need a
        # logical thread id for the happens-before replay.
        self._halt = _shims.make_event("checkpointer.halt")

    def attach(self, master) -> "MasterCrashModel":
        """Start checkpointing ``master`` every ``checkpoint_interval``
        seconds on a background thread."""
        if self._ticker is not None:
            raise RuntimeError("crash model already attached")
        self._master = master
        self._halt.clear()
        self._ticker = _shims.new_thread(self._tick, "master-checkpointer")
        self._ticker.start()
        return self

    def _tick(self) -> None:
        while not self._halt.wait(self.checkpoint_interval):
            master = self._master
            if master is None:
                return
            self.checkpoints.append(master.checkpoint())

    def detach(self) -> None:
        self._halt.set()
        if self._ticker is not None:
            self._ticker.join()
            self._ticker = None

    @property
    def last_checkpoint(self) -> MasterCheckpoint:
        """The latest durable checkpoint (empty if none was taken yet)."""
        return self.checkpoints[-1] if self.checkpoints else MasterCheckpoint()

    def crash(self) -> MasterCheckpoint:
        """Kill the attached master abruptly.

        Returns the last *periodic* checkpoint — the dying master is not
        consulted, so state changed since that checkpoint is genuinely
        lost (and recovered later by redelivery + idempotency).
        """
        if self._master is None:
            raise RuntimeError("no master attached")
        self.detach()
        master, self._master = self._master, None
        master.stop()
        self.crashes += 1
        return self.last_checkpoint

    def restart(
        self,
        broker,
        checkpoint: Optional[MasterCheckpoint] = None,
        config=None,
        retry=None,
    ):
        """Start a replacement master from ``checkpoint`` (default: the
        last one taken), re-attach the checkpointer, and return it."""
        from repro.dewe.master import MasterDaemon

        master = MasterDaemon.from_checkpoint(
            broker,
            checkpoint if checkpoint is not None else self.last_checkpoint,
            config=config,
            retry=retry,
        ).start()
        self.attach(master)
        return master
