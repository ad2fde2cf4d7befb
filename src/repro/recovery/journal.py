"""Write-ahead journal for the master's scheduler state.

The paper's fault-tolerance evaluation (§V.A.3) only ever kills *workers*;
the master daemon remains a single point of failure.  This module gives
the master crash consistency the way databases do: every scheduler state
transition — submit, dispatch, ack, retry, dead-letter, lease grant and
expiry, spot-billing marks — is appended to a :class:`Journal` *before*
its side effects are applied, and periodic :class:`Checkpoint` records
compact the log so it never grows with ensemble size.

Recovery model
--------------

A master that comes back restores; it does not re-live the run.  The
daemons share nothing but the queue (paper §III), so a new master
incarnation rebuilds :class:`~repro.dewe.core.MasterCore` from the last
checkpoint through :meth:`~repro.dewe.core.MasterCore.restore`: settled
jobs stay settled, every job in flight is requeued under a fresh attempt
number, and the at-least-once idempotency of
:class:`~repro.dewe.state.WorkflowState` absorbs acks from the old
incarnation's deliveries.  The DES warm standby
(:meth:`~repro.engines.pull.PullRun.standby_takeover`), the DES master
crash (the same takeover with no standby, one restart delay after the
crash) and the threaded restart
(:meth:`~repro.dewe.master.MasterDaemon.from_checkpoint`) are that one
path.

Crash injection
---------------

``Journal(crash_after=N)`` models the master process dying with exactly
``N`` records durably on disk: the append that would write record
``N + 1`` is refused instead (it returns ``None``), ``crashed`` is set
and ``on_crash`` fires, once.  Every append while ``crashed`` is set is
refused the same way (a dead master writes nothing), and each refusal is
counted in ``fenced_appends``.  The incarnation that takes over calls
:meth:`Journal.fence`, which clears ``crashed``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

__all__ = [
    "JournalRecord",
    "Checkpoint",
    "Journal",
    "JournalError",
    "state_digest",
]


class JournalError(RuntimeError):
    """Malformed journal operation (checkpoint without a snapshot provider)."""


class JournalRecord(NamedTuple):
    """One scheduler state transition, appended before it is applied.

    ``kind`` is the transition name (``submit``, ``dispatch``,
    ``ack-running``, ``ack-complete``, ``ack-failed``, ``ack-corrupt``,
    ``timeout-requeue``, ``dead-letter``, ``lease-grant``,
    ``lease-expiry``, ``billing-spot``, and — in multi-tenant service
    runs — ``service-shed``, whose ``workflow`` names the shed
    submission and whose ``detail`` carries its tenant/SLA/reason and
    retry-after hint, so a post-mortem can reconstruct who lost what,
    why, and what backoff the client was told);
    ``time`` is the master's clock (simulated seconds in the DES).
    """

    seq: int
    time: float
    kind: str
    workflow: str = ""
    job_id: str = ""
    attempt: int = 0
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return self._asdict()


def _as_dict(snapshot) -> Dict[str, Any]:
    """``json.dumps`` fallback: a ``StateSnapshot`` encodes as its dict."""
    return snapshot.to_dict()


def state_digest(snapshots: Dict[str, Any]) -> str:
    """Stable digest of a master-state snapshot (canonical JSON, sha256)."""
    blob = json.dumps(
        snapshots, sort_keys=True, separators=(",", ":"), default=_as_dict
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Checkpoint:
    """A compaction point: the master state at journal offset ``seq``.

    Records with ``seq' <= seq`` are dropped from the journal once the
    checkpoint is durable; a new master incarnation restores from
    ``snapshots``.  Snapshots are immutable, so :attr:`digest` is
    computed when it is first read, not when the checkpoint is taken.
    """

    seq: int
    time: float
    snapshots: Dict[str, Any]

    @cached_property
    def digest(self) -> str:
        return state_digest(self.snapshots)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "time": self.time,
            "digest": self.digest,
            "snapshots": self.snapshots,
        }


class Journal:
    """Append-only scheduler journal with checkpoint compaction.

    Parameters
    ----------
    checkpoint_every:
        Take a checkpoint (and compact the log) every that many records;
        0 disables checkpointing.  Requires a ``snapshot_provider``.
    crash_after:
        Fault injection: the append that would create record
        ``crash_after + 1`` is refused and the master is down until the
        next :meth:`fence`.  It fires once.  ``None`` disables crashing.

    A run attaches itself through ``owner``, ``snapshot_provider`` and
    ``on_crash`` and detaches all three when it ends, so a journal kept
    after the run (a result's or a chaos report's) holds its records and
    checkpoint, not the run that wrote them.
    """

    def __init__(
        self,
        checkpoint_every: int = 0,
        crash_after: Optional[int] = None,
    ):
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if crash_after is not None and crash_after < 0:
            raise ValueError(f"crash_after must be >= 0, got {crash_after}")
        self.checkpoint_every = checkpoint_every
        self.crash_after = crash_after
        #: Records since the last checkpoint (the durable tail).
        self.records: List[JournalRecord] = []
        #: The latest compaction point, if any.
        self.checkpoint: Optional[Checkpoint] = None
        #: ``(seq, time)`` of every checkpoint ever taken, for exports.
        self.checkpoint_history: List[Tuple[int, float]] = []
        self.seq = 0
        #: The master is down: set by the injected crash, cleared by
        #: :meth:`fence`.
        self.crashed = False
        #: Injected crashes that fired (0 or 1).
        self.crashes = 0
        #: Callable returning the master-state snapshot for checkpoints;
        #: installed by the engine.
        self.snapshot_provider: Optional[Callable[[], Dict[str, Any]]] = None
        #: Called once when the crash fires; the engine schedules the
        #: restart from it.
        self.on_crash: Optional[Callable[[], None]] = None
        #: Token of the run currently writing to this journal.  Engines
        #: set a fresh token per run and check it before appending, so a
        #: finished run's coroutines (whose ``finally`` blocks run when
        #: the engine closes its simulator) cannot append to a journal
        #: another run now owns.
        self.owner: Optional[object] = None
        #: Fencing epoch: the owner-token guard extended across master
        #: *incarnations within one run*.  A standby taking over bumps
        #: the epoch with :meth:`fence`; appends stamped with an older
        #: epoch are silently refused (a fenced primary's writes go
        #: nowhere), counted in ``fenced_appends``.
        self.epoch = 0
        self.fenced_appends = 0

    # -- appending ---------------------------------------------------------
    def append(
        self,
        time: float,
        kind: str,
        workflow: str = "",
        job_id: str = "",
        attempt: int = 0,
        detail: str = "",
        epoch: Optional[int] = None,
    ) -> Optional[JournalRecord]:
        """Durably record one transition; write-ahead of its side effects.

        Returns ``None`` when the append is refused: ``epoch`` is given
        and older than the journal's current epoch (a revived old
        primary cannot split-brain the log after a standby took over),
        or the master is down.
        """
        if (epoch is not None and epoch != self.epoch) or self.crashed:
            self.fenced_appends += 1
            return None
        if self.seq == self.crash_after and not self.crashes:
            self.crashed = True
            self.crashes = 1
            self.fenced_appends += 1
            if self.on_crash is not None:
                self.on_crash()
            return None
        self.seq += 1
        record = JournalRecord(
            self.seq, time, kind, workflow, job_id, attempt, detail
        )
        self.records.append(record)
        if (
            self.checkpoint_every
            and self.snapshot_provider is not None
            and self.seq % self.checkpoint_every == 0
        ):
            self.take_checkpoint(time)
        return record

    def fence(self) -> int:
        """Advance the fencing epoch (standby takeover or restart).

        Every writer still holding the previous epoch — the possibly
        -only-partitioned old primary — is fenced: its subsequent
        appends are refused.  The new incarnation is up, so ``crashed``
        clears.  Returns the new epoch, the takeover's monotonic fencing
        token.
        """
        self.crashed = False
        self.epoch += 1
        return self.epoch

    def take_checkpoint(self, time: float) -> Checkpoint:
        """Snapshot the master state and compact the journal."""
        if self.snapshot_provider is None:
            raise JournalError("cannot checkpoint without a snapshot_provider")
        checkpoint = Checkpoint(self.seq, time, self.snapshot_provider())
        self.checkpoint = checkpoint
        self.checkpoint_history.append((self.seq, time))
        self.records.clear()
        return checkpoint

    # -- persistence -------------------------------------------------------
    def to_jsonl(self, path: Union[str, Path]) -> None:
        """Write the surviving journal (checkpoint line first, then the
        tail records) as JSON lines."""
        out = []
        if self.checkpoint is not None:
            checkpoint = {"checkpoint": self.checkpoint.to_dict()}
            out.append(json.dumps(checkpoint, default=_as_dict))
        out.extend(json.dumps(r.to_dict()) for r in self.records)
        Path(path).write_text("\n".join(out) + ("\n" if out else ""))

    def __len__(self) -> int:
        return self.seq
