"""Crash-consistent master: write-ahead journal, checkpoint/restore.

See :mod:`repro.recovery.journal` for the recovery model and
``docs/FAULTS.md`` ("Master recovery is a restore") for the prose
version.
"""

from repro.recovery.checkpoint import MasterCheckpoint, MasterCrashModel
from repro.recovery.journal import (
    Checkpoint,
    Journal,
    JournalError,
    JournalRecord,
    state_digest,
)

__all__ = [
    "Checkpoint",
    "Journal",
    "JournalError",
    "JournalRecord",
    "MasterCheckpoint",
    "MasterCrashModel",
    "state_digest",
]
