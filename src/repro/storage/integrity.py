"""Per-file checksums and corruption/loss detection for the shared FS.

Juve et al.'s EC2 studies put the shared-storage layer at the centre of
workflow failures in public clouds; this module gives the simulated
:class:`~repro.storage.base.SharedFileSystem` a data-integrity plane:

* every staged input and written file gets a **digest** — a pure function
  of ``(owner, name, size)``, so a faithful regeneration reproduces the
  original digest bit-for-bit;
* fault models (:class:`~repro.faults.models.FileCorruptionModel`,
  :class:`~repro.faults.models.FileLossModel`) mutate the *stored*
  digest at write/stage time (a corrupted file stores a marker digest, a
  lost file stores nothing);
* workers **verify** a job's inputs before running it; mismatches are
  reported to the master, which re-executes the minimal ancestor set to
  regenerate the data (see :meth:`repro.dewe.state.WorkflowState.on_corrupt`)
  instead of dead-lettering the consumer.

Like the file system's cache state, integrity state is keyed
``(owner, file name)`` — relabelled ensemble members share
:class:`~repro.workflow.dag.DataFile` objects but own distinct physical
files.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import repro.analysis.sanitizer as _sanitizer
from repro.faults.models import FaultTrace
from repro.workflow.dag import DataFile

__all__ = ["FileIntegrity", "file_digest"]

_Key = Tuple[str, str]


def file_digest(owner: str, name: str, size: float) -> str:
    """The digest of a *correctly produced* file.

    A pure function of the file's identity and size: the simulation has
    no real bytes, but any faithful (re)generation of the same logical
    file must yield the same digest — which is exactly the checksum
    property the recovery invariant needs.
    """
    blob = f"{owner}|{name}|{size:.6f}".encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class FileIntegrity:
    """Checksum registry for one run of one engine.

    ``models`` are the fault injectors :meth:`join` added, each with a
    ``strikes(owner, name, write_index)`` predicate and ``kind`` /
    ``outcome`` attributes (``"corrupt"`` stores a marker digest,
    ``"lost"`` erases the stored digest).  A model only ever strikes a
    given file's *first* write, so a regeneration pass always lands clean.
    """

    def __init__(self, trace: Optional[FaultTrace] = None):
        self.trace = trace
        self.models: Tuple[object, ...] = ()
        #: Digest every (owner, file) is *supposed* to have.
        self.expected: Dict[_Key, str] = {}
        #: Digest actually on disk; ``None`` = file lost.
        self.stored: Dict[_Key, Optional[str]] = {}
        self._write_index: Dict[_Key, int] = {}
        self.stats: Dict[str, int] = {
            "verified": 0,
            "corrupted": 0,
            "lost": 0,
            "detected": 0,
            "regenerated": 0,
            "restaged": 0,
        }

    # -- producing ---------------------------------------------------------
    def _strike(self, key: _Key, index: int, time: float, models: tuple) -> bool:
        """The first of ``models`` that strikes write ``index`` of
        ``key`` stores its outcome; returns whether one did."""
        owner, name = key
        for model in models:
            if model.strikes(owner, name, index):
                if self.trace is not None:
                    self.trace.record(
                        time, model.kind, None, f"{owner}/{name}"
                    )
                if model.outcome == "corrupt":
                    self.stored[key] = "corrupt:" + self.expected[key]
                    self.stats["corrupted"] += 1
                else:
                    self.stored[key] = None
                    self.stats["lost"] += 1
                return True
        return False

    def join(self, model: object) -> None:
        """Hold ``model`` after the models already held.  Before the run
        every recorded file is a staged input (its first write, the only
        one a model strikes): ``model`` strikes those the others left clean."""
        self.models += (model,)
        for key, digest in self.expected.items():
            if self.stored[key] == digest:
                self._strike(key, 1, 0.0, (model,))

    def record_write(self, owner: str, f: DataFile, time: float) -> None:
        """A job (re)wrote ``f``; roll the integrity dice."""
        key = (owner, f.name)
        index = self._write_index.get(key, 0) + 1
        self._write_index[key] = index
        digest = file_digest(owner, f.name, f.size)
        was_bad = key in self.expected and self.stored.get(key) != digest
        self.expected[key] = digest
        if self._strike(key, index, time, self.models):
            return
        self.stored[key] = digest
        if was_bad:
            # A regeneration repaired the file: the recovery invariant
            # says the rewrite must byte-match the original.
            self.stats["regenerated"] += 1
            san = _sanitizer._ACTIVE
            if san is not None:
                san.check_regeneration(
                    owner, f.name, self.expected[key], digest, time=time
                )

    def restage(self, owner: str, f: DataFile, time: float) -> None:
        """Re-copy a raw input from the submit host (always clean —
        the original lives outside the cluster)."""
        key = (owner, f.name)
        self._write_index[key] = self._write_index.get(key, 0) + 1
        digest = file_digest(owner, f.name, f.size)
        self.expected[key] = digest
        self.stored[key] = digest
        self.stats["restaged"] += 1
        if self.trace is not None:
            self.trace.record(time, "input-restage", None, f"{owner}/{f.name}")

    # -- verifying ---------------------------------------------------------
    def verify(
        self, owner: str, files: Sequence[DataFile], time: float
    ) -> List[str]:
        """Checksum ``files`` before a job consumes them; returns the
        names that failed (corrupt or missing), in file order."""
        bad: List[str] = []
        for f in files:
            key = (owner, f.name)
            expected = self.expected.get(key)
            if expected is None:
                continue  # not tracked (zero-byte placeholder etc.)
            self.stats["verified"] += 1
            stored = self.stored.get(key)
            if stored != expected:
                bad.append(f.name)
                self.stats["detected"] += 1
                if self.trace is not None:
                    what = "loss-detected" if stored is None else "corruption-detected"
                    self.trace.record(time, what, None, f"{owner}/{f.name}")
        return bad
