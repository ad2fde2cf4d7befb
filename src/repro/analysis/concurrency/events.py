"""Concurrency event log: the record format shared by the recorder
and the happens-before race detector.

One :class:`ConcEvent` is appended per synchronization operation or
registered shared-state access.  The log is a *total order only as an
artifact of recording*; the detector never relies on inter-thread log
order except where the recorder guarantees it (a ``release``/``send``/
``set`` is always appended before the matching ``acquire``/``recv``/
``wait`` — see :mod:`repro.analysis.concurrency.recorder`).

Operations
----------

=========  ==============================================================
op         meaning (``key`` identifies the object)
=========  ==============================================================
fork       parent is about to start the child thread ``key``
begin      first event of traced thread ``key`` (inherits the fork clock)
end        last event of traced thread ``key``
join       parent observed the child ``key`` terminate
acquire    lock/condition-lock acquired
release    lock/condition-lock about to be released
send       message ``seq`` published to channel ``key``
recv       message ``seq`` consumed from channel ``key``
set        event set / condition notified
wait       event-wait or condition-wait observed the set/notify
read       registered shared state read at ``site``
write      registered shared state written at ``site``
=========  ==============================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["ConcEvent", "SYNC_OPS", "ACCESS_OPS"]

SYNC_OPS = frozenset(
    {"fork", "begin", "end", "join", "acquire", "release",
     "send", "recv", "set", "wait"}
)
ACCESS_OPS = frozenset({"read", "write"})


@dataclass(frozen=True)
class ConcEvent:
    """One recorded concurrency event.

    ``ltid`` is the recorder-assigned logical thread id (never reused,
    unlike ``threading.get_ident``); ``key`` identifies the sync object
    or shared variable; ``seq`` is the per-channel message sequence for
    ``send``/``recv``; ``site`` is a stable human-readable code location
    label for accesses (it feeds the race fingerprint, so it must not
    contain line numbers that churn)."""

    index: int
    ltid: int
    op: str
    key: Tuple
    seq: Optional[int] = None
    site: Optional[str] = None

    def __str__(self) -> str:
        parts = [f"#{self.index}", f"T{self.ltid}", self.op, repr(self.key)]
        if self.seq is not None:
            parts.append(f"seq={self.seq}")
        if self.site is not None:
            parts.append(f"@{self.site}")
        return " ".join(parts)
