"""Offline predictive race detector over a recorded event log.

A hybrid of the classic vector-clock happens-before construction and
Eraser's lockset discipline, tuned for *prediction*: the goal is to flag
every pair of accesses that can race in **some** schedule, not just the
ones whose window the recorded schedule happened to hit.

* every logical thread carries a vector clock, incremented after each of
  its own events;
* ``fork``/``begin`` seed a child with its parent's clock and
  ``end``/``join`` merge it back;
* a ``send`` stamps the message's per-channel sequence number with the
  sender's clock, the matching ``recv`` joins it (the broker's FIFO
  topics number messages at publish time, so the pairing is exact even
  with competing consumers);
* ``set``/``wait`` on events and ``notify``/``wait`` on conditions edge
  from all setters to each observed wake-up;
* ``acquire``/``release`` contribute **mutual exclusion only** — they
  maintain each thread's held-lock set but deliberately induce *no*
  ordering edge.  Lock-induced edges describe the accident of one
  schedule: a hot lock that every loop iteration bounces through would
  serialize the log and mask any unlocked access whose race window is
  microseconds wide (exactly the bug class this detector exists for).

Two accesses to the same registered variable **race** when at least one
is a write, they come from different threads, their held-lock sets are
disjoint (no common lock excludes them), and neither is ordered before
the other by the strong edges above (program order, fork/join, message,
event).  Properly locked code never trips the lockset test; genuinely
ordered code (publish via queue, set-then-wait, join) never trips the
clock test; everything else is a schedule away from corruption.

Each race gets a stable *fingerprint* — a hash of the variable name and
the two access sites (deliberately not line numbers, which churn) — so a
regression test can pin the exact race it guards against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.concurrency.events import ConcEvent

__all__ = ["Access", "Race", "detect_races", "race_fingerprint"]

VC = Dict[int, int]


def _join(into: VC, other: VC) -> None:
    for tid, clock in other.items():
        if clock > into.get(tid, 0):
            into[tid] = clock


@dataclass(frozen=True)
class Access:
    """One side of a race: which thread touched the variable, how, where."""

    ltid: int
    thread: str
    op: str
    site: str

    def __str__(self) -> str:
        return f"{self.op} at {self.site} [{self.thread}]"


@dataclass(frozen=True)
class Race:
    """An unsynchronized conflicting pair of accesses to one variable."""

    var: str
    a: Access
    b: Access
    fingerprint: str

    def __str__(self) -> str:
        return (
            f"race {self.fingerprint} on {self.var}: "
            f"{self.a} vs {self.b}"
        )


def race_fingerprint(var: str, a: Tuple[str, str], b: Tuple[str, str]) -> str:
    """Stable id for a race: variable plus the two ``(op, site)`` pairs.

    Order-insensitive, thread-insensitive, line-number-free — reruns and
    refactors that keep the access sites produce the same fingerprint.
    """
    lo, hi = sorted([f"{a[0]}@{a[1]}", f"{b[0]}@{b[1]}"])
    digest = hashlib.sha256(f"{var}|{lo}|{hi}".encode()).hexdigest()
    return digest[:12]


_LockSet = FrozenSet[Tuple]


@dataclass
class _VarState:
    """Last access per (thread, held-lockset), with the local clock.

    Keying by lockset (not just thread) keeps an early unlocked access
    visible even after the same thread later touches the variable under
    the proper lock — the unlocked epoch is the racy one.
    """

    # (ltid, lockset) -> (accessor's own clock component at access, site)
    reads: Dict[Tuple[int, _LockSet], Tuple[int, str]] = field(
        default_factory=dict
    )
    writes: Dict[Tuple[int, _LockSet], Tuple[int, str]] = field(
        default_factory=dict
    )


def detect_races(
    events: Sequence[ConcEvent],
    thread_names: Optional[Dict[int, str]] = None,
) -> List[Race]:
    """Replay the log, build the ordering, return deduplicated races."""
    names = thread_names or {}
    clocks: Dict[int, VC] = {}
    chan_vc: Dict[Tuple, VC] = {}      # (channel key, seq) -> sender clock
    event_vc: Dict[Tuple, VC] = {}     # event/cv key -> join of setters
    fork_vc: Dict[int, VC] = {}        # child ltid -> parent clock at fork
    end_vc: Dict[int, VC] = {}         # child ltid -> clock at end
    held: Dict[int, List[Tuple]] = {}  # ltid -> stack of held lock keys
    vars_state: Dict[Tuple, _VarState] = {}
    races: List[Race] = []
    seen: set = set()

    def clock_of(ltid: int) -> VC:
        vc = clocks.get(ltid)
        if vc is None:
            vc = {ltid: 1}
            clocks[ltid] = vc
        return vc

    def thread_label(ltid: int) -> str:
        return names.get(ltid, f"thread-{ltid}")

    for ev in events:
        op = ev.op
        if op == "begin":
            child = ev.key[1]
            vc = dict(fork_vc.get(child, {}))
            vc[child] = vc.get(child, 0) + 1
            clocks[child] = vc
            continue
        vc = clock_of(ev.ltid)
        if op == "fork":
            fork_vc[ev.key[1]] = dict(vc)
        elif op == "end":
            end_vc[ev.ltid] = dict(vc)
        elif op == "join":
            child_end = end_vc.get(ev.key[1])
            if child_end is not None:
                _join(vc, child_end)
        elif op == "acquire":
            held.setdefault(ev.ltid, []).append(ev.key)
        elif op == "release":
            stack = held.get(ev.ltid)
            if stack and ev.key in stack:
                stack.remove(ev.key)
        elif op == "send":
            chan_vc[(ev.key, ev.seq)] = dict(vc)
        elif op == "recv":
            sent = chan_vc.pop((ev.key, ev.seq), None)
            if sent is not None:
                _join(vc, sent)
        elif op == "set":
            slot = event_vc.setdefault(ev.key, {})
            _join(slot, vc)
        elif op == "wait":
            slot = event_vc.get(ev.key)
            if slot is not None:
                _join(vc, slot)
        elif op == "read" or op == "write":
            state = vars_state.setdefault(ev.key, _VarState())
            site = ev.site or "?"
            locks = frozenset(held.get(ev.ltid, ()))
            # A prior access by thread u at local clock k is ordered
            # before this one iff k <= vc[u]; a common held lock
            # excludes the pair in every schedule.
            conflicting = (
                (("write", state.writes),)
                if op == "read"
                else (("write", state.writes), ("read", state.reads))
            )
            for other_op, table in conflicting:
                for (u, other_locks), (k, other_site) in table.items():
                    if u == ev.ltid or k <= vc.get(u, 0):
                        continue
                    if locks & other_locks:
                        continue
                    var_name = ev.key[1]
                    fp = race_fingerprint(
                        var_name, (other_op, other_site), (op, site)
                    )
                    if fp in seen:
                        continue
                    seen.add(fp)
                    races.append(
                        Race(
                            var=var_name,
                            a=Access(u, thread_label(u), other_op, other_site),
                            b=Access(
                                ev.ltid, thread_label(ev.ltid), op, site
                            ),
                            fingerprint=fp,
                        )
                    )
            table = state.reads if op == "read" else state.writes
            table[(ev.ltid, locks)] = (vc.get(ev.ltid, 0), site)
        # Any other op: ignore (forward compatibility).
        vc[ev.ltid] = vc.get(ev.ltid, 0) + 1

    races.sort(key=lambda r: (r.var, r.fingerprint))
    return races

