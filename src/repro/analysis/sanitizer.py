"""Opt-in runtime invariant sanitizer for the simulation substrate.

The paper's evaluation rests on the simulator's contention accounting being
conservation-correct: cores never over-committed, fair-share links never
delivering more than their capacity, the write-back cache flushing exactly
the bytes that were written, billed hours never undercutting wall time.
This module is an ASAN/TSAN-style checker for those invariants: hook points
in :mod:`repro.sim.engine`, :mod:`repro.sim.resources`,
:mod:`repro.storage.cache` and :mod:`repro.cloud.pricing` call into the
active :class:`Sanitizer` — or do nothing at all when no sanitizer is
installed (the disabled path is a single ``is not None`` test).

Usage::

    import repro.analysis.sanitizer as sanitizer

    san = sanitizer.enable(strict=False)   # collect mode
    ... run simulations ...
    sanitizer.disable()
    for violation in san.violations:
        print(violation)

``strict=True`` raises :class:`InvariantViolation` at the first violation
(after recording it).  Setting the environment variable ``REPRO_SANITIZER``
before the first ``repro`` import enables the sanitizer globally: ``1`` or
``strict`` for strict mode, ``collect`` for collect-only.  The test suite
enables strict mode for every test via ``tests/conftest.py``.

This module intentionally imports nothing from the rest of ``repro`` so
that the instrumented modules can import it without cycles; the checks are
white-box and reach into the instrumented objects' attributes directly.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ENV_FLAG",
    "InvariantViolation",
    "Sanitizer",
    "Violation",
    "active",
    "disable",
    "enable",
    "enabled",
]

#: Environment variable consulted at import time (see :func:`_install_from_env`).
ENV_FLAG = "REPRO_SANITIZER"


class InvariantViolation(RuntimeError):
    """Raised in strict mode when a simulation invariant is broken."""


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation.

    ``check`` is a stable identifier (e.g. ``"core-conservation"``);
    ``time`` is the simulation clock when available, else ``None``.
    """

    check: str
    message: str
    time: Optional[float] = None

    def __str__(self) -> str:
        stamp = f" (t={self.time:g})" if self.time is not None else ""
        return f"[{self.check}] {self.message}{stamp}"


class Sanitizer:
    """Collected-violation checker with optional fail-fast behaviour."""

    __slots__ = ("strict", "violations", "_billing_hwm", "_cow_owners")

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.violations: List[Violation] = []
        # Per billing model: the largest rental duration checked so far and
        # the hours it billed, for the monotonicity sandwich check.
        self._billing_hwm: Dict[object, Tuple[float, float]] = {}
        # id(mutable per-job dict) -> (owning workflow name, the dict).
        # The strong reference keeps the dict alive so CPython cannot
        # recycle its id for an unrelated later dict (false aliasing).
        self._cow_owners: Dict[int, Tuple[str, object]] = {}

    def _report(self, check: str, message: str, time: Optional[float] = None) -> None:
        violation = Violation(check, message, time)
        self.violations.append(violation)
        if self.strict:
            raise InvariantViolation(str(violation))

    # -- event clock (repro.sim.engine) ---------------------------------
    def check_step(self, now: float, event_time: float) -> None:
        """The agenda must never pop an event scheduled before ``now``."""
        if event_time < now:
            self._report(
                "clock-monotonicity",
                f"event scheduled at t={event_time!r} popped after now={now!r}",
                time=now,
            )

    def check_schedule(self, now: float, delay: float) -> None:
        """Scheduling into the past would reorder the event agenda."""
        if delay < 0:
            self._report(
                "clock-monotonicity",
                f"event scheduled with negative delay {delay!r}",
                time=now,
            )

    # -- shared-structure ensembles (repro.dewe.state.WorkflowState) ----
    def check_cow_isolation(self, state, skeleton) -> None:
        """Per-member mutable job state must never alias the shared
        skeleton's structures, nor another member's (relabelled ensemble
        members share the DAG structure; sharing *run state* would let
        one member's progress corrupt another's).

        The checks unwrap arena views to their backing arrays (``_arr``)
        — aliasing lives at the storage layer, and two distinct view
        objects over one shared array would be exactly the bug this
        check exists to catch.
        """
        pending_store = getattr(state.pending, "_arr", state.pending)
        shared_arena = getattr(skeleton, "_arena", None)
        if pending_store is skeleton.initial_pending or (
            shared_arena is not None
            and pending_store is shared_arena.initial_pending
        ):
            self._report(
                "cow-isolation",
                f"{state.name}: pending counts alias the shared skeleton",
            )
        owners = self._cow_owners
        status_store = getattr(state.status, "_arr", state.status)
        for label, d in (("pending", pending_store), ("status", status_store)):
            entry = owners.get(id(d))
            if entry is not None and entry[1] is d and entry[0] != state.name:
                self._report(
                    "cow-isolation",
                    f"{state.name}: {label} store is shared with "
                    f"workflow {entry[0]!r}",
                )
            owners[id(d)] = (state.name, d)

    def check_touch_isolation(self, fs) -> None:
        """The page-cache touch table extends the same rule to per-file
        state: no two owners share a row, every row is as long as its
        index, and an index the file system may grow is its own — a
        skeleton's shared ``file_index()`` grown through one member would
        leave every other member's row shorter than its index.
        """
        rows: Dict[int, str] = {}
        grown: Dict[int, str] = {}
        for owner, (index, row) in fs._touch.items():
            other = rows.setdefault(id(row), owner)
            if other != owner:
                self._report(
                    "cow-isolation",
                    f"{fs.name}: touch row of {owner!r} is shared with {other!r}",
                )
            if len(row) != len(index):
                self._report(
                    "cow-isolation",
                    f"{fs.name}: touch row of {owner!r} has {len(row)} slots "
                    f"for an index of {len(index)} files",
                )
            if owner in fs._private:
                other = grown.setdefault(id(index), owner)
                if other != owner:
                    self._report(
                        "cow-isolation",
                        f"{fs.name}: growable file index of {owner!r} is "
                        f"shared with {other!r}",
                    )

    # -- core pools (repro.sim.resources.CorePool) ----------------------
    def check_core_pool(self, pool) -> None:
        """0 <= in-use <= capacity at every acquire/release."""
        busy = pool.busy
        if busy < 0 or busy > pool.capacity:
            self._report(
                "core-conservation",
                f"{pool.name}: busy={busy} outside [0, {pool.capacity}]",
                time=pool.sim.now,
            )
        if pool.queued < 0:
            self._report(
                "core-queue",
                f"{pool.name}: queued={pool.queued} is negative",
                time=pool.sim.now,
            )

    # -- fair-share links (repro.sim.resources.FairShareLink) -----------
    def check_link(self, link) -> None:
        """Active streams must match pending completions; the aggregate
        throughput of the shares must never exceed the link capacity."""
        n = link._n
        if n < 0 or n != len(link._heap):
            self._report(
                "link-conservation",
                f"{link.name}: active={n} but {len(link._heap)} pending "
                f"completions",
                time=link.sim.now,
            )
        elif link.log.current > link.capacity * (1.0 + 1e-9) + 1e-9:
            self._report(
                "link-share",
                f"{link.name}: aggregate throughput {link.log.current:.6g} B/s "
                f"exceeds capacity {link.capacity:.6g} B/s",
                time=link.sim.now,
            )

    # -- write-back cache (repro.storage.cache.WriteBackCache) ----------
    @staticmethod
    def _cache_tol(cache) -> float:
        return 1e-6 + 1e-9 * cache.bytes_written

    def check_cache(self, cache) -> None:
        """Dirty bytes never go negative; flushed never exceeds written."""
        tol = self._cache_tol(cache)
        if cache.dirty < -tol:
            self._report(
                "cache-dirty-negative",
                f"{cache.name}: dirty={cache.dirty:.6g} B is negative",
                time=cache.sim.now,
            )
        if cache.bytes_flushed > cache.bytes_written + tol:
            self._report(
                "cache-overflush",
                f"{cache.name}: flushed {cache.bytes_flushed:.6g} B of "
                f"{cache.bytes_written:.6g} B written",
                time=cache.sim.now,
            )

    def check_cache_drained(self, cache) -> None:
        """At drain, every byte written must have been flushed."""
        if abs(cache.bytes_written - cache.bytes_flushed) > self._cache_tol(cache):
            self._report(
                "cache-flush-conservation",
                f"{cache.name}: drained with {cache.bytes_written:.6g} B "
                f"written but {cache.bytes_flushed:.6g} B flushed",
                time=cache.sim.now,
            )

    # -- billing (repro.cloud.pricing) -----------------------------------
    def check_billing(self, model, seconds: float, hours: float) -> None:
        """Billed hours are non-negative, cover the rental, and are
        monotone non-decreasing in the rental duration."""
        if hours < 0:
            self._report(
                "billing-negative", f"{model}: billed {hours!r} h for {seconds!r} s"
            )
        if hours * 3600.0 + 1e-6 < seconds:
            self._report(
                "billing-undercharge",
                f"{model}: {seconds:.6g} s billed as {hours:.6g} h "
                f"(= {hours * 3600.0:.6g} s)",
            )
        hwm = self._billing_hwm.get(model)
        if hwm is not None:
            hwm_seconds, hwm_hours = hwm
            if seconds >= hwm_seconds and hours < hwm_hours - 1e-12:
                self._report(
                    "billing-monotonicity",
                    f"{model}: {seconds:.6g} s billed {hours:.6g} h but "
                    f"{hwm_seconds:.6g} s billed {hwm_hours:.6g} h",
                )
            if seconds <= hwm_seconds and hours > hwm_hours + 1e-12:
                self._report(
                    "billing-monotonicity",
                    f"{model}: {seconds:.6g} s billed {hours:.6g} h but "
                    f"{hwm_seconds:.6g} s billed {hwm_hours:.6g} h",
                )
        if hwm is None or seconds >= hwm[0]:
            self._billing_hwm[model] = (seconds, hours)

    def check_spot_billing(self, model, seconds: float, hours: float) -> None:
        """Provider-interrupted leases bill *down*: never more than the
        wall time, and never more than one billing quantum below it."""
        quantum = {"per-hour": 3600.0, "per-minute": 60.0}.get(
            getattr(model, "value", None), 0.0
        )
        if hours < 0:
            self._report(
                "billing-negative", f"{model}: billed {hours!r} h for {seconds!r} s"
            )
        billed_seconds = hours * 3600.0
        if billed_seconds > seconds + 1e-6:
            self._report(
                "spot-overcharge",
                f"{model}: provider-interrupted lease of {seconds:.6g} s "
                f"billed as {hours:.6g} h (= {billed_seconds:.6g} s)",
            )
        if seconds - billed_seconds > quantum + 1e-6:
            self._report(
                "spot-undercharge",
                f"{model}: {seconds:.6g} s billed {hours:.6g} h — more than "
                f"one free quantum ({quantum:.6g} s) forgiven",
            )

    # -- leases (repro.engines worker-daemon rentals) ---------------------
    def check_leases(self, name: str, spans, makespan: float) -> None:
        """Lease conservation for one node: intervals must be well formed,
        chronological, non-overlapping and within the run — a mid-lease
        termination must close the lease, not duplicate or lose it."""
        last_end = 0.0
        for start, end in spans:
            if end < start - 1e-9 or start < -1e-9:
                self._report(
                    "lease-conservation",
                    f"{name}: malformed lease [{start:.6g}, {end:.6g}]",
                )
            if start < last_end - 1e-9:
                self._report(
                    "lease-conservation",
                    f"{name}: lease [{start:.6g}, {end:.6g}] overlaps the "
                    f"previous lease ending at {last_end:.6g}",
                )
            if end > makespan + 1e-6:
                self._report(
                    "lease-conservation",
                    f"{name}: lease [{start:.6g}, {end:.6g}] extends past "
                    f"makespan {makespan:.6g}",
                )
            last_end = max(last_end, end)

    # -- liveness leases (repro.liveness) ---------------------------------
    def check_lease_fencing(self, workflow: str, job_id: str, worker: str,
                            stale: bool, detail: str = "",
                            time: Optional[float] = None) -> None:
        """A job must never settle from a fenced (stale-epoch) lease —
        once the master fences a worker, acknowledgments carrying the
        fenced epoch have to be rejected before they reach the state
        machine, or a redispatched attempt can settle twice."""
        if stale:
            extra = f" ({detail})" if detail else ""
            self._report(
                "lease-fencing",
                f"{workflow}/{job_id}: settled from fenced lease of "
                f"{worker}{extra}",
                time=time,
            )

    def check_failover_billing(self, name: str, spans,
                               makespan: Optional[float] = None) -> None:
        """After a master failover the billing record for one node must
        still be a chronological sequence of non-overlapping rental
        spans — a standby that re-opened a rental the primary already
        closed would double-bill the node's lease interval."""
        last_end = 0.0
        for start, end in spans:
            if end < start - 1e-9 or start < -1e-9:
                self._report(
                    "failover-billing",
                    f"{name}: malformed rental span [{start:.6g}, {end:.6g}] "
                    f"after failover",
                )
            if start < last_end - 1e-9:
                self._report(
                    "failover-billing",
                    f"{name}: rental span [{start:.6g}, {end:.6g}] "
                    f"double-bills the interval before {last_end:.6g}",
                )
            if makespan is not None and end > makespan + 1e-6:
                self._report(
                    "failover-billing",
                    f"{name}: rental span [{start:.6g}, {end:.6g}] extends "
                    f"past makespan {makespan:.6g}",
                )
            last_end = max(last_end, end)

    # -- chaos recovery (repro.faults.chaos) ------------------------------
    def check_recovery(self, workflow: str, counts: Dict[str, int]) -> None:
        """At settlement every job is completed exactly once or
        dead-lettered — anything still waiting/queued/running is a job
        the retry machinery stranded."""
        n_jobs = sum(counts.values())
        completed = counts.get("completed", 0)
        dead = counts.get("dead", 0)
        stranded = n_jobs - completed - dead
        if stranded != 0:
            self._report(
                "recovery-conservation",
                f"{workflow}: {stranded} job(s) neither completed nor "
                f"dead-lettered at settlement ({counts})",
            )

    # -- crash recovery (repro.recovery) ----------------------------------
    def check_dispatch(self, workflow: str, job_id: str, status: str,
                       time: Optional[float] = None) -> None:
        """A job already completed or dead-lettered must never be
        re-dispatched — the journal/idempotency layer has to absorb the
        duplicate before it reaches the broker."""
        if status in ("completed", "dead"):
            self._report(
                "completed-redispatch",
                f"{workflow}/{job_id}: dispatched while {status}",
                time=time,
            )

    def check_regeneration(self, owner: str, name: str,
                           expected: str, got: str,
                           time: Optional[float] = None) -> None:
        """A regenerated file must byte-match (digest-match) the
        original it replaces."""
        if got != expected:
            self._report(
                "regeneration-integrity",
                f"{owner}/{name}: regenerated digest {got} != original "
                f"{expected}",
                time=time,
            )


#: The installed sanitizer, or ``None`` (the common, zero-cost case).
#: Instrumented modules read this attribute directly on the hot path.
_ACTIVE: Optional[Sanitizer] = None


def active() -> Optional[Sanitizer]:
    """The currently installed sanitizer, or ``None`` when disabled."""
    return _ACTIVE


def enable(strict: bool = False) -> Sanitizer:
    """Install (and return) a fresh sanitizer, replacing any current one."""
    global _ACTIVE
    _ACTIVE = Sanitizer(strict=strict)
    return _ACTIVE


def disable() -> Optional[Sanitizer]:
    """Uninstall the sanitizer; returns it (with collected violations)."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, None
    return previous


@contextmanager
def enabled(strict: bool = False) -> Iterator[Sanitizer]:
    """Context manager: sanitize the block, restoring the previous state."""
    global _ACTIVE
    previous = _ACTIVE
    san = Sanitizer(strict=strict)
    _ACTIVE = san
    try:
        yield san
    finally:
        _ACTIVE = previous


def _install_from_env() -> None:
    value = os.environ.get(ENV_FLAG, "").strip().lower()
    if value in ("", "0", "off", "false", "no"):
        return
    enable(strict=value != "collect")


_install_from_env()
