"""Node disturbances as one fault script, and the seeded fault models.

The paper's robustness tests (§V.A.3) kill the worker daemon mid-run and
start it again 5 seconds later — on the same node, or on the other node
of a two-node cluster.  A :class:`FaultSchedule` is such a script: timed
:class:`FaultAction` entries against node indices, installed as a
controller (``PullEngine(controllers=[schedule])``).  The same script
carries the node-level failure modes that Juve et al.'s EC2 workflow
studies show dominate in public clouds:

* spot-style reclamation — ``spot-notice`` drains the worker daemon
  (EC2's two-minute notice: in-flight jobs may finish) and
  ``spot-termination`` kills whatever remains, with an optional
  replacement instance ``duration`` seconds later;
* degraded straggler nodes — ``degrade-start`` scales both disk
  channels' bandwidth by its ``value`` for ``duration`` seconds;
* network partitions — ``partition-start`` cuts a node off from the
  control plane, in the ``value`` direction, for ``duration`` seconds.

Three frozen samplers — :class:`SpotHazard`, :class:`StragglerHazard`,
:class:`PartitionHazard` — hold these as rates; ``sample(seed, n_nodes,
horizon)`` draws the schedule once, up front, from an explicit
``random.Random(seed)``, so the whole fault trace is a pure function of
the seed (the chaos goldens pin it).  :class:`TransientFaultModel`
(per-attempt job failures and poison jobs) and the file-fault models
are controllers too, though they act inside the run.

Expected behaviour of a kill/restart cycle (asserted by the robustness
benchmark): an interruption during **non-blocking** jobs adds roughly
the interruption to the makespan (execution resumes as soon as a worker
is back); one during **blocking** jobs adds roughly the interrupted
job's timeout (nothing else is eligible, so the master must wait for the
timeout to resubmit).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from fnmatch import fnmatchcase
from math import inf
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "FaultEvent",
    "FaultTrace",
    "FaultAction",
    "FaultSchedule",
    "kill_restart_cycle",
    "SpotHazard",
    "TransientFaultModel",
    "StragglerHazard",
    "PartitionHazard",
    "FileCorruptionModel",
    "FileLossModel",
]


@dataclass(frozen=True)
class FaultEvent:
    """One fault-injection occurrence, for traces and timeline export."""

    time: float
    kind: str
    node: Optional[int] = None
    detail: str = ""

    def line(self) -> str:
        where = f" node={self.node}" if self.node is not None else ""
        tail = f" {self.detail}" if self.detail else ""
        return f"t={self.time:.6f} {self.kind}{where}{tail}"


class FaultTrace:
    """Ordered record of every injected fault and recovery action.

    The rendered form (each event's :meth:`FaultEvent.line`) is the
    determinism contract: two runs of the same seeded scenario must
    produce byte-identical traces.
    """

    def __init__(self) -> None:
        self.events: List[FaultEvent] = []

    def record(
        self, time: float, kind: str, node: Optional[int] = None, detail: str = ""
    ) -> FaultEvent:
        event = FaultEvent(time, kind, node, detail)
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)


#: Valid partition directions.  ``full`` severs both directions;
#: ``to-master`` only the worker's uplink (its acks are in flight /
#: buffered, its heartbeats lost); ``from-master`` only the downlink
#: (it stops receiving dispatches but its acks still arrive).
PARTITION_MODES = ("full", "to-master", "from-master")
#: The modes that cut each direction, read by both stacks (``PullRun``
#: and the threaded ``WorkerDaemon``).
UPLINK_CUT = ("full", "to-master")
DOWNLINK_CUT = ("full", "from-master")

#: Action kind -> the undo its ``duration`` schedules (``None``: no undo).
_UNDO = {
    "kill": None,
    "restart": None,
    "spot-notice": None,
    "spot-termination": "spot-replacement",
    "degrade-start": "degrade-end",
    "partition-start": "partition-heal",
}
_WINDOWS = ("degrade-start", "partition-start")


@dataclass(frozen=True)
class FaultAction:
    """One timed disturbance of one node; ``action`` is the trace kind.

    ``value`` is the disk factor of a ``degrade-start`` and the
    :data:`PARTITION_MODES` entry of a ``partition-start``.  ``duration``
    is the delay from the action to its undo (``degrade-end``,
    ``partition-heal``, ``spot-replacement``), scheduled when the action
    fires: required for the two windows, optional for a
    ``spot-termination`` (without it the node is not replaced).
    """

    time: float
    node: int
    action: str
    value: Union[float, str, None] = None
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        kind, value, duration = self.action, self.value, self.duration
        if not 0.0 <= self.time < inf:
            raise ValueError(f"action time must be finite and >= 0, got {self.time}")
        if not isinstance(self.node, int) or self.node < 0:
            raise ValueError(f"node index must be an int >= 0, got {self.node!r}")
        if kind not in _UNDO:
            raise ValueError(f"unknown action {kind!r}")
        if kind == "partition-start":
            if value not in PARTITION_MODES:
                raise ValueError(
                    f"mode must be one of {PARTITION_MODES}, got {value!r}"
                )
        elif kind == "degrade-start":
            if value is None or not 0.0 < value < inf:
                raise ValueError(f"disk factor must be finite and > 0, got {value}")
        elif value is not None:
            raise ValueError(f"{kind} takes no value, got {value!r}")
        if duration is None:
            if kind in _WINDOWS:
                raise ValueError(f"{kind} needs a duration")
        elif _UNDO[kind] is None:
            raise ValueError(f"{kind} takes no duration, got {duration}")
        elif not (0.0 < duration < inf or duration == 0 and kind not in _WINDOWS):
            # A replacement may start at once; a window must last.
            raise ValueError(f"bad {kind} duration {duration}")


class FaultSchedule:
    """An ordered script of :class:`FaultAction`; the one controller that
    disturbs nodes.

    ``initially_down`` lists nodes whose worker daemon is *not* started at
    t=0 (the two-node test runs only one worker daemon at a time).  Two
    windows of one kind on one node may not overlap.
    """

    def __init__(
        self,
        actions: Sequence[FaultAction],
        initially_down: Sequence[int] = (),
    ):
        self.actions: List[FaultAction] = sorted(actions, key=lambda a: a.time)
        self.initially_down = tuple(initially_down)
        windows = sorted(
            (a for a in self.actions if a.action in _WINDOWS),
            key=lambda a: (a.action, a.node, a.time),
        )
        for a, b in zip(windows, windows[1:]):
            if (a.action, a.node) == (b.action, b.node) and (
                b.time < a.time + a.duration
            ):
                raise ValueError(
                    f"overlapping {a.action} windows on node {a.node}: "
                    f"[{a.time}, {a.time + a.duration}) and [{b.time}, ...)"
                )

    def install(self, run) -> None:
        """Refuse a node the cluster does not have, hold the
        ``initially_down`` nodes' daemons back at t=0 and schedule every
        action against ``run``."""
        for node in [a.node for a in self.actions] + list(self.initially_down):
            if not 0 <= node < run.n_nodes:
                raise ValueError(
                    f"fault schedule targets node {node} of a "
                    f"{run.n_nodes}-node cluster"
                )
        run.initially_down.update(self.initially_down)
        for action in self.actions:
            run.sim.schedule_call(action.time, self._apply, run, action)

    def _apply(self, run, action: FaultAction) -> None:
        kind, node, value = action.action, action.node, action.value
        detail = ""
        if kind == "degrade-start":
            # ``cpu*1`` is hashed by the stragglers and game-day goldens.
            detail = f"disk*{value:g} cpu*1 for {action.duration:g}s"
        elif kind == "partition-start":
            detail = f"mode={value} for {action.duration:g}s"
        run.trace.record(run.sim.now, kind, node, detail)
        if kind == "restart":
            run.start_worker(node)
        elif kind == "spot-notice":
            run.stop_worker(node)  # drain: in-flight jobs may still finish
        elif kind == "degrade-start":
            run.set_disk_factor(node, value)
        elif kind == "partition-start":
            run.begin_partition(node, value)
        else:
            run.kill_worker(node)
            if kind == "spot-termination":
                run.mark_spot_terminated(node)
        if action.duration is not None:
            run.sim.schedule_call(action.duration, self._undo, run, action)

    def _undo(self, run, action: FaultAction) -> None:
        kind, node = _UNDO[action.action], action.node
        run.trace.record(run.sim.now, kind, node)
        if kind == "spot-replacement":
            run.start_worker(node)
        elif kind == "degrade-end":
            run.set_disk_factor(node, 1.0)
        else:
            run.end_partition(node)


def kill_restart_cycle(
    kill_times: Sequence[float],
    downtime: float = 5.0,
    kill_node: int = 0,
    restart_node: int | None = None,
) -> FaultSchedule:
    """The paper's interruption pattern: kill, restart ``downtime`` later.

    With ``restart_node`` set, the daemon comes back on a different node
    (the two-node NFS scenario); otherwise on the same node.
    """
    if downtime < 0:
        raise ValueError(f"downtime must be >= 0, got {downtime}")
    if restart_node == kill_node:
        # Silently identical to the same-node cycle, except it would also
        # mark the node initially down and deadlock the run — reject it.
        raise ValueError(
            f"restart_node must differ from kill_node (both {kill_node}); "
            f"omit restart_node for a same-node restart cycle"
        )
    actions = []
    current = kill_node
    for t in kill_times:
        actions.append(FaultAction(t, current, "kill"))
        if restart_node is None:
            nxt = current  # same-node restart
        else:
            nxt = restart_node if current == kill_node else kill_node
        actions.append(FaultAction(t + downtime, nxt, "restart"))
        current = nxt
    initially_down = () if restart_node is None else (restart_node,)
    return FaultSchedule(actions, initially_down=initially_down)


def _hazard_steps(
    price_hazard: Optional[Sequence[Tuple[float, float]]],
) -> Optional[Tuple[Tuple[float, float], ...]]:
    """Normalize a price-hazard series to sorted steps covering t=0."""
    if not price_hazard:
        return None
    steps = sorted((float(t), float(m)) for t, m in price_hazard)
    for t, mult in steps:
        if t < 0:
            raise ValueError(f"hazard breakpoint time must be >= 0, got {t}")
        if mult < 0:
            raise ValueError(f"hazard multiplier must be >= 0, got {mult}")
    if steps[0][0] > 0.0:
        steps.insert(0, (0.0, 1.0))  # flat 1x before the first breakpoint
    if all(mult == 1.0 for _t, mult in steps):
        # Flat at 1x is the identity: skip the generic inversion so the
        # traces are byte-identical to the pre-hazard sampler (a float
        # round-trip through the piecewise accumulator costs an ulp).
        return None
    return tuple(steps)


def _invert_hazard(
    unit: float,
    base_rate: float,
    steps: Tuple[Tuple[float, float], ...],
    horizon: float,
) -> float:
    """Map an Exp(1) draw through the inverse piecewise cumulative hazard.

    With instantaneous rate ``base_rate * mult(t)`` stepwise constant,
    the event lands where the accumulated hazard reaches ``unit``;
    accumulation beyond ``horizon`` means the node survives the run.
    """
    acc = 0.0
    for i, (start, mult) in enumerate(steps):
        end = steps[i + 1][0] if i + 1 < len(steps) else horizon
        end = min(end, horizon)
        if end <= start:
            continue
        rate = base_rate * mult
        seg = rate * (end - start)
        if acc + seg >= unit:
            return start + (unit - acc) / rate if rate > 0 else horizon
        acc += seg
    return horizon  # survives: cumulative hazard over [0, horizon) < unit


def _check_range(name: str, bounds: Tuple[float, float]) -> None:
    """Refuse a ``(low, high)`` sampling range with a bound that is not
    finite and positive."""
    if not all(0.0 < bound < inf for bound in bounds):
        raise ValueError(f"{name} bounds must be finite and > 0, got {bounds}")


@dataclass(frozen=True)
class SpotHazard:
    """Spot reclamation as a rate; :meth:`sample` draws its
    :class:`FaultSchedule` for one seeded run.

    Each non-protected node's time-to-reclamation is exponential with
    ``rate_per_hour``; draws beyond the horizon mean the node survives
    the run.  Nodes are visited in index order so the trace is a pure
    function of the seed.

    ``price_hazard`` indexes the hazard to a price series (ROADMAP
    item 5): a stepwise-constant sequence of ``(time, multiplier)``
    breakpoints scaling the instantaneous rate from each breakpoint
    onward, so reclamation risk spikes when the spot price does.  The
    exponential unit draw per node is unchanged — only the inverse
    cumulative hazard mapping it to a time differs — so the default
    (empty, hazard flat at 1x) reproduces the pre-hazard fault traces
    byte-for-byte.
    """

    rate_per_hour: float
    notice: float = 120.0
    replacement_delay: Optional[float] = None
    protected: Tuple[int, ...] = ()
    price_hazard: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("rate_per_hour", "notice"):
            value = getattr(self, name)
            if not 0.0 <= value < inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        delay = self.replacement_delay
        if delay is not None and not 0.0 <= delay < inf:
            raise ValueError(
                f"replacement_delay must be finite and >= 0, got {delay}"
            )

    def sample(self, seed: int, n_nodes: int, horizon: float) -> FaultSchedule:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        steps = _hazard_steps(self.price_hazard)
        rng = random.Random(seed)
        rate = self.rate_per_hour
        terminations = []
        for node in range(n_nodes):
            if node in self.protected or rate == 0:
                continue
            unit = rng.expovariate(1.0)  # Exp(1): rate applied below
            if steps is None:
                t = unit / rate * 3600.0
            else:
                t = _invert_hazard(unit, rate / 3600.0, steps, horizon)
            if t < horizon:
                terminations.append((t, node))
        # Reclamation order, each notice first: actions at one instant
        # (notices clamped to t=0) fire in list order, which the chaos
        # goldens pin.
        actions = []
        for t, node in sorted(terminations):
            if self.notice > 0:
                notice = max(0.0, t - self.notice)
                actions.append(FaultAction(notice, node, "spot-notice"))
            actions.append(FaultAction(
                t, node, "spot-termination", duration=self.replacement_delay
            ))
        return FaultSchedule(actions)


@dataclass(frozen=True)
class TransientFaultModel:
    """Per-attempt transient job failures and always-failing poison jobs.

    ``should_fail(workflow, job_id, attempt)`` is a pure function of the
    seed and its arguments (a CRC32 mapped to [0, 1) and compared to
    ``p_fail``), so the failure pattern does not depend on the order in
    which the engine asks — retried attempts draw fresh values, so a
    transiently failing job eventually succeeds.  ``poison`` job ids
    fail on *every* attempt, in every workflow: the livelock candidates
    the retry budget exists for.
    """

    p_fail: float = 0.0
    seed: int = 0
    poison: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_fail <= 1.0:
            raise ValueError(f"p_fail must be in [0, 1], got {self.p_fail}")
        object.__setattr__(self, "poison", frozenset(self.poison))

    def install(self, run) -> None:
        """Controller protocol: the run's worker slots ask
        :meth:`should_fail` after each job; one model per run."""
        if run.transient is not None:
            raise ValueError("a run takes one TransientFaultModel")
        run.transient = self

    def should_fail(self, workflow: str, job_id: str, attempt: int) -> bool:
        if job_id in self.poison:
            return True
        if self.p_fail <= 0.0:
            return False
        crc = zlib.crc32(f"{self.seed}|{workflow}|{job_id}|{attempt}".encode())
        return crc / 0x100000000 < self.p_fail


@dataclass(frozen=True)
class StragglerHazard:
    """Straggling as a probability; :meth:`sample` draws its
    :class:`FaultSchedule` for one seeded run.

    Each node independently becomes a straggler with ``p_straggler``,
    for one interval with start, duration and disk factor drawn
    uniformly (``duration`` and ``disk_factor`` are ``(low, high)``
    ranges).
    """

    p_straggler: float
    disk_factor: Tuple[float, float] = (0.2, 0.6)
    duration: Tuple[float, float] = (30.0, 120.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_straggler <= 1.0:
            raise ValueError(f"p_straggler must be in [0, 1], got {self.p_straggler}")
        _check_range("disk_factor", self.disk_factor)
        _check_range("duration", self.duration)

    def sample(self, seed: int, n_nodes: int, horizon: float) -> FaultSchedule:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        rng = random.Random(seed)
        actions = []
        for node in range(n_nodes):
            if rng.random() >= self.p_straggler:
                continue
            dur = rng.uniform(*self.duration)
            start = rng.uniform(0.0, max(horizon - dur, 0.0))
            factor = rng.uniform(*self.disk_factor)
            actions.append(FaultAction(start, node, "degrade-start", factor, dur))
            # One more draw per straggler: the chaos goldens pin the stream.
            rng.random()
        return FaultSchedule(actions)


@dataclass(frozen=True)
class PartitionHazard:
    """Partitions as a probability; :meth:`sample` draws its
    :class:`FaultSchedule` for one seeded run.

    Each node independently partitions with ``p_partition`` for one
    window of uniformly drawn start/duration; with ``p_asymmetric`` the
    cut is one-directional (uplink or downlink, a further coin flip).
    Nodes are visited in index order — pure function of the seed.
    ``until`` caps the sampling horizon (sim seconds): the default
    samples over the run's whole fault horizon, which for short runs puts
    most windows after settlement, so set it near the baseline makespan
    when a link should reliably be cut mid-run.
    """

    p_partition: float
    duration: Tuple[float, float] = (10.0, 60.0)
    p_asymmetric: float = 0.0
    protected: Tuple[int, ...] = ()
    until: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("p_partition", "p_asymmetric"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.until is not None and not 0.0 < self.until < inf:
            raise ValueError(f"until must be finite and > 0, got {self.until}")
        _check_range("duration", self.duration)

    def sample(self, seed: int, n_nodes: int, horizon: float) -> FaultSchedule:
        horizon = min(self.until or horizon, horizon)
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        rng = random.Random(seed)
        actions = []
        for node in range(n_nodes):
            if rng.random() >= self.p_partition:
                continue
            dur = rng.uniform(*self.duration)
            start = rng.uniform(0.0, max(horizon - dur, 0.0))
            mode = "full"
            if rng.random() < self.p_asymmetric:
                mode = "to-master" if rng.random() < 0.5 else "from-master"
            if node in self.protected:
                continue  # draws burned above keep traces seed-stable
            actions.append(FaultAction(start, node, "partition-start", mode, dur))
        return FaultSchedule(actions)


@dataclass(frozen=True)
class _FileFaultModel:
    """Common machinery of the data-plane fault injectors.

    A model *strikes* a file at write time — only ever on the file's
    **first** write (``write_index == 1``), so the recovery path's
    regenerated copy always lands clean and the data-aware recovery
    terminates.  A file is hit when it matches one of the explicit
    ``targets`` glob patterns (matched against both ``owner/name`` and
    bare ``name``), or by a probability draw that is a pure CRC32
    function of ``(seed, salt, owner, name)`` — no hidden RNG state, so
    the set of damaged files is identical across runs of a seed.
    """

    kind = "file-fault"
    outcome = "corrupt"
    _salt = "file"

    p: float = 0.0
    seed: int = 0
    targets: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.p}")
        object.__setattr__(self, "targets", tuple(self.targets))

    def install(self, run) -> None:
        """Controller protocol: join the run's one
        :class:`~repro.storage.integrity.FileIntegrity`, which the first
        file-fault model builds, staging every member's raw inputs into
        it at t=0.  Models strike in install order: an earlier one's
        strike on a file wins."""
        from repro.storage.integrity import FileIntegrity

        if run.integrity is None:
            run.integrity = FileIntegrity(trace=run.trace)
            for wf in run.workflows.values():
                for f in wf.skeleton().files:
                    if f.kind == "input":
                        run.integrity.record_write(wf.name, f, 0.0)
        run.integrity.join(self)

    def strikes(self, owner: str, name: str, write_index: int) -> bool:
        if write_index != 1:
            return False
        path = f"{owner}/{name}"
        for pattern in self.targets:
            if fnmatchcase(path, pattern) or fnmatchcase(name, pattern):
                return True
        if self.p <= 0.0:
            return False
        crc = zlib.crc32(f"{self.seed}|{self._salt}|{owner}|{name}".encode())
        return crc / 0x100000000 < self.p


class FileCorruptionModel(_FileFaultModel):
    """Silent data corruption: the file exists but its checksum is wrong
    (bit rot, torn writes, a RAID-0 member returning garbage)."""

    kind = "file-corruption"
    outcome = "corrupt"
    _salt = "corrupt"


class FileLossModel(_FileFaultModel):
    """File loss: the file vanishes from the namespace (node churn under
    a non-replicated shared FS, eventual-consistency windows)."""

    kind = "file-loss"
    outcome = "lost"
    _salt = "loss"
