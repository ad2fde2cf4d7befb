"""Seeded stochastic fault models (the failure modes of real clouds).

:mod:`repro.faults.injection` scripts the paper's deterministic
kill/restart cycles; this module adds the failure modes that Juve et
al.'s EC2 workflow studies show actually dominate in public clouds:

* :class:`SpotTerminationModel` — spot-style instance reclamation, with
  the two-minute-notice variant (notice drains the worker daemon so
  in-flight jobs can finish; the termination kills whatever remains);
* :class:`TransientFaultModel` — per-attempt transient job failure
  probability plus always-failing *poison* jobs;
* :class:`StragglerModel` — degraded nodes: disk bandwidth and/or CPU
  speed scaled by a factor over an interval (the "bad neighbour" /
  failing-disk straggler).

The three node-level models take explicit event lists and are
controllers: ``install(run)`` schedules their events against a
:class:`~repro.engines.pull.PullRun` through its public methods.  Their
rates live in three frozen samplers — :class:`SpotHazard`,
:class:`StragglerHazard`, :class:`PartitionHazard` — whose
``sample(seed, n_nodes, horizon)`` draws the event list once, up front,
from an explicit ``random.Random(seed)``, so the whole fault trace is a
pure function of the seed (the chaos goldens pin it).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from fnmatch import fnmatchcase
from math import inf
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "FaultEvent",
    "FaultTrace",
    "SpotTerminationModel",
    "SpotHazard",
    "TransientFaultModel",
    "Degradation",
    "StragglerModel",
    "StragglerHazard",
    "PartitionWindow",
    "NetworkPartitionModel",
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


def check_node(run, node: int, what: str) -> None:
    """Refuse, at install, a controller entry naming a node the run's
    cluster does not have."""
    if not 0 <= node < run.n_nodes:
        raise ValueError(
            f"{what} targets node {node} of a {run.n_nodes}-node cluster"
        )


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


class SpotTerminationModel:
    """Spot-style node reclamation, optionally with the two-minute notice.

    ``terminations`` is a sequence of ``(time, node)`` pairs.  With
    ``notice > 0`` the node is drained ``notice`` seconds before the
    kill (EC2's two-minute interruption notice: ``notice=120``); with
    ``notice=0`` the instance just vanishes.  ``replacement_delay``
    models an auto-scaling group starting a replacement instance that
    many seconds after the termination.
    """

    def __init__(
        self,
        terminations: Sequence[Tuple[float, int]],
        notice: float = 120.0,
        replacement_delay: Optional[float] = None,
    ):
        if notice < 0:
            raise ValueError(f"notice must be >= 0, got {notice}")
        if replacement_delay is not None and replacement_delay < 0:
            raise ValueError(
                f"replacement_delay must be >= 0, got {replacement_delay}"
            )
        for t, node in terminations:
            if t < 0 or node < 0:
                raise ValueError(f"bad termination ({t}, {node})")
        self.terminations: Tuple[Tuple[float, int], ...] = tuple(
            sorted((float(t), int(n)) for t, n in terminations)
        )
        self.notice = float(notice)
        self.replacement_delay = replacement_delay

    def install(self, run) -> None:
        for t, node in self.terminations:
            check_node(run, node, "termination")
            if self.notice > 0:
                run.sim.schedule_call(
                    max(0.0, t - self.notice), self._notice, run, node
                )
            run.sim.schedule_call(t, self._terminate, run, node)

    def _notice(self, run, node: int) -> None:
        run.trace.record(run.sim.now, "spot-notice", node)
        run.stop_worker(node)  # drain: in-flight jobs may still finish

    def _terminate(self, run, node: int) -> None:
        run.trace.record(run.sim.now, "spot-termination", node)
        run.kill_worker(node)
        run.mark_spot_terminated(node)
        if self.replacement_delay is not None:
            run.sim.schedule_call(self.replacement_delay, self._replace, run, node)

    def _replace(self, run, node: int) -> None:
        run.trace.record(run.sim.now, "spot-replacement", node)
        run.start_worker(node)


@dataclass(frozen=True)
class SpotHazard:
    """Spot reclamation as a rate; :meth:`sample` draws the
    :class:`SpotTerminationModel` for one seeded run.

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

    def sample(self, seed: int, n_nodes: int, horizon: float) -> SpotTerminationModel:
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
        return SpotTerminationModel(
            terminations, notice=self.notice, replacement_delay=self.replacement_delay
        )


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

    def should_fail(self, workflow: str, job_id: str, attempt: int) -> bool:
        if job_id in self.poison:
            return True
        if self.p_fail <= 0.0:
            return False
        crc = zlib.crc32(f"{self.seed}|{workflow}|{job_id}|{attempt}".encode())
        return crc / 0x100000000 < self.p_fail


@dataclass(frozen=True)
class Degradation:
    """One degraded interval of one node.

    ``disk_factor`` scales both disk channels' bandwidth.
    """

    node: int
    start: float
    duration: float
    disk_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"node must be >= 0, got {self.node}")
        if self.start < 0 or self.duration <= 0:
            raise ValueError(
                f"bad degradation window ({self.start}, {self.duration})"
            )
        if self.disk_factor <= 0:
            raise ValueError(f"disk_factor must be positive, got {self.disk_factor}")


class StragglerModel:
    """Degraded-disk straggler nodes over explicit intervals."""

    def __init__(self, degradations: Sequence[Degradation]):
        ordered = sorted(degradations, key=lambda d: (d.node, d.start))
        for a, b in zip(ordered, ordered[1:]):
            if a.node == b.node and b.start < a.start + a.duration:
                raise ValueError(
                    f"overlapping degradations on node {a.node}: "
                    f"[{a.start}, {a.start + a.duration}) and [{b.start}, ...)"
                )
        self.degradations: Tuple[Degradation, ...] = tuple(ordered)

    def install(self, run) -> None:
        for d in self.degradations:
            check_node(run, d.node, "degradation")
            run.sim.schedule_call(d.start, self._begin, run, d)

    def _begin(self, run, d: Degradation) -> None:
        run.trace.record(
            run.sim.now,
            "degrade-start",
            d.node,
            # ``cpu*1`` is hashed by the stragglers and game-day goldens.
            f"disk*{d.disk_factor:g} cpu*1 for {d.duration:g}s",
        )
        run.set_disk_factor(d.node, d.disk_factor)
        run.sim.schedule_call(d.duration, self._end, run, d)

    def _end(self, run, d: Degradation) -> None:
        run.trace.record(run.sim.now, "degrade-end", d.node)
        run.set_disk_factor(d.node, 1.0)


@dataclass(frozen=True)
class StragglerHazard:
    """Straggling as a probability; :meth:`sample` draws the
    :class:`StragglerModel` for one seeded run.

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

    def sample(self, seed: int, n_nodes: int, horizon: float) -> StragglerModel:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        rng = random.Random(seed)
        degradations = []
        for node in range(n_nodes):
            if rng.random() >= self.p_straggler:
                continue
            dur = rng.uniform(*self.duration)
            start = rng.uniform(0.0, max(horizon - dur, 0.0))
            degradations.append(
                Degradation(
                    node=node,
                    start=start,
                    duration=dur,
                    disk_factor=rng.uniform(*self.disk_factor),
                )
            )
            # One more draw per straggler: the chaos goldens pin the stream.
            rng.random()
        return StragglerModel(degradations)


#: Valid partition directions.  ``full`` severs both directions;
#: ``to-master`` only the worker's uplink (its acks are in flight /
#: buffered, its heartbeats lost); ``from-master`` only the downlink
#: (it stops receiving dispatches but its acks still arrive).
PARTITION_MODES = ("full", "to-master", "from-master")


@dataclass(frozen=True)
class PartitionWindow:
    """One node's connectivity loss over ``[start, start + duration)``."""

    node: int
    start: float
    duration: float
    mode: str = "full"

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"node must be >= 0, got {self.node}")
        if self.start < 0 or self.duration <= 0:
            raise ValueError(f"bad partition window ({self.start}, {self.duration})")
        if self.mode not in PARTITION_MODES:
            raise ValueError(f"mode must be one of {PARTITION_MODES}, got {self.mode!r}")


class NetworkPartitionModel:
    """Node-scoped network partitions with seeded onset/healing windows.

    The failure mode spot kills don't cover: the worker is *alive* —
    still burning its lease, maybe still computing — but the control
    plane can't see it.  Without a liveness protocol its in-flight jobs
    hang until the job timeout; with heartbeat leases the master fences
    it after ``MISS_THRESHOLD`` beats and redispatches.  On healing,
    buffered uplink traffic is redelivered in order, exercising the
    duplicate-ack and stale-epoch rejection paths.
    """

    def __init__(self, windows: Sequence[PartitionWindow]):
        ordered = sorted(windows, key=lambda w: (w.node, w.start))
        for a, b in zip(ordered, ordered[1:]):
            if a.node == b.node and b.start < a.start + a.duration:
                raise ValueError(
                    f"overlapping partitions on node {a.node}: "
                    f"[{a.start}, {a.start + a.duration}) and [{b.start}, ...)"
                )
        self.windows: Tuple[PartitionWindow, ...] = tuple(ordered)

    def install(self, run) -> None:
        for w in self.windows:
            check_node(run, w.node, "partition")
            run.sim.schedule_call(w.start, self._begin, run, w)

    def _begin(self, run, w: PartitionWindow) -> None:
        run.trace.record(
            run.sim.now, "partition-start", w.node,
            f"mode={w.mode} for {w.duration:g}s",
        )
        run.begin_partition(w.node, w.mode)
        run.sim.schedule_call(w.duration, self._end, run, w)

    def _end(self, run, w: PartitionWindow) -> None:
        run.trace.record(run.sim.now, "partition-heal", w.node)
        run.end_partition(w.node)


@dataclass(frozen=True)
class PartitionHazard:
    """Partitions as a probability; :meth:`sample` draws the
    :class:`NetworkPartitionModel` for one seeded run.

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

    def sample(self, seed: int, n_nodes: int, horizon: float) -> NetworkPartitionModel:
        horizon = min(self.until or horizon, horizon)
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        rng = random.Random(seed)
        windows = []
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
            windows.append(
                PartitionWindow(node=node, start=start, duration=dur, mode=mode)
            )
        return NetworkPartitionModel(windows)


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
