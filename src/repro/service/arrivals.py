"""Seeded open-loop arrival processes.

Closed-loop experiments (the paper's Fig 8) submit the next workflow
relative to the system's own progress; an *open-loop* source submits on
its own schedule regardless of backlog, which is what makes overload a
sustained regime instead of a transient.  Both processes here are pure
functions of ``(seed, horizon)`` — an explicit ``random.Random(seed)``,
never the global RNG — so a tenant's arrival trace is
byte-reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import inf
from typing import List

__all__ = ["PoissonArrivals", "OnOffArrivals"]


@dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless arrivals at ``rate`` per second."""

    rate: float

    def __post_init__(self) -> None:
        # NaN fails every comparison, so ``not`` refuses it too: a NaN or
        # infinite rate would make ``times`` append for ever.
        if not 0 < self.rate < inf:
            raise ValueError(f"rate must be finite and positive, got {self.rate!r}")

    def times(self, horizon: float, seed: int) -> List[float]:
        """Arrival instants in ``[0, horizon)``, strictly increasing."""
        rng = random.Random(seed)
        out: List[float] = []
        t = 0.0
        while True:
            t += rng.expovariate(self.rate)
            if t >= horizon:
                return out
            out.append(t)


@dataclass(frozen=True)
class OnOffArrivals:
    """Bursty arrivals: Poisson at ``on_rate`` during ON windows, silent
    during OFF windows (a classic ON-OFF burst model).

    The window pattern is periodic and deterministic (``phase`` shifts
    its start) — only the arrival instants inside ON windows are
    sampled — so the *shape* of a burst scenario is a scenario property
    while its micro-timing still varies with the seed.
    """

    on_rate: float
    on_duration: float
    off_duration: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        for name in ("on_rate", "on_duration"):
            value = getattr(self, name)
            if not 0 < value < inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        for name in ("off_duration", "phase"):
            value = getattr(self, name)
            if not 0 <= value < inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")

    def times(self, horizon: float, seed: int) -> List[float]:
        """Arrival instants in ``[0, horizon)``, strictly increasing."""
        rng = random.Random(seed)
        period = self.on_duration + self.off_duration
        out: List[float] = []
        window_start = self.phase
        while window_start < horizon:
            t = window_start
            end = min(window_start + self.on_duration, horizon)
            while True:
                t += rng.expovariate(self.on_rate)
                if t >= end:
                    break
                out.append(t)
            window_start += period
        return out
