"""Discrete-event simulation kernel.

A compact, dependency-free DES in the style of SimPy: generator-based
processes communicate through :class:`~repro.sim.engine.Event` objects and
share :mod:`~repro.sim.resources` (CPU core pools, processor-sharing
bandwidth links, FIFO stores).

The kernel is the substrate for the cluster simulator that replaces the
paper's Amazon EC2 testbed (see DESIGN.md §1).
"""

from repro.sim.engine import (
    AllOf,
    Event,
    Interrupt,
    JoinEvent,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import (
    CorePool,
    FairShareLink,
    FifoStore,
    PriorityStore,
    SegmentLog,
)

__all__ = [
    "AllOf",
    "CorePool",
    "Event",
    "FairShareLink",
    "FifoStore",
    "Interrupt",
    "JoinEvent",
    "PriorityStore",
    "Process",
    "SegmentLog",
    "SimulationError",
    "Simulator",
    "Timeout",
]
