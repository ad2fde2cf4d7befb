"""A node's RAID-0 instance-store array as DES resources.

Workflow I/O on a busy worker node interleaves many concurrent streams, so
the *read* channel uses the Table II random-read capacity; writes are
batched by the page cache's write-back flusher and hit the device as large
sequential bursts, so the *write* channel uses the sequential-write
capacity.  Reads and writes use independent channels — SSD arrays serve
mixed workloads at roughly the sum of the two (a simplification noted in
DESIGN.md §4).
"""

from __future__ import annotations

from repro.cloud.instances import DiskProfile
from repro.sim import FairShareLink, Simulator

__all__ = ["DiskArray"]


class DiskArray:
    """RAID-0 array: one PS read link plus one PS write link."""

    __slots__ = ("read", "write")

    def __init__(self, sim: Simulator, profile: DiskProfile, name: str = "disk"):
        self.read = FairShareLink(sim, profile.rand_read, name=f"{name}.read")
        self.write = FairShareLink(sim, profile.seq_write, name=f"{name}.write")
