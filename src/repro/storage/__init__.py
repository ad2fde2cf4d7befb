"""Storage substrate: node disks, write-back cache, shared file systems.

The paper's workers read inputs from and write outputs to a POSIX shared
file system (NFS for small clusters, MooseFS for the large-scale runs,
§III.B/§V.B) backed by each node's RAID-0 instance-store SSDs.  This
package models that stack:

* :class:`~repro.storage.disk.DiskArray` — a node's RAID-0 array as a pair
  of processor-sharing links (random-read channel, sequential-write
  channel, per Table II);
* :class:`~repro.storage.cache.WriteBackCache` — the OS page cache's
  write-back behaviour ("the operating system caches the disk writes and
  flushes them to the disk in batches", §IV.A);
* :class:`~repro.storage.base.SharedFileSystem` — routes file reads and
  writes over disks and 10 Gbps NICs according to a placement policy,
  and holds the LRU page-cache read model that makes stage 3 I/O-bound
  once the working set outgrows memory;
* :mod:`~repro.storage.nfs` / :mod:`~repro.storage.moosefs` — the
  placement policies: central NFS server, N-to-N NFS exports (per-workflow
  hot spots) and MooseFS chunk servers (uniform per-file striping).
"""

from repro.storage.base import SharedFileSystem, local_placement
from repro.storage.cache import WriteBackCache
from repro.storage.disk import DiskArray
from repro.storage.moosefs import make_moosefs, moosefs_placement
from repro.storage.nfs import make_central_nfs, make_nton_nfs

__all__ = [
    "DiskArray",
    "SharedFileSystem",
    "WriteBackCache",
    "local_placement",
    "make_central_nfs",
    "make_moosefs",
    "make_nton_nfs",
    "moosefs_placement",
]
