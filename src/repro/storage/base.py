"""Shared file system: routing file I/O over disks and NICs.

Every worker node mounts one POSIX namespace (paper §III.B); a *placement
policy* maps each file to the node whose RAID-0 array physically holds it.
Reads from a remote home traverse the home's disk-read channel, its NIC
egress, and the reader's NIC ingress in parallel (pipelined streaming);
writes are absorbed by the writer's write-back cache and flushed through
the corresponding route.

The file system also counts the *active data set* (``active_bytes``:
inputs staged before the run plus every intermediate written during it)
and holds the page-cache read model, an LRU stack distance per file.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

import repro.analysis.sanitizer as _sanitizer
from repro.sim import Event, JoinEvent, Simulator
from repro.workflow.dag import DataFile, Workflow

__all__ = ["SharedFileSystem", "local_placement"]

#: A placement policy: (file_name, n_nodes) -> home node index.
PlacementPolicy = Callable[[str, int], int]


#: Touch-row value of a file its owner has never read, written or staged
#: (every real touch is a ``write_clock`` reading, which starts at 0).
_NEVER = -1.0

#: A skeleton's staged inputs as ``(slot in its file index, size)``, in
#: file order: built once per skeleton, looped over by staging and by
#: each member's first touch.
_Inputs = Tuple[Tuple[int, float], ...]


def local_placement(file_name: str, n_nodes: int) -> int:
    """Everything on node 0 (single-node clusters, central NFS server)."""
    return 0


class SharedFileSystem:
    """One shared namespace over a cluster's nodes.

    Parameters
    ----------
    sim:
        The simulator.
    nodes:
        Sequence of :class:`~repro.cloud.node.SimNode`.
    placement:
        Maps ``(file_name, n_nodes)`` to the index of the home node.
    name:
        Label used in reports ("nfs", "moosefs", ...).
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence,
        placement: PlacementPolicy = local_placement,
        name: str = "sharedfs",
    ):
        if not nodes:
            raise ValueError("a shared file system needs at least one node")
        self.sim = sim
        self.nodes = list(nodes)
        self.placement = placement
        self.name = name
        self.active_bytes = 0.0
        self.bytes_read = 0.0       # effective device reads (after cache)
        self.bytes_written = 0.0    # logical writes
        # LRU stack-distance cache model: `write_clock` counts every byte
        # that entered the namespace; a file read hits the page cache iff
        # fewer bytes than the node's cache arrived since the file was
        # last touched.  This is what makes producer->consumer reads (a
        # mDiffFit reading projections written seconds earlier) free while
        # stage 3 re-reads of stage-1 outputs go to disk once the working
        # set outgrows memory (Fig 4's i2 < r3 < c3 stage-3 ordering).
        #
        # The touch table is one flat row per owner (ensemble member):
        # ``row[index[file name]]`` is the ``write_clock`` reading when
        # the owner's copy of that file was last touched, or ``_NEVER``.
        # A staged member's ``index`` is its skeleton's shared, immutable
        # ``file_index()``, so a member costs 8 bytes per file.  Its row
        # is built at its first read or write, from what ``_staged``
        # kept at staging; a member that never runs (shed at the front
        # door) never gets one.  Owners in ``_private`` have an index
        # this file system owns and may grow: those it was never told
        # about, and those that touched a file name outside their
        # skeleton.
        self.write_clock = 0.0
        self._touch: Dict[str, Tuple[Dict[str, int], array]] = {}
        self._staged: Dict[str, Tuple[float, _Inputs, Dict[str, int]]] = {}
        self._private: Set[str] = set()
        # Single-node clusters have exactly one possible home; skipping
        # the placement call per file is a measurable win on the
        # local-filesystem benchmark configurations.
        self._sole = self.nodes[0] if len(self.nodes) == 1 else None
        self._homes: Dict[str, object] = {}  # file name -> home node
        # Shared already-triggered event for no-op reads/writes (fully
        # cached inputs, zero-byte outputs); callers only check
        # ``triggered`` so one processed event serves them all.
        self._noop = Event(sim).succeed()

    # -- data-set accounting ----------------------------------------------
    def stage_inputs(self, workflows: Iterable[Workflow]) -> None:
        """Account for pre-staged input files (paper: "the required input
        files are copied to the shared file system before the experiments",
        §V.B).  Every ensemble member has its own copy of its inputs (the
        paper's 200-workflow ensemble has 288,800 input files — 200 x
        1,444), so staging is counted per workflow even when relabelled
        members share DataFile objects.  Staging touches each input at
        the clock it reached; what a member's first read or write needs to
        build its touch row from (``_touch_of``) is kept instead of the
        row: the clock before its inputs and its skeleton's inputs."""
        inputs_of: Dict[int, Tuple[_Inputs, Dict[str, int]]] = {}
        for wf in workflows:
            skeleton = wf.skeleton()
            owner = wf.name
            if owner in self._touch:
                raise ValueError(f"{owner!r} was read or written before it was staged")
            entry = inputs_of.get(id(skeleton))
            if entry is None:
                index = skeleton.file_index()
                entry = inputs_of[id(skeleton)] = (
                    tuple(
                        (index[f.name], f.size)
                        for f in skeleton.files if f.kind == "input"
                    ),
                    index,
                )
            inputs, index = entry
            self._staged[owner] = (self.write_clock, inputs, index)
            for _slot, size in inputs:
                self.active_bytes += size
                self.write_clock += size

    def _touch_of(self, owner: str) -> Tuple[Dict[str, int], array]:
        """The ``(index, row)`` pair of ``owner``, built at its first
        touch.  A staged owner's row is over its skeleton's shared index
        (never written through), its inputs touched at the clocks
        staging reached: the same additions from the same clock, so the
        same floats.  Any other owner gets an empty private index that
        grows on demand."""
        entry = self._touch.get(owner)
        if entry is None:
            staged = self._staged.pop(owner, None)
            if staged is None:
                self._private.add(owner)
                entry = self._touch[owner] = ({}, array("d"))
            else:
                clock, inputs, index = staged
                row = array("d", (_NEVER,)) * len(index)
                for slot, size in inputs:
                    clock += size
                    row[slot] = clock
                entry = self._touch[owner] = (index, row)
        return entry

    def _grow(self, owner: str, name: str) -> int:
        """Slot of a file ``name`` that ``owner``'s index lacked when the
        caller looked (slow path: tests, ad-hoc owners, files outside the
        skeleton).  A shared skeleton index is copied, once, before the
        first name is added — it is never mutated.  The row object is
        extended in place, so a pair the caller already holds stays
        usable; its index may be stale, which only routes it here again.
        """
        index, row = self._touch[owner]
        slot = index.get(name)
        if slot is None:
            if owner not in self._private:
                self._private.add(owner)
                index = dict(index)
                self._touch[owner] = (index, row)
            slot = index[name] = len(row)
            row.append(_NEVER)
            san = _sanitizer._ACTIVE
            if san is not None:
                san.check_touch_isolation(self)
        return slot

    def home_of(self, f: DataFile):
        """The node whose disks hold ``f``.  Placement is a pure function
        of the file name over a node list fixed at construction, and
        relabelled members share names, so it is computed once per name.
        """
        if self._sole is not None:
            return self._sole
        name = f.name
        try:
            return self._homes[name]
        except KeyError:
            home = self._homes[name] = self.nodes[
                self.placement(name, len(self.nodes))
            ]
            return home

    # -- I/O ----------------------------------------------------------------
    def read(self, node, files: Sequence[DataFile], owner: str = "") -> Event:
        """Read ``files`` from ``node``; fires when all bytes arrived.

        ``owner`` is the reading workflow's name — relabelled ensemble
        members share :class:`DataFile` objects but own distinct physical
        files, so cache state is keyed per owner.
        """
        local = 0.0
        remote: dict = {}
        sole = self._sole
        homes = self._homes  # home_of() only on a name's first sight
        # Linear-decay LRU: the page cache holds ``node.page_cache_bytes``;
        # a page's survival probability decays linearly with the bytes
        # that entered the cache since it was last touched (competing
        # traffic evicts pages long before the strict LRU depth is
        # reached — readahead, metadata, uneven access).  Miss fraction =
        # ``min(1, stack_distance / cache_bytes)``; never-seen files miss
        # entirely.  The per-file table traffic dominates the read path
        # on cache-heavy workloads, so the loop invariants are hoisted.
        index, row = self._touch.get(owner) or self._touch_of(owner)
        clock = self.write_clock
        cache_bytes = node.page_cache_bytes
        for f in files:
            try:
                i = index[f.name]
            except KeyError:
                i = self._grow(owner, f.name)
            last = row[i]
            row[i] = clock  # LRU touch
            if last < 0.0:
                nbytes = f.size
            else:
                distance = clock - last
                if distance >= cache_bytes:
                    nbytes = f.size
                else:
                    nbytes = f.size * (distance / cache_bytes)
            if nbytes == 0.0:
                continue
            home = sole if sole is not None else homes.get(f.name) or self.home_of(f)
            if home is node:
                local += nbytes
            else:
                remote[home] = remote.get(home, 0.0) + nbytes
        return self._start_read(node, local, remote)

    def _start_read(self, node, local: float, remote: dict) -> Event:
        """Start the device streams of one read: ``local`` bytes off
        ``node``'s own disk plus ``remote[home]`` bytes from each other
        home; the returned event fires when all of them have arrived."""
        if not remote:
            if local > 0:
                self.bytes_read += local
                return node.disk.read.transfer(local)
            return self._noop
        # Fan-out: each remote home contributes three parallel streams
        # (home disk read, home NIC egress, reader NIC ingress).  All
        # streams arrive into one counting barrier — no per-stream events,
        # no AllOf — and the reader's NIC admits its per-home streams as
        # one batch (one bandwidth re-partition instead of one per home).
        join = JoinEvent(self.sim, (1 if local > 0 else 0) + 3 * len(remote))
        if local > 0:
            self.bytes_read += local
            node.disk.read.transfer_into(local, join)
        sizes: List[float] = []
        for home, nbytes in remote.items():
            self.bytes_read += nbytes
            home.disk.read.transfer_into(nbytes, join)
            home.nic_out.transfer_into(nbytes, join)
            sizes.append(nbytes)
        if len(sizes) == 1:
            node.nic_in.transfer_into(sizes[0], join)
        else:
            node.nic_in.transfer_many(sizes, join)
        return join

    def write(self, node, files: Sequence[DataFile], owner: str = "") -> Event:
        """Write ``files`` from ``node``; fires when buffered (write-back).

        Files sharing a route are buffered as one cache entry: the flusher
        serves them as a single stream, which under processor sharing
        takes exactly as long as serving them back to back — same bytes,
        same one-stream presence on every link of the route.
        """
        routes: dict = {}
        sole = self._sole
        index, row = self._touch.get(owner) or self._touch_of(owner)
        clock = self.write_clock
        total = 0.0
        for f in files:
            size = f.size
            if size == 0:
                continue
            total += size
            clock += size
            try:
                i = index[f.name]
            except KeyError:
                i = self._grow(owner, f.name)
            row[i] = clock
            if sole is not None:
                continue  # single node: one route, summed below
            home = self._homes.get(f.name) or self.home_of(f)
            if home is node:
                links = (node.disk.write,)
            else:
                links = (node.nic_out, home.nic_in, home.disk.write)
            routes[links] = routes.get(links, 0.0) + size
        self.active_bytes += total
        self.bytes_written += total
        self.write_clock = clock
        if sole is not None and total > 0.0:
            return node.write_cache.write(total, (node.disk.write,))
        if not routes:
            return self._noop
        if len(routes) == 1:
            links, nbytes = next(iter(routes.items()))
            return node.write_cache.write(nbytes, links)
        join = JoinEvent(self.sim, len(routes))
        write_into = node.write_cache.write_into
        for links, nbytes in routes.items():
            write_into(nbytes, links, join)
        return join
