"""Tests for the storage substrate: disks, write-back cache, shared FS."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import ClusterSpec, SimCluster, get_instance_type
from repro.sim import Event, FairShareLink, Simulator
from repro.storage import (
    SharedFileSystem,
    WriteBackCache,
    make_moosefs,
    make_nton_nfs,
)
from repro.storage.cache import CHUNK_BYTES
from repro.storage.moosefs import moosefs_placement
from repro.storage.nfs import nton_placement
from repro.workflow.dag import DataFile, Workflow


def make_cluster(n_nodes=2, itype="c3.8xlarge", fs="moosefs"):
    sim = Simulator()
    cluster = SimCluster(sim, ClusterSpec(itype, n_nodes, filesystem=fs))
    return sim, cluster


# ---------------------------------------------------------------------------
# WriteBackCache
# ---------------------------------------------------------------------------


def test_writeback_absorbs_within_capacity():
    sim = Simulator()
    slow = FairShareLink(sim, capacity=1.0)  # 1 B/s: flushing takes ages
    cache = WriteBackCache(sim, capacity_bytes=1000.0)
    times = []

    def writer():
        yield cache.write(500.0, (slow,))
        times.append(sim.now)

    sim.process(writer())
    sim.run(until=10.0)
    # Write completed immediately even though the device is glacial.
    assert times == [0.0]
    assert cache.dirty > 0


def test_buffered_write_returns_the_event_succeed_builds():
    """A write buffered at once carries ``Event.__init__`` and
    ``Event.succeed`` in ``write``'s own frame: same slots, and the next
    agenda entry of the instant (ahead of the flusher's boot event)."""
    sim = Simulator()
    link = FairShareLink(sim, capacity=100.0)
    cache = WriteBackCache(sim, capacity_bytes=100.0)
    event = cache.write(40.0, (link,))
    reference = Event(sim).succeed()

    def slots(e):
        return type(e), e.sim, e.callbacks, e._state, e._value

    assert slots(event) == slots(reference) == (Event, sim, [], 1, None)
    assert sim._imm[0] == (1, event) and sim._imm[-1] == (sim._seq, reference)
    stalled = cache.write(100.0, (link,))  # over the dirty limit: pending
    assert slots(stalled) == slots(Event(sim))


def test_writeback_throttles_beyond_capacity():
    sim = Simulator()
    link = FairShareLink(sim, capacity=CHUNK_BYTES)  # one chunk per second
    cache = WriteBackCache(sim, capacity_bytes=2 * CHUNK_BYTES)
    times = []

    def writer(n):
        yield cache.write(n, (link,))
        times.append(sim.now)

    sim.process(writer(2 * CHUNK_BYTES))
    sim.process(writer(2 * CHUNK_BYTES))  # must wait for flusher to free space
    sim.run()
    assert times[0] == 0.0
    assert times[1] > 0.0


def test_writeback_drained_event():
    # The write is buffered at once; the cache drains at device speed,
    # and the run ends there (the strict sanitizer checks the drain).
    sim = Simulator()
    link = FairShareLink(sim, capacity=100.0)
    cache = WriteBackCache(sim, capacity_bytes=1e6)
    assert cache.write(200.0, (link,)).triggered
    sim.run()
    assert sim.now == pytest.approx(2.0)
    assert cache.dirty == pytest.approx(0.0)
    assert cache.bytes_flushed == 200.0


def test_writeback_oversized_entry_does_not_deadlock():
    sim = Simulator()
    link = FairShareLink(sim, capacity=CHUNK_BYTES)
    cache = WriteBackCache(sim, capacity_bytes=2 * CHUNK_BYTES)
    times = []

    def writer():
        yield cache.write(8 * CHUNK_BYTES, (link,))  # 4x the cache size
        times.append(sim.now)

    sim.process(writer())
    sim.run()
    assert times and times[0] >= 0.0
    assert cache.dirty == pytest.approx(0.0)


def test_writeback_zero_write_immediate():
    sim = Simulator()
    link = FairShareLink(sim, capacity=100.0)
    cache = WriteBackCache(sim, capacity_bytes=100.0)
    assert cache.write(0.0, (link,)).triggered


def test_writeback_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        WriteBackCache(sim, capacity_bytes=0.0)
    cache = WriteBackCache(sim, capacity_bytes=10.0)
    with pytest.raises(ValueError):
        cache.write(-1.0, ())


@pytest.mark.parametrize(
    "argument, value",
    [
        ("capacity_bytes", float("nan")),
        ("capacity_bytes", float("inf")),
        ("capacity_bytes", -1.0),
    ],
)
def test_writeback_refuses_a_size_that_is_not_finite(argument, value):
    # A NaN or infinite capacity never throttles a writer: refused at
    # construction.
    with pytest.raises(ValueError, match=argument):
        WriteBackCache(Simulator(), **{argument: value})


def test_writeback_accepts_the_edges_of_its_ranges():
    # The smallest and largest finite capacities are accepted; a write
    # over the smaller one is admitted alone and flushed.
    for capacity in (5e-324, 1.7e308):
        sim = Simulator()
        link = FairShareLink(sim, capacity=1e6)
        cache = WriteBackCache(sim, capacity_bytes=capacity)
        cache.write(1e-2, (link,))
        sim.run(until=100.0)
        assert cache.dirty == 0.0 and cache.bytes_flushed == 1e-2


def test_writeback_flushes_in_chunk_sized_bursts():
    sim = Simulator()
    link = FairShareLink(sim, capacity=CHUNK_BYTES)  # one chunk per second
    cache = WriteBackCache(sim, capacity_bytes=4 * CHUNK_BYTES)
    cache.write(2.5 * CHUNK_BYTES, (link,))
    # Dirty bytes are released a whole chunk at a time, the tail last.
    sim.run(until=1.5)
    assert cache.dirty == 1.5 * CHUNK_BYTES
    sim.run(until=2.25)
    assert cache.dirty == 0.5 * CHUNK_BYTES
    sim.run()
    assert sim.now == pytest.approx(2.5) and cache.dirty == 0.0


# ---------------------------------------------------------------------------
# Placement policies
# ---------------------------------------------------------------------------


def test_nton_placement_groups_by_workflow_folder():
    a1 = nton_placement("wf-a/file1.fits", 8)
    a2 = nton_placement("wf-a/file2.fits", 8)
    assert a1 == a2  # same folder -> same export


def test_moosefs_placement_spreads_files():
    homes = {moosefs_placement(f"wf/file{i}.fits", 8) for i in range(100)}
    assert len(homes) == 8  # uniform-ish spread over all chunk servers


def test_placement_deterministic():
    assert moosefs_placement("x/y", 5) == moosefs_placement("x/y", 5)


# ---------------------------------------------------------------------------
# SharedFileSystem routing
# ---------------------------------------------------------------------------


def test_local_read_uses_local_disk_only():
    sim, cluster = make_cluster(n_nodes=1, fs="local")
    node = cluster.nodes[0]
    f = DataFile("wf/x.dat", 1e9)
    done = []

    def reader():
        yield cluster.fs.read(node, [f])
        done.append(sim.now)

    sim.process(reader())
    sim.run()
    # 1 GB at c3 random-read 400 MB/s -> 2.5 s
    assert done == [pytest.approx(2.5, rel=1e-3)]
    # The whole gigabyte came off the node's own disk, none over its NIC.
    assert node.disk.read.log.integrate(sim.now) == pytest.approx(1e9)
    assert node.nic_in.log.integrate(sim.now) == 0.0


def test_remote_read_crosses_network():
    sim, cluster = make_cluster(n_nodes=2, fs="moosefs")
    fs = cluster.fs
    f = DataFile("wf/x.dat", 1e9)  # never seen: full miss
    home = fs.home_of(f)
    reader_node = cluster.nodes[1 - home.index]
    done = []

    def reader():
        yield fs.read(reader_node, [f])
        done.append(sim.now)

    sim.process(reader())
    sim.run()
    # Bottleneck is the home's 400 MB/s disk read (NIC is 1250 MB/s).
    assert done == [pytest.approx(2.5, rel=1e-3)]
    # The whole gigabyte crossed the network: out of the home, into the
    # reader, and none of it off the reader's own disk.
    assert home.nic_out.log.integrate(sim.now) == pytest.approx(1e9)
    assert reader_node.nic_in.log.integrate(sim.now) == pytest.approx(1e9)
    assert reader_node.disk.read.log.integrate(sim.now) == 0.0


def test_recently_written_file_reads_from_cache():
    """Producer->consumer reads are (nearly) free: a file written moments
    ago is still resident in the page cache."""
    sim, cluster = make_cluster(n_nodes=1, fs="local")
    node = cluster.nodes[0]
    fs = cluster.fs
    f = DataFile("wf/x.dat", 1e9)
    done = []

    def producer_consumer():
        yield fs.write(node, [f])
        yield fs.read(node, [f])
        done.append(sim.now)

    sim.process(producer_consumer())
    sim.run(until=0.5)
    # Write is absorbed by the write-back cache and the read hits the page
    # cache (stack distance 0), so both complete immediately.
    assert done == [0.0]
    assert fs.bytes_read == pytest.approx(0.0)


def test_read_miss_grows_with_stack_distance():
    """The linear-decay LRU model: the more bytes written since a file
    was last touched, the more of it must come from the device."""
    sim, cluster = make_cluster(n_nodes=1, fs="local")
    node = cluster.nodes[0]
    fs = cluster.fs
    cache = node.page_cache_bytes
    f = DataFile("wf/x.dat", 1e9)
    fs.write(node, [f])  # touches f
    fs.write(node, [DataFile("wf/half.dat", 0.5 * cache)])  # half the cache since
    fs.read(node, [f])
    assert fs.bytes_read == pytest.approx(0.5e9)
    # Touch reset the distance: an immediate re-read is free.
    fs.read(node, [f])
    assert fs.bytes_read == pytest.approx(0.5e9)
    # Beyond the cache size: full miss.
    fs.write(node, [DataFile("wf/double.dat", 2 * cache)])
    fs.read(node, [f])
    assert fs.bytes_read == pytest.approx(1.5e9)


def test_first_touch_is_full_miss():
    sim, cluster = make_cluster(n_nodes=1, fs="local")
    node = cluster.nodes[0]
    fs = cluster.fs
    f = DataFile("wf/new.dat", 1e6)
    fs.read(node, [f], "w")
    assert fs.bytes_read == pytest.approx(1e6)


def test_write_updates_active_bytes_and_routes_to_cache():
    sim, cluster = make_cluster(n_nodes=2, fs="moosefs")
    fs = cluster.fs
    node = cluster.nodes[0]
    files = [DataFile(f"wf/out{i}.dat", 1e6) for i in range(10)]
    done = []

    def writer():
        yield fs.write(node, files)
        done.append(sim.now)

    sim.process(writer())
    sim.run()
    assert done == [0.0]  # absorbed by write-back cache instantly
    assert fs.active_bytes == pytest.approx(10e6)
    assert fs.bytes_written == pytest.approx(10e6)


def test_stage_inputs_counts_every_member():
    from repro.generators import montage_workflow

    sim, cluster = make_cluster(n_nodes=1, fs="local")
    wf = montage_workflow(degree=0.5)
    cluster.fs.stage_inputs([wf, wf.relabel("copy")])
    # Every ensemble member owns its own physical input files (the paper's
    # 200-workflow ensemble has 288,800 input files), so staging counts
    # each member even when relabelled copies share DataFile objects.
    assert cluster.fs.active_bytes == pytest.approx(
        2 * sum(f.size for f in wf.skeleton().files if f.kind == "input")
    )


# ---------------------------------------------------------------------------
# Page-cache touch table: one row per owner over the shared file index
# ---------------------------------------------------------------------------


def _template():
    wf = Workflow("tpl")
    a = DataFile("in/a.dat", 3e8, "input")
    b = DataFile("in/b.dat", 5e8, "input")
    x, y = DataFile("x.dat", 2e8), DataFile("y.dat", 7e8)
    wf.new_job("p1", "project", inputs=[a], outputs=[x])
    wf.new_job("p2", "project", inputs=[b], outputs=[y])
    wf.new_job("add", "add", inputs=[x, y], outputs=[DataFile("out.dat", 1e8, "output")])
    wf.add_dependency("p1", "add")
    wf.add_dependency("p2", "add")
    return wf


#: Two names no skeleton knows; the second is bigger than any page cache.
_OUTSIDE = [DataFile("scratch/log.txt", 4e8), DataFile("scratch/dump.bin", 1e11)]


@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),  # read / write
            st.integers(0, 1),  # which member
            st.lists(st.integers(0, 6), min_size=1, max_size=4),  # which files
        ),
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_staged_and_never_staged_owners_read_the_same_bytes(ops):
    """The same traffic through a registered member (shared skeleton
    index) and through an owner the fs was never told about (private
    growable index) costs the same device bytes, op by op — including
    files outside the skeleton, which never grow the shared index."""
    wf = _template()
    members = [wf.relabel("m0"), wf.relabel("m1")]
    files = list(wf.skeleton().files) + _OUTSIDE
    index_before = dict(wf.skeleton().file_index())
    _sim, staged = make_cluster(n_nodes=1, fs="local")
    _sim, adhoc = make_cluster(n_nodes=1, fs="local")
    staged.fs.stage_inputs(members)
    for member in members:
        # What staging does, through the public write path.
        inputs = [f for f in files if f.kind == "input"]
        adhoc.fs.write(adhoc.nodes[0], inputs, member.name)
    for is_read, who, picks in ops:
        for cluster in (staged, adhoc):
            call = cluster.fs.read if is_read else cluster.fs.write
            call(cluster.nodes[0], [files[i] for i in picks], members[who].name)
        assert staged.fs.bytes_read == adhoc.fs.bytes_read
        assert staged.fs.write_clock == adhoc.fs.write_clock
        assert staged.fs.active_bytes == adhoc.fs.active_bytes
    assert wf.skeleton().file_index() == index_before
    assert list(wf.skeleton().file_index()) == [f.name for f in wf.skeleton().files]


def test_relabelled_members_never_share_a_touch_row():
    sim, cluster = make_cluster(n_nodes=1, fs="local")
    fs, node = cluster.fs, cluster.nodes[0]
    wf = _template()
    fs.stage_inputs([wf.relabel("m0"), wf.relabel("m1")])
    x = wf.job("p1").outputs[0]
    fs.write(node, [x], "m0")
    fs.read(node, [x], "m1")  # m1 never wrote its x: full miss
    assert fs.bytes_read == x.size
    fs.read(node, [x], "m0")  # m0 just did: free
    assert fs.bytes_read == x.size


def test_file_outside_the_skeleton_is_a_miss_and_leaves_the_index_alone():
    sim, cluster = make_cluster(n_nodes=1, fs="local")
    fs, node = cluster.fs, cluster.nodes[0]
    wf = _template()
    index = wf.skeleton().file_index()
    before = dict(index)
    fs.stage_inputs([wf.relabel("m0"), wf.relabel("m1")])
    stray = _OUTSIDE[0]
    fs.read(node, [stray], "m0")
    assert fs.bytes_read == stray.size  # never seen: full miss
    fs.read(node, [stray, stray], "m0")  # now tracked for m0: free
    assert fs.bytes_read == stray.size
    fs.read(node, [stray], "m1")  # but not for m1
    assert fs.bytes_read == 2 * stray.size
    assert wf.skeleton().file_index() is index
    assert index == before
    # m0 still reads its skeleton files through its (now private) index.
    a = wf.job("p1").inputs[0]
    fs.read(node, [a], "m0")
    assert fs.bytes_read < 2 * stray.size + a.size  # staged: mostly cached


def test_nton_fs_concentrates_workflow_io():
    sim, cluster = make_cluster(n_nodes=4, fs="nfs-nton")
    fs = cluster.fs
    files = [DataFile(f"wf-a/f{i}.dat", 1.0) for i in range(50)]
    homes = {fs.home_of(f).index for f in files}
    assert len(homes) == 1  # hot spot: all on the workflow's export


def test_moosefs_spreads_workflow_io():
    sim, cluster = make_cluster(n_nodes=4, fs="moosefs")
    fs = cluster.fs
    files = [DataFile(f"wf-a/f{i}.dat", 1.0) for i in range(50)]
    homes = {fs.home_of(f).index for f in files}
    assert len(homes) == 4


def test_fs_requires_nodes():
    sim = Simulator()
    with pytest.raises(ValueError):
        SharedFileSystem(sim, [])
