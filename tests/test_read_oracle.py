"""The first multi-link oracle (ROADMAP item 4a, reads only).

``SharedFileSystem._start_read`` opens, for every remote home of a read,
three independent flows — home disk, home NIC out, reader NIC in — plus
one on the reader's own disk for its local bytes, and the read is done
when the last of them is.  Every other link oracle in the suite watches
one link; this one replays a plan of reads on 2-4 MooseFS nodes against a
reference that shares no code with the virtual-time heap: each link on
its own, remaining bytes per stream, served at the link's equal share
and recomputed with numpy at every arrival and completion (progressive
filling, which on a single link *is* the equal share).

What it holds is the model as it stands — independent links.  How far
that is from a route served at its bottleneck share is ROADMAP item 3's
question, not this test's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.cluster import ClusterSpec, SimCluster
from repro.sim import Simulator

_nbytes = st.floats(min_value=1e7, max_value=5e9, allow_nan=False)


@st.composite
def read_plans(draw):
    """``(n_nodes, [(time, reader, local bytes, {home: bytes})])``: every
    read moves something, and a remote home is never the reader."""
    n = draw(st.integers(min_value=2, max_value=4))
    reads = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        reader = draw(st.integers(min_value=0, max_value=n - 1))
        homes = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=3))
        remote = {home: draw(_nbytes) for home in sorted(homes - {reader})}
        local = draw(st.just(0.0) | _nbytes)
        if not remote and local == 0.0:
            local = draw(_nbytes)
        when = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
        reads.append((when, reader, local, remote))
    return n, sorted(reads, key=lambda read: read[0])


def _equal_share_completions(capacity, streams):
    """One link alone: ``streams`` is ``[(arrival, nbytes)]`` in arrival
    order; returns each stream's completion instant."""
    arrival = np.array([t for t, _b in streams])
    left = np.array([b for _t, b in streams], dtype=float)
    done = np.full(len(streams), np.nan)
    admitted = np.zeros(len(streams), dtype=bool)
    now = 0.0
    while np.isnan(done).any():
        active = admitted & np.isnan(done)
        waiting = arrival[~admitted]
        ahead = waiting.min() if waiting.size else np.inf
        if active.any():
            share = capacity / active.sum()
            ends = now + left[active].min() / share
            if ends <= ahead:
                left[active] -= (ends - now) * share
                finished = active & (left <= left[active].min())
                done[finished] = ends
                now = ends
                continue
            left[active] -= (ahead - now) * share
        now = ahead
        admitted |= arrival <= now
    return done


def _independent_links(cluster, reads):
    """The reference: every stream of every read on its own link, the
    read done at its last stream."""
    streams = {}  # link -> [(arrival, nbytes, read number)]
    for k, (when, reader, local, remote) in enumerate(reads):
        node = cluster.nodes[reader]
        if local > 0:
            streams.setdefault(node.disk.read, []).append((when, local, k))
        for home, nbytes in remote.items():
            source = cluster.nodes[home]
            for link in (source.disk.read, source.nic_out, node.nic_in):
                streams.setdefault(link, []).append((when, nbytes, k))
    finished = np.zeros(len(reads))
    for link, flows in streams.items():
        ends = _equal_share_completions(link.capacity, [f[:2] for f in flows])
        for (_when, _nbytes, k), end in zip(flows, ends):
            finished[k] = max(finished[k], end)
    return finished


@given(read_plans())
@settings(max_examples=100, deadline=None)
def test_start_read_matches_independent_links_reference(plan):
    n, reads = plan
    sim = Simulator()
    cluster = SimCluster(sim, ClusterSpec("r3.8xlarge", n, filesystem="moosefs"))
    fs = cluster.fs
    got = {}

    def start(k, reader, local, remote):
        node = cluster.nodes[reader]
        read = fs._start_read(
            node, local, {cluster.nodes[home]: b for home, b in remote.items()}
        )
        read.callbacks.append(lambda _event: got.setdefault(k, sim.now))

    for k, (when, reader, local, remote) in enumerate(reads):
        sim.schedule_call(when, start, k, reader, local, remote)
    sim.run()

    expected = _independent_links(cluster, reads)
    flows = sum((local > 0) + 3 * len(remote) for _t, _r, local, remote in reads)
    # test_link_matches_naive_processor_sharing's tolerance: a stream is
    # delivered within a part in 1e9 of either clock, per sharer.
    slack = 1e-9 * (flows + 1)
    assert sorted(got) == list(range(len(reads)))
    for k, when in enumerate(expected):
        assert got[k] == pytest.approx(when, rel=slack, abs=slack), (k, reads)
    moved = sum(local + sum(remote.values()) for _t, _r, local, remote in reads)
    assert fs.bytes_read == pytest.approx(moved, rel=1e-12)
    for node in cluster.nodes:
        for link in (node.disk.read, node.nic_out, node.nic_in):
            assert link._n == 0 and not link._heap
