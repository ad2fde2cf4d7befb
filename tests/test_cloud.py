"""Tests for the cloud substrate: catalogue, pricing, clusters."""

import pytest

from repro.cloud import (
    INSTANCE_TYPES,
    BillingModel,
    ClusterSpec,
    SimCluster,
    cluster_cost,
    get_instance_type,
)
from repro.cloud.pricing import billed_hours
from repro.sim import Simulator

# ---------------------------------------------------------------------------
# Instance catalogue (Tables I & II)
# ---------------------------------------------------------------------------


def test_table1_specs_transcribed():
    c3 = get_instance_type("c3.8xlarge")
    r3 = get_instance_type("r3.8xlarge")
    i2 = get_instance_type("i2.8xlarge")
    for t in (c3, r3, i2):
        assert t.vcpus == 32
        assert t.network_gbps == 10.0
    assert c3.memory_gb == 60.0 and c3.storage == (2, 320) and c3.price_per_hour == 1.68
    assert r3.memory_gb == 244.0 and r3.storage == (2, 320) and r3.price_per_hour == 2.80
    assert i2.memory_gb == 244.0 and i2.storage == (8, 800) and i2.price_per_hour == 6.82


def test_table2_disk_profiles_transcribed():
    disk = get_instance_type("i2.8xlarge").disk
    assert disk.seq_read == 2200e6
    assert disk.seq_write == 3800e6
    assert disk.rand_read == 1800e6
    assert disk.rand_write == 3600e6


def test_disk_io_ordering_matches_paper():
    """i2 > r3 > c3 on every channel (drives Fig 4c's stage-3 ordering)."""
    c3, r3, i2 = (get_instance_type(n).disk for n in
                  ("c3.8xlarge", "r3.8xlarge", "i2.8xlarge"))
    for field in ("seq_read", "seq_write", "rand_read", "rand_write"):
        assert getattr(i2, field) > getattr(r3, field) > getattr(c3, field)


def test_storage_and_network_helpers():
    i2 = get_instance_type("i2.8xlarge")
    assert i2.storage_gb == 6400
    assert i2.network_bytes_per_s == pytest.approx(1.25e9)
    assert i2.memory_bytes == pytest.approx(244e9)


def test_unknown_type_lists_known():
    with pytest.raises(KeyError, match="c3.8xlarge"):
        get_instance_type("z9.mega")


def test_m3_present_for_fig2():
    m3 = get_instance_type("m3.2xlarge")
    assert m3.vcpus == 8


# ---------------------------------------------------------------------------
# Pricing
# ---------------------------------------------------------------------------


def test_billed_hours_rounds_up_per_hour():
    assert billed_hours(1.0) == 1.0
    assert billed_hours(3600.0) == 1.0
    assert billed_hours(3601.0) == 2.0
    assert billed_hours(0.0) == 0.0


def test_billed_hours_per_minute():
    assert billed_hours(90.0, BillingModel.PER_MINUTE) == pytest.approx(2 / 60)
    assert billed_hours(3600.0, BillingModel.PER_MINUTE) == pytest.approx(1.0)


def test_billed_hours_per_second():
    assert billed_hours(1800.0, BillingModel.PER_SECOND) == pytest.approx(0.5)


def test_cluster_cost_table3_prices():
    """Table III: 40 c3 = 67.2, 25 r3 = 70.0, 23 i2 = 156.7(86), 10 i2 = 68.2 USD/hr."""
    assert cluster_cost(get_instance_type("c3.8xlarge"), 40, 3600) == pytest.approx(67.2)
    assert cluster_cost(get_instance_type("r3.8xlarge"), 25, 3600) == pytest.approx(70.0)
    assert cluster_cost(get_instance_type("i2.8xlarge"), 23, 3600) == pytest.approx(156.86)
    assert cluster_cost(get_instance_type("i2.8xlarge"), 10, 3600) == pytest.approx(68.2)


def test_pricing_validation():
    itype = get_instance_type("c3.8xlarge")
    with pytest.raises(ValueError):
        billed_hours(-1.0)
    with pytest.raises(ValueError):
        cluster_cost(itype, -1, 100)


# ---------------------------------------------------------------------------
# ClusterSpec / SimCluster
# ---------------------------------------------------------------------------


def test_cluster_spec_aggregates():
    spec = ClusterSpec("r3.8xlarge", 25)
    assert spec.total_vcpus == 800
    assert spec.total_memory_gb == pytest.approx(6100.0)
    assert spec.price_per_hour == pytest.approx(70.0)


def test_cluster_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec("c3.8xlarge", 0)
    with pytest.raises(KeyError):
        ClusterSpec("bogus", 1)
    with pytest.raises(ValueError):
        ClusterSpec("c3.8xlarge", 1, filesystem="fat32")


def test_sim_cluster_builds_nodes_and_fs():
    sim = Simulator()
    cluster = SimCluster(sim, ClusterSpec("c3.8xlarge", 3, filesystem="moosefs"))
    assert len(cluster.nodes) == 3
    assert sum(node.cores.capacity for node in cluster.nodes) == 96
    assert cluster.fs.name == "moosefs"


def test_sim_cluster_local_requires_single_node():
    sim = Simulator()
    with pytest.raises(ValueError):
        SimCluster(sim, ClusterSpec("c3.8xlarge", 2, filesystem="local"))

