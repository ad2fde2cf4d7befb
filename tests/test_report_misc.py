"""Coverage for report rendering details and remaining small paths."""

import pytest

from repro.cloud import ClusterSpec
from repro.engines import PullEngine, RunConfig
from repro.generators import montage_workflow
from repro.monitor.report import _fmt, format_series, summary_table
from repro.workflow import Ensemble


def test_fmt_floats_and_strings():
    assert _fmt(1.23456) == "1.23"
    assert _fmt("abc") == "abc"
    assert _fmt(7) == "7"


def test_summary_table_missing_keys_blank():
    rows = [{"a": 1, "b": 2}, {"a": 3}]
    text = summary_table(rows)
    lines = text.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert "3" in lines[3]


def test_summary_table_explicit_columns():
    rows = [{"a": 1, "b": 2, "c": 3}]
    text = summary_table(rows, columns=("c", "a"))
    header = text.splitlines()[0]
    assert "c" in header and "a" in header and "b" not in header


def test_format_series_no_unit():
    assert format_series("x", [1], [2.0]) == "x: 1:2"


def test_engine_result_rental_spans_default_static():
    template = montage_workflow(degree=0.5)
    result = PullEngine(
        ClusterSpec("c3.8xlarge", 1, filesystem="local"),
        RunConfig(record_jobs=False),
    ).run(Ensemble([template]))
    assert result.rental_spans == {0: [(0.0, result.makespan)]}


def test_cluster_spec_mixed_aggregates():
    spec = ClusterSpec(
        "c3.8xlarge",
        2,
        filesystem="moosefs",
        node_types=("c3.8xlarge", "m3.2xlarge"),
    )
    assert spec.total_vcpus == 32 + 8
    assert spec.price_per_hour == pytest.approx(1.68 + 0.532)
    assert "mixed" in spec.name
    with pytest.raises(ValueError, match="node_types has"):
        ClusterSpec("c3.8xlarge", 3, node_types=("c3.8xlarge",))
