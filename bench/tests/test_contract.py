"""``BENCHMARK.json`` is well formed and names exactly what is emitted."""

import json
import re

import pytest

from bench import child, workloads
from bench.common import LAYERS, load_contract, load_pins

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_contract_has_exactly_the_driver_keys_and_limits():
    contract = load_contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["bench"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [w["name"] for w in contract["workloads"]]
    for row in contract["workloads"]:
        assert set(row) == {"name", "why"} and len(row["why"]) <= 200
        assert "\n" not in row["why"]
    for row in contract["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in contract["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in contract["end_to_end"] + contract["per_layer"]:
        names.append(row["name"])
        assert UNIT.fullmatch(row["unit"]), row
        assert row["better"] in ("higher", "lower")
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(names)) == len(names)
    setup = [r for r in contract["end_to_end"] if r["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(r["bound"] for r in contract["end_to_end"])


def test_declared_workloads_are_the_implemented_ones_and_all_pinned():
    declared = [w["name"] for w in load_contract()["workloads"]]
    assert declared == [w.name for w in workloads.WORKLOADS]
    assert set(load_pins()) == set(declared)


def test_every_layer_has_both_of_its_sampler_metrics_declared():
    declared = {row["name"] for row in load_contract()["per_layer"]}
    for layer in LAYERS:
        assert f"{layer}.self_share" in declared
        assert f"{layer}.self_us_per_job" in declared


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_equal_the_declared_set(trace, section, capsys):
    code = child.main([
        "--workload", "crash_recovery", "--scale", "smoke", "--trace", str(trace),
        "--seconds", "0.1", "--micro-seconds", "0.01", "--threaded-members", "1",
    ])
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {row["name"]: row["unit"] for row in load_contract()[section]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == declared
    assert all(NAME.fullmatch(name) for name in line["metrics"])
