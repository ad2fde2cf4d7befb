"""The command line end to end: smoke, stripping, refusal, empty checkout."""

import json
import os
import shutil
import subprocess
import sys
import time

from bench.common import ROOT


def _run(args, cwd=ROOT, env=None, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", *args], cwd=cwd, env=env, timeout=timeout,
        capture_output=True, text=True,
    )


def test_smoke_finishes_under_30_s_with_the_sanitizer_switch_stripped(tmp_path):
    out = tmp_path / "smoke.json"
    env = dict(os.environ, REPRO_SANITIZER="1", REPRO_RACEDETECT="1")
    t0 = time.perf_counter()
    proc = _run(["bench", "--smoke", "--out", str(out)], env=env)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 30.0
    doc = json.loads(out.read_text())
    assert len(doc["workloads"]) == 6
    assert all(entry["traced"]["correct"] for entry in doc["workloads"].values())
    assert doc["machine"]["nproc"] >= 1 and doc["machine"]["numpy"]
    # A/A on the deterministic values.
    proc = _run(["bench", "compare", str(out), str(out), "--exact-only"])
    assert proc.returncode == 0 and "worse=0" in proc.stdout


def test_child_refuses_to_measure_an_instrumented_simulator():
    env = dict(os.environ, REPRO_SANITIZER="1", PYTHONPATH=str(ROOT / "src"))
    proc = _run(
        ["bench.child", "--workload", "single_node", "--scale", "smoke"], env=env
    )
    assert proc.returncode != 0
    assert "refusing" in proc.stderr and '"metrics"' not in proc.stdout


def test_fails_without_a_result_where_there_is_no_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(
        ["bench", "--workload", "single_node", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
