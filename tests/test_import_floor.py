"""A simulated run never imports numpy.

numpy serves the functions that return arrays (monitoring series,
jittered generators, ``montage_lite``); no simulated event touches it,
and loading it adds about 12 MB to every process's resident floor.  The
check runs in a fresh interpreter because pytest has numpy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parent.parent)

_RUN = """
import dataclasses
import sys

import repro
from repro.cloud import ClusterSpec
from repro.engines import PullEngine, SchedulingEngine
from repro.faults.chaos import SCENARIOS, run_chaos
from repro.generators import montage_workflow
from repro.service.soak import SoakConfig, run_soak
from repro.workflow import Ensemble

spec = ClusterSpec("c3.8xlarge", 1, filesystem="local")
batch = Ensemble([montage_workflow(degree=1.0)])
for engine in (PullEngine(spec), SchedulingEngine(spec)):
    result = engine.run(batch)
    assert result.total_cpu_seconds() > 0
run_soak(dataclasses.replace(SoakConfig.quick(), horizon=60.0))
run_chaos(SCENARIOS["master-crash"])
assert "numpy" not in sys.modules, "a simulated run imported numpy"

times, means = result.cluster.nodes[0].cores.log.sample(result.makespan, 3.0)
assert "numpy" in sys.modules and len(times) == len(means) > 0
print("ok")
"""


def test_a_simulated_run_never_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _RUN],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
