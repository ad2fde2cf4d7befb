"""A simulated run imports only the simulator.

numpy serves the functions that return arrays (monitoring series,
``random_layered_workflow``, ``montage_lite``); no simulated event touches it,
and loading it adds about 12 MB to every process's resident floor.  The
threaded daemons, the TCP broker, the subprocess executors, the DAX
serializer, the planner, the exporters and the process pool are not on
a run's path either: the package facades re-export them lazily and
``run_many`` imports its pool only when it forks.  The check runs in a
fresh interpreter because pytest has all of them loaded.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parent.parent)

_RUN = """
import dataclasses
import json
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
after_run = sorted(sys.modules)

times, means = result.cluster.nodes[0].cores.log.sample(result.makespan, 3.0)
assert len(times) == len(means) > 0
print(json.dumps({"after_run": after_run, "after_sample": sorted(sys.modules)}))
"""

#: Modules no simulated run calls: the threaded daemons and their
#: executors, the TCP broker, the DAX serializer, the planner, the
#: exporters, and what the process pool brings.
_OFF_THE_RUN_PATH = (
    "socket",
    "subprocess",
    "multiprocessing",
    "concurrent.futures",
    "pickle",
    "xml.etree.ElementTree",
    "repro.dewe.master",
    "repro.dewe.worker",
    "repro.dewe.executors",
    "repro.mq.tcpbroker",
    "repro.provision.planner",
    "repro.monitor.export",
)


def _fresh(script):
    """Standard output of ``script`` run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def loaded():
    """``sys.modules`` of a fresh interpreter after a ``PullEngine`` and
    a ``SchedulingEngine`` batch, a quick soak and a ``master-crash``
    chaos run, and again after one array-returning call."""
    return json.loads(_fresh(_RUN))


def test_a_simulated_run_never_imports_numpy(loaded):
    assert "numpy" not in loaded["after_run"], "a simulated run imported numpy"
    assert "numpy" in loaded["after_sample"]


def test_a_simulated_run_loads_no_daemon_broker_or_pool(loaded):
    modules = loaded["after_run"]
    ours = [name for name in modules if name.split(".")[0] == "repro"]
    print(f"modules after a simulated run: {len(modules)} (repro: {len(ours)})")
    assert [name for name in _OFF_THE_RUN_PATH if name in modules] == []


def _defining_module(value, name):
    """Where ``value`` is made: a class's or function's ``__module__``;
    for a constant, a module (not a package) that binds it as ``name``."""
    if isinstance(value, (type, types.FunctionType)):
        return sys.modules[value.__module__]
    return next(
        module
        for key, module in sorted(sys.modules.items())
        if key.startswith("repro.")
        and not hasattr(module, "__path__")
        and vars(module).get(name) is value
    )


@pytest.mark.parametrize(
    "package",
    [
        "repro",
        "repro.analysis",
        "repro.analysis.concurrency",
        "repro.cloud",
        "repro.dewe",
        "repro.faults",
        "repro.monitor",
        "repro.mq",
    ],
)
def test_every_exported_name_is_its_defining_modules_object(package):
    """``from package import *`` binds, and ``package.name`` returns, the
    object its defining module holds, for every name in ``__all__``."""
    facade = importlib.import_module(package)
    namespace = {}
    exec(f"from {package} import *", namespace)
    for name in facade.__all__:
        value = namespace[name]
        assert getattr(facade, name) is value, name
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"{package}.{name}"]
        elif name != "__version__":
            assert getattr(_defining_module(value, name), name) is value, name


def test_submodule_access_through_a_package_keeps_working():
    """In a fresh interpreter, so that nothing imported the submodule
    before the package was asked for it.  The storage layer goes first:
    ``storage.disk`` imports ``cloud.instances``, whose package must
    not import ``cloud.node`` (which imports the disk) on the way."""
    assert _fresh(
        "import sys\n"
        "import repro.storage\n"
        "import repro.dewe\n"
        "assert repro.dewe.master is sys.modules['repro.dewe.master']\n"
        "assert repro.dewe.MasterDaemon is repro.dewe.master.MasterDaemon\n"
        "try:\n"
        "    repro.mq.no_such_name\n"
        "except AttributeError:\n"
        "    print('ok')\n"
    ).strip() == "ok"
