"""Paths, the layer list, the machine block and the small statistics every
other module of the benchmark shares."""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPRO_DIR = SRC / "repro"
#: Results files and Chrome traces land here (listed in ``.gitignore``).
OUT_DIR = ROOT / ".bench_out"
CONTRACT_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Arming either of these changes what the simulator executes per event,
#: so a measurement taken with one set is a measurement of something else.
ENV_FLAGS = ("REPRO_SANITIZER", "REPRO_RACEDETECT")

#: Layers are ``repro`` module names; ``other`` is everything else
#: (threaded daemons, analysis, the benchmark's own frames).
LAYERS = (
    "sim.engine",
    "sim.resources",
    "storage",
    "mq",
    "dewe.state",
    "engines.pull",
    "engines.scheduling",
    "engines.base",
    "workflow",
    "generators",
    "cloud",
    "liveness",
    "service",
    "faults",
    "recovery",
    "monitor",
    "parallel",
    "other",
)

_FILE_LAYERS = {
    ("sim", "resources.py"): "sim.resources",
    ("dewe", "state.py"): "dewe.state",
    ("engines", "pull.py"): "engines.pull",
    ("engines", "scheduling.py"): "engines.scheduling",
    ("engines", "base.py"): "engines.base",
}
_PACKAGE_LAYERS = {
    "sim": "sim.engine",
    **{name: name for name in LAYERS if "." not in name and name != "other"},
}


def layer_of(parts: Sequence[str]) -> str:
    """Layer of a source file given its path parts below ``src/repro``."""
    if len(parts) >= 2:
        layer = _FILE_LAYERS.get((parts[0], parts[-1]))
        if layer is not None:
            return layer
        # dewe/ and engines/ files not named above are the threaded
        # daemons and the DEWE v1 engine: no workload runs them.
        if parts[0] in ("dewe", "engines"):
            return "other"
        return _PACKAGE_LAYERS.get(parts[0], "other")
    return "other"


def use_repro_source() -> None:
    """Put ``src/`` on ``sys.path``; exit non-zero when there is no program
    to measure (a directory holding only the benchmark)."""
    if not (REPRO_DIR / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure: {REPRO_DIR} is missing")
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)


def child_env() -> Dict[str, str]:
    """Environment of a measurement child: ``src`` importable, the
    sanitizer and the race recorder stripped, hash seed fixed."""
    env = {k: v for k, v in os.environ.items() if k not in ENV_FLAGS}
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def load_contract() -> dict:
    return json.loads(CONTRACT_PATH.read_text())


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_block() -> dict:
    """Written into every results file: a host-time number means nothing
    without the machine it was taken on."""
    import numpy

    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def summarize(values: List[float]) -> dict:
    """Median, min, max and n.  n is 3 to 5 per run — too few for a tail
    percentile, so none is reported."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": list(values),
    }
