"""The console scripts `pyproject.toml` declares exist, and the docs do
not cite a harness the repository no longer has."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "repro-run", "repro-plan", "repro-profile", "repro-lint", "repro-chaos",
    "repro-service", "repro-worker",
}

#: Names of the retired benchmark harness (``python3 -m bench`` is the
#: one benchmark), of the two retired ``Simulator`` options (one agenda)
#: and of the retired schedule explorer (the race detector checks the
#: daemons themselves).  CHANGES.md, ROADMAP.md and bench/README.md keep
#: them as history and are not scanned.
RETIRED = (
    "repro-bench", "BENCH_kernel", "BENCH_service", "fig10_scale",
    "parallel.bench", "service.bench", "wheel_slots", "wheel_granularity",
    "repro-schedules", "ScheduleContext", "shrink_schedule",
)


def test_every_console_script_resolves_to_a_callable():
    tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert set(scripts) == SCRIPTS
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_no_document_or_source_names_the_retired_harness():
    files = [ROOT / "README.md", ROOT / "pyproject.toml"]
    for sub in ("docs", "src", ".github"):
        files += [p for p in sorted((ROOT / sub).rglob("*")) if p.is_file()]
    hits = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in files
        if path.suffix != ".pyc"
        for name in RETIRED
        if name in path.read_text(encoding="utf-8", errors="replace")
    ]
    assert hits == []
