"""Tests of the benchmark itself; run with ``python -m pytest bench/tests -q``.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only): these
run simulations without the sanitizer, as the benchmark does.
"""

from bench.common import use_repro_source

use_repro_source()
