#!/usr/bin/env bash
# Smoke run, the benchmark's own tests, and an A/A compare of two smoke
# runs on the deterministic values (smoke runs are too short for
# host-time verdicts).  For a later PR to wire into .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_out/check
mkdir -p "$out"
python3 -m bench --smoke --out "$out/a.json"
python3 -m bench --smoke --out "$out/b.json"
python3 -m bench compare "$out/a.json" "$out/b.json" --exact-only
python3 -m pytest bench/tests -q
