"""``python -m bench compare A.json [A2.json ...] --vs B.json [B2.json ...]``

One row per (workload, end-to-end metric) with each side's median and
quartiles and a verdict by the bounds fixed in ``BENCHMARK.json``:

* ``same`` — the medians differ by no more than the bound;
* ``better`` / ``worse`` — B's median differs from A's by more than the
  bound, in that direction;
* ``unresolved`` — a side's own spread (distance between its quartiles
  over its median) exceeds the bound, so the run cannot tell, unless
  every value of one side beats every value of the other.

Simulated statistics, fingerprints and per-layer counts are
deterministic and compare exactly: any difference is a verdict, never
noise.  Several files per side pool their repetitions, so a claim can
rest on ten alternating pairs.  Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from bench.common import load_contract, quartiles

__all__ = ["main", "compare", "verdict"]

#: ``setup_s`` is milliseconds on some workloads: a relative bound alone
#: would call scheduler jitter a regression.
SETUP_FLOOR_S = 0.020

#: Per-layer units whose values are integers (or ratios of integers)
#: fixed by the simulation, not by the host.
EXACT_UNITS = ("1/job", "count", "files/read", "sim_s", "wf/sim_s")
EXACT_NAMES = (
    "sim_node_load_cv", "sim_p99_slowdown_gold", "failed_share",
    "liveness.shed_share",
)


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float,
    floor: float = 0.0,
) -> str:
    """Verdict for B against A on one noisy metric (see module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    a1, a2, a3 = quartiles(a)
    b1, b2, b3 = quartiles(b)
    gain = sign * (b2 - a2)  # positive when B reads better
    separated = (
        min(b) > max(a) or max(b) < min(a)
        if len(a) > 1 and len(b) > 1
        else False
    )
    spread = max((a3 - a1) / abs(a2), (b3 - b1) / abs(b2))
    if spread > bound and not separated and abs(b2 - a2) > floor:
        return "unresolved"
    if abs(b2 - a2) <= max(bound * abs(a2), floor):
        return "same"
    return "better" if gain > 0 else "worse"


def _pool(files: List[dict], workload: str, metric: str) -> List[float]:
    values: List[float] = []
    for doc in files:
        row = doc["workloads"].get(workload, {}).get("timed", {})
        values.extend(row.get("end_to_end", {}).get(metric, {}).get("values", []))
    return values


def _exact_values(doc: dict, workload: str, exact_layer: Sequence[str]) -> Dict:
    entry = doc["workloads"].get(workload, {})
    out = dict(entry.get("timed", {}).get("exact", {}))
    layer = entry.get("traced", {}).get("per_layer", {})
    out.update({name: repr(layer[name]) for name in exact_layer if name in layer})
    return out


def compare(
    side_a: List[dict], side_b: List[dict], exact_only: bool = False
) -> Tuple[List[dict], int]:
    """Rows of the comparison and the number of identical exact values."""
    contract = load_contract()
    exact_layer = [
        row["name"]
        for row in contract["per_layer"]
        if row["unit"] in EXACT_UNITS or row["name"] in EXACT_NAMES
    ]
    directions = {row["name"]: row["better"] for row in contract["per_layer"]}
    rows: List[dict] = []
    identical = 0
    for spec in contract["workloads"]:
        workload = spec["name"]
        for metric in () if exact_only else contract["end_to_end"]:
            a = _pool(side_a, workload, metric["name"])
            b = _pool(side_b, workload, metric["name"])
            if not a or not b:
                continue
            rows.append({
                "workload": workload, "metric": metric["name"],
                "a": quartiles(a), "b": quartiles(b),
                "verdict": verdict(
                    a, b, metric["better"], metric["bound"],
                    SETUP_FLOOR_S if metric["name"] == "setup_s" else 0.0,
                ),
            })
        # Exact values: every file of a side must agree with the others,
        # and the sides with each other.
        seen_a = [_exact_values(doc, workload, exact_layer) for doc in side_a]
        seen_b = [_exact_values(doc, workload, exact_layer) for doc in side_b]
        for name in sorted(set().union(*seen_a, *seen_b)):
            values_a = {d.get(name) for d in seen_a if name in d}
            values_b = {d.get(name) for d in seen_b if name in d}
            if len(values_a) == 1 and values_a == values_b:
                identical += 1
                continue
            rows.append({
                "workload": workload, "metric": name,
                "a": sorted(map(str, values_a)), "b": sorted(map(str, values_b)),
                "verdict": _exact_verdict(values_a, values_b, directions.get(name)),
            })
    return rows, identical


def _exact_verdict(values_a: set, values_b: set, better: Optional[str]) -> str:
    """A changed exact value is never ``same``; it is ``better`` only for a
    numeric metric with a declared direction that moved that way."""
    if len(values_a) != 1 or len(values_b) != 1 or better is None:
        return "worse"
    try:
        a, b = float(next(iter(values_a))), float(next(iter(values_b)))
    except (TypeError, ValueError):
        return "worse"
    return "better" if (b > a) == (better == "higher") else "worse"


def _fmt(q) -> str:
    if isinstance(q, tuple):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    return ", ".join(s[:16] for s in q) or "-"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("a", nargs="+", type=Path, help="results files of side A")
    parser.add_argument("--vs", nargs="+", type=Path, default=None,
                        help="results files of side B")
    parser.add_argument("--exact-only", action="store_true",
                        help="compare only the deterministic values "
                        "(smoke runs are too short for host-time verdicts)")
    args = parser.parse_args(argv)
    if args.vs is None:
        if len(args.a) != 2:
            parser.error("give exactly two files, or use --vs for several per side")
        files_a, files_b = [args.a[0]], [args.a[1]]
    else:
        files_a, files_b = args.a, args.vs
    side_a = [json.loads(p.read_text()) for p in files_a]
    side_b = [json.loads(p.read_text()) for p in files_b]
    machines = {json.dumps(d["machine"], sort_keys=True) for d in side_a + side_b}
    if len(machines) > 1:
        print("WARNING: results come from different machines; host-time "
              "verdicts compare the machines, not the commits")
    rows, identical = compare(side_a, side_b, args.exact_only)
    print(f"{'workload':<18} {'metric':<28} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} verdict")
    for row in rows:
        print(f"{row['workload']:<18} {row['metric']:<28} {_fmt(row['a']):<36} "
              f"{_fmt(row['b']):<36} {row['verdict']}")
    print(f"{identical} exact values (simulated statistics, fingerprints, "
          "per-layer counts) identical on both sides")
    tally = {v: sum(r["verdict"] == v for r in rows)
             for v in ("better", "same", "worse", "unresolved")}
    print(" ".join(f"{k}={v}" for k, v in tally.items()))
    return 1 if tally["worse"] else 0
