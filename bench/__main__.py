"""``python -m bench``: run the benchmark, or compare two results.

* ``python -m bench --workload W --seed N --seconds S --trace 0|1`` —
  one workload, one mode (what the driver calls); the last line printed
  is the result object.
* ``python -m bench`` — the whole suite: every workload timed, then
  traced, then the microbenches at full length; prints every metric by
  name with its unit, checks outputs, writes a results JSON.
* ``python -m bench --smoke`` — every workload at 1.0 degree, traced, one
  repetition: a plumbing check, not a measurement.
* ``python -m bench compare A.json B.json`` — see :mod:`bench.compare`.

Every measurement runs in a fresh child process, one at a time, with the
sanitizer and race-recorder switches stripped from its environment.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from bench.common import OUT_DIR, REPRO_DIR, ROOT, child_env, load_contract

#: The driver allows 180 s per run; a child past this is killed and the
#: run reported as failed instead of hanging the driver.
CHILD_TIMEOUT_S = 170.0


def _child(module: str, argv: List[str]) -> int:
    """Run one measurement child to the end; its output is ours."""
    proc = subprocess.Popen(
        [sys.executable, "-m", module, *argv], cwd=ROOT, env=child_env()
    )
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: child exceeded {CHILD_TIMEOUT_S:.0f} s, killing it",
              file=sys.stderr)
        return 124
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _suite(args) -> int:
    contract = load_contract()
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in contract["workloads"]
    ]
    scale = "smoke" if args.smoke else args.scale
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = args.out or OUT_DIR / f"results-{scale}-seed{args.seed}-{stamp}.json"
    part = OUT_DIR / f"part-{stamp}.json"
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--scale", scale, "--out", str(part)]
    if args.smoke:
        common += ["--micro-seconds", "0.02", "--threaded-members", "1"]
    results: dict = {}
    status = 0
    for name in names:
        entry = results[name] = {}
        for key, trace in (("timed", "0"), ("traced", "1")):
            if args.smoke and key == "timed":
                continue
            code = _child(
                "bench.child", ["--workload", name, "--trace", trace, *common]
            )
            status = status or code
            if part.is_file():
                entry[key] = json.loads(part.read_text())
                part.unlink()
    doc = {
        "schema": 1, "scale": scale, "seed": args.seed, "seconds": args.seconds,
        "workloads": results,
    }
    first = next((e[k] for e in results.values() for k in e), None)
    doc["machine"] = first["machine"] if first else {}
    if not args.smoke:
        code = _child("bench.micro", ["--seconds", "1.0", "--threaded-reps", "5",
                                      "--out", str(part)])
        status = status or code
        if part.is_file():
            doc["micro"] = json.loads(part.read_text())
            part.unlink()
    out.write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(f"results written to {out}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (REPRO_DIR / "__init__.py").is_file():
        print(f"bench: no program to measure: {REPRO_DIR} is missing",
              file=sys.stderr)
        return 2
    if argv and argv[0] == "compare":
        from bench.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload (driver form)")
    parser.add_argument("--workloads", help="suite: comma-separated subset")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(load_contract()["run_seconds"]))
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--scale", choices=("driver", "issue"), default="driver",
                        help="issue: the issue's sizes (minutes per workload)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, help="suite: results file to write")
    args = parser.parse_args(argv)
    if args.workload:
        return _child("bench.child", [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--scale", args.scale,
        ])
    return _suite(args)


if __name__ == "__main__":
    sys.exit(main())
