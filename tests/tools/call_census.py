"""Call census: which functions under ``src/repro`` does real traffic enter?

The traffic, each item in a fresh child process: the six bench workloads at
their default scale, ``bench.micro``, one traced bench run, the console scripts
over every engine, workflow kind, filesystem and chaos scenario (plus soak,
plan, profile and lint), ``pytest benchmarks --benchmark-disable`` on a copy
(pytest-benchmark unhooks the profiler while it times) and the examples.  A
``sitecustomize`` on ``PYTHONPATH``, armed by ``CALL_CENSUS_DIR``, hooks
``sys.setprofile`` / ``threading.setprofile`` in every process.  Prints every
function nothing entered as ``file:line qualname``, skipping modules in
``KEPT_UNREACHED``, and exits 1 if one is not a key of ``KEPT_UNCALLED``
(``tests/test_master_structure.py``).  Stdlib only, ~12 minutes on two cores:
``python tests/tools/call_census.py``
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
ENV = "CALL_CENSUS_DIR"
CLI = "import sys; from repro.cli import main_{} as m; sys.exit(m())"
WORKLOADS = ("single_node", "fig10_slice", "wide_cluster", "pegasus_baseline",
             "service_overload", "crash_recovery")
SCENARIOS = ("asynch-repriority", "data-loss", "game-day", "lossy-mq", "master-crash",
             "overload", "partition", "poison", "smoke", "spot", "stragglers")


def traffic(tmp):
    """``(expected exit code, argv after the interpreter)`` of every item."""
    def cli(main, *args, code=0):
        return code, ["-c", CLI.format(main), *args]
    small, bench = ("--size", "0.5"), ["-m", "bench", "--seed", "0", "--seconds", "0"]
    return [cli("run", *small, "--engine", e) for e in ("dewe-v1", "dewe-v2", "pegasus")] + [
        cli("run", *small, "--nodes", "2", "--filesystem", fs)
        for fs in ("nfs-central", "nfs-nton", "moosefs")] + [
        cli("run", "--workflow", "ligo", "--size", "2"), cli("run", "--workflow", "cybershake"),
        cli("run", *small, "--filesystem", "local", "--profile"),
        cli("run", *small, "--workflows", "3", "--interval", "30", "--export-dir", tmp),
        cli("run", "--engine", "pegasus", *small, "--nodes", "2",
            "--instance-type", "r3.8xlarge", "--filesystem", "moosefs"),
        cli("run", "--size", "nan", code=2),
        (0, ["-c", "import os; os.environ['REPRO_SANITIZER'] = '1'; " + CLI.format("run")]),
        cli("plan"), cli("plan", "--index", "1.5", "--workflows", "50"),
        cli("profile", "--degree", "0.5", "--workflows", "2", "--max-nodes", "3"),
        cli("lint", "src/repro"), cli("lint"), cli("chaos", "--list"),
        cli("chaos", "--game-day", "--seed", "1", "--trace"),
        cli("chaos", "--scenario", "smoke", "--crash-at", "30", "--check-determinism"),
        cli("chaos", "--scenario", "master-crash", "--journal", f"{tmp}/j.jsonl"),
        cli("chaos", "--scenario", "all", "--journal", "x", code=2),
        cli("service", "--quick", "--check-determinism"),
        cli("service", "--quick", "--seed", "1", "--json", f"{tmp}/soak.json"),
        cli("service", "--quick", "--horizon", "120", "--load", "1.5", "--nodes", "2"),
        (0, [*bench, "--workload", "single_node", "--trace", "1"]),
        (0, ["-m", "bench.micro", "--seconds", "0.05", "--threaded-reps", "1"]),
        (0, ["-m", "pytest", "-q", f"{tmp}/benchmarks", "--benchmark-disable"]),
    ] + [cli("chaos", "--scenario", name) for name in SCENARIOS] + [
        (0, [*bench, "--workload", w, "--trace", "0"]) for w in WORKLOADS] + [
        (0, [str(p)]) for p in sorted((ROOT / "examples").glob("*.py"))]


def install(out_dir):
    """Note each ``src/repro`` code object entered (a fork writes its own file)."""
    seen, prefix, lock = set(), str(SRC) + os.sep, threading.Lock()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code not in seen:
            seen.add(code)
            if code.co_filename.startswith(prefix):
                rel = code.co_filename[len(prefix):].replace(os.sep, "/")
                with lock, open(os.path.join(out_dir, f"{os.getpid()}.txt"), "a") as sink:
                    sink.write(f"{rel}\t{code.co_firstlineno}\t{code.co_name}\n")

    sys.setprofile(hook)
    threading.setprofile(hook)


def defined():
    """``{(path under src/repro, first line, name): qualname}`` of every ``def``."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[path, line, child.name] = prefix + child.name
            inner = {ast.ClassDef: ".", ast.FunctionDef: ".<locals>.",
                     ast.AsyncFunctionDef: ".<locals>."}.get(type(child))
            walk(child, path, f"{prefix}{child.name}{inner}" if inner else prefix)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text()), path.relative_to(SRC).as_posix(), "")
    return found


def ledger(name):
    """The keys of a dict of ``tests/test_master_structure.py``, by name."""
    tree = ast.parse((ROOT / "tests" / "test_master_structure.py").read_text())
    return next({key.value for key in node.value.keys} for node in tree.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == name)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir(), out.mkdir()
        shutil.copytree(ROOT / "benchmarks", Path(tmp, "benchmarks"))  # it writes results/
        (site / "sitecustomize.py").write_text(
            f"import os, sys\nif os.environ.get({ENV!r}):\n"
            f"    sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            f"    import call_census\n    call_census.install(os.environ[{ENV!r}])\n")
        env = dict(os.environ, **{ENV: str(out), "PYTHONPATH": f"{site}{os.pathsep}{ROOT}/src"})
        env.pop("REPRO_SANITIZER", None), env.pop("REPRO_RACEDETECT", None)

        def one(item):
            code, argv = item
            done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=1800)
            return None if done.returncode == code else f"exit {done.returncode}: {argv}"

        with ThreadPoolExecutor(2) as pool:
            broken = [b for b in pool.map(one, traffic(tmp)) if b]
        entered = {(f, int(n), c) for part in out.iterdir()
                   for f, n, c in (row.split("\t") for row in part.read_text().splitlines())}
    if broken:
        print("traffic failed:", *broken, sep="\n  ", file=sys.stderr)
        return 2
    found, kept, whole = defined(), ledger("KEPT_UNCALLED"), ledger("KEPT_UNREACHED")
    uncalled = [(rel, line, found[rel, line, name]) for rel, line, name in sorted(found)
                if (rel, line, name) not in entered
                and "repro." + rel[:-3].replace("/", ".") not in whole]
    stray = [key for key in (f"{r}:{q}" for r, _, q in uncalled) if key not in kept]
    for rel, line, qualname in uncalled:
        mark = "  NOT KEPT" if f"{rel}:{qualname}" in stray else ""
        print(f"src/repro/{rel}:{line} {qualname}{mark}")
    print(f"{len(uncalled)} of {len(found)} functions uncalled (modules kept "
          f"unreached skipped), {len(stray)} not in KEPT_UNCALLED")
    return 1 if stray else 0


if __name__ == "__main__":
    sys.exit(main())
