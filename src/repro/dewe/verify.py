"""Output-equivalence verification (paper §V.A).

"We verify that the results obtained from DEWE v2 and Pegasus are
identical by comparing the size and MD5 check sum of the final output
images produced by job mJpeg."  The same methodology for this library:

* :func:`run_reference` — execute a workflow's actions sequentially in
  topological order (the trivially correct executor);
* :func:`outputs_digest` — size + MD5 of every declared output file;
* :func:`verify_equivalence` — compare two digest maps, reporting every
  mismatch.

Any concurrent execution (the threaded DEWE v2 daemons, arbitrary worker
counts, fault injection with at-least-once re-execution) must produce
digests identical to the reference, provided the job actions are
deterministic and idempotent — which re-executable scientific codes like
the Montage tools are.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Tuple, Union

from repro.workflow.dag import Workflow

__all__ = ["run_reference", "outputs_digest", "verify_equivalence"]

_PathLike = Union[str, Path]


def run_reference(workflow: Workflow) -> int:
    """Execute every job action sequentially in topological order.

    The ground-truth executor: no concurrency, no retries, no engine.
    Callable actions are invoked; argv-list actions run as subprocesses
    (mirroring :class:`~repro.dewe.executors.SubprocessExecutor`).
    Returns the number of actions executed.
    """
    import subprocess

    executed = 0
    for job in workflow.topological_order():
        if job.action is None:
            continue
        if callable(job.action):
            job.action()
        else:
            subprocess.run([str(a) for a in job.action], check=True)
        executed += 1
    return executed


def outputs_digest(
    workflow: Workflow, workdir: _PathLike, kind: str = "output"
) -> Dict[str, Tuple[int, str]]:
    """``{file_name: (size, md5)}`` for the workflow's ``kind`` files.

    File names are resolved relative to ``workdir`` (the workflow folder
    on the shared file system).  Missing files raise — a missing output
    is a failed run, not a mismatch.
    """
    root = Path(workdir)
    digests: Dict[str, Tuple[int, str]] = {}
    for f in workflow.skeleton().files:
        if f.kind != kind:
            continue
        path = root / f.name
        if not path.exists():
            raise FileNotFoundError(f"declared {kind} file missing: {path}")
        data = path.read_bytes()
        digests[f.name] = (len(data), hashlib.md5(data).hexdigest())
    return digests


def verify_equivalence(
    reference: Dict[str, Tuple[int, str]],
    candidate: Dict[str, Tuple[int, str]],
) -> list:
    """Compare two digest maps; returns a list of human-readable
    mismatch descriptions (empty = equivalent)."""
    problems = []
    for name in sorted(set(reference) | set(candidate)):
        ref = reference.get(name)
        cand = candidate.get(name)
        if ref is None:
            problems.append(f"{name}: extra output (not in reference)")
        elif cand is None:
            problems.append(f"{name}: missing output")
        elif ref[0] != cand[0]:
            problems.append(f"{name}: size {cand[0]} != reference {ref[0]}")
        elif ref[1] != cand[1]:
            problems.append(f"{name}: MD5 {cand[1]} != reference {ref[1]}")
    return problems
