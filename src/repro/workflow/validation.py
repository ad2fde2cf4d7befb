"""Submission-time validation for workflows.

The master daemon validates a workflow at submission time (the DAG file is
parsed and stored in a data structure, paper §III.C); malformed DAGs are
rejected with a :class:`ValidationError` listing every problem found.
:func:`find_problems` is the one workflow checker: ``repro-run``, the
threaded :class:`~repro.dewe.master.MasterDaemon` and the submission
folder all refuse a workflow on what it reports:

* structure — an empty DAG, an edge to an unknown job, an edge listed on
  one side only, a duplicate edge entry, a cycle;
* data flow — a file two jobs produce, a non-input file no job produces,
  and a consumer that does not descend from its file's producer (its
  read may race the write), a job reading its own output included.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.workflow.dag import Job, Workflow

__all__ = ["ValidationError", "find_problems", "validate_workflow"]


class ValidationError(ValueError):
    """Raised when a workflow is invalid.

    ``problems`` holds one message per independent defect.  The exception
    text summarises the first few; :meth:`render` lists as many as asked.
    """

    def __init__(self, workflow_name: str, problems: List[str]):
        self.workflow_name = workflow_name
        self.problems = problems
        summary = "; ".join(problems[:5])
        if len(problems) > 5:
            summary += f"; ... ({len(problems)} problems total)"
        super().__init__(f"workflow {workflow_name!r} is invalid: {summary}")

    def render(self, verbose: bool = False, limit: int = 5) -> str:
        """One line per problem; ``verbose`` shows all, not just ``limit``."""
        shown = self.problems if verbose else self.problems[:limit]
        lines = [
            f"workflow {self.workflow_name!r} is invalid "
            f"({len(self.problems)} problem(s)):"
        ]
        lines += [f"  - {problem}" for problem in shown]
        hidden = len(self.problems) - len(shown)
        if hidden > 0:
            lines.append(f"  ... and {hidden} more (use --verbose to see all)")
        return "\n".join(lines)


def _ancestors(jobs: Dict[str, Job], job: Job) -> Set[str]:
    """Ids of every job ``job`` transitively depends on (one upward walk)."""
    seen: Set[str] = set()
    stack = list(job.parents)
    while stack:
        job_id = stack.pop()
        if job_id not in seen:
            seen.add(job_id)
            parent = jobs.get(job_id)
            if parent is not None:
                stack.extend(parent.parents)
    return seen


def find_problems(workflow: Workflow) -> List[str]:
    """Return every defect that makes the master refuse ``workflow``
    (empty when valid)."""
    jobs = workflow.jobs
    if not jobs:
        return ["workflow has no jobs"]
    problems: List[str] = []

    # Referential integrity and symmetry of the edge lists, each edge
    # looked up in a set of the other side's edges.
    parent_links = {(p, job.id) for job in jobs.values() for p in job.parents}
    child_links = {(job.id, c) for job in jobs.values() for c in job.children}
    for job in jobs.values():
        for parent_id in job.parents:
            if parent_id not in jobs:
                problems.append(f"{job.id}: unknown parent {parent_id!r}")
            elif (parent_id, job.id) not in child_links:
                problems.append(
                    f"{job.id}: parent link to {parent_id!r} is not mirrored"
                )
        for child_id in job.children:
            if child_id not in jobs:
                problems.append(f"{job.id}: unknown child {child_id!r}")
            elif (job.id, child_id) not in parent_links:
                problems.append(
                    f"{job.id}: child link to {child_id!r} is not mirrored"
                )
        if len(set(job.parents)) != len(job.parents):
            problems.append(f"{job.id}: duplicate parent entries")
        if len(set(job.children)) != len(job.children):
            problems.append(f"{job.id}: duplicate child entries")

    try:
        workflow.topological_order()
    except ValueError:
        problems.append("dependency graph contains a cycle")

    # Data flow: one producer per file, and every non-input file consumed
    # is produced by a job the consumer descends from.
    producers: Dict[str, Job] = {}
    for job in jobs.values():
        for f in job.outputs:
            prior = producers.get(f.name)
            if prior is not None and prior is not job:
                problems.append(
                    f"file {f.name!r} produced by both {prior.id} and {job.id}"
                )
            producers[f.name] = job
    for job in jobs.values():
        parents = set(job.parents)
        ancestors: Optional[Set[str]] = None
        for f in job.inputs:
            producer = producers.get(f.name)
            if producer is None:
                if f.kind != "input":
                    problems.append(
                        f"{job.id}: consumes {f.name!r} ({f.kind}) with no producer"
                    )
                continue
            if producer is job:
                problems.append(f"{job.id}: consumes its own output {f.name!r}")
                continue
            if producer.id in parents:
                continue
            if ancestors is None:
                ancestors = _ancestors(jobs, job)
            if producer.id not in ancestors:
                problems.append(
                    f"{job.id}: reads {f.name!r} produced by {producer.id} "
                    "without depending on it (the read may race the write)"
                )
    return problems


def validate_workflow(workflow: Workflow) -> Workflow:
    """Validate ``workflow``; returns it unchanged or raises ValidationError."""
    problems = find_problems(workflow)
    if problems:
        raise ValidationError(workflow.name, problems)
    return workflow
