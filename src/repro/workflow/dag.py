"""Core workflow data structures.

A :class:`Workflow` is a DAG of :class:`Job` vertices; edges are precedence
constraints (paper Fig 1).  Jobs carry a cost model (CPU seconds, input and
output :class:`DataFile` objects) used by the cluster simulator, and an
optional ``action`` callable used by the real threaded engine.

Ensembles of hundreds of workflows hold millions of job/file objects
(200 x 6.0-degree Montage = 1,717,200 jobs, paper §V.B), so both classes
use ``__slots__`` and plain lists to keep per-object overhead small.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["DataFile", "Job", "SkeletonArena", "Workflow", "WorkflowSkeleton"]

_INF = float("inf")


class DataFile:
    """A logical file flowing between jobs via the shared file system.

    ``kind`` is one of ``"input"`` (staged in before execution),
    ``"intermediate"`` (produced and consumed within the workflow) or
    ``"output"`` (a final product, e.g. the mosaic JPEG).
    """

    __slots__ = ("name", "size", "kind")

    def __init__(self, name: str, size: float, kind: str = "intermediate"):
        if not 0.0 <= size < _INF:
            raise ValueError(f"file size must be finite and >= 0, got {size}")
        if kind not in ("input", "intermediate", "output"):
            raise ValueError(f"unknown file kind: {kind!r}")
        self.name = name
        self.size = float(size)
        self.kind = kind

    def __repr__(self) -> str:
        return f"DataFile({self.name!r}, {self.size:.0f}B, {self.kind})"


class Job:
    """One vertex of the workflow DAG.

    Attributes
    ----------
    id:
        Unique within the workflow (e.g. ``"mDiffFit_000123"``).
    task_type:
        The transformation name (e.g. ``"mProjectPP"``); many scientific
        workflows consist of a large number of nearly identical tasks of a
        few types — the homogeneity DEWE v2 exploits (paper §I).
    runtime:
        CPU seconds on one reference core.
    threads:
        How many cores the job can exploit (``1`` for ordinary jobs; the
        blocking jobs may be parallel implementations, paper §III.D).
    inputs / outputs:
        :class:`DataFile` lists; drive the simulator's I/O model.
    timeout:
        Per-job timeout override for the master daemon's resubmission
        mechanism (``None`` uses the system-wide default, paper §III.B).
    max_attempts:
        Per-job delivery-budget override for the retry machinery
        (``None`` uses the run's :class:`~repro.faults.retry.RetryPolicy`
        budget; ``0`` means unlimited).
    action:
        Optional callable executed by the real threaded engine.
    """

    __slots__ = (
        "id",
        "task_type",
        "runtime",
        "threads",
        "inputs",
        "outputs",
        "parents",
        "children",
        "timeout",
        "max_attempts",
        "action",
    )

    def __init__(
        self,
        id: str,
        task_type: str,
        runtime: float = 0.0,
        threads: int = 1,
        inputs: Optional[Iterable[DataFile]] = None,
        outputs: Optional[Iterable[DataFile]] = None,
        timeout: Optional[float] = None,
        max_attempts: Optional[int] = None,
        action: Optional[Callable[..., Any]] = None,
    ):
        if not 0.0 <= runtime < _INF:
            raise ValueError(f"job runtime must be finite and >= 0, got {runtime}")
        if threads < 1:
            raise ValueError(f"job threads must be >= 1, got {threads}")
        if timeout is not None and not 0.0 < timeout < _INF:
            raise ValueError(f"job timeout must be finite and > 0, got {timeout}")
        if max_attempts is not None and max_attempts < 0:
            raise ValueError(f"job max_attempts must be >= 0, got {max_attempts}")
        self.id = id
        self.task_type = task_type
        self.runtime = float(runtime)
        self.threads = int(threads)
        self.inputs: List[DataFile] = list(inputs) if inputs else []
        self.outputs: List[DataFile] = list(outputs) if outputs else []
        self.parents: List[str] = []
        self.children: List[str] = []
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.action = action

    def __repr__(self) -> str:
        return f"Job({self.id!r}, {self.task_type}, {self.runtime:.2f}s)"


class SkeletonArena:
    """Integer-indexed views of a skeleton for arena-backed run state.

    Job ids are interned into dense indices (jobs-table insertion order,
    which is also the ``initial_pending`` iteration order every dict-era
    consumer observed), and the structural facts the state machine needs
    per job — dependency counts, child lists, timeout and attempt-budget
    overrides — become flat C arrays / tuples of ints.  Like the skeleton
    itself this is immutable, built once, and shared by every relabelled
    ensemble member; per-member *mutable* arrays are copied out of it by
    :class:`~repro.dewe.state.WorkflowState`.
    """

    __slots__ = (
        "n", "job_ids", "index_of", "children", "initial_pending",
        "root_indices", "timeouts", "max_attempts",
    )

    def __init__(self, skeleton: "WorkflowSkeleton"):
        jobs = skeleton.jobs
        job_ids = tuple(jobs)
        index_of = {job_id: i for i, job_id in enumerate(job_ids)}
        self.n = len(job_ids)
        self.job_ids = job_ids
        self.index_of = index_of
        self.children: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(index_of[c] for c in job.children) for job in jobs.values()
        )
        self.initial_pending = array(
            "i", (len(job.parents) for job in jobs.values())
        )
        self.root_indices: Tuple[int, ...] = tuple(
            index_of[r] for r in skeleton.roots
        )
        #: Per-job timeout override; <= 0 means "use the run default"
        #: (mirrors the ``job.timeout or default`` truthiness rule).
        self.timeouts = array(
            "d", (job.timeout if job.timeout else -1.0 for job in jobs.values())
        )
        #: Per-job attempt-budget override; -1 means "no override, use the
        #: retry policy" (``None`` in the Job object), 0 means unlimited.
        self.max_attempts = array(
            "i",
            (
                -1 if job.max_attempts is None else job.max_attempts
                for job in jobs.values()
            ),
        )


class WorkflowSkeleton:
    """Derived views of a workflow's immutable structure, built once.

    Everything here is a pure function of the (append-only) jobs table:
    initial dependency counts, root job ids and the file namespace — one
    map from file name to a dense slot, beside the :class:`DataFile`
    objects in slot order.  Ensemble members created with
    :meth:`Workflow.relabel` share the jobs table — and therefore share
    one skeleton — so a 200-member ensemble pays for these scans once
    instead of 200 times.  Per-member *mutable* run state (pending
    counts, statuses) is copied out of the skeleton by each
    :class:`~repro.dewe.state.WorkflowState`; the skeleton itself must
    never be mutated (the sanitizer's ``cow-isolation`` check enforces
    this).
    """

    __slots__ = (
        "jobs", "initial_pending", "roots", "files", "_file_index",
        "_producer_of", "_cp", "_arena",
    )

    def __init__(self, jobs: Dict[str, Job]):
        self.jobs = jobs
        initial_pending: Dict[str, int] = {}
        roots: List[str] = []
        file_index: Dict[str, int] = {}
        files: List[DataFile] = []
        for job in jobs.values():
            n = len(job.parents)
            initial_pending[job.id] = n
            if n == 0:
                roots.append(job.id)
            for f in job.inputs:
                if f.name not in file_index:
                    file_index[f.name] = len(files)
                    files.append(f)
            for f in job.outputs:
                if f.name not in file_index:
                    file_index[f.name] = len(files)
                    files.append(f)
        self.initial_pending = initial_pending
        self.roots: Tuple[str, ...] = tuple(roots)
        #: Every distinct file, first-seen (jobs-table) order: slot ``i``
        #: of ``file_index()`` names ``files[i]``.
        self.files: Tuple[DataFile, ...] = tuple(files)
        self._file_index = file_index
        #: Lazy file→producer map; only data-corruption recovery reads
        #: it, so a run without corruption never builds it.
        self._producer_of: Optional[Dict[str, str]] = None
        #: Lazy critical-path cache (a pure function of the structure,
        #: like everything else here — shared by every ensemble member).
        self._cp: Optional[Dict[str, float]] = None
        #: Lazy arena index (int job indices + flat structural arrays),
        #: likewise shared by every ensemble member.
        self._arena: Optional[SkeletonArena] = None

    def file_index(self) -> Dict[str, int]:
        """``file name -> dense index``, the slot of that file in ``files``.

        Shared by every relabelled member; each member's per-file run
        state (the shared file system's page-cache touch row) is a flat
        array indexed by it.  Never mutated.
        """
        return self._file_index

    def producer_of(self) -> Dict[str, str]:
        """``file name -> id of the job that writes it`` (cached; shared
        by relabels).  Raw inputs have no entry."""
        producers = self._producer_of
        if producers is None:
            producers = self._producer_of = {
                f.name: job.id for job in self.jobs.values() for f in job.outputs
            }
        return producers

    def arena(self) -> SkeletonArena:
        """The interned integer-index arena (cached; shared by relabels)."""
        arena = self._arena
        if arena is None:
            arena = self._arena = SkeletonArena(self)
        return arena

    def critical_path(self) -> Dict[str, float]:
        """``job id -> critical-path seconds`` remaining at that job.

        ``cp[j] = runtime(j) + max(cp over children)`` — the longest
        runtime-weighted chain from ``j`` to any sink, ``j`` included.
        Built lazily (one reverse-topological sweep) and cached on the
        shared skeleton, so only priority-aware runs pay for it, once
        per ensemble rather than once per member.
        """
        cp = self._cp
        if cp is None:
            jobs = self.jobs
            indegree = dict(self.initial_pending)
            order = list(self.roots)
            head = 0
            while head < len(order):
                job = jobs[order[head]]
                head += 1
                for child_id in job.children:
                    indegree[child_id] -= 1
                    if indegree[child_id] == 0:
                        order.append(child_id)
            cp = {}
            for job_id in reversed(order):
                job = jobs[job_id]
                best = 0.0
                for child_id in job.children:
                    child_cp = cp[child_id]
                    if child_cp > best:
                        best = child_cp
                cp[job_id] = job.runtime + best
            self._cp = cp
        return cp

    def critical_path_total(self) -> float:
        """The workflow's critical-path length (max over its roots)."""
        cp = self.critical_path()
        return max((cp[root] for root in self.roots), default=0.0)


class Workflow:
    """A named DAG of jobs.

    The structure is append-only: jobs are added, then dependencies.  The
    engines never mutate a workflow; per-run state (pending counts, job
    status) lives in the engine's own bookkeeping so the same workflow
    object can appear in several ensemble submissions.
    """

    def __init__(self, name: str):
        self.name = name
        self.jobs: Dict[str, Job] = {}
        # One-element cell shared across relabel() clones, so a skeleton
        # built through any member is visible to all of them (and an
        # add_job/add_dependency through any member invalidates it).
        self._skeleton_cell: List[Optional[WorkflowSkeleton]] = [None]

    # -- construction ----------------------------------------------------
    def add_job(self, job: Job) -> Job:
        if job.id in self.jobs:
            raise ValueError(f"duplicate job id: {job.id!r}")
        self.jobs[job.id] = job
        self._skeleton_cell[0] = None
        return job

    def new_job(self, id: str, task_type: str, **kwargs: Any) -> Job:
        """Create and add a job in one step."""
        return self.add_job(Job(id, task_type, **kwargs))

    def add_dependency(self, parent_id: str, child_id: str) -> None:
        """Declare that ``child`` cannot start before ``parent`` completes."""
        if parent_id == child_id:
            raise ValueError(f"self-dependency on {parent_id!r}")
        parent = self.jobs.get(parent_id)
        child = self.jobs.get(child_id)
        if parent is None:
            raise KeyError(f"unknown parent job: {parent_id!r}")
        if child is None:
            raise KeyError(f"unknown child job: {child_id!r}")
        # Duplicate check against the shorter endpoint list: high-fanout
        # vertices (mConcatFit collects 5,692 fits) would otherwise make
        # DAG construction quadratic in the fan-in.
        if len(parent.children) <= len(child.parents):
            if child_id in parent.children:
                return
        elif parent_id in child.parents:
            return
        # Store the ids that key ``jobs``, not the (often freshly
        # formatted) argument strings: one object per name.
        parent.children.append(child.id)
        child.parents.append(parent.id)
        self._skeleton_cell[0] = None

    def skeleton(self) -> WorkflowSkeleton:
        """The interned structural views (cached; shared by relabels)."""
        sk = self._skeleton_cell[0]
        if sk is None or sk.jobs is not self.jobs:
            sk = WorkflowSkeleton(self.jobs)
            self._skeleton_cell[0] = sk
        return sk

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs.values())

    def job(self, job_id: str) -> Job:
        return self.jobs[job_id]

    def topological_order(self) -> List[Job]:
        """Kahn's algorithm; raises ``ValueError`` on cycles."""
        indegree = {job.id: len(job.parents) for job in self.jobs.values()}
        frontier = [job_id for job_id, deg in indegree.items() if deg == 0]
        order: List[Job] = []
        jobs = self.jobs
        head = 0
        while head < len(frontier):
            job_id = frontier[head]
            head += 1
            job = jobs[job_id]
            order.append(job)
            for child_id in job.children:
                indegree[child_id] -= 1
                if indegree[child_id] == 0:
                    frontier.append(child_id)
        if len(order) != len(jobs):
            raise ValueError(f"workflow {self.name!r} contains a cycle")
        return order

    def relabel(self, new_name: str) -> "Workflow":
        """A cheap structural copy under a new name (for ensemble members).

        Job and file objects are shared (they are immutable during runs);
        only the workflow identity changes.
        """
        clone = Workflow(new_name)
        clone.jobs = self.jobs
        clone._skeleton_cell = self._skeleton_cell
        return clone

    def __repr__(self) -> str:
        return f"Workflow({self.name!r}, jobs={len(self.jobs)})"
