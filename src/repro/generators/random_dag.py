"""Seeded random layered DAGs for property-based testing.

Layered random DAGs exercise the engines on shapes that none of the
hand-built generators produce (irregular widths, variable fan-in), which
is how the property tests check engine invariants (every job runs exactly
once, precedence is respected) independent of workflow family.
"""

from __future__ import annotations

from typing import Optional

from repro.workflow.dag import DataFile, Workflow

__all__ = ["random_layered_workflow"]


def random_layered_workflow(
    n_jobs: int = 50,
    n_levels: int = 5,
    max_fan_in: int = 3,
    mean_runtime: float = 2.0,
    mean_file_bytes: float = 1e6,
    seed: int = 0,
    name: Optional[str] = None,
) -> Workflow:
    """Generate a random layered workflow.

    Jobs are distributed over ``n_levels`` layers; each non-root job
    depends on 1..``max_fan_in`` random jobs of the previous layer and
    consumes one output file of each chosen parent.  Runtimes and sizes
    are exponential with the given means.  Fully deterministic per seed.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    if max_fan_in < 1:
        raise ValueError(f"max_fan_in must be >= 1, got {max_fan_in}")
    import numpy as np

    n_levels = min(n_levels, n_jobs)
    rng = np.random.default_rng(seed)
    if name is None:
        name = f"random-{n_jobs}j{n_levels}l-s{seed}"
    wf = Workflow(name)

    # Split jobs over levels; every level gets at least one job.
    counts = np.ones(n_levels, dtype=int)
    extra = n_jobs - n_levels
    if extra > 0:
        bins = rng.integers(0, n_levels, size=extra)
        counts += np.bincount(bins, minlength=n_levels)

    layers = []
    job_index = 0
    for level, count in enumerate(counts):
        layer = []
        for _ in range(count):
            job_id = f"job_{job_index:05d}"
            out = DataFile(
                f"{name}/{job_id}.out",
                float(rng.exponential(mean_file_bytes)),
                "intermediate" if level < n_levels - 1 else "output",
            )
            inputs = []
            if level == 0:
                inputs.append(
                    DataFile(
                        f"{name}/{job_id}.in",
                        float(rng.exponential(mean_file_bytes)),
                        "input",
                    )
                )
            job = wf.new_job(
                job_id,
                f"type{level}",
                runtime=float(rng.exponential(mean_runtime)),
                inputs=inputs,
                outputs=[out],
            )
            layer.append(job)
            job_index += 1
        layers.append(layer)

    for level in range(1, n_levels):
        prev = layers[level - 1]
        for job in layers[level]:
            fan_in = int(rng.integers(1, max_fan_in + 1))
            parents = rng.choice(len(prev), size=min(fan_in, len(prev)), replace=False)
            for p in parents:
                parent = prev[int(p)]
                wf.add_dependency(parent.id, job.id)
                job.inputs.append(parent.outputs[0])

    return wf
