"""LIGO inspiral-analysis workflow generator.

The LIGO inspiral pipeline (paper ref [2]) searches gravitational-wave
strain data for compact-binary coalescence signals.  Its DAG shape is a
two-round matched-filter cascade:

    TmpltBank (N)  ->  Inspiral (N)  ->  Thinca (per group)
                   ->  TrigBank (N)  ->  Inspiral2 (N) -> Thinca2 (per group)

Each analysis block processes an independent segment of strain data, and
coincidence (Thinca) jobs merge groups of blocks — a fan-out / fan-in
pattern that, unlike Montage, has *no* globally blocking stage, making it
a useful contrast workload for the submission-interval experiments.
"""

from __future__ import annotations

from typing import Optional

from repro.workflow.dag import DataFile, Workflow

__all__ = ["ligo_workflow"]

_INF = float("inf")

STRAIN_SEGMENT_BYTES = 200e6   # raw strain data per analysis block
TEMPLATE_BANK_BYTES = 5e6
TRIGGER_BYTES = 2e6
COINC_BYTES = 1e6

RUNTIME = {
    "TmpltBank": 18.0,
    "Inspiral": 45.0,
    "Thinca": 5.0,
    "TrigBank": 4.0,
    "Inspiral2": 25.0,
    "Thinca2": 5.0,
}


def ligo_workflow(
    blocks: int = 40,
    group: int = 5,
    name: Optional[str] = None,
    jitter: float = 0.0,
    seed: int = 0,
) -> Workflow:
    """Generate a LIGO-inspiral-shaped workflow.

    Parameters
    ----------
    blocks:
        Number of independent strain-data analysis blocks (DAG width).
    group:
        Blocks per coincidence (Thinca) job.
    """
    if not 1 <= blocks < _INF:
        raise ValueError(f"blocks must be finite and >= 1, got {blocks!r}")
    if group < 1:
        raise ValueError(f"group must be >= 1, got {group}")
    if not 0.0 <= jitter < _INF:
        raise ValueError(f"jitter must be finite and >= 0, got {jitter!r}")
    if name is None:
        name = f"ligo-{blocks}x{group}"
    wf = Workflow(name)
    rng = None
    if jitter > 0:
        import numpy as np

        rng = np.random.default_rng(seed)

    def runtime_of(task_type: str) -> float:
        base = RUNTIME[task_type]
        if rng is not None:
            base *= float(rng.lognormal(0.0, jitter))
        return base

    triggers1 = []
    for b in range(blocks):
        strain = DataFile(f"{name}/strain_{b:04d}.gwf", STRAIN_SEGMENT_BYTES, "input")
        bank = DataFile(f"{name}/bank_{b:04d}.xml", TEMPLATE_BANK_BYTES)
        wf.new_job(
            f"TmpltBank_{b:04d}",
            "TmpltBank",
            runtime=runtime_of("TmpltBank"),
            inputs=[strain],
            outputs=[bank],
        )
        trig = DataFile(f"{name}/trig1_{b:04d}.xml", TRIGGER_BYTES)
        triggers1.append(trig)
        wf.new_job(
            f"Inspiral_{b:04d}",
            "Inspiral",
            runtime=runtime_of("Inspiral"),
            inputs=[strain, bank],
            outputs=[trig],
        )
        wf.add_dependency(f"TmpltBank_{b:04d}", f"Inspiral_{b:04d}")

    # First-round coincidence per group of blocks.
    coincs = []
    n_groups = (blocks + group - 1) // group
    for g in range(n_groups):
        members = range(g * group, min((g + 1) * group, blocks))
        coinc = DataFile(f"{name}/coinc1_{g:04d}.xml", COINC_BYTES)
        coincs.append((g, list(members), coinc))
        wf.new_job(
            f"Thinca_{g:04d}",
            "Thinca",
            runtime=runtime_of("Thinca"),
            inputs=[triggers1[b] for b in members],
            outputs=[coinc],
        )
        for b in members:
            wf.add_dependency(f"Inspiral_{b:04d}", f"Thinca_{g:04d}")

    # Second round: template banks from coincident triggers, re-filter.
    triggers2 = {}
    for g, members, coinc in coincs:
        for b in members:
            tbank = DataFile(f"{name}/trigbank_{b:04d}.xml", TEMPLATE_BANK_BYTES)
            wf.new_job(
                f"TrigBank_{b:04d}",
                "TrigBank",
                runtime=runtime_of("TrigBank"),
                inputs=[coinc],
                outputs=[tbank],
            )
            wf.add_dependency(f"Thinca_{g:04d}", f"TrigBank_{b:04d}")
            trig2 = DataFile(f"{name}/trig2_{b:04d}.xml", TRIGGER_BYTES)
            triggers2[b] = trig2
            wf.new_job(
                f"Inspiral2_{b:04d}",
                "Inspiral2",
                runtime=runtime_of("Inspiral2"),
                inputs=[tbank],
                outputs=[trig2],
            )
            wf.add_dependency(f"TrigBank_{b:04d}", f"Inspiral2_{b:04d}")

    for g, members, _coinc in coincs:
        out = DataFile(f"{name}/coinc2_{g:04d}.xml", COINC_BYTES, "output")
        wf.new_job(
            f"Thinca2_{g:04d}",
            "Thinca2",
            runtime=runtime_of("Thinca2"),
            inputs=[triggers2[b] for b in members],
            outputs=[out],
        )
        for b in members:
            wf.add_dependency(f"Inspiral2_{b:04d}", f"Thinca2_{g:04d}")

    return wf
