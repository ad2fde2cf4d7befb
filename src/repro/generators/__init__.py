"""Synthetic scientific-workflow generators.

The paper's evaluation uses Montage, and its introduction motivates LIGO
and CyberShake; all three are generated here with realistic DAG shapes and
calibrated cost models (no real FITS/seismogram data is needed because the
engines only consume job runtimes and file sizes).

* :func:`~repro.generators.montage.montage_workflow` — geometric Montage
  generator parameterised by mosaic degree; a 6.0-degree workflow matches
  the paper's §II numbers (8,586 jobs; 1,444 input files / 4.0 GB;
  ~22,850 intermediate files / ~35 GB).
* :func:`~repro.generators.ligo.ligo_workflow` — LIGO inspiral-analysis
  shaped DAG.
* :func:`~repro.generators.cybershake.cybershake_workflow` — CyberShake
  post-processing shaped DAG.
* :func:`~repro.generators.random_dag.random_layered_workflow` — seeded
  random layered DAGs for property-based tests.
"""

import math

from repro.generators.cybershake import cybershake_workflow
from repro.generators.ligo import ligo_workflow
from repro.generators.montage import MONTAGE_BLOCKING_TYPES, montage_workflow
from repro.generators.random_dag import random_layered_workflow

__all__ = [
    "MONTAGE_BLOCKING_TYPES",
    "WORKFLOW_KINDS",
    "cybershake_workflow",
    "ligo_workflow",
    "make_workflow",
    "montage_workflow",
    "random_layered_workflow",
]

WORKFLOW_KINDS = ("montage", "ligo", "cybershake")


def make_workflow(kind: str, size: float):
    """The ``kind`` workflow at ``size``: Montage degree, LIGO blocks or
    CyberShake ruptures (what every CLI's ``--workflow`` / ``--size``,
    a :class:`~repro.parallel.RunSpec` and a chaos scenario mean).  A
    size that is not finite and positive, or not whole for LIGO and
    CyberShake, is refused before anything is built."""
    if kind not in WORKFLOW_KINDS:
        raise ValueError(f"unknown workflow kind {kind!r}")
    if not (0 < size < math.inf) or (kind != "montage" and size != int(size)):
        whole = "" if kind == "montage" else "whole "
        raise ValueError(
            f"{kind} size must be a finite {whole}number > 0, got {size!r}"
        )
    if kind == "montage":
        return montage_workflow(degree=size)
    if kind == "ligo":
        return ligo_workflow(blocks=int(size))
    return cybershake_workflow(ruptures=int(size))
