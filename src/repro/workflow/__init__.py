"""Workflow model: DAGs of precedence-constrained jobs with data files.

This package provides the abstract workflow representation shared by the
real DEWE v2 engine (:mod:`repro.dewe`) and the cluster-simulation engines
(:mod:`repro.engines`):

* :mod:`~repro.workflow.dag` — :class:`Workflow`, :class:`Job`,
  :class:`DataFile`;
* :mod:`~repro.workflow.validation` — submission-time validation
  (acyclicity, dangling references, duplicate entries, producer/consumer
  data flow);
* :mod:`~repro.workflow.analysis` — topological levels, critical path,
  stage decomposition, summary statistics;
* :mod:`~repro.workflow.serialize` — JSON and DAX-like XML round-trips;
* :mod:`~repro.workflow.ensemble` — workflow *ensembles* (sets of
  interrelated but independent workflows, paper §I) with batch and
  incremental submission plans (paper §V.A.2).
"""

from repro.workflow.dag import DataFile, Job, Workflow, WorkflowSkeleton
from repro.workflow.ensemble import Ensemble, SubmissionPlan
from repro.workflow.validation import ValidationError, validate_workflow

__all__ = [
    "DataFile",
    "Ensemble",
    "Job",
    "SubmissionPlan",
    "ValidationError",
    "Workflow",
    "WorkflowSkeleton",
    "validate_workflow",
]
