"""DEWE v2 — the paper's pulling-based workflow execution system.

This package is the *real*, runnable implementation: a master daemon, a
stateless worker daemon and a workflow submission application coordinating
over the in-process broker (:mod:`repro.mq`), executing job actions as
Python callables or subprocesses on the local machine.

Architecture (paper §III):

* the **master daemon** manages workflow progress only: it parses
  submissions, publishes eligible jobs to the job-dispatching topic,
  consumes acknowledgments, and resubmits jobs whose completion ack does
  not arrive within the timeout;
* **worker daemons** are stateless: their only knowledge of the system is
  the broker address; they pull jobs first-come-first-served, run each in
  its own thread (at most one per CPU), and acknowledge running/completed;
* the **submission application** publishes workflow metadata and returns.

The cluster-scale *simulated* counterpart (same control logic, DES
resources) lives in :mod:`repro.engines.pull`; both share the DAG state
machine in :mod:`repro.dewe.state`.
"""

from repro import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.dewe.config": "DeweConfig",
    "repro.dewe.executors": "CallableExecutor NullExecutor SubprocessExecutor",
    "repro.dewe.folder": "create_workflow_folder load_workflow_folder "
                         "submit_workflow_folder",
    "repro.dewe.master": "MasterDaemon",
    "repro.dewe.state": "JobStatus WorkflowState",
    "repro.dewe.submit": "submit_workflow",
    "repro.dewe.worker": "WorkerDaemon",
})
