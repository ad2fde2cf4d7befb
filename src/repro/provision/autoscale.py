"""Dynamic resource provisioning policies (paper §V.A.3).

"DEWE v2's capability of resuming workflow execution after interruption
of the worker daemon opens the door for dynamic resource provisioning...
When there are a large number of non-blocking jobs in the queue, more
worker nodes can be added to the cluster to speed up the execution.  When
there are a limited number of blocking jobs in the queue, some worker
nodes can be removed from the cluster to reduce cost.  Such dynamic
resource provisioning strategy might not be effective for public clouds
with a charge-by-hour model (such as AWS), but can be useful for public
clouds with a charge-by-minute model (such as Google Compute Engine)."

The paper could not evaluate this on AWS; this module implements it over
the simulator.  :func:`queue_depth_autoscaler` is the straightforward
policy from the quote: scale out while the dispatch queue is deep, scale
in while it is (nearly) empty — which is exactly the blocking stages.
The ablation benchmark ``test_ablation_elastic.py`` shows the predicted
billing-model interaction: per-minute billing rewards elasticity, the
2015 hourly model does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

__all__ = ["queue_depth_autoscaler"]


def queue_depth_autoscaler(
    min_nodes: int = 1,
    check_interval: float = 15.0,
    scale_out_depth: float = 32.0,
    scale_in_depth: float = 1.0,
    boot_delay: float = 45.0,
) -> "_QueueDepthAutoscaler":
    """Build an autoscaler for :class:`~repro.engines.pull.PullEngine`.

    Parameters
    ----------
    min_nodes:
        Never drop below this many active worker daemons (node 0 also
        hosts the master in the paper's deployments).  Nodes
        ``min_nodes`` and up are provisioned but not leased at t=0.
    check_interval:
        Controller tick, seconds.
    scale_out_depth:
        Queue depth per *idle provisioned* node that triggers a start —
        one node's worth of slots waiting is the natural unit.
    scale_in_depth:
        Queue depth at or below which a node is released.
    boot_delay:
        Seconds between the start decision and the worker daemon joining
        (instance boot + cloud-init, as in the paper's MooseFS setup).

    Returns a controller for ``PullEngine(controllers=[...])``.
    """
    if min_nodes < 1:
        raise ValueError(f"min_nodes must be >= 1, got {min_nodes}")
    if check_interval <= 0:
        raise ValueError(f"check_interval must be positive, got {check_interval}")
    if boot_delay < 0:
        raise ValueError(f"boot_delay must be >= 0, got {boot_delay}")
    return _QueueDepthAutoscaler(
        min_nodes, check_interval, scale_out_depth, scale_in_depth, boot_delay
    )


@dataclass(frozen=True)
class _QueueDepthAutoscaler:
    min_nodes: int
    check_interval: float
    scale_out_depth: float
    scale_in_depth: float
    boot_delay: float

    def install(self, run) -> None:
        run.initially_down.update(range(self.min_nodes, run.n_nodes))
        run.spawn(self._control(run))

    def _control(self, run) -> Generator:
        """The controller process: it reacts to queue state — exactly the
        information a real controller could read off the broker's
        management interface."""
        sim = run.sim
        booting: set = set()

        def join(node_index: int) -> None:
            booting.discard(node_index)
            run.start_worker(node_index)

        while not run.finished:
            yield sim.timeout(self.check_interval)
            if run.finished:
                return
            depth = run.queue_depth()
            active = set(run.active_nodes())
            idle_pool = [
                i for i in range(run.n_nodes) if i not in active and i not in booting
            ]
            if depth >= self.scale_out_depth and idle_pool:
                node_index = idle_pool[0]
                booting.add(node_index)
                sim.schedule_call(self.boot_delay, join, node_index)
            elif depth <= self.scale_in_depth and len(active) > self.min_nodes:
                # Release the highest-numbered node (node 0 stays for the
                # master); graceful, so in-flight jobs finish first.
                victim = max(active)
                if victim >= self.min_nodes:
                    run.stop_worker(victim)
