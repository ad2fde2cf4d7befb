"""Worker-daemon fault schedules.

The paper's robustness tests (§V.A.3) kill the worker daemon mid-run and
start it again 5 seconds later — either on the same node, or on the other
node of a two-node cluster.  A :class:`FaultSchedule` expresses such
scripts as timed kill/restart actions against node indices; it is a
controller (``PullEngine(controllers=[schedule])``) that installs them
against the run.

Expected behaviour (asserted by the robustness benchmark):

* interruptions during **non-blocking** jobs add roughly the interruption
  duration to the makespan (execution resumes as soon as a worker is
  back, without waiting for timeouts);
* interruptions during **blocking** jobs add roughly the interrupted
  job's timeout (nothing else is eligible, so the master must wait for
  the timeout to resubmit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.faults.models import check_node

__all__ = ["FaultAction", "FaultSchedule", "kill_restart_cycle"]


@dataclass(frozen=True)
class FaultAction:
    """One timed action: kill or (re)start the worker daemon of a node."""

    time: float
    node: int
    action: str  # "kill" | "restart"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"action time must be >= 0, got {self.time}")
        if self.node < 0:
            raise ValueError(f"node index must be >= 0, got {self.node}")
        if self.action not in ("kill", "restart"):
            raise ValueError(f"unknown action {self.action!r}")


class FaultSchedule:
    """An ordered script of :class:`FaultAction`.

    ``initially_down`` lists nodes whose worker daemon is *not* started at
    t=0 (the two-node test runs only one worker daemon at a time).
    """

    def __init__(
        self,
        actions: Sequence[FaultAction],
        initially_down: Sequence[int] = (),
    ):
        self.actions: List[FaultAction] = sorted(actions, key=lambda a: a.time)
        self.initially_down = tuple(initially_down)

    def install(self, run) -> None:
        """Schedule every action against ``run`` and hold the
        ``initially_down`` nodes' daemons back at t=0."""
        for node in [a.node for a in self.actions] + list(self.initially_down):
            check_node(run, node, "fault schedule")
        run.initially_down.update(self.initially_down)
        for action in self.actions:
            run.sim.schedule_call(action.time, self._apply, run, action)

    def _apply(self, run, action: FaultAction) -> None:
        run.trace.record(run.sim.now, action.action, action.node)
        if action.action == "kill":
            run.kill_worker(action.node)
        else:
            run.start_worker(action.node)

    def __len__(self) -> int:
        return len(self.actions)


def kill_restart_cycle(
    kill_times: Sequence[float],
    downtime: float = 5.0,
    kill_node: int = 0,
    restart_node: int | None = None,
) -> FaultSchedule:
    """The paper's interruption pattern: kill, restart ``downtime`` later.

    With ``restart_node`` set, the daemon comes back on a different node
    (the two-node NFS scenario); otherwise on the same node.
    """
    if downtime < 0:
        raise ValueError(f"downtime must be >= 0, got {downtime}")
    if restart_node == kill_node:
        # Silently identical to the same-node cycle, except it would also
        # mark the node initially down and deadlock the run — reject it.
        raise ValueError(
            f"restart_node must differ from kill_node (both {kill_node}); "
            f"omit restart_node for a same-node restart cycle"
        )
    actions = []
    current = kill_node
    for t in kill_times:
        actions.append(FaultAction(t, current, "kill"))
        if restart_node is None:
            nxt = current  # same-node restart
        else:
            nxt = restart_node if current == kill_node else kill_node
        actions.append(FaultAction(t + downtime, nxt, "restart"))
        current = nxt
    initially_down = () if restart_node is None else (restart_node,)
    return FaultSchedule(actions, initially_down=initially_down)
