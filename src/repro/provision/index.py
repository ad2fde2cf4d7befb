"""Node performance index (paper §IV.B).

Equation 1:  P = W / (N * T)
    "how much of a workflow can be completed by one worker node in one
    second" — W workflows on N nodes finishing in T seconds.

Equation 2:  N = W / (P * T)
    the number of worker nodes needed to finish W workflows within the
    deadline T, given the converged large-cluster index P.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["node_performance_index", "required_nodes", "converged_index"]


def _refuse_non_positive(**values: float) -> None:
    # A NaN fails every comparison and an infinite index plans a 0 s run
    # on one node: both are refused with the positive-value check.
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def node_performance_index(workflows: float, nodes: int, seconds: float) -> float:
    """Eq. 1: workflows per node-second."""
    _refuse_non_positive(workflows=workflows, seconds=seconds)
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    return workflows / (nodes * seconds)


def required_nodes(workflows: float, index: float, deadline: float) -> int:
    """Eq. 2: nodes needed to finish ``workflows`` within ``deadline``.

    Rounded up — renting a fraction of a node is impossible and rounding
    down would miss the deadline.
    """
    _refuse_non_positive(workflows=workflows, index=index, deadline=deadline)
    return max(1, math.ceil(workflows / (index * deadline)))


def converged_index(indices: Sequence[float], tail: int = 2) -> float:
    """Large-cluster index estimate from a cluster-size sweep (Fig 5c).

    Clustering performance degradation makes P fall as N grows and
    "gradually converge when the number of worker nodes is greater
    than 4" (§IV.B); the estimate is the mean of the last ``tail``
    sweep points.
    """
    if not indices:
        raise ValueError("need at least one index measurement")
    if tail < 1:
        raise ValueError(f"tail must be >= 1, got {tail}")
    tail_values = list(indices)[-tail:]
    return sum(tail_values) / len(tail_values)
