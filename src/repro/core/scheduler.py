"""Algorithm 1: distribution-aware balanced task assignment (Section IV-B).

Given the bipartite node/block graph whose edge weights are the target
sub-dataset's bytes per block, the scheduler simulates worker task
requests: whenever a node is free it requests a task, and the scheduler
hands it the block (preferring local replicas) that brings the node's
accumulated sub-dataset workload closest to its fair share ``W-bar``.

Workers request in least-loaded-first order, which mirrors a real Hadoop
cluster where a TaskTracker asks for its next task the moment the previous
one completes.  Heterogeneous clusters are supported through per-node
capacity weights: a node with capacity 2 targets twice the average share.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ..errors import ConfigError, SchedulingError
from .bipartite import BipartiteGraph

__all__ = ["Assignment", "DistributionAwareScheduler"]

NodeId = Hashable


@dataclass
class Assignment:
    """A complete mapping of block tasks onto cluster nodes.

    Attributes:
        blocks_by_node: node → ordered list of block ids assigned to it.
        workload_by_node: node → total sub-dataset bytes assigned.
        local_assignments: count of tasks placed on a replica holder.
        remote_assignments: count of tasks placed off-replica.

    Raises:
        SchedulingError: a block appears twice in ``blocks_by_node``, on
            one node or on two.
    """

    blocks_by_node: Dict[NodeId, List[int]]
    workload_by_node: Dict[NodeId, int]
    local_assignments: int = 0
    remote_assignments: int = 0
    node_of_block: Dict[int, NodeId] = field(default_factory=dict)

    def __post_init__(self) -> None:
        node_of_block: Dict[int, NodeId] = {}
        for node, blocks in self.blocks_by_node.items():
            for b in blocks:
                if b in node_of_block:
                    raise SchedulingError(
                        f"block {b} assigned twice "
                        f"(to {node_of_block[b]!r} and {node!r})"
                    )
                node_of_block[b] = node
        if not self.node_of_block:
            self.node_of_block = node_of_block

    # -- metrics --------------------------------------------------------------

    @property
    def num_tasks(self) -> int:
        """Total number of assigned block tasks."""
        return sum(len(b) for b in self.blocks_by_node.values())

    @property
    def locality_fraction(self) -> float:
        """Fraction of tasks that ran on a node holding a replica."""
        total = self.local_assignments + self.remote_assignments
        return self.local_assignments / total if total else 1.0

    def workloads(self) -> List[int]:
        """Per-node workloads in node order."""
        return [self.workload_by_node[n] for n in sorted(self.workload_by_node, key=repr)]

    @property
    def max_workload(self) -> int:
        return max(self.workload_by_node.values(), default=0)

    @property
    def min_workload(self) -> int:
        return min(self.workload_by_node.values(), default=0)

    @property
    def mean_workload(self) -> float:
        w = self.workloads()
        return sum(w) / len(w) if w else 0.0

    @property
    def std_workload(self) -> float:
        w = self.workloads()
        if not w:
            return 0.0
        mu = sum(w) / len(w)
        return math.sqrt(sum((x - mu) ** 2 for x in w) / len(w))

    @property
    def imbalance(self) -> float:
        """Makespan-style imbalance: ``max / mean`` (1.0 is perfect)."""
        mu = self.mean_workload
        return self.max_workload / mu if mu > 0 else 1.0


class DistributionAwareScheduler:
    """Algorithm 1 of the paper, with optional heterogeneous capacities.

    Args:
        capacities: node → relative computing capability; ``None`` means
            homogeneous.  Fair shares are proportional to capacity.

    Usage::

        graph = BipartiteGraph(placement, weights)
        assignment = DistributionAwareScheduler().schedule(graph)
    """

    #: Simulated cost of one delay-scheduling deferral, in task units.
    DEFER_QUANTUM = 0.34

    def __init__(
        self,
        capacities: Optional[Mapping[NodeId, float]] = None,
        *,
        max_deferrals: int = 0,
    ) -> None:
        if capacities is not None:
            if any(c <= 0 for c in capacities.values()):
                raise ConfigError("all capacities must be positive")
        if max_deferrals < 0:
            raise ConfigError("max_deferrals must be non-negative")
        self.capacities = dict(capacities) if capacities is not None else None
        self.max_deferrals = max_deferrals

    # -- fair share --------------------------------------------------------------

    def _fair_shares(self, graph: BipartiteGraph) -> Dict[NodeId, float]:
        total = graph.total_weight()
        nodes = graph.nodes
        if not nodes:
            raise SchedulingError("graph has no cluster nodes")
        if self.capacities is None:
            share = total / len(nodes)
            return {n: share for n in nodes}
        missing = [n for n in nodes if n not in self.capacities]
        if missing:
            raise SchedulingError(f"capacity missing for nodes: {missing[:5]}")
        cap_sum = sum(self.capacities[n] for n in nodes)
        return {n: total * self.capacities[n] / cap_sum for n in nodes}

    # -- Algorithm 1 ----------------------------------------------------------------

    def schedule(self, graph: BipartiteGraph) -> Assignment:
        """Assign every block task to a node, balancing sub-dataset workload.

        The input graph is not mutated (a copy is consumed).

        Request model: "a worker process on cn_i requests a task" whenever
        it finishes one; since every block file is the same size, the next
        requester is the node that has *processed the fewest tasks* so far
        (scaled by capacity in the heterogeneous case).  Per request, the
        chosen block minimizes ``|W_i + |b ∩ s| - Wbar_i|`` over the node's
        local blocks if it has any (lines 8-11 of Algorithm 1), else over
        all remaining blocks (lines 13-15) — where ``W_i`` counts only the
        target sub-dataset's bytes.
        """
        g = graph.copy()
        shares = self._fair_shares(g)
        caps = self.capacities or {n: 1.0 for n in g.nodes}
        workload: Dict[NodeId, int] = {n: 0 for n in g.nodes}
        tasks_count: Dict[NodeId, int] = {n: 0 for n in g.nodes}
        elapsed: Dict[NodeId, float] = {n: 0.0 for n in g.nodes}
        deferrals: Dict[NodeId, int] = {n: 0 for n in g.nodes}
        blocks_by_node: Dict[NodeId, List[int]] = {n: [] for n in g.nodes}
        local = remote = 0

        # Priority queue of (elapsed task units / capacity, tiebreak, node):
        # a pop is the next worker to come free and request a task.
        order = {n: i for i, n in enumerate(g.nodes)}
        heap: List[Tuple[float, int, NodeId]] = [(0.0, order[n], n) for n in g.nodes]
        heapq.heapify(heap)

        while g.num_blocks:
            # Each node has exactly one live heap entry; pop = next request.
            _e, tiebreak, node = heapq.heappop(heap)
            share = shares[node]
            current = workload[node]
            local_blocks = g.blocks_on(node)
            if (
                self.max_deferrals > 0
                and not local_blocks
                and deferrals[node] < self.max_deferrals
            ):
                # optional delay scheduling: briefly hold out for nodes that
                # still have local work instead of grabbing a remote block.
                # Off by default — Algorithm 1 as written assigns remote
                # work immediately (line 13), and deferral perturbs the
                # request order its balance quality relies on.
                deferrals[node] += 1
                elapsed[node] += self.DEFER_QUANTUM
                heapq.heappush(
                    heap, (elapsed[node] / caps[node], tiebreak, node)
                )
                continue
            candidates = local_blocks if local_blocks else set(g.blocks)
            if not candidates:
                break  # no blocks left anywhere
            # argmin |W_i + w(b) - Wbar_i|, smallest block id breaks ties
            best = min(
                candidates,
                key=lambda b: (abs(current + g.weight(b) - share), b),
            )
            if local_blocks:
                local += 1
                deferrals[node] = 0  # found local work; reset the patience
            else:
                remote += 1
            blocks_by_node[node].append(best)
            workload[node] = current + g.weight(best)
            tasks_count[node] += 1
            elapsed[node] += 1.0
            g.remove_block(best)
            heapq.heappush(heap, (elapsed[node] / caps[node], tiebreak, node))

        return Assignment(
            blocks_by_node=blocks_by_node,
            workload_by_node=workload,
            local_assignments=local,
            remote_assignments=remote,
        )
