"""The event loop: dependency-aware task execution on slotted nodes.

Semantics:

* every node owns ``slots_per_node`` execution slots;
* a task becomes *ready* when all its dependencies completed and its
  release time passed;
* each node runs its ready tasks FIFO (by readiness time, then task id —
  deterministic), one per free slot;
* completion events free the slot and may ready successor tasks.

The loop is a classic priority-queue simulation: O((T + E) log T) for T
tasks and E dependency edges.  Faults are not modelled here: jobs run
under a fault plan go through :class:`~repro.faults.runner.ChaosRunner`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from ..errors import ConfigError
from ..obs import NULL_OBS, Observability
from .tasks import SimTask, TaskTimeline

__all__ = ["DiscreteEventSimulator", "SimulationResult"]

NodeId = Hashable


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    timeline: TaskTimeline
    events_processed: int
    cancelled_tasks: List[str] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return self.timeline.makespan

    @property
    def cancelled(self) -> bool:
        """True when a ``cancel_at`` horizon cut the run short."""
        return bool(self.cancelled_tasks)


class DiscreteEventSimulator:
    """Runs a task set to completion on a slotted cluster.

    Args:
        slots_per_node: concurrent tasks per node (Hadoop map slots).
    """

    def __init__(self, *, slots_per_node: int = 1) -> None:
        if slots_per_node <= 0:
            raise ConfigError("slots_per_node must be positive")
        self.slots_per_node = slots_per_node

    # -- validation ----------------------------------------------------------------

    @staticmethod
    def _validate(tasks: Dict[str, SimTask]) -> None:
        for task in tasks.values():
            unknown = task.deps.difference(tasks)
            if unknown:
                raise ConfigError(
                    f"task {task.task_id} depends on unknown tasks {sorted(unknown)[:3]}"
                )
        # cycle detection via Kahn's algorithm
        indegree = {tid: len(t.deps) for tid, t in tasks.items()}
        succs: Dict[str, List[str]] = {tid: [] for tid in tasks}
        for tid, task in tasks.items():
            for dep in task.deps:
                succs[dep].append(tid)
        queue = [tid for tid, d in indegree.items() if d == 0]
        seen = 0
        while queue:
            tid = queue.pop()
            seen += 1
            for nxt in succs[tid]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    queue.append(nxt)
        if seen != len(tasks):
            raise ConfigError("task graph contains a dependency cycle")

    # -- the event loop ---------------------------------------------------------------

    def run(
        self,
        tasks: Iterable[SimTask],
        *,
        obs: Observability = NULL_OBS,
        cancel_at: Optional[float] = None,
    ) -> SimulationResult:
        """Simulate all tasks; returns the realized timeline.

        Args:
            obs: observability bundle; spans and counters are recorded
                post-hoc from the realized timeline, so the event loop
                itself is untouched.
            cancel_at: optional deadline on the simulated clock.  Events
                past it never run: in-flight work is abandoned, its slots
                are implicitly released, and every task without a completed
                interval is reported in ``cancelled_tasks`` instead of
                raising — the cooperative cancellation the analysis
                service's job deadlines ride on.  ``None`` (the default)
                keeps the run-to-completion semantics byte-identical.

        Raises:
            ConfigError: duplicate ids, unknown dependencies, or cycles.
        """
        if cancel_at is not None and cancel_at < 0:
            raise ConfigError("cancel_at must be non-negative")
        task_map: Dict[str, SimTask] = {}
        for task in tasks:
            if task.task_id in task_map:
                raise ConfigError(f"duplicate task id {task.task_id!r}")
            task_map[task.task_id] = task
        self._validate(task_map)

        # Tasks and nodes carry dense int indices so the heaps compare
        # ints, dependency sets collapse to counters, and each node hands
        # out slot indices from a free-list stack.  Task ranks follow
        # sorted task-id order, so the int tie-breaks in the per-node ready
        # heaps are the (ready time, task id) tie-breaks of a plain
        # string-keyed loop.  tests/test_sim.py keeps that loop as the
        # reference and checks the realized intervals against it, values
        # and insertion order (test_property_chain_graph_consistent).
        EV_READY, EV_FINISH = 0, 1
        sorted_tids = sorted(task_map)
        rank: Dict[str, int] = {tid: r for r, tid in enumerate(sorted_tids)}
        n_tasks = len(sorted_tids)
        node_of: List[int] = [0] * n_tasks
        duration: List[float] = [0.0] * n_tasks
        release: List[float] = [0.0] * n_tasks
        node_rank: Dict[NodeId, int] = {}
        for tid in sorted_tids:
            task = task_map[tid]
            r = rank[tid]
            ni = node_rank.get(task.node)
            if ni is None:
                ni = node_rank[task.node] = len(node_rank)
            node_of[r] = ni
            duration[r] = task.duration
            release[r] = task.release_time
        remaining: List[int] = [0] * n_tasks
        successors: List[List[int]] = [[] for _ in range(n_tasks)]
        for tid, task in task_map.items():
            r = rank[tid]
            remaining[r] = len(task.deps)
            for dep in task.deps:
                successors[rank[dep]].append(r)

        num_nodes = len(node_rank)
        slot_free: List[List[int]] = [
            list(range(self.slots_per_node - 1, -1, -1)) for _ in range(num_nodes)
        ]
        slot_of: List[int] = [0] * n_tasks
        # per-node FIFO of ready tasks: (ready_time, task rank)
        ready: List[List[Tuple[float, int]]] = [[] for _ in range(num_nodes)]

        # single event heap: (time, seq, kind, task rank)
        events: List[Tuple[float, int, int, int]] = []
        seq = 0
        for tid, task in task_map.items():
            if not task.deps:
                heapq.heappush(events, (task.release_time, seq, EV_READY, rank[tid]))
                seq += 1

        starts: List[float] = [0.0] * n_tasks
        ends: List[float] = [0.0] * n_tasks
        finished: List[bool] = [False] * n_tasks
        start_order: List[int] = []
        processed = 0

        def start_available(ni: int, time: float) -> None:
            nonlocal seq
            slots = slot_free[ni]
            rheap = ready[ni]
            while slots and rheap:
                _rt, r = heapq.heappop(rheap)
                slot_of[r] = slots.pop()
                end = time + duration[r]
                starts[r] = time
                ends[r] = end
                start_order.append(r)
                heapq.heappush(events, (end, seq, EV_FINISH, r))
                seq += 1

        while events:
            if cancel_at is not None and events[0][0] > cancel_at:
                break
            now, _s, kind, r = heapq.heappop(events)
            processed += 1
            ni = node_of[r]
            if kind == EV_READY:
                heapq.heappush(ready[ni], (now, r))
                start_available(ni, now)
            else:  # finish: return the slot index, release successors
                finished[r] = True
                slot_free[ni].append(slot_of[r])
                for succ in successors[r]:
                    remaining[succ] -= 1
                    if not remaining[succ]:
                        ready_at = max(now, release[succ])
                        heapq.heappush(events, (ready_at, seq, EV_READY, succ))
                        seq += 1
                start_available(ni, now)

        if cancel_at is None and len(start_order) != n_tasks:  # pragma: no cover
            ran = {sorted_tids[r] for r in start_order}
            missing = sorted(set(task_map) - ran)[:3]
            raise ConfigError(f"tasks never ran (scheduler bug?): {missing}")
        # intervals in start order; under a cancel horizon only completed
        # tasks count
        intervals: Dict[str, Tuple[float, float]] = {
            sorted_tids[r]: (starts[r], ends[r])
            for r in start_order
            if finished[r]
        }
        cancelled = (
            [tid for tid in sorted_tids if not finished[rank[tid]]]
            if cancel_at is not None
            else []
        )
        if obs.tracer.enabled:
            with obs.tracer.span(
                "sim/run", category="phase", sim_start=0.0, tasks=len(task_map)
            ) as phase:
                for tid in sorted(intervals):
                    start, end = intervals[tid]
                    task = task_map[tid]
                    obs.tracer.record(
                        tid,
                        category="task",
                        sim_start=start,
                        sim_end=end,
                        track=f"node {task.node}",
                        kind=task.kind,
                    )
                phase.sim(0.0, max((e for _s, e in intervals.values()), default=0.0))
        if obs.metrics.enabled:
            obs.metrics.counter(
                "sim_events_total", help="events popped off the simulation heap"
            ).inc(processed)
            obs.metrics.counter(
                "sim_tasks_total", help="tasks driven to completion"
            ).inc(len(task_map))
        return SimulationResult(
            timeline=TaskTimeline(intervals=intervals, tasks=task_map),
            events_processed=processed,
            cancelled_tasks=cancelled,
        )
