"""The event loop: dependency-aware task execution on slotted nodes.

Semantics:

* every node owns ``slots_per_node`` execution slots;
* a task becomes *ready* when all its dependencies completed and its
  release time passed;
* each node runs its ready tasks FIFO (by readiness time, then task id —
  deterministic), one per free slot;
* completion events free the slot and may ready successor tasks.

The loop is a classic priority-queue simulation: O((T + E) log T) for T
tasks and E dependency edges.

With a :class:`~repro.faults.injector.FaultInjector` the run-once model
becomes an attempt lifecycle: transient failures burn partial work and
retry after exponential backoff, planned node crashes kill running and
queued work (detected one heartbeat timeout later, then re-routed to a
live node), and nodes that keep failing attempts are blacklisted.  The
fault-free path is byte-identical to the original loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only imports (avoids a cycle)
    from ..faults.injector import FaultInjector
    from ..faults.retry import RetryPolicy

from ..errors import ConfigError, FaultError, TaskAttemptError
from ..obs import NULL_OBS, Observability
from .tasks import SimTask, TaskTimeline

__all__ = ["DiscreteEventSimulator", "SimulationResult"]

NodeId = Hashable


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    The fault-accounting fields stay at their zero values for fault-free
    runs; under injection they mirror :class:`repro.metrics.RecoverySummary`.
    """

    timeline: TaskTimeline
    events_processed: int
    attempts_histogram: Dict[int, int] = field(default_factory=dict)
    wasted_seconds: float = 0.0
    dead_nodes: List[NodeId] = field(default_factory=list)
    blacklisted_nodes: List[NodeId] = field(default_factory=list)
    migrated_tasks: List[str] = field(default_factory=list)
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
        injector: Optional["FaultInjector"] = None,
        policy: Optional["RetryPolicy"] = None,
        obs: Observability = NULL_OBS,
        cancel_at: Optional[float] = None,
    ) -> SimulationResult:
        """Simulate all tasks; returns the realized timeline.

        Args:
            injector: optional fault oracle; enables the attempt lifecycle.
            policy: retry/backoff/blacklist knobs (defaults when omitted;
                only meaningful together with ``injector``).
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
            TaskAttemptError: a task exhausted its retry budget.
            FaultError: no live node remains to run a task.
        """
        if cancel_at is not None and cancel_at < 0:
            raise ConfigError("cancel_at must be non-negative")
        task_map: Dict[str, SimTask] = {}
        for task in tasks:
            if task.task_id in task_map:
                raise ConfigError(f"duplicate task id {task.task_id!r}")
            task_map[task.task_id] = task
        self._validate(task_map)
        if injector is not None:
            return self._run_with_faults(task_map, injector, policy, obs, cancel_at)

        # Fault-free fast path: tasks and nodes carry dense int indices so
        # the heaps compare ints, dependency sets collapse to counters, and
        # each node hands out slot indices from a free-list stack.  Task
        # ranks follow sorted task-id order, so the int tie-breaks in the
        # per-node ready heaps reproduce the original string tie-breaks —
        # the realized timeline is bit-identical to the reference loop
        # (the fault-aware loop below, run with an empty plan, is that
        # reference; the equivalence tests drive both).
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
        # intervals in start order, matching the reference loop's insertion
        # order; under a cancel horizon only completed tasks count
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

    # -- the fault-aware event loop ------------------------------------------------

    def _run_with_faults(
        self,
        task_map: Dict[str, SimTask],
        injector: "FaultInjector",
        policy: Optional["RetryPolicy"],
        obs: Observability = NULL_OBS,
        cancel_at: Optional[float] = None,
    ) -> SimulationResult:
        """The attempt-lifecycle event loop (see module docstring)."""
        from ..faults.retry import AttemptLog, NodeBlacklist, RetryPolicy

        traced = obs.tracer.enabled
        # (task, attempt, node, outcome, sim start, sim end) — turned into
        # spans after the loop so the loop itself stays untouched
        attempt_trace: List[Tuple[str, int, NodeId, str, float, float]] = []

        policy = policy or RetryPolicy()
        log = AttemptLog()
        blacklist = NodeBlacklist(policy.blacklist_after)

        remaining_deps: Dict[str, Set[str]] = {
            tid: set(t.deps) for tid, t in task_map.items()
        }
        successors: Dict[str, List[str]] = {tid: [] for tid in task_map}
        for tid, task in task_map.items():
            for dep in task.deps:
                successors[dep].append(tid)

        free_slots: Dict[NodeId, int] = {}
        ready: Dict[NodeId, List[Tuple[float, str]]] = {}
        for task in task_map.values():
            free_slots.setdefault(task.node, self.slots_per_node)
            ready.setdefault(task.node, [])

        dead: Set[NodeId] = set()
        cut: Set[NodeId] = set()
        # explicit node scopes only: the simulator has no rack topology,
        # so a rack-scoped partition raises a clear ConfigError here
        partitions = (
            injector.resolve_partitions(sorted(free_slots, key=repr))
            if injector.plan.partitions
            else []
        )
        attempt_no: Dict[str, int] = {tid: 1 for tid in task_map}
        failures_of: Dict[str, int] = {tid: 0 for tid in task_map}
        token: Dict[str, int] = {tid: 0 for tid in task_map}
        # tid -> (node, start time, token of the live attempt)
        running: Dict[str, Tuple[NodeId, float, int]] = {}
        final_node: Dict[str, NodeId] = {}
        intervals: Dict[str, Tuple[float, float]] = {}
        migrated: List[str] = []

        # event heap: (time, seq, kind, payload, attempt token)
        events: List[Tuple[float, int, str, object, int]] = []
        seq = 0

        def push(time: float, kind: str, payload: object, tok: int = 0) -> None:
            nonlocal seq
            heapq.heappush(events, (time, seq, kind, payload, tok))
            seq += 1

        # same-time ordering: heals first (nodes rejoin before anything
        # else happens), then crashes, then partition starts and task
        # readiness — encoded purely by push order
        for p in partitions:
            push(p.heals_at, "pheal", p)
        for crash in injector.crashes_chronological():
            if crash.node in free_slots:
                push(crash.time, "crash", crash.node)
        for p in partitions:
            push(p.start, "pstart", p)
        for tid, task in task_map.items():
            if not task.deps:
                push(task.release_time, "ready", tid)

        def usable(node: NodeId) -> bool:
            return (
                node not in dead
                and node not in cut
                and not blacklist.is_blacklisted(node)
            )

        def route(tid: str) -> NodeId:
            """The node this task runs on next: home node while it is
            usable, else the live node with the shortest queue."""
            home = task_map[tid].node
            if usable(home):
                return home
            candidates = [n for n in free_slots if usable(n)]
            if not candidates:
                # every live node is benched: relax the blacklist rather
                # than fail the job (mirrors ChaosRunner._reschedule) —
                # a benched node is still preferable to no node at all
                candidates = [
                    n for n in free_slots if n not in dead and n not in cut
                ]
            if not candidates:
                raise FaultError(
                    f"no live node left to run task {tid!r} "
                    f"(dead={sorted(dead, key=repr)}, "
                    f"blacklisted={blacklist.nodes})"
                )
            chosen = min(
                candidates,
                key=lambda n: (
                    len(ready[n]) + sum(1 for _t, (rn, _s, _k) in running.items() if rn == n),
                    repr(n),
                ),
            )
            if chosen != home:
                migrated.append(tid)
            return chosen

        def exhaust(tid: str, node: NodeId) -> TaskAttemptError:
            return TaskAttemptError(
                f"task {tid!r} failed {policy.max_attempts} attempts",
                task_id=tid,
                node=node,
                attempts=policy.max_attempts,
            )

        def evacuate(node: NodeId, time: float) -> None:
            """Re-route every queued (not yet started) task off a node."""
            for _rt, qtid in ready[node]:
                push(time, "ready", qtid)
            ready[node] = []

        def start_available(node: NodeId, time: float) -> None:
            if node in dead or node in cut:
                return
            if blacklist.is_blacklisted(node) and any(usable(n) for n in free_slots):
                return  # benched, and a healthy node exists to take the work
            while free_slots[node] > 0 and ready[node]:
                _rt, tid = heapq.heappop(ready[node])
                free_slots[node] -= 1
                attempt = attempt_no[tid]
                duration = task_map[tid].duration * injector.slowdown(node, time)
                token[tid] += 1
                running[tid] = (node, time, token[tid])
                if injector.attempt_fails(tid, attempt, node):
                    push(time + duration * injector.waste_fraction, "fail", tid, token[tid])
                else:
                    push(time + duration, "finish", tid, token[tid])

        processed = 0
        while events:
            if cancel_at is not None and events[0][0] > cancel_at:
                break
            now, _s, kind, payload, tok = heapq.heappop(events)
            processed += 1
            if kind == "pstart":
                # the cut side goes silent: running attempts are lost (the
                # driver re-runs them after a heartbeat), queued work is
                # re-routed, but the nodes themselves rejoin at heal time
                for node in payload.sorted_nodes():
                    if node not in free_slots or node in dead:
                        continue
                    cut.add(node)
                    for tid in sorted(
                        t for t, (n, _s2, _k) in running.items() if n == node
                    ):
                        _n, start, _tk = running.pop(tid)
                        free_slots[node] += 1
                        log.record(tid, node, attempt_no[tid], "partition", now - start)
                        if traced:
                            attempt_trace.append(
                                (tid, attempt_no[tid], node, "partition", start, now)
                            )
                        attempt_no[tid] += 1
                        if attempt_no[tid] > policy.max_attempts:
                            raise exhaust(tid, node)
                        push(now + policy.heartbeat_timeout_s, "ready", tid)
                    evacuate(node, now)
                continue
            if kind == "pheal":
                for node in payload.sorted_nodes():
                    cut.discard(node)
                    if node in free_slots and node not in dead:
                        start_available(node, now)
                continue
            if kind == "crash":
                node = payload
                if node in dead:
                    continue
                dead.add(node)
                for tid in sorted(t for t, (n, _s2, _k) in running.items() if n == node):
                    _n, start, _tk = running.pop(tid)
                    log.record(tid, node, attempt_no[tid], "crash", now - start)
                    if traced:
                        attempt_trace.append(
                            (tid, attempt_no[tid], node, "crash", start, now)
                        )
                    attempt_no[tid] += 1
                    if attempt_no[tid] > policy.max_attempts:
                        raise exhaust(tid, node)
                    # the JobTracker only learns of the death a heartbeat later
                    push(now + policy.heartbeat_timeout_s, "ready", tid)
                evacuate(node, now)
                continue
            tid = payload
            if kind == "ready":
                node = route(tid)
                heapq.heappush(ready[node], (now, tid))
                start_available(node, now)
                continue
            # finish / fail of one attempt
            entry = running.get(tid)
            if entry is None or entry[2] != tok:
                continue  # stale event: the attempt died with its node
            node, start, _tk = entry
            del running[tid]
            free_slots[node] += 1
            if kind == "fail":
                log.record(tid, node, attempt_no[tid], "fault", now - start)
                if traced:
                    attempt_trace.append(
                        (tid, attempt_no[tid], node, "fault", start, now)
                    )
                newly_benched = blacklist.record_failure(node)
                attempt_no[tid] += 1
                failures_of[tid] += 1
                if attempt_no[tid] > policy.max_attempts:
                    raise exhaust(tid, node)
                push(
                    now
                    + policy.backoff(
                        failures_of[tid], task_key=tid, seed=injector.plan.seed
                    ),
                    "ready",
                    tid,
                )
                if newly_benched:
                    evacuate(node, now)
                else:
                    start_available(node, now)
                continue
            # finish
            log.record(tid, node, attempt_no[tid], "ok")
            if traced:
                attempt_trace.append((tid, attempt_no[tid], node, "ok", start, now))
            intervals[tid] = (start, now)
            final_node[tid] = node
            for succ in successors[tid]:
                remaining_deps[succ].discard(tid)
                if not remaining_deps[succ]:
                    push(max(now, task_map[succ].release_time), "ready", succ)
            start_available(node, now)

        if cancel_at is None and len(intervals) != len(task_map):  # pragma: no cover
            missing = sorted(set(task_map) - set(intervals))[:3]
            raise ConfigError(f"tasks never ran (scheduler bug?): {missing}")
        cancelled = sorted(set(task_map) - set(intervals)) if cancel_at is not None else []
        realized = {
            tid: (
                task
                if final_node.get(tid, task.node) == task.node
                else replace(task, node=final_node[tid])
            )
            for tid, task in task_map.items()
        }
        if traced:
            by_task: Dict[str, List[Tuple[int, NodeId, str, float, float]]] = {}
            for tid, attempt, node, outcome, start, end in attempt_trace:
                by_task.setdefault(tid, []).append((attempt, node, outcome, start, end))
            with obs.tracer.span(
                "sim/run", category="phase", sim_start=0.0, tasks=len(task_map)
            ) as sim_phase:
                for tid in sorted(intervals):
                    tries = sorted(by_task.get(tid, []))
                    first = tries[0][3] if tries else intervals[tid][0]
                    parent = obs.tracer.record(
                        tid,
                        category="task",
                        sim_start=first,
                        sim_end=intervals[tid][1],
                        track=f"node {final_node[tid]}",
                        kind=task_map[tid].kind,
                        attempts=len(tries),
                    )
                    for attempt, node, outcome, start, end in tries:
                        obs.tracer.record(
                            f"{tid}#a{attempt}",
                            category="attempt",
                            sim_start=start,
                            sim_end=end,
                            parent=parent.span_id,
                            track=f"node {node}",
                            outcome=outcome,
                        )
                sim_phase.sim(
                    0.0, max((e for _s, e in intervals.values()), default=0.0)
                )
        if obs.metrics.enabled:
            obs.metrics.counter(
                "sim_events_total", help="events popped off the simulation heap"
            ).inc(processed)
            obs.metrics.counter(
                "sim_tasks_total", help="tasks driven to completion"
            ).inc(len(task_map))
            outcomes = obs.metrics.counter(
                "fault_attempts_total",
                help="task attempts by outcome",
                labelnames=("outcome",),
            )
            for record in log.records:
                outcomes.inc(outcome=record.outcome)
            obs.metrics.counter(
                "sim_migrated_tasks_total",
                help="tasks re-routed off their home node",
            ).inc(len(set(migrated)))
        return SimulationResult(
            timeline=TaskTimeline(intervals=intervals, tasks=realized),
            events_processed=processed,
            attempts_histogram=log.histogram(),
            wasted_seconds=log.wasted_seconds,
            dead_nodes=sorted(dead, key=repr),
            blacklisted_nodes=blacklist.nodes,
            migrated_tasks=sorted(set(migrated)),
            cancelled_tasks=cancelled,
        )
