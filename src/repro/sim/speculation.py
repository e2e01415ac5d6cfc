"""Dynamic speculative execution inside the event-driven simulator.

Hadoop launches *backup* copies of tasks that run much slower than their
siblings; the task completes when either copy finishes.  This module runs
that policy on the simulator: after simulating a task set once,
stragglers are detected against their phase's median runtime, backup
copies are injected on the least-loaded nodes, and the simulation is
re-run with ``min(original, backup)`` race semantics resolved by an extra
post-processing pass.  The rerun accounts for the slot contention the
backups themselves cause.

Backups help an *anomalous* straggler (slow disk, hot node).  A straggler
that is slow because it holds more data gains little: the backup must
reprocess the same oversized input (the speculation ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from ..errors import ConfigError
from ..faults.dedup import FirstWinLedger
from ..faults.health import validate_health
from .simulator import DiscreteEventSimulator
from .tasks import SimTask, TaskTimeline

__all__ = ["SpeculativeSimulator", "SpeculativeRun"]

NodeId = Hashable


@dataclass
class SpeculativeRun:
    """Outcome of a speculative simulation.

    Attributes:
        timeline: the realized schedule *with* backup tasks included.
        effective_end: task id → completion time after racing originals
            against their backups.
        backups: original task id → backup task id.
        wasted_seconds: slot time burned by losing copies.
        ledger: the first-win ledger that settled every completion race —
            each task's output is counted from exactly one copy.
    """

    timeline: TaskTimeline
    effective_end: Dict[str, float]
    backups: Dict[str, str]
    wasted_seconds: float
    ledger: FirstWinLedger = field(default_factory=FirstWinLedger)

    @property
    def makespan(self) -> float:
        """Completion of the last *effective* task end."""
        return max(self.effective_end.values(), default=0.0)


class SpeculativeSimulator:
    """Two-pass speculative simulation over a kind-filtered task set.

    Args:
        slowdown_threshold: duration multiple of the phase median above
            which a task gets a backup.
        relocation_speedup: backup-host speedup on the same input.
        speculate_kinds: task kinds eligible for backups (maps by default;
            Hadoop speculates maps and reduces, selection tasks are uniform
            so backups never trigger for them).
        health: optional node → health score in ``(0, 1]`` from the
            φ-accrual detector.  A task on a node with health ``h`` uses
            the tightened threshold ``1 + (slowdown_threshold - 1) * h``:
            suspected nodes get speculated earlier, healthy nodes keep the
            configured margin.  ``None`` (or all-1.0) is the original
            behaviour.
    """

    def __init__(
        self,
        *,
        slowdown_threshold: float = 1.5,
        relocation_speedup: float = 1.2,
        speculate_kinds: Tuple[str, ...] = ("map",),
        slots_per_node: int = 1,
        health: Optional[Mapping[NodeId, float]] = None,
    ) -> None:
        if slowdown_threshold <= 1.0:
            raise ConfigError("slowdown_threshold must exceed 1.0")
        if relocation_speedup < 1.0:
            raise ConfigError("relocation_speedup must be >= 1.0")
        if not speculate_kinds:
            raise ConfigError("speculate_kinds must be non-empty")
        validate_health(health)
        self.slowdown_threshold = slowdown_threshold
        self.relocation_speedup = relocation_speedup
        self.speculate_kinds = tuple(speculate_kinds)
        self.health = dict(health) if health is not None else {}
        self.simulator = DiscreteEventSimulator(slots_per_node=slots_per_node)

    # -- straggler detection -----------------------------------------------------

    def threshold_for(self, node: NodeId) -> float:
        """Straggler multiple for tasks on ``node``, tightened by suspicion."""
        h = self.health.get(node, 1.0)
        return 1.0 + (self.slowdown_threshold - 1.0) * h

    def _stragglers(self, tasks: Dict[str, SimTask]) -> List[str]:
        candidates = [
            t for t in tasks.values() if t.kind in self.speculate_kinds
        ]
        if len(candidates) < 2:
            return []
        durations = sorted(t.duration for t in candidates)
        median = durations[len(durations) // 2]
        if median <= 0:
            return []
        return [
            t.task_id
            for t in candidates
            if t.duration > self.threshold_for(t.node) * median
        ]

    # -- the two-pass run -----------------------------------------------------------

    def run(self, tasks: Iterable[SimTask]) -> SpeculativeRun:
        """Simulate with dynamically injected backup copies.

        Pass 1 simulates the original graph to learn when stragglers would
        finish and which nodes idle first.  Pass 2 adds one backup per
        straggler — released when the phase median completes, placed on the
        node with the least busy time — and re-simulates.  Effective
        completion of a speculated task is the earlier of its two copies.
        """
        task_map = {t.task_id: t for t in tasks}
        base = self.simulator.run(task_map.values())
        stragglers = self._stragglers(task_map)
        if not stragglers:
            ledger = FirstWinLedger()
            for tid in sorted(task_map):
                ledger.offer(tid, tid, base.timeline.end_of(tid))
            return SpeculativeRun(
                timeline=base.timeline,
                effective_end={
                    tid: base.timeline.end_of(tid) for tid in task_map
                },
                backups={},
                wasted_seconds=0.0,
                ledger=ledger,
            )

        spec_candidates = [
            tid
            for tid, t in task_map.items()
            if t.kind in self.speculate_kinds
        ]
        median_end = sorted(
            base.timeline.end_of(tid) for tid in spec_candidates
        )[len(spec_candidates) // 2]
        nodes = sorted(
            {t.node for t in task_map.values()},
            key=lambda n: (base.timeline.node_busy_time(n), repr(n)),
        )

        augmented: Dict[str, SimTask] = dict(task_map)
        backups: Dict[str, str] = {}
        for i, tid in enumerate(sorted(stragglers)):
            original = task_map[tid]
            host = nodes[i % len(nodes)]
            if host == original.node and len(nodes) > 1:
                host = nodes[(i + 1) % len(nodes)]
            backup_id = f"{tid}#backup"
            augmented[backup_id] = SimTask(
                task_id=backup_id,
                node=host,
                duration=original.duration / self.relocation_speedup,
                deps=original.deps,
                kind=f"{original.kind}-backup",
                job=original.job,
                release_time=max(original.release_time, median_end),
            )
            backups[tid] = backup_id

        rerun = self.simulator.run(augmented.values())
        effective: Dict[str, float] = {}
        ledger = FirstWinLedger()
        wasted = 0.0
        for tid in sorted(task_map):
            end = rerun.timeline.end_of(tid)
            if tid in backups:
                backup_id = backups[tid]
                backup_end = rerun.timeline.end_of(backup_id)
                # First response wins; an exact tie goes to the backup
                # (it was launched for a reason), matching the historical
                # loser-start accounting.
                entries = sorted(
                    [
                        (backup_end, 0, backup_id),
                        (end, 1, tid),
                    ]
                )
                for arrival, _rank, copy_id in entries:
                    ledger.offer(tid, copy_id, arrival)
                win = ledger.winner(tid)
                loser_id = entries[1][2]
                wasted += max(
                    win.arrival - rerun.timeline.start_of(loser_id), 0.0
                )
                end = win.arrival
            else:
                ledger.offer(tid, tid, end)
            effective[tid] = end
        return SpeculativeRun(
            timeline=rerun.timeline,
            effective_end=effective,
            backups=backups,
            wasted_seconds=wasted,
            ledger=ledger,
        )
