"""Recovery observability: what surviving a fault plan actually cost.

A chaos run is only credible if its price is visible.  This module is the
reporting end of :mod:`repro.faults`: the attempts histogram (how many
tries each task needed), wasted simulated seconds (partial attempts and
work lost to crashes), re-replicated bytes, and the recovery-makespan
overhead against the failure-free baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import ConfigError
from .reporting import format_histogram, format_kv

__all__ = ["RecoverySummary"]


@dataclass(frozen=True)
class RecoverySummary:
    """Aggregated cost of one fault-injected run.

    Attributes:
        attempts_histogram: ``attempts needed -> task count`` over tasks
            that eventually completed (``{1: n}`` means a clean run).
        wasted_seconds: simulated seconds burned by attempts that did not
            complete (transient partial work + work lost to crashes).
        re_replicated_bytes: bytes HDFS copied to restore replication.
        baseline_makespan: the failure-free run's makespan.
        makespan: the chaos run's makespan.
        dead_nodes: nodes the plan killed.
        blacklisted_nodes: nodes benched for repeated failures.
        degraded_blocks: blocks scheduled without metadata (locality-only
            fallback).
        rescheduled_blocks: distinct blocks whose work was redone on a
            different node after a crash.
        scrub_bytes: bytes the replica scrubber re-checksummed.
        repaired_replicas: rotten replicas repaired (read path + scrub).
        rebuilt_blocks: stale ElasticMap entries rebuilt by validation.
        driver_restarts: mid-job driver deaths survived (the interrupted
            blocks rerun; completed outputs are kept).
        resume_wasted_seconds: in-flight work lost to driver restarts
            (rerun after the restart; part of the recovery bill).
        partition_events: network partitions that started during the run.
        deferred_blocks: distinct blocks whose reads waited for a
            partition to heal (no reachable replica while cut).
        hedged_reads: backup reads issued by the hedged read path.
        hedges_won: hedged reads where the backup beat the primary.
        hedge_wasted_seconds: loser-side seconds burned by hedge races.
        reconstructions: erasure-coded fragments rebuilt from parity
            (node-loss recovery, scrub rebuilds and in-place read repairs).
        reconstructed_bytes: fragment bytes written by those rebuilds —
            the coded analogue of ``re_replicated_bytes``.
        decode_bytes: stripe bytes fed through the GF(256) decoder
            (degraded reads + reconstruction source traffic).
        degraded_reads: coded reads that had to decode through parity.
        quarantined_blocks: coded blocks that lost more than m fragments
            and were failed cleanly with a quarantine record.
    """

    attempts_histogram: Dict[int, int] = field(default_factory=dict)
    wasted_seconds: float = 0.0
    re_replicated_bytes: int = 0
    baseline_makespan: float = 0.0
    makespan: float = 0.0
    dead_nodes: int = 0
    blacklisted_nodes: int = 0
    degraded_blocks: int = 0
    rescheduled_blocks: int = 0
    scrub_bytes: int = 0
    repaired_replicas: int = 0
    rebuilt_blocks: int = 0
    driver_restarts: int = 0
    resume_wasted_seconds: float = 0.0
    partition_events: int = 0
    deferred_blocks: int = 0
    hedged_reads: int = 0
    hedges_won: int = 0
    hedge_wasted_seconds: float = 0.0
    reconstructions: int = 0
    reconstructed_bytes: int = 0
    decode_bytes: int = 0
    degraded_reads: int = 0
    quarantined_blocks: int = 0

    def __post_init__(self) -> None:
        if any(k <= 0 or v < 0 for k, v in self.attempts_histogram.items()):
            raise ConfigError("attempts histogram needs positive keys and counts")
        if self.wasted_seconds < 0 or self.re_replicated_bytes < 0:
            raise ConfigError("recovery costs must be non-negative")
        if (
            self.scrub_bytes < 0
            or self.repaired_replicas < 0
            or self.rebuilt_blocks < 0
            or self.driver_restarts < 0
            or self.resume_wasted_seconds < 0
        ):
            raise ConfigError("integrity recovery costs must be non-negative")
        if (
            self.partition_events < 0
            or self.deferred_blocks < 0
            or self.hedged_reads < 0
            or self.hedges_won < 0
            or self.hedge_wasted_seconds < 0
        ):
            raise ConfigError("gray-failure costs must be non-negative")
        if self.hedges_won > self.hedged_reads:
            raise ConfigError("hedge wins cannot exceed hedges issued")
        if (
            self.reconstructions < 0
            or self.reconstructed_bytes < 0
            or self.decode_bytes < 0
            or self.degraded_reads < 0
            or self.quarantined_blocks < 0
        ):
            raise ConfigError("coded recovery costs must be non-negative")

    # -- derived ------------------------------------------------------------------

    @property
    def total_tasks(self) -> int:
        """Tasks that completed (histogram mass)."""
        return sum(self.attempts_histogram.values())

    @property
    def retried_tasks(self) -> int:
        """Tasks that needed more than one attempt."""
        return sum(v for k, v in self.attempts_histogram.items() if k > 1)

    @property
    def total_attempts(self) -> int:
        """All attempts charged across completed tasks."""
        return sum(k * v for k, v in self.attempts_histogram.items())

    @property
    def recovery_overhead(self) -> float:
        """``(chaos - baseline) / baseline`` makespan fraction."""
        if self.baseline_makespan <= 0:
            return 0.0
        return (self.makespan - self.baseline_makespan) / self.baseline_makespan

    # -- rendering ----------------------------------------------------------------

    def format(self) -> str:
        """Human-readable recovery report."""
        pairs = {
            "tasks completed": self.total_tasks,
            "tasks retried": self.retried_tasks,
            "total attempts": self.total_attempts,
            "wasted work (s)": self.wasted_seconds,
            "re-replicated bytes": self.re_replicated_bytes,
            "dead nodes": self.dead_nodes,
            "blacklisted nodes": self.blacklisted_nodes,
            "degraded blocks": self.degraded_blocks,
            "rescheduled blocks": self.rescheduled_blocks,
            "scrubbed bytes": self.scrub_bytes,
            "repaired replicas": self.repaired_replicas,
            "rebuilt metadata blocks": self.rebuilt_blocks,
            "driver restarts": self.driver_restarts,
            "resume wasted work (s)": self.resume_wasted_seconds,
            **(
                {
                    "partition events": self.partition_events,
                    "deferred blocks": self.deferred_blocks,
                }
                if self.partition_events or self.deferred_blocks
                else {}
            ),
            **(
                {
                    "hedged reads": self.hedged_reads,
                    "hedges won": self.hedges_won,
                    "hedge wasted work (s)": self.hedge_wasted_seconds,
                }
                if self.hedged_reads
                else {}
            ),
            **(
                {
                    "fragment reconstructions": self.reconstructions,
                    "reconstructed bytes": self.reconstructed_bytes,
                    "decoded stripe bytes": self.decode_bytes,
                    "degraded reads": self.degraded_reads,
                    "quarantined blocks": self.quarantined_blocks,
                }
                if self.reconstructions
                or self.decode_bytes
                or self.degraded_reads
                or self.quarantined_blocks
                else {}
            ),
            "baseline makespan (s)": self.baseline_makespan,
            "chaos makespan (s)": self.makespan,
            "recovery overhead": f"{self.recovery_overhead:+.1%}",
        }
        parts = [format_kv(pairs, title="Recovery summary")]
        if self.attempts_histogram:
            parts.append(
                format_histogram(
                    self.attempts_histogram,
                    title="attempts per task",
                    key_name="attempts",
                )
            )
        return "\n\n".join(parts)
