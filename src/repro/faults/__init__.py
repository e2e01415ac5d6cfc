"""Fault injection, task retries, and mid-job recovery.

The paper evaluates DataNet on a healthy cluster; this package makes the
reproduction survive an unhealthy one.  It is organized as four layers:

- :mod:`repro.faults.plan` — declarative, seed-driven fault scripts
  (:class:`FaultPlan`): node crashes at fixed times, hash-drawn transient
  task failures, slow nodes, metadata-shard outages, replica bit rot,
  stale metadata entries, and mid-job driver restarts.
- :mod:`repro.faults.injector` — :class:`FaultInjector`, the deterministic
  oracle the chaos runner, the read paths and the analysis service consult
  at event boundaries.
- :mod:`repro.faults.retry` — the task-attempt lifecycle: exponential
  backoff, retry budgets, heartbeat-delayed crash detection, per-node
  blacklisting, and the :class:`AttemptLog` ledger behind the recovery
  metrics.
- :mod:`repro.faults.health` / :mod:`repro.faults.dedup` — gray-failure
  detection and settlement: the φ-accrual :class:`HealthDetector` turns
  heartbeat intervals into continuous suspicion/health scores, and
  :class:`FirstWinLedger` settles hedged/speculative completion races
  first-response-wins without double-counting bytes.
- :mod:`repro.faults.runner` / :mod:`repro.faults.degrade` — whole-job
  recovery: :class:`ChaosRunner` replays a job under a plan in one
  attempt loop, re-replicates after crashes, reschedules lost work on a
  rebuilt bipartite graph, routes around slow nodes, flaky links and
  healing network partitions, reruns the blocks a driver restart
  interrupted, and degrades metadata-less blocks to locality-only
  scheduling instead of failing.

Determinism is the design invariant throughout: the same plan over the
same seeded cluster produces an identical job result, and recovery never
changes the analysis output.
"""

from .dedup import CompletionWin, FirstWinLedger
from .degrade import degraded_schedule, merge_assignments
from .health import HealthDetector, validate_health
from .injector import FaultInjector, ResolvedPartition
from .plan import (
    BitRot,
    DriverRestart,
    FaultPlan,
    FlakyLink,
    JournalReplicaCrash,
    LeaderCrash,
    MetadataPartition,
    MetaOutage,
    NetworkPartition,
    NodeCrash,
    ServiceCrash,
    SlowNode,
    StaleMetadata,
    TransientFaults,
)
from .retry import AttemptLog, AttemptRecord, NodeBlacklist, RetryPolicy, run_attempts
from .runner import ChaosReport, ChaosRunner

__all__ = [
    "FaultPlan",
    "NodeCrash",
    "SlowNode",
    "FlakyLink",
    "NetworkPartition",
    "TransientFaults",
    "MetaOutage",
    "BitRot",
    "StaleMetadata",
    "DriverRestart",
    "ServiceCrash",
    "LeaderCrash",
    "JournalReplicaCrash",
    "MetadataPartition",
    "FaultInjector",
    "ResolvedPartition",
    "HealthDetector",
    "validate_health",
    "FirstWinLedger",
    "CompletionWin",
    "RetryPolicy",
    "AttemptRecord",
    "AttemptLog",
    "NodeBlacklist",
    "run_attempts",
    "degraded_schedule",
    "merge_assignments",
    "ChaosRunner",
    "ChaosReport",
]
