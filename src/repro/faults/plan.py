"""Declarative, seed-driven fault plans.

A :class:`FaultPlan` is a frozen description of everything that will go
wrong during a run: node crashes at fixed simulated times, per-attempt
transient task failures drawn from a seeded hash, slow-node degradations,
and metadata-shard outages.  Because the plan is pure data and every
random decision derives from ``(seed, task, attempt, node)`` hashes, two
runs with the same plan are bit-for-bit identical — the property the
chaos acceptance tests rely on.

Construct plans explicitly, or sample one with :meth:`FaultPlan.random`
for soak-style chaos experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError

__all__ = [
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
    "FaultPlan",
]

NodeId = Hashable


def _window_end(end: Optional[float]) -> float:
    return math.inf if end is None else end


def _assert_disjoint_windows(
    windows: Sequence[Tuple[float, Optional[float]]], what: str
) -> None:
    """Fault windows on the same target must not overlap.

    Overlapping degradations would silently compose (which factor wins?),
    so the plan refuses them up front instead of guessing.
    """
    ordered = sorted(windows, key=lambda w: (w[0], _window_end(w[1])))
    for (a_start, a_end), (b_start, b_end) in zip(ordered, ordered[1:]):
        if b_start < _window_end(a_end):
            raise ConfigError(
                f"overlapping fault windows on {what}: "
                f"[{a_start}, {'inf' if a_end is None else a_end}) and "
                f"[{b_start}, {'inf' if b_end is None else b_end})"
            )


@dataclass(frozen=True)
class NodeCrash:
    """One node dies permanently at simulated time ``time``.

    Everything the node produced (selection outputs, running tasks) is
    lost; HDFS re-replication restores its block replicas elsewhere.
    """

    node: NodeId
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigError(f"crash time must be non-negative: {self.time}")


@dataclass(frozen=True)
class SlowNode:
    """During ``[start, end)``, tasks on ``node`` take ``factor``× longer.

    Models thermal throttling / noisy neighbours — the degradation that
    speculative execution exists to mask.  ``end=None`` means the
    slowdown never recovers (the pre-gray-failure behaviour).
    """

    node: NodeId
    factor: float
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ConfigError(f"slowdown factor must be >= 1, got {self.factor}")
        if self.start < 0:
            raise ConfigError("slowdown start must be non-negative")
        if self.end is not None and self.end <= self.start:
            raise ConfigError(
                f"zero-duration or inverted slowdown window on node "
                f"{self.node!r}: [{self.start}, {self.end})"
            )

    @property
    def window(self) -> Tuple[float, Optional[float]]:
        return (self.start, self.end)


@dataclass(frozen=True)
class FlakyLink:
    """The network edge between ``a`` and ``b`` degrades during ``[start, end)``.

    Every remote read crossing the edge pays ``latency_s`` extra, and with
    probability ``loss`` the transfer is dropped and retransmitted once
    (doubling its service time) — a deterministic coin drawn from the plan
    seed, never from global randomness.  Models a flapping NIC or a
    congested top-of-rack uplink: the classic gray failure that is
    invisible to liveness checks because both endpoints stay up.
    """

    a: NodeId
    b: NodeId
    loss: float = 0.0
    latency_s: float = 0.0
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self) -> None:
        if repr(self.a) == repr(self.b):
            raise ConfigError(f"flaky link needs two distinct endpoints, got {self.a!r}")
        if not 0.0 <= self.loss < 1.0:
            raise ConfigError(f"link loss must be in [0, 1), got {self.loss}")
        if self.latency_s < 0:
            raise ConfigError("link latency must be non-negative")
        if self.loss == 0.0 and self.latency_s == 0.0:
            raise ConfigError("a flaky link must degrade something: loss or latency")
        if self.start < 0:
            raise ConfigError("link fault start must be non-negative")
        if self.end is not None and self.end <= self.start:
            raise ConfigError(
                f"zero-duration or inverted link-fault window on edge "
                f"{self.edge}: [{self.start}, {self.end})"
            )

    @property
    def edge(self) -> Tuple[NodeId, NodeId]:
        """Canonical undirected edge key (order-independent)."""
        return tuple(sorted((self.a, self.b), key=repr))  # type: ignore[return-value]

    @property
    def window(self) -> Tuple[float, Optional[float]]:
        return (self.start, self.end)


@dataclass(frozen=True)
class NetworkPartition:
    """A node set (or a whole rack) is unreachable during ``[start, heals_at)``.

    Scope is either an explicit ``nodes`` tuple or a ``rack`` id resolved
    against the cluster topology at injection time — exactly one of the
    two.  The cut set is the *minority* side: nodes inside it cannot be
    reached by the driver or by any node outside it, but keep running and
    rejoin intact at ``heals_at``.  Unlike a crash, no replica is lost and
    no re-replication happens — the data is merely unreachable for a
    while, which is what makes partitions gray rather than fail-stop.
    """

    nodes: Tuple[NodeId, ...] = ()
    rack: Optional[int] = None
    start: float = 0.0
    heals_at: float = 0.0

    def __post_init__(self) -> None:
        if bool(self.nodes) == (self.rack is not None):
            raise ConfigError(
                "a partition is scoped by exactly one of nodes=... or rack=..."
            )
        if len({repr(n) for n in self.nodes}) != len(self.nodes):
            raise ConfigError("duplicate nodes in partition scope")
        if self.rack is not None and self.rack < 0:
            raise ConfigError(f"rack id must be non-negative, got {self.rack}")
        if self.start < 0:
            raise ConfigError("partition start must be non-negative")
        if self.heals_at <= self.start:
            raise ConfigError(
                f"zero-duration or inverted partition window: "
                f"[{self.start}, {self.heals_at}) — heals_at must exceed start"
            )

    @property
    def window(self) -> Tuple[float, Optional[float]]:
        return (self.start, self.heals_at)


@dataclass(frozen=True)
class TransientFaults:
    """Per-attempt failure coin: each task attempt fails with ``probability``.

    ``waste_fraction`` is how far into its duration an attempt gets before
    dying (the wasted work charged to the run).  Decisions are drawn from
    the plan seed, never from global randomness.
    """

    probability: float
    waste_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability < 1.0:
            raise ConfigError(
                f"failure probability must be in [0, 1), got {self.probability}"
            )
        if not 0.0 <= self.waste_fraction <= 1.0:
            raise ConfigError("waste_fraction must be in [0, 1]")


@dataclass(frozen=True)
class MetaOutage:
    """One :class:`~repro.core.metastore.MetaNode` is unreachable for the run."""

    node_id: str

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ConfigError("meta-node id must be non-empty")


@dataclass(frozen=True)
class BitRot:
    """One replica of ``block`` on ``node`` silently rots at ``time``.

    Only that node's copy diverges; the logical block and its other
    replicas stay intact, exactly like an undetected disk bit flip under
    HDFS replication.  ``time`` orders rot events; the chaos runner
    injects them before the job's first read (rot is latent by nature —
    it happened whenever the disk decayed, and is only *observable* at
    read or scrub time).
    """

    node: NodeId
    block: int
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.block < 0:
            raise ConfigError(f"block id must be non-negative, got {self.block}")
        if self.time < 0:
            raise ConfigError(f"rot time must be non-negative: {self.time}")


@dataclass(frozen=True)
class StaleMetadata:
    """The ElasticMap entry for ``block`` no longer matches the block.

    Models a metadata update lost or applied out of order: the entry
    describes an older version of the block, so its fingerprint disagrees
    with the stored content.  Detected by
    :meth:`repro.core.datanet.DataNet.validate_integrity`.
    """

    block: int

    def __post_init__(self) -> None:
        if self.block < 0:
            raise ConfigError(f"block id must be non-negative, got {self.block}")


@dataclass(frozen=True)
class DriverRestart:
    """The job driver dies while each node runs the ``wave``-th block of
    its assigned queue, and restarts.

    Completed selection outputs survive.  Each node with a block at that
    wave loses ``waste_fraction`` of the block's fault-free cost, then
    waits out ``restart_delay_s`` before rerunning it from attempt 1; a
    node whose queue is already done waits out the delay only.  A wave
    past the longest queue never fires.  Output must be byte-identical
    to an uninterrupted run; only time is lost.
    """

    wave: int
    waste_fraction: float = 0.5
    restart_delay_s: float = 1.0

    def __post_init__(self) -> None:
        if self.wave < 0:
            raise ConfigError(f"wave must be non-negative, got {self.wave}")
        if not 0.0 <= self.waste_fraction <= 1.0:
            raise ConfigError("waste_fraction must be in [0, 1]")
        if self.restart_delay_s < 0:
            raise ConfigError("restart_delay_s must be non-negative")


@dataclass(frozen=True)
class ServiceCrash:
    """The long-lived analysis service dies at ``time`` and restarts.

    Unlike :class:`DriverRestart` (one job's driver, wave-granular), this
    kills the whole multi-tenant daemon: in-memory metadata is lost and
    must be rebuilt from the write-ahead journal, in-flight jobs are
    re-queued, and submissions during the ``restart_delay_s`` outage are
    shed with a typed rejection.  If an ingest batch is being journaled
    when the crash lands, only records committed before ``time`` are
    durable — recovery replays the journal and re-indexes the rest, and
    the final metadata must be byte-identical to an uninterrupted run.
    """

    time: float
    restart_delay_s: float = 1.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigError(f"crash time must be non-negative, got {self.time}")
        if self.restart_delay_s < 0:
            raise ConfigError("restart_delay_s must be non-negative")


@dataclass(frozen=True)
class LeaderCrash:
    """The metadata-plane *leader* dies at ``time``; a follower takes over.

    Unlike :class:`ServiceCrash` (the whole daemon restarts and sheds
    submissions with a typed rejection), only the leader role dies here:
    the replicated journal quorum survives, the φ-accrual detector takes
    ``detect_delay`` to declare the leader dead, a Raft-lite election
    fences a new epoch, and every job in flight or submitted during the
    outage is *parked and replayed* — nothing is shed, ``silent_drops``
    stays zero, and the final digests must match the crash-free run.
    """

    time: float
    suspicion_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigError(f"crash time must be non-negative, got {self.time}")
        if self.suspicion_threshold <= 0:
            raise ConfigError("suspicion_threshold must be positive")


@dataclass(frozen=True)
class JournalReplicaCrash:
    """One journal replica dies at ``time`` and restarts at ``restores_at``.

    A minority of these must never block commits (quorum absorbs them);
    on restore the replica catches up via anti-entropy frame transfer.
    ``at_byte`` optionally truncates the replica's durable log there,
    modelling a crash mid-write (the torn tail is dropped on re-open).
    ``restores_at=None`` keeps the replica down for the rest of the run.
    """

    replica: str
    time: float
    restores_at: Optional[float] = None
    at_byte: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.replica:
            raise ConfigError("journal replica id must be non-empty")
        if self.time < 0:
            raise ConfigError(f"crash time must be non-negative, got {self.time}")
        if self.restores_at is not None and self.restores_at <= self.time:
            raise ConfigError(
                f"zero-duration or inverted replica outage on {self.replica!r}: "
                f"[{self.time}, {self.restores_at})"
            )
        if self.at_byte is not None and self.at_byte < 0:
            raise ConfigError("at_byte must be non-negative")

    @property
    def window(self) -> Tuple[float, Optional[float]]:
        return (self.time, self.restores_at)


@dataclass(frozen=True)
class MetadataPartition:
    """Journal replicas unreachable from the leader during ``[start, heals_at)``.

    The storage-plane cousin is :class:`NetworkPartition`; this one cuts
    the *metadata* plane.  While a minority is cut, appends still commit
    at quorum; cutting a majority makes appends fail with a typed
    ``QuorumLostError`` and the service parks ingest until the heal, when
    anti-entropy catches the returning replicas up.
    """

    replicas: Tuple[str, ...]
    start: float = 0.0
    heals_at: float = 0.0

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ConfigError("a metadata partition must cut at least one replica")
        if len(set(self.replicas)) != len(self.replicas):
            raise ConfigError("duplicate replicas in metadata partition scope")
        if any(not r for r in self.replicas):
            raise ConfigError("journal replica ids must be non-empty")
        if self.start < 0:
            raise ConfigError("partition start must be non-negative")
        if self.heals_at <= self.start:
            raise ConfigError(
                f"zero-duration or inverted metadata-partition window: "
                f"[{self.start}, {self.heals_at}) — heals_at must exceed start"
            )

    @property
    def window(self) -> Tuple[float, Optional[float]]:
        return (self.start, self.heals_at)


@dataclass(frozen=True)
class FaultPlan:
    """The full failure script for one chaos run.

    Attributes:
        seed: drives every hash-based decision (transient coin flips).
        crashes: permanent node deaths, at most one per node.
        slow_nodes: slow-node degradations; windows on the same node must
            not overlap (disjoint windows are fine).
        flaky_links: per-edge loss/latency degradations; windows on the
            same undirected edge must not overlap.
        partitions: rack- or node-set-scoped network partitions that heal
            at a configured time; windows sharing a node must not overlap.
        transient: per-attempt transient failure model (``None`` disables).
        meta_outages: metadata shards down for the whole run.
        bit_rots: silent replica corruptions, at most one per (node, block).
        stale_metadata: ElasticMap entries diverged from their blocks, at
            most one per block.
        driver_restarts: mid-job driver deaths, at most one per wave.
        service_crashes: whole-service deaths (``repro.serve``), at most
            one per time point.
        leader_crashes: metadata-plane leader deaths (quorum survives,
            failover elects a successor), at most one per time point.
        journal_crashes: journal replica deaths; windows on the same
            replica must not overlap.
        meta_partitions: metadata-plane partitions; windows sharing a
            replica must not overlap.
    """

    seed: int = 0
    crashes: Tuple[NodeCrash, ...] = ()
    slow_nodes: Tuple[SlowNode, ...] = ()
    flaky_links: Tuple[FlakyLink, ...] = ()
    partitions: Tuple[NetworkPartition, ...] = ()
    transient: Optional[TransientFaults] = None
    meta_outages: Tuple[MetaOutage, ...] = ()
    bit_rots: Tuple[BitRot, ...] = ()
    stale_metadata: Tuple[StaleMetadata, ...] = ()
    driver_restarts: Tuple[DriverRestart, ...] = ()
    service_crashes: Tuple[ServiceCrash, ...] = ()
    leader_crashes: Tuple[LeaderCrash, ...] = ()
    journal_crashes: Tuple[JournalReplicaCrash, ...] = ()
    meta_partitions: Tuple[MetadataPartition, ...] = ()

    def __post_init__(self) -> None:
        crash_nodes = [c.node for c in self.crashes]
        if len(set(crash_nodes)) != len(crash_nodes):
            raise ConfigError("a node can only crash once per plan")
        by_node: dict = {}
        for s in self.slow_nodes:
            by_node.setdefault(repr(s.node), []).append(s)
        for key, slows in sorted(by_node.items()):
            _assert_disjoint_windows(
                [s.window for s in slows], f"slow node {key}"
            )
        by_edge: dict = {}
        for l in self.flaky_links:
            by_edge.setdefault(repr(l.edge), []).append(l)
        for key, links in sorted(by_edge.items()):
            _assert_disjoint_windows(
                [l.window for l in links], f"link {key}"
            )
        by_member: dict = {}
        for p in self.partitions:
            if p.nodes:
                for n in p.nodes:
                    by_member.setdefault(f"node {n!r}", []).append(p)
            else:
                by_member.setdefault(f"rack {p.rack}", []).append(p)
        for key, parts in sorted(by_member.items()):
            _assert_disjoint_windows(
                [p.window for p in parts], f"partitioned {key}"
            )
        outs = [o.node_id for o in self.meta_outages]
        if len(set(outs)) != len(outs):
            raise ConfigError("duplicate meta-node outage")
        rots = [(r.node, r.block) for r in self.bit_rots]
        if len(set(rots)) != len(rots):
            raise ConfigError("at most one bit rot per (node, block) replica")
        stale = [s.block for s in self.stale_metadata]
        if len(set(stale)) != len(stale):
            raise ConfigError("at most one stale-metadata entry per block")
        waves = [r.wave for r in self.driver_restarts]
        if len(set(waves)) != len(waves):
            raise ConfigError("at most one driver restart per wave")
        crash_times = [c.time for c in self.service_crashes]
        if len(set(crash_times)) != len(crash_times):
            raise ConfigError("at most one service crash per time point")
        leader_times = [c.time for c in self.leader_crashes]
        if len(set(leader_times)) != len(leader_times):
            raise ConfigError("at most one leader crash per time point")
        by_replica: dict = {}
        for jc in self.journal_crashes:
            by_replica.setdefault(jc.replica, []).append(jc)
        for key, crashes in sorted(by_replica.items()):
            _assert_disjoint_windows(
                [c.window for c in crashes], f"journal replica {key!r}"
            )
        by_jmember: dict = {}
        for mp in self.meta_partitions:
            for r in mp.replicas:
                by_jmember.setdefault(r, []).append(mp)
        for key, parts in sorted(by_jmember.items()):
            _assert_disjoint_windows(
                [p.window for p in parts], f"partitioned journal replica {key!r}"
            )

    # -- queries -----------------------------------------------------------------

    @property
    def crashed_nodes(self) -> Tuple[NodeId, ...]:
        """Nodes the plan kills, in crash-time order."""
        return tuple(c.node for c in sorted(self.crashes, key=lambda c: (c.time, repr(c.node))))

    @property
    def has_gray(self) -> bool:
        """True when the plan injects any gray (non-fail-stop) fault."""
        return bool(self.slow_nodes or self.flaky_links or self.partitions)

    def validate_targets(self, nodes: Iterable[NodeId]) -> None:
        """Reject faults aimed at nodes outside ``nodes``, and restarts
        combined with faults the restart rule cannot model.

        Checks crash, slow-node and bit-rot nodes, flaky-link endpoints and
        node-set partitions.  Cheap enough to run before any data exists,
        so a bad plan fails before it costs a workload.

        Raises:
            ConfigError: on the first unknown node or invalid combination.
        """
        known = set(nodes)
        for crash in self.crashes:
            if crash.node not in known:
                raise ConfigError(f"plan crashes unknown node {crash.node!r}")
        for slow in self.slow_nodes:
            if slow.node not in known:
                raise ConfigError(f"plan slows unknown node {slow.node!r}")
        for rot in self.bit_rots:
            if rot.node not in known:
                raise ConfigError(f"plan rots replica on unknown node {rot.node!r}")
        for link in self.flaky_links:
            for endpoint in (link.a, link.b):
                if endpoint not in known:
                    raise ConfigError(
                        f"plan degrades link at unknown node {endpoint!r}"
                    )
        for p in self.partitions:
            unknown = sorted(repr(n) for n in p.nodes if n not in known)
            if unknown:
                raise ConfigError(
                    f"partition names unknown node(s): {', '.join(unknown)}"
                )
        if self.driver_restarts and self.crashes:
            raise ConfigError(
                "driver restarts cannot be combined with node crashes: "
                "restarts are charged along each node's assigned queue, and "
                "crash recovery rewrites those queues"
            )
        if self.driver_restarts and (self.partitions or self.flaky_links):
            raise ConfigError(
                "driver restarts cannot be combined with partitions or flaky "
                "links: restart waste is priced without a network model"
            )

    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (
            self.crashes
            or self.slow_nodes
            or self.flaky_links
            or self.partitions
            or self.transient
            or self.meta_outages
            or self.bit_rots
            or self.stale_metadata
            or self.driver_restarts
            or self.service_crashes
            or self.leader_crashes
            or self.journal_crashes
            or self.meta_partitions
        )

    # -- construction ------------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        nodes: Sequence[NodeId],
        *,
        crash_count: int = 1,
        crash_horizon_s: float = 10.0,
        flaky_probability: float = 0.05,
        slow_count: int = 0,
        slow_factor: float = 2.0,
        bitrot_count: int = 0,
        num_blocks: Optional[int] = None,
    ) -> "FaultPlan":
        """Sample a plan from a seed — the soak-test entry point.

        Crash victims and times, slow nodes, bit-rot targets and the
        transient probability all come from ``numpy``'s seeded generator,
        so the same seed over the same node list yields the same plan.
        ``bitrot_count`` requires ``num_blocks`` (the sampled (node, block)
        pairs must land on real blocks); the chaos runner resolves a pair
        whose node holds no replica to the block's primary replica.
        """
        universe = list(nodes)
        if crash_count + slow_count > len(universe):
            raise ConfigError(
                f"cannot pick {crash_count} crashes + {slow_count} slow nodes "
                f"from {len(universe)} nodes"
            )
        if crash_horizon_s < 0:
            raise ConfigError("crash_horizon_s must be non-negative")
        rng = np.random.default_rng(seed)
        picks = list(rng.choice(len(universe), size=crash_count + slow_count, replace=False))
        crashes = tuple(
            NodeCrash(universe[int(i)], float(rng.uniform(0.0, crash_horizon_s)))
            for i in picks[:crash_count]
        )
        slow = tuple(
            SlowNode(universe[int(i)], slow_factor) for i in picks[crash_count:]
        )
        transient = (
            TransientFaults(flaky_probability) if flaky_probability > 0 else None
        )
        bit_rots: Tuple[BitRot, ...] = ()
        if bitrot_count > 0:
            if num_blocks is None or num_blocks <= 0:
                raise ConfigError(
                    "bitrot_count requires a positive num_blocks to sample from"
                )
            cells = len(universe) * num_blocks
            if bitrot_count > cells:
                raise ConfigError(
                    f"cannot pick {bitrot_count} bit rots from {cells} replicas"
                )
            flat = rng.choice(cells, size=bitrot_count, replace=False)
            bit_rots = tuple(
                BitRot(universe[int(i) // num_blocks], int(i) % num_blocks)
                for i in sorted(int(i) for i in flat)
            )
        return cls(
            seed=seed,
            crashes=crashes,
            slow_nodes=slow,
            transient=transient,
            bit_rots=bit_rots,
        )
