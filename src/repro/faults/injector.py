"""The fault oracle execution layers consult at event boundaries.

:class:`FaultInjector` turns a declarative :class:`~repro.faults.plan.FaultPlan`
into point queries: *does this attempt fail?*, *is this node dead yet?*,
*how slow is this node right now?*  Every answer is a pure function of the
plan — transient decisions hash ``(seed, task, attempt, node)`` through
BLAKE2b — so every run under injection stays fully deterministic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..errors import ConfigError
from .plan import (
    BitRot,
    DriverRestart,
    FaultPlan,
    FlakyLink,
    JournalReplicaCrash,
    LeaderCrash,
    MetadataPartition,
    NodeCrash,
    ServiceCrash,
    SlowNode,
)

__all__ = ["FaultInjector", "ResolvedPartition"]

NodeId = Hashable


@dataclass(frozen=True)
class ResolvedPartition:
    """A :class:`~repro.faults.plan.NetworkPartition` with its cut set resolved.

    ``nodes`` is the concrete minority side (rack scopes expanded against
    the cluster topology); the cut is active during ``[start, heals_at)``.
    """

    nodes: FrozenSet[NodeId]
    start: float
    heals_at: float

    def active(self, time: float) -> bool:
        return self.start <= time < self.heals_at

    def sorted_nodes(self) -> List[NodeId]:
        return sorted(self.nodes, key=repr)


class FaultInjector:
    """Stateless fault oracle over one :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._crash_time: Dict[NodeId, float] = {c.node: c.time for c in plan.crashes}
        self._slow: Dict[NodeId, List[SlowNode]] = {}
        for s in plan.slow_nodes:
            self._slow.setdefault(s.node, []).append(s)
        for windows in self._slow.values():
            windows.sort(key=lambda s: s.start)
        self._links: Dict[Tuple[NodeId, NodeId], List[FlakyLink]] = {}
        for l in plan.flaky_links:
            self._links.setdefault(l.edge, []).append(l)
        for faults in self._links.values():
            faults.sort(key=lambda l: l.start)
        self._partitions: Optional[List[ResolvedPartition]] = (
            [] if not plan.partitions else None
        )

    # -- transient task failures ---------------------------------------------------

    @staticmethod
    def _uniform(*parts: object) -> float:
        """Deterministic U[0, 1) from the given identity tuple."""
        payload = "/".join(repr(p) for p in parts).encode("utf-8")
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "little") / 2.0**64

    def attempt_fails(self, task_key: str, attempt: int, node: NodeId) -> bool:
        """Whether attempt ``attempt`` of ``task_key`` on ``node`` dies."""
        t = self.plan.transient
        if t is None or t.probability <= 0.0:
            return False
        return (
            self._uniform(self.plan.seed, task_key, attempt, node) < t.probability
        )

    @property
    def waste_fraction(self) -> float:
        """Fraction of an attempt's duration burned before a transient death."""
        t = self.plan.transient
        return t.waste_fraction if t is not None else 0.5

    # -- crashes ------------------------------------------------------------------

    def crash_time(self, node: NodeId) -> Optional[float]:
        """When ``node`` dies, or ``None`` if the plan spares it."""
        return self._crash_time.get(node)

    def is_crashed(self, node: NodeId, time: float) -> bool:
        """Whether ``node`` is already dead at simulated ``time``."""
        t = self._crash_time.get(node)
        return t is not None and time >= t

    def crashes_chronological(self) -> List[NodeCrash]:
        """All planned crashes, earliest first (ties broken by node repr)."""
        return sorted(self.plan.crashes, key=lambda c: (c.time, repr(c.node)))

    # -- slowdowns ----------------------------------------------------------------

    def slowdown(self, node: NodeId, time: float = 0.0) -> float:
        """Duration multiplier for work starting on ``node`` at ``time``."""
        for s in self._slow.get(node, ()):
            if s.start <= time and (s.end is None or time < s.end):
                return s.factor
        return 1.0

    # -- flaky links --------------------------------------------------------------

    def link_fault(
        self, a: NodeId, b: NodeId, time: float = 0.0
    ) -> Optional[FlakyLink]:
        """The link degradation active on edge ``(a, b)`` at ``time``, if any."""
        edge = tuple(sorted((a, b), key=repr))
        for l in self._links.get(edge, ()):  # windows are disjoint: first hit wins
            if l.start <= time and (l.end is None or time < l.end):
                return l
        return None

    def link_penalty(
        self,
        a: NodeId,
        b: NodeId,
        *,
        time: float = 0.0,
        key: str = "",
        base_cost: float = 0.0,
    ) -> float:
        """Extra seconds a transfer over edge ``(a, b)`` pays at ``time``.

        A drop (probability ``loss``, hashed from the plan seed and
        ``key``) costs one retransmission: ``base_cost`` again on top of
        the added latency.  Returns 0.0 on healthy edges.
        """
        fault = self.link_fault(a, b, time)
        if fault is None:
            return 0.0
        penalty = fault.latency_s
        if fault.loss > 0.0:
            edge = fault.edge
            coin = self._uniform(self.plan.seed, "link", edge[0], edge[1], key)
            if coin < fault.loss:
                penalty += base_cost
        return penalty

    # -- partitions ---------------------------------------------------------------

    def resolve_partitions(
        self,
        nodes: Iterable[NodeId],
        *,
        rack_of: Optional[Callable[[NodeId], int]] = None,
    ) -> List[ResolvedPartition]:
        """Expand the plan's partitions against a concrete node universe.

        Rack scopes need ``rack_of`` (the cluster topology); explicit node
        scopes must name known nodes, and a cut may never swallow the
        whole cluster (that would be an outage, not a partition).  The
        resolution is cached so later :meth:`unreachable` / :meth:`same_side`
        queries are cheap and consistent.
        """
        universe = sorted(nodes, key=repr)
        known = {repr(n) for n in universe}
        resolved: List[ResolvedPartition] = []
        for p in self.plan.partitions:
            if p.nodes:
                unknown = sorted(repr(n) for n in p.nodes if repr(n) not in known)
                if unknown:
                    raise ConfigError(
                        f"partition names unknown node(s): {', '.join(unknown)}"
                    )
                cut = frozenset(p.nodes)
            else:
                if rack_of is None:
                    raise ConfigError(
                        f"rack-scoped partition (rack={p.rack}) needs a cluster "
                        "topology to resolve — pass rack_of"
                    )
                cut = frozenset(n for n in universe if rack_of(n) == p.rack)
                if not cut:
                    raise ConfigError(f"partition rack {p.rack} holds no nodes")
            if len(cut) >= len(universe):
                raise ConfigError(
                    "partition cut covers every node — that is a full outage, "
                    "not a partition"
                )
            resolved.append(ResolvedPartition(cut, p.start, p.heals_at))
        # Rack expansion can create overlaps the plan could not see
        # (rack scope vs explicit nodes in that rack): reject them here.
        for i, x in enumerate(resolved):
            for y in resolved[i + 1 :]:
                if (
                    x.start < y.heals_at
                    and y.start < x.heals_at
                    and x.nodes & y.nodes
                ):
                    raise ConfigError(
                        "overlapping partitions share node(s): "
                        f"{sorted(repr(n) for n in x.nodes & y.nodes)}"
                    )
        resolved.sort(key=lambda p: (p.start, p.heals_at, repr(p.sorted_nodes())))
        self._partitions = resolved
        return resolved

    def partitions_chronological(self) -> List[ResolvedPartition]:
        """Resolved partitions, earliest first.

        Raises :class:`ConfigError` when the plan has partitions that were
        never resolved against a node universe.
        """
        if self._partitions is None:
            raise ConfigError(
                "plan has partitions but resolve_partitions() was never called"
            )
        return list(self._partitions)

    def unreachable(self, node: NodeId, time: float = 0.0) -> bool:
        """Whether ``node`` is behind an active partition cut at ``time``."""
        return any(
            p.active(time) and node in p.nodes
            for p in self.partitions_chronological()
        )

    def same_side(self, a: NodeId, b: NodeId, time: float = 0.0) -> bool:
        """Whether ``a`` and ``b`` can reach each other at ``time``."""
        return all(
            (a in p.nodes) == (b in p.nodes)
            for p in self.partitions_chronological()
            if p.active(time)
        )

    # -- integrity faults ----------------------------------------------------------

    def bit_rots_chronological(self) -> List[BitRot]:
        """All planned replica corruptions, earliest first (stable order)."""
        return sorted(
            self.plan.bit_rots, key=lambda r: (r.time, repr(r.node), r.block)
        )

    def stale_blocks(self) -> List[int]:
        """Block ids whose metadata entry the plan marks stale, sorted."""
        return sorted(s.block for s in self.plan.stale_metadata)

    def driver_restarts(self) -> List[DriverRestart]:
        """All planned driver restarts, earliest wave first."""
        return sorted(self.plan.driver_restarts, key=lambda r: r.wave)

    def service_crashes_chronological(self) -> List[ServiceCrash]:
        """All planned service crashes, earliest first."""
        return sorted(self.plan.service_crashes, key=lambda c: c.time)

    def leader_crashes_chronological(self) -> List[LeaderCrash]:
        """All planned metadata-leader crashes, earliest first."""
        return sorted(self.plan.leader_crashes, key=lambda c: c.time)

    def journal_crashes_chronological(self) -> List[JournalReplicaCrash]:
        """All planned journal-replica crashes, earliest first."""
        return sorted(
            self.plan.journal_crashes, key=lambda c: (c.time, c.replica)
        )

    def meta_partitions_chronological(self) -> List[MetadataPartition]:
        """All planned metadata-plane partitions, earliest first."""
        return sorted(
            self.plan.meta_partitions, key=lambda p: (p.start, p.replicas)
        )
