"""Background executor: apply a :class:`RebalancePlan` move by move.

The executor is the only component that touches live state.  Moves never
change sub-dataset contents, only block → node edges, so the ElasticMap
needs no update; two disciplines keep the layout itself safe:

* **idempotent moves** — each move is applied through
  :meth:`~repro.hdfs.cluster.HDFSCluster.move_replica` /
  :meth:`~repro.hdfs.cluster.HDFSCluster.move_fragment`, and re-applying
  a plan after a crash skips moves the catalog already reflects.  A torn
  move (destination stored, catalog still pointing at the source) is
  completed, not re-started, so replaying a crashed apply always lands
  on the same byte-identical layout — :func:`layout_digest` is the
  oracle tests use to prove it.
* **listener propagation** — every mutation funnels through the cluster
  move methods, which notify placement listeners; a DataNet registered
  via :meth:`~repro.hdfs.cluster.HDFSCluster.watch_placement` patches
  its version-keyed bipartite-graph caches incrementally, so jobs racing
  the rebalance schedule against the true layout.

Crash injection (``crash_at_move`` / ``torn``) exists for the chaos
drills: it models a :class:`~repro.faults.ServiceCrash` landing between
— or in the middle of — individual moves.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from ..hdfs.cluster import DatasetView, HDFSCluster
from ..metrics import format_kv
from ..obs import NULL_OBS, Observability
from .planner import Move, RebalancePlan

__all__ = ["RebalanceExecutor", "ExecutionReport", "layout_digest"]


def layout_digest(dataset: DatasetView) -> str:
    """BLAKE2b digest of the dataset's exact placement — the byte-identity
    oracle for crash-replay tests (same digest ⇔ same layout)."""
    h = hashlib.blake2b(digest_size=16)
    placement = dataset.placement()
    for bid in sorted(placement):
        h.update(repr((bid, tuple(placement[bid]))).encode())
    return h.hexdigest()


@dataclass
class ExecutionReport:
    """What one :meth:`RebalanceExecutor.apply` pass did."""

    applied: int = 0
    skipped: int = 0
    bytes_migrated: int = 0
    completed: bool = False

    def format(self) -> str:
        return format_kv(
            {
                "moves applied": self.applied,
                "moves skipped (already done)": self.skipped,
                "bytes migrated": self.bytes_migrated,
                "completed": self.completed,
            },
            title="rebalance apply",
        )


class RebalanceExecutor:
    """Applies plans against a live cluster, incrementally and crash-safely.

    Args:
        cluster: the cluster to mutate.
        epoch: fencing token stamped into every mutation; a deposed
            leader's executor is rejected by the cluster fence (``None``
            skips the check).
    """

    def __init__(
        self,
        cluster: HDFSCluster,
        *,
        epoch: Optional[int] = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        if epoch is not None and epoch < 0:
            raise ConfigError(f"fencing epoch must be non-negative, got {epoch}")
        self.cluster = cluster
        self.epoch = epoch
        self.obs = obs

    # -- single move ----------------------------------------------------------------

    def _move_state(self, move: Move) -> str:
        """Where a move stands: 'pending', 'done', or 'torn'."""
        holders = self.cluster.namenode.block_locations(
            move.dataset, move.block_id
        )
        if move.src not in holders and move.dst in holders:
            return "done"
        dst_node = self.cluster.datanodes.get(move.dst)
        if dst_node is not None and move.src in holders:
            stored = (
                dst_node.has_fragment(move.dataset, move.block_id)
                if move.fragment_index is not None
                else dst_node.has_replica(move.dataset, move.block_id)
            )
            if stored:
                return "torn"
        return "pending"

    def _complete_torn(self, move: Move) -> None:
        """Finish a move whose destination write landed before a crash."""
        self.cluster.check_fence(
            self.epoch, f"complete_torn({move.dataset!r}, {move.block_id})"
        )
        holders = list(
            self.cluster.namenode.block_locations(move.dataset, move.block_id)
        )
        src_node = self.cluster.datanodes[move.src]
        if move.fragment_index is not None:
            if src_node.has_fragment(move.dataset, move.block_id):
                src_node.drop_fragment(move.dataset, move.block_id)
            holders[move.fragment_index] = move.dst
        else:
            if src_node.has_replica(move.dataset, move.block_id):
                src_node.drop_replica(move.dataset, move.block_id)
            holders[holders.index(move.src)] = move.dst
        self.cluster.namenode.update_replicas(
            move.dataset, move.block_id, holders
        )
        self.cluster.notify_placement(move.dataset)

    def _store_dst_only(self, move: Move) -> None:
        """The first half of a move: write the destination copy, nothing else
        (used to inject a torn mid-move crash)."""
        dst_node = self.cluster.datanodes[move.dst]
        if move.fragment_index is not None:
            coded = self.cluster.coded_block(move.dataset, move.block_id)
            dst_node.store_fragment(move.dataset, coded, move.fragment_index)
        else:
            block = self.cluster.get_block(move.dataset, move.block_id)
            dst_node.store_replica(move.dataset, block)

    # -- plan application -----------------------------------------------------------

    def apply(
        self,
        plan: RebalancePlan,
        *,
        crash_at_move: Optional[int] = None,
        torn: bool = False,
    ) -> ExecutionReport:
        """Apply ``plan``; re-applying after a crash resumes idempotently.

        Args:
            plan: the move list to realize.
            crash_at_move: stop before applying the move at this index
                (models a ``ServiceCrash`` between moves); the report
                comes back ``completed=False``.
            torn: with ``crash_at_move``, additionally write the crashed
                move's destination copy but leave the catalog untouched —
                the half-applied state a mid-move crash leaves behind.
        """
        if torn and crash_at_move is None:
            raise ConfigError("torn crashes need crash_at_move")
        report = ExecutionReport()
        with self.obs.tracer.span(
            "rebalance/apply", category="rebalance", moves=plan.num_moves
        ):
            for i, move in enumerate(plan.moves):
                if crash_at_move is not None and i == crash_at_move:
                    if torn:
                        self._store_dst_only(move)
                    return report
                state = self._move_state(move)
                if state == "done":
                    report.skipped += 1
                    continue
                if state == "torn":
                    self._complete_torn(move)
                elif move.fragment_index is not None:
                    self.cluster.move_fragment(
                        move.dataset,
                        move.block_id,
                        move.src,
                        move.dst,
                        epoch=self.epoch,
                    )
                else:
                    self.cluster.move_replica(
                        move.dataset,
                        move.block_id,
                        move.src,
                        move.dst,
                        epoch=self.epoch,
                    )
                report.applied += 1
                report.bytes_migrated += move.nbytes
        report.completed = True
        if self.obs.metrics.enabled:
            self.obs.metrics.counter(
                "rebalance_moves_total", help="replica/fragment moves applied"
            ).inc(report.applied)
            self.obs.metrics.counter(
                "rebalance_bytes_migrated_total",
                help="bytes migrated by rebalancing",
            ).inc(report.bytes_migrated)
        return report
