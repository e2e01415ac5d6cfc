"""Seed-deterministic simulated-annealing search over replica-move plans.

The planner owns the *search*: starting from the cluster's current
layout it proposes single replica moves (or single coded-fragment moves)
and walks downhill on the :mod:`~repro.rebalance.costmodel` objective,
with a geometrically cooled temperature admitting occasional uphill
steps to escape local minima.  The walk is a pure function of
``(layout, profile, seed)`` — proposals come from one
``numpy.random.default_rng(seed)`` stream and every fold iterates in
sorted order — so planning twice yields byte-identical plans.

Three invariants gate every proposal:

* **distinctness** — no two replicas (or fragments) of a block on one
  node, matching the NameNode's own catalog validation;
* **coded geometry** — a fragment move substitutes the destination at
  the *same stripe index* the source held, and the resulting holder list
  keeps the rack-spread bound (no rack holds more than
  ``ceil((k+m)/racks)`` fragments of one stripe), mirroring
  :class:`~repro.hdfs.placement.FragmentPlacement`;
* **budget** — the *net* bytes that would have to migrate to reach the
  candidate layout never exceed the migration budget.  Net, not
  cumulative: annealing routinely moves a replica out and back, and a
  reversal refunds its bytes rather than burning budget twice.

The emitted :class:`RebalancePlan` is the net per-block diff between the
original and final layouts — the minimal move list an executor must
apply — never the accept/reject history of the walk.  Before it is
returned, :func:`check_plan_invariants` replays it against the layout the
search started from, so no caller ever applies an unchecked plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..hdfs.cluster import DatasetView
from ..metrics import format_kv
from ..obs import NULL_OBS, Observability
from .costmodel import PlacementCostModel, WorkloadProfile

__all__ = ["Move", "RebalancePlan", "RebalancePlanner", "check_plan_invariants"]


@dataclass(frozen=True)
class Move:
    """One replica (or coded fragment) migration.

    ``fragment_index`` is the stripe slot the destination takes over for
    coded blocks, ``None`` for plain replicas.
    """

    dataset: str
    block_id: int
    src: int
    dst: int
    nbytes: int
    fragment_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ConfigError(f"move of block {self.block_id} goes nowhere")
        if self.nbytes <= 0:
            raise ConfigError(
                f"move of block {self.block_id} must carry positive bytes"
            )


@dataclass(frozen=True)
class RebalancePlan:
    """The net layout diff the annealer settled on, bounded by a budget."""

    dataset: str
    seed: int
    budget_bytes: int
    cost_before: float
    cost_after: float
    moves: Tuple[Move, ...] = field(default_factory=tuple)

    @property
    def total_bytes(self) -> int:
        """Bytes that migrate when the plan is applied in full."""
        return sum(m.nbytes for m in self.moves)

    @property
    def num_moves(self) -> int:
        return len(self.moves)

    @property
    def improvement(self) -> float:
        """Fractional cost reduction (0 when the layout was left alone)."""
        if self.cost_before <= 0.0:
            return 0.0
        return 1.0 - self.cost_after / self.cost_before

    def format(self) -> str:
        return format_kv(
            {
                "dataset": self.dataset,
                "seed": self.seed,
                "moves": self.num_moves,
                "bytes to migrate": self.total_bytes,
                "budget bytes": self.budget_bytes,
                "cost before": round(self.cost_before, 2),
                "cost after": round(self.cost_after, 2),
                "improvement": f"{100.0 * self.improvement:.1f}%",
            },
            title="rebalance plan",
        )


def _net_diff_bytes(
    orig: Sequence[int],
    cur: Sequence[int],
    *,
    coded: bool,
    block_bytes: int,
    fragment_bytes: int,
) -> int:
    """Bytes needed to migrate from ``orig`` to ``cur`` for one block."""
    if coded:
        changed = sum(1 for o, c in zip(orig, cur) if o != c)
        return changed * fragment_bytes
    return len(set(orig) - set(cur)) * block_bytes


class RebalancePlanner:
    """Searches for a better layout of one dataset under a byte budget.

    Args:
        dataset: the dataset view whose placement is being optimized (the
            planner never mutates it — it works on a copy).
        datanet: resident metadata for the dataset (distributions are
            read from its ElasticMap).
        profile: tenant workload to optimize for.
        budget_bytes: migration budget; defaults to ``budget_fraction``
            of the dataset's logical bytes.
        budget_fraction: used only when ``budget_bytes`` is None.
        seed: RNG seed — same seed, same layout, same plan, always.
        iterations: annealing proposals to evaluate.
    """

    def __init__(
        self,
        dataset: DatasetView,
        datanet: "object",
        profile: WorkloadProfile,
        *,
        budget_bytes: Optional[int] = None,
        budget_fraction: float = 0.25,
        seed: int = 0,
        iterations: int = 4000,
        obs: Observability = NULL_OBS,
    ) -> None:
        if budget_bytes is None:
            if not (0.0 < budget_fraction <= 1.0):
                raise ConfigError(
                    f"budget_fraction must be in (0, 1], got {budget_fraction}"
                )
            budget_bytes = int(budget_fraction * dataset.total_bytes)
        if budget_bytes < 0:
            raise ConfigError(f"budget_bytes must be >= 0, got {budget_bytes}")
        if iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {iterations}")
        self.dataset = dataset
        self.datanet = datanet
        self.profile = profile
        self.budget_bytes = budget_bytes
        self.seed = seed
        self.iterations = iterations
        self.obs = obs
        self.model = PlacementCostModel(datanet, profile)

    # -- invariant checks ---------------------------------------------------------

    def _rack_counts(self, holders: Sequence[int]) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for n in holders:
            rk = self.dataset.cluster.rack_of(n)
            counts[rk] = counts.get(rk, 0) + 1
        return counts

    def _fragment_move_legal(
        self, holders: Sequence[int], index: int, dst: int
    ) -> bool:
        """Does substituting ``dst`` at stripe ``index`` keep rack spread?"""
        if dst in holders:
            return False
        cluster = self.dataset.cluster
        racks = {cluster.rack_of(n) for n in cluster.nodes}
        bound = math.ceil(len(holders) / max(len(racks), 1))
        counts = self._rack_counts(holders)
        counts[cluster.rack_of(holders[index])] -= 1
        dst_rack = cluster.rack_of(dst)
        return counts.get(dst_rack, 0) + 1 <= bound

    # -- planning -----------------------------------------------------------------

    def plan(self) -> RebalancePlan:
        """Run the annealing search and emit the net-diff plan.

        Raises:
            ConfigError: the plan breaks an invariant of
                :func:`check_plan_invariants` on the starting layout.
        """
        cluster = self.dataset.cluster
        with self.obs.tracer.span("rebalance/plan", category="rebalance"):
            start = self.dataset.placement()
            plan = self._plan_inner(start)
            check_plan_invariants(
                plan, start, num_racks=cluster.num_racks, rack_of=cluster.rack_of
            )
        if self.obs.metrics.enabled:
            self.obs.metrics.gauge(
                "rebalance_cost_before", help="layout cost before rebalancing"
            ).set(plan.cost_before)
            self.obs.metrics.gauge(
                "rebalance_cost_after", help="layout cost after rebalancing"
            ).set(plan.cost_after)
        return plan

    def _plan_inner(self, placement: Mapping[int, Sequence[int]]) -> RebalancePlan:
        view = self.dataset
        coding = view.coding
        coded = coding is not None
        orig: Dict[int, Tuple[int, ...]] = {
            bid: tuple(holders) for bid, holders in placement.items()
        }
        cur: Dict[int, List[int]] = {bid: list(orig[bid]) for bid in orig}
        candidates = [b for b in self.model.candidate_blocks() if b in cur]
        nodes = list(view.cluster.nodes)  # sorted
        evaluator = self.model.evaluator(cur)
        cost_before = evaluator.cost
        if not candidates or len(nodes) < 2 or self.budget_bytes == 0:
            return RebalancePlan(
                dataset=view.name,
                seed=self.seed,
                budget_bytes=self.budget_bytes,
                cost_before=cost_before,
                cost_after=cost_before,
                moves=(),
            )

        block_bytes = {
            bid: view.cluster.namenode.block_meta(view.name, bid).size_bytes
            for bid in candidates
        }
        frag_bytes = {
            bid: view.coded_block(bid).fragment_nbytes if coded else 0
            for bid in candidates
        }
        diff_bytes = {bid: 0 for bid in candidates}
        spent = 0

        rng = np.random.default_rng(self.seed)
        temp = 0.05 * max(cost_before, 1e-9)
        cooling = (1e-3) ** (1.0 / max(self.iterations, 1))

        for _ in range(self.iterations):
            bid = candidates[int(rng.integers(len(candidates)))]
            holders = cur[bid]
            slot = int(rng.integers(len(holders)))
            dst = nodes[int(rng.integers(len(nodes)))]
            src = holders[slot]
            if dst == src:
                temp *= cooling
                continue
            if coded:
                # moving a fragment onto a *different* original holder would
                # make the net diff a permutation cycle no sequential move
                # list can realize — and permutations are cost-neutral, so
                # excluding them loses nothing
                legal = (
                    dst not in orig[bid] or orig[bid][slot] == dst
                ) and self._fragment_move_legal(holders, slot, dst)
            else:
                legal = dst not in holders
            if not legal:
                temp *= cooling
                continue
            # price the budget on the *net* diff this block would end at
            trial = list(holders)
            trial[slot] = dst
            new_diff = _net_diff_bytes(
                orig[bid],
                trial,
                coded=coded,
                block_bytes=block_bytes[bid],
                fragment_bytes=frag_bytes[bid],
            )
            if spent - diff_bytes[bid] + new_diff > self.budget_bytes:
                temp *= cooling
                continue
            delta = evaluator.delta(bid, src, dst)
            accept = delta < 0.0 or (
                temp > 0.0 and float(rng.random()) < math.exp(-delta / temp)
            )
            if accept:
                evaluator.apply(bid, src, dst)
                holders[slot] = dst
                spent += new_diff - diff_bytes[bid]
                diff_bytes[bid] = new_diff
            temp *= cooling

        moves = self._emit_moves(
            orig, cur, coded=coded, block_bytes=block_bytes, frag_bytes=frag_bytes
        )
        return RebalancePlan(
            dataset=view.name,
            seed=self.seed,
            budget_bytes=self.budget_bytes,
            cost_before=cost_before,
            cost_after=evaluator.cost,
            moves=tuple(moves),
        )

    def _emit_moves(
        self,
        orig: Mapping[int, Tuple[int, ...]],
        cur: Mapping[int, List[int]],
        *,
        coded: bool,
        block_bytes: Mapping[int, int],
        frag_bytes: Mapping[int, int],
    ) -> List[Move]:
        """The net per-block diff as an ordered, executable move list."""
        moves: List[Move] = []
        for bid in sorted(cur):
            before, after = orig[bid], cur[bid]
            if list(before) == list(after):
                continue
            if coded:
                for i, (o, c) in enumerate(zip(before, after)):
                    if o != c:
                        moves.append(
                            Move(
                                dataset=self.dataset.name,
                                block_id=bid,
                                src=o,
                                dst=c,
                                nbytes=frag_bytes[bid],
                                fragment_index=i,
                            )
                        )
            else:
                removed = sorted(set(before) - set(after))
                added = sorted(set(after) - set(before))
                for o, c in zip(removed, added):
                    moves.append(
                        Move(
                            dataset=self.dataset.name,
                            block_id=bid,
                            src=o,
                            dst=c,
                            nbytes=block_bytes[bid],
                        )
                    )
        return moves


def check_plan_invariants(
    plan: RebalancePlan,
    placement: Mapping[int, Sequence[int]],
    *,
    num_racks: int = 1,
    rack_of=None,
) -> Dict[int, Tuple[int, ...]]:
    """Apply ``plan`` to a copy of ``placement``, asserting every invariant.

    Raises :class:`~repro.errors.ConfigError` on the first violation:
    duplicate holders, a fragment move that changes its stripe index's
    slot inconsistently, rack-spread breakage, or budget overrun.
    Returns the resulting placement so callers can compare layouts.
    """
    if rack_of is None:
        rack_of = lambda n: n % max(num_racks, 1)  # noqa: E731
    result: Dict[int, List[int]] = {
        bid: list(holders) for bid, holders in placement.items()
    }
    if plan.total_bytes > plan.budget_bytes:
        raise ConfigError(
            f"plan migrates {plan.total_bytes} bytes, budget is "
            f"{plan.budget_bytes}"
        )
    for move in plan.moves:
        if move.block_id not in result:
            raise ConfigError(f"plan touches unknown block {move.block_id}")
        holders = result[move.block_id]
        if move.dst in holders:
            raise ConfigError(
                f"block {move.block_id}: destination {move.dst} already holds "
                f"a replica"
            )
        if move.fragment_index is not None:
            idx = move.fragment_index
            if idx < 0 or idx >= len(holders):
                raise ConfigError(
                    f"block {move.block_id}: stripe index {idx} out of range"
                )
            if holders[idx] != move.src:
                raise ConfigError(
                    f"block {move.block_id}: fragment {idx} held by "
                    f"{holders[idx]}, move claims {move.src}"
                )
            holders[idx] = move.dst
        else:
            if move.src not in holders:
                raise ConfigError(
                    f"block {move.block_id}: source {move.src} holds no replica"
                )
            holders[holders.index(move.src)] = move.dst
        if len(set(holders)) != len(holders):
            raise ConfigError(
                f"block {move.block_id}: duplicate holder after move"
            )
    # Rack spread is checked on each block's *final* holder list: the
    # executor stores the destination copy before dropping the source (as
    # re-replication repair does), so mid-plan states may transiently
    # exceed the bound, but the layout a plan leaves behind must not.
    if num_racks > 1:
        coded_blocks = {
            m.block_id for m in plan.moves if m.fragment_index is not None
        }
        for bid in sorted(coded_blocks):
            holders = result[bid]
            bound = math.ceil(len(holders) / num_racks)
            counts: Dict[int, int] = {}
            for n in holders:
                counts[rack_of(n)] = counts.get(rack_of(n), 0) + 1
            worst = max(counts.values())
            if worst > bound:
                raise ConfigError(
                    f"block {bid}: rack spread broken "
                    f"({worst} fragments on one rack, bound {bound})"
                )
    return {bid: tuple(holders) for bid, holders in result.items()}
