"""Tests for the background placement rebalancer (repro.rebalance).

Covers the cost model (Algorithm 1 alignment), the seed-deterministic
annealing planner, the crash-safe executor, and the single-mutation-path
regression: every replica move — balancer or rebalancer — must refresh
the DataNet's cached bipartite graphs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import DataNet, HDFSCluster, Record
from repro.coding import CodingSpec
from repro.core.scheduler import DistributionAwareScheduler
from repro.errors import ConfigError
from repro.hdfs import BlockBalancer
from repro.rebalance import (
    CostEvaluator,
    ExecutionReport,
    Move,
    PlacementCostModel,
    RebalanceExecutor,
    RebalancePlanner,
    WorkloadProfile,
    check_plan_invariants,
    layout_digest,
)
from tests.conftest import make_records


def _environment(seed=11, *, num_nodes=8, coding=None):
    cluster = HDFSCluster(
        num_nodes=num_nodes,
        block_size=2048,
        replication=3,
        rng=np.random.default_rng(seed),
        coding=coding,
    )
    recs = make_records({"hot": 200, "warm": 100, "cold": 60}, payload_len=30)
    dataset = cluster.write_dataset("d", recs)
    datanet = DataNet.build(dataset, alpha=0.3)
    return cluster, dataset, datanet


def _profile(dataset, *, boost="hot"):
    sizes = dataset.subdataset_sizes()
    weights = {sid: float(sizes[sid]) for sid in sizes}
    weights[boost] = 4.0 * max(weights.values())
    return WorkloadProfile(weights)


def _plan(dataset, datanet, profile, **kwargs):
    kwargs.setdefault("seed", 5)
    kwargs.setdefault("iterations", 1500)
    return RebalancePlanner(dataset, datanet, profile, **kwargs).plan()


# -- workload profile --------------------------------------------------------------


class TestWorkloadProfile:
    def test_validation(self):
        with pytest.raises(ConfigError):
            WorkloadProfile({})
        with pytest.raises(ConfigError):
            WorkloadProfile({"s": 0.0})
        with pytest.raises(ConfigError):
            WorkloadProfile({"s": -1.0})
        with pytest.raises(ConfigError):
            WorkloadProfile({"s": float("inf")})

    def test_sorted_iteration_and_membership(self):
        p = WorkloadProfile({"b": 2.0, "a": 1.0, "c": 3.0})
        assert [sid for sid, _ in p.items()] == ["a", "b", "c"]
        assert "b" in p and "z" not in p
        assert len(p) == 3

    def test_uniform(self):
        p = WorkloadProfile.uniform(["x", "y"])
        assert dict(p.items()) == {"x": 1.0, "y": 1.0}


# -- cost model --------------------------------------------------------------------


class TestCostModel:
    def test_cost_is_algorithm1_max_workload(self):
        """The objective IS the real scheduler's makespan — not a proxy."""
        _cluster, dataset, datanet = _environment()
        profile = WorkloadProfile.uniform(["hot"])
        model = PlacementCostModel(datanet, profile)
        cost = model.cost(dataset.placement())
        direct = DistributionAwareScheduler().schedule(
            datanet.bipartite_graph("hot")
        )
        assert cost == pytest.approx(float(direct.max_workload))

    def test_delta_matches_full_recompute(self):
        _cluster, dataset, datanet = _environment()
        model = PlacementCostModel(datanet, _profile(dataset))
        placement = dataset.placement()
        ev = model.evaluator(placement)
        bid = model.candidate_blocks()[0]
        src = placement[bid][0]
        dst = next(
            n for n in datanet.nodes if n not in placement[bid]
        )
        predicted = ev.delta(bid, src, dst)
        before = ev.cost
        ev.apply(bid, src, dst)
        assert ev.cost - before == pytest.approx(predicted)

    def test_unknown_sub_rejected(self):
        _cluster, dataset, datanet = _environment()
        model = PlacementCostModel(datanet, _profile(dataset))
        with pytest.raises(ConfigError):
            model.block_bytes("nope")

    def test_candidate_blocks_sorted(self):
        _cluster, dataset, datanet = _environment()
        model = PlacementCostModel(datanet, _profile(dataset))
        blocks = model.candidate_blocks()
        assert blocks == sorted(blocks) and blocks


# -- planner -----------------------------------------------------------------------


class TestPlanner:
    def test_seed_deterministic(self):
        _cluster, dataset, datanet = _environment()
        profile = _profile(dataset)
        a = _plan(dataset, datanet, profile)
        b = _plan(dataset, datanet, profile)
        assert a == b
        assert a.moves == b.moves

    def test_improves_and_respects_budget(self):
        _cluster, dataset, datanet = _environment()
        plan = _plan(dataset, datanet, _profile(dataset))
        assert plan.num_moves > 0
        assert plan.cost_after <= plan.cost_before
        assert plan.total_bytes <= plan.budget_bytes
        assert plan.budget_bytes == int(0.25 * dataset.total_bytes)

    def test_zero_budget_is_a_noop(self):
        _cluster, dataset, datanet = _environment()
        plan = _plan(dataset, datanet, _profile(dataset), budget_bytes=0)
        assert plan.moves == ()
        assert plan.cost_after == plan.cost_before

    def test_zero_iterations_is_a_noop(self):
        _cluster, dataset, datanet = _environment()
        plan = _plan(dataset, datanet, _profile(dataset), iterations=0)
        assert plan.moves == ()

    def test_invariants_hold(self):
        cluster, dataset, datanet = _environment()
        plan = _plan(dataset, datanet, _profile(dataset))
        check_plan_invariants(
            plan,
            dataset.placement(),
            num_racks=cluster.num_racks,
            rack_of=cluster.rack_of,
        )

    def test_plan_checks_itself_against_the_starting_layout(self, monkeypatch):
        """A move whose destination already holds the block never leaves
        the planner."""
        _cluster, dataset, datanet = _environment()
        placement = dataset.placement()
        emit = RebalancePlanner._emit_moves

        def corrupt(self, *args, **kwargs):
            moves = emit(self, *args, **kwargs)
            first = moves[0]
            holder = next(
                n for n in placement[first.block_id] if n != first.src
            )
            return [replace(first, dst=holder)] + moves[1:]

        monkeypatch.setattr(RebalancePlanner, "_emit_moves", corrupt)
        with pytest.raises(ConfigError, match="already holds"):
            _plan(dataset, datanet, _profile(dataset))

    def test_coded_plan_keeps_stripe_geometry(self):
        cluster, dataset, datanet = _environment(coding=CodingSpec(4, 2))
        plan = _plan(dataset, datanet, _profile(dataset))
        for move in plan.moves:
            assert move.fragment_index is not None
        final = check_plan_invariants(
            plan,
            dataset.placement(),
            num_racks=cluster.num_racks,
            rack_of=cluster.rack_of,
        )
        # stripe width unchanged everywhere
        for bid, holders in final.items():
            assert len(holders) == 6
            assert len(set(holders)) == 6

    def test_validation(self):
        _cluster, dataset, datanet = _environment()
        profile = _profile(dataset)
        with pytest.raises(ConfigError):
            RebalancePlanner(dataset, datanet, profile, budget_fraction=0.0)
        with pytest.raises(ConfigError):
            RebalancePlanner(dataset, datanet, profile, budget_bytes=-1)
        with pytest.raises(ConfigError):
            RebalancePlanner(dataset, datanet, profile, iterations=-1)
        with pytest.raises(ConfigError):
            Move(dataset="d", block_id=0, src=1, dst=1, nbytes=10)
        with pytest.raises(ConfigError):
            Move(dataset="d", block_id=0, src=1, dst=2, nbytes=0)


# -- executor ----------------------------------------------------------------------


class TestExecutor:
    def test_apply_realizes_the_plan(self):
        cluster, dataset, datanet = _environment()
        plan = _plan(dataset, datanet, _profile(dataset))
        expected = check_plan_invariants(plan, dataset.placement())
        report = RebalanceExecutor(cluster).apply(plan)
        assert report.completed
        assert report.applied == plan.num_moves
        assert report.bytes_migrated == plan.total_bytes
        assert dataset.placement() == expected

    def test_reapply_is_idempotent(self):
        cluster, dataset, datanet = _environment()
        plan = _plan(dataset, datanet, _profile(dataset))
        executor = RebalanceExecutor(cluster)
        executor.apply(plan)
        digest = layout_digest(dataset)
        again = executor.apply(plan)
        assert again.applied == 0
        assert again.skipped == plan.num_moves
        assert layout_digest(dataset) == digest

    def test_crash_between_moves_resumes_byte_identical(self):
        # the reference: a crash-free run
        cluster, dataset, datanet = _environment()
        plan = _plan(dataset, datanet, _profile(dataset))
        assert plan.num_moves >= 2
        RebalanceExecutor(cluster).apply(plan)
        reference = layout_digest(dataset)

        # the drill: crash mid-plan, then replay the whole plan
        cluster2, dataset2, datanet2 = _environment()
        executor = RebalanceExecutor(cluster2)
        partial = executor.apply(plan, crash_at_move=plan.num_moves // 2)
        assert not partial.completed
        resumed = executor.apply(plan)
        assert resumed.completed
        assert resumed.skipped == partial.applied
        assert layout_digest(dataset2) == reference

    @pytest.mark.parametrize("coding", [None, CodingSpec(4, 2)])
    def test_torn_move_completes_not_restarts(self, coding):
        cluster, dataset, datanet = _environment(coding=coding)
        plan = _plan(dataset, datanet, _profile(dataset))
        assert plan.num_moves >= 1
        RebalanceExecutor(cluster).apply(plan)
        reference = layout_digest(dataset)

        cluster2, dataset2, _datanet2 = _environment(coding=coding)
        executor = RebalanceExecutor(cluster2)
        # crash in the middle of move 0: destination stored, catalog stale
        executor.apply(plan, crash_at_move=0, torn=True)
        resumed = executor.apply(plan)
        assert resumed.completed
        assert layout_digest(dataset2) == reference

    def test_report_format(self):
        text = ExecutionReport(applied=3, bytes_migrated=99, completed=True).format()
        assert "rebalance apply" in text and "99" in text


# -- cluster move primitives -------------------------------------------------------


class TestMovePrimitives:
    def test_move_replica_validation(self):
        cluster, dataset, _datanet = _environment()
        holders = dataset.placement()[0]
        outsider = next(n for n in cluster.nodes if n not in holders)
        with pytest.raises(ConfigError):
            cluster.move_replica("d", 0, outsider, holders[0])  # src not holder
        with pytest.raises(ConfigError):
            cluster.move_replica("d", 0, holders[0], holders[1])  # dst dup
        with pytest.raises(ConfigError):
            cluster.move_replica("d", 0, holders[0], 999)  # unknown node

    def test_move_replica_updates_catalog_and_disk(self):
        cluster, dataset, _datanet = _environment()
        holders = list(dataset.placement()[0])
        src = holders[0]
        dst = next(n for n in cluster.nodes if n not in holders)
        nbytes = cluster.move_replica("d", 0, src, dst)
        assert nbytes > 0
        after = cluster.namenode.block_locations("d", 0)
        assert dst in after and src not in after
        assert cluster.datanodes[dst].has_replica("d", 0)
        assert not cluster.datanodes[src].has_replica("d", 0)


# -- cache staleness regression ----------------------------------------------------


class TestCacheInvalidation:
    def _assert_graph_tracks_catalog(self, cluster, dataset, datanet, sid):
        graph = datanet.bipartite_graph(sid)
        placement = cluster.namenode.placement(dataset.name)
        for bid in graph.blocks:
            assert graph.nodes_of(bid) == set(placement[bid]), (
                f"cached graph stale for block {bid}"
            )

    def test_rebalancer_moves_refresh_cached_graphs(self):
        cluster, dataset, datanet = _environment()
        datanet.bipartite_graph("hot")  # populate the cache
        plan = _plan(dataset, datanet, _profile(dataset))
        cluster.watch_placement(dataset.name, datanet)
        RebalanceExecutor(cluster).apply(plan)
        self._assert_graph_tracks_catalog(cluster, dataset, datanet, "hot")

    def test_balancer_moves_refresh_cached_graphs(self):
        """Regression: BlockBalancer used to mutate placement behind the
        DataNet's back; it now routes through the same cluster move path."""
        from repro.hdfs.placement import RandomPlacement

        class _Biased(RandomPlacement):
            def place(self, block_id, nodes):
                return [nodes[0], nodes[1]]

        rng = np.random.default_rng(3)
        cluster = HDFSCluster(
            num_nodes=8, block_size=2048, replication=2, rng=rng
        )
        dataset = cluster.write_dataset(
            "d", [Record("hot", float(i), "x" * 40) for i in range(600)]
        )
        cluster.placement_policy = _Biased(2, rng=rng)
        cluster.append_records(
            "d", [Record("hot", 3000.0 + i, "y" * 40) for i in range(900)]
        )
        datanet = DataNet.build(dataset, alpha=0.3)
        datanet.bipartite_graph("hot")  # populate the cache
        cluster.watch_placement(dataset.name, datanet)
        report = BlockBalancer(cluster, threshold=0.05).balance()
        assert report.num_moves > 0
        self._assert_graph_tracks_catalog(cluster, dataset, datanet, "hot")

    def test_schedule_agrees_with_fresh_datanet_after_moves(self):
        """The end-to-end consequence: post-move schedules equal those of a
        DataNet built from scratch on the moved layout."""
        cluster, dataset, datanet = _environment()
        datanet.schedule("hot")  # warm the caches
        plan = _plan(dataset, datanet, _profile(dataset))
        cluster.watch_placement(dataset.name, datanet)
        RebalanceExecutor(cluster).apply(plan)
        fresh = DataNet.build(dataset, alpha=0.3)
        stale_view = datanet.schedule("hot")
        fresh_view = fresh.schedule("hot")
        assert stale_view.blocks_by_node == fresh_view.blocks_by_node
