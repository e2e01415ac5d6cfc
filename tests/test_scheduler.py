"""Tests for Algorithm 1 (distribution-aware balanced scheduling)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bipartite import BipartiteGraph
from repro.core.scheduler import Assignment, DistributionAwareScheduler
from repro.errors import ConfigError, SchedulingError


def _random_graph(rng: np.random.Generator, num_nodes=8, num_blocks=40, replication=3):
    placement = {
        b: list(rng.choice(num_nodes, size=min(replication, num_nodes), replace=False))
        for b in range(num_blocks)
    }
    # Gamma-distributed weights model content clustering (paper Section II-B)
    weights = {b: int(w) for b, w in enumerate(rng.gamma(1.2, 7.0, num_blocks) * 100)}
    return BipartiteGraph(placement, weights, nodes=list(range(num_nodes)))


class TestAssignmentMetrics:
    def test_basic_metrics(self):
        a = Assignment(
            blocks_by_node={0: [0, 1], 1: [2]},
            workload_by_node={0: 30, 1: 10},
            local_assignments=2,
            remote_assignments=1,
        )
        assert a.num_tasks == 3
        assert a.max_workload == 30
        assert a.min_workload == 10
        assert a.mean_workload == 20
        assert a.imbalance == 1.5
        assert a.locality_fraction == pytest.approx(2 / 3)
        assert a.node_of_block == {0: 0, 1: 0, 2: 1}

    def test_std_workload(self):
        a = Assignment({0: [], 1: []}, {0: 10, 1: 30})
        assert a.std_workload == pytest.approx(10.0)

    def test_empty_assignment(self):
        a = Assignment({}, {})
        assert a.max_workload == 0
        assert a.imbalance == 1.0
        assert a.locality_fraction == 1.0

    def test_block_twice_on_one_node_rejected(self):
        with pytest.raises(SchedulingError, match="block 1 assigned twice"):
            Assignment({0: [1, 2, 1]}, {0: 30})

    def test_block_on_two_nodes_rejected(self):
        with pytest.raises(SchedulingError, match="block 2 assigned twice"):
            Assignment({0: [1, 2], 1: [2]}, {0: 20, 1: 10})

    @given(
        st.integers(0, 10**6),
        st.integers(1, 10),
        st.integers(0, 60),
        st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_every_scheduler_covers_each_block_once(
        self, seed, num_nodes, num_blocks, replication
    ):
        """Algorithm 1, stock locality and max-flow each assign every
        block of a random bipartite graph exactly once."""
        from repro.core.flow import optimal_assignment
        from repro.mapreduce.scheduler import LocalityScheduler

        g = _random_graph(
            np.random.default_rng(seed), num_nodes, num_blocks, replication
        )
        for scheduler in (
            DistributionAwareScheduler().schedule,
            LocalityScheduler().schedule,
            optimal_assignment,
        ):
            a = scheduler(g)
            assigned = [b for bs in a.blocks_by_node.values() for b in bs]
            assert sorted(assigned) == g.blocks
            assert sorted(a.node_of_block) == g.blocks


class TestAlgorithm1:
    def test_all_blocks_assigned_exactly_once(self):
        rng = np.random.default_rng(1)
        g = _random_graph(rng)
        a = DistributionAwareScheduler().schedule(g)
        assigned = sorted(b for bs in a.blocks_by_node.values() for b in bs)
        assert assigned == g.blocks

    def test_input_graph_not_mutated(self):
        rng = np.random.default_rng(2)
        g = _random_graph(rng)
        before = g.num_blocks
        DistributionAwareScheduler().schedule(g)
        assert g.num_blocks == before

    def test_workloads_consistent_with_blocks(self):
        rng = np.random.default_rng(3)
        g = _random_graph(rng)
        a = DistributionAwareScheduler().schedule(g)
        for node, blocks in a.blocks_by_node.items():
            assert a.workload_by_node[node] == sum(g.weight(b) for b in blocks)

    def test_balance_beats_naive_locality(self):
        """Algorithm 1's max workload is no worse than a block-count-greedy
        locality assignment on a clustered workload."""
        rng = np.random.default_rng(4)
        g = _random_graph(rng, num_nodes=8, num_blocks=64)
        a = DistributionAwareScheduler().schedule(g)
        # naive: block -> first replica holder (pure locality, blind to weights)
        naive_load = {n: 0 for n in g.nodes}
        for b in g.blocks:
            first = sorted(g.nodes_of(b))[0]
            naive_load[first] += g.weight(b)
        assert a.max_workload <= max(naive_load.values())

    def test_near_perfect_balance_on_uniform_weights(self):
        placement = {b: [b % 4, (b + 1) % 4, (b + 2) % 4] for b in range(40)}
        weights = {b: 10 for b in range(40)}
        g = BipartiteGraph(placement, weights)
        a = DistributionAwareScheduler().schedule(g)
        assert a.max_workload - a.min_workload <= 10

    def test_prefers_local_assignment(self):
        rng = np.random.default_rng(5)
        g = _random_graph(rng, num_nodes=4, num_blocks=32, replication=3)
        a = DistributionAwareScheduler().schedule(g)
        # with 3/4 of the cluster holding each block, locality should be easy
        assert a.locality_fraction > 0.9

    def test_remote_assignment_when_node_has_no_local_blocks(self):
        # node 9 holds nothing; it must still be allowed to take tasks
        placement = {b: [0] for b in range(8)}
        weights = {b: 10 for b in range(8)}
        g = BipartiteGraph(placement, weights, nodes=[0, 9])
        a = DistributionAwareScheduler().schedule(g)
        assert a.remote_assignments > 0
        assert len(a.blocks_by_node[9]) > 0

    def test_zero_weight_blocks_all_assigned(self):
        placement = {b: [b % 3] for b in range(9)}
        g = BipartiteGraph(placement, {b: 0 for b in range(9)}, nodes=[0, 1, 2])
        a = DistributionAwareScheduler().schedule(g)
        assert a.num_tasks == 9
        # fall back to task-count balance
        counts = [len(v) for v in a.blocks_by_node.values()]
        assert max(counts) - min(counts) <= 1

    def test_empty_graph(self):
        g = BipartiteGraph({}, {}, nodes=[0, 1])
        a = DistributionAwareScheduler().schedule(g)
        assert a.num_tasks == 0

    def test_no_nodes_raises(self):
        g = BipartiteGraph({}, {}, nodes=[])
        with pytest.raises(SchedulingError):
            DistributionAwareScheduler().schedule(g)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        g = _random_graph(rng)
        a1 = DistributionAwareScheduler().schedule(g)
        a2 = DistributionAwareScheduler().schedule(g)
        assert a1.blocks_by_node == a2.blocks_by_node

    @given(st.integers(2, 10), st.integers(1, 60), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_property_complete_and_consistent(self, num_nodes, num_blocks, seed):
        rng = np.random.default_rng(seed)
        g = _random_graph(rng, num_nodes=num_nodes, num_blocks=num_blocks)
        a = DistributionAwareScheduler().schedule(g)
        assigned = sorted(b for bs in a.blocks_by_node.values() for b in bs)
        assert assigned == g.blocks  # every block exactly once
        assert sum(a.workload_by_node.values()) == g.total_weight()


class TestHeterogeneous:
    def test_capacity_proportional_shares(self):
        placement = {b: [0, 1] for b in range(40)}
        weights = {b: 10 for b in range(40)}
        g = BipartiteGraph(placement, weights)
        a = DistributionAwareScheduler({0: 3.0, 1: 1.0}).schedule(g)
        # node 0 should get ~3x the workload of node 1
        ratio = a.workload_by_node[0] / max(a.workload_by_node[1], 1)
        assert 2.0 <= ratio <= 4.0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigError):
            DistributionAwareScheduler({0: 0.0})

    def test_missing_capacity_raises(self):
        g = BipartiteGraph({0: [0, 1]}, {0: 5})
        with pytest.raises(SchedulingError):
            DistributionAwareScheduler({0: 1.0}).schedule(g)


class TestDelayScheduling:
    def test_off_by_default(self):
        assert DistributionAwareScheduler().max_deferrals == 0

    def test_deferral_improves_locality_in_sparse_graphs(self):
        # 3 blocks, 8 nodes: without deferral the first requesters grab
        # remote blocks; with it, the replica holders take them locally.
        placement = {b: [5, 6, 7] for b in range(3)}
        weights = {b: 10 for b in range(3)}
        g = BipartiteGraph(placement, weights, nodes=list(range(8)))
        eager = DistributionAwareScheduler().schedule(g)
        patient = DistributionAwareScheduler(max_deferrals=3).schedule(g)
        assert patient.locality_fraction >= eager.locality_fraction
        assert patient.locality_fraction == 1.0

    def test_deferral_still_assigns_everything(self):
        placement = {b: [0] for b in range(6)}
        g = BipartiteGraph(placement, {b: 1 for b in range(6)}, nodes=[0, 9])
        a = DistributionAwareScheduler(max_deferrals=2).schedule(g)
        assert a.num_tasks == 6

    def test_negative_deferrals_rejected(self):
        with pytest.raises(ConfigError):
            DistributionAwareScheduler(max_deferrals=-1)
