"""Gray-failure resilience tests: windowed fault plans, the φ-accrual
health detector, hedged replica reads, partition-aware scheduling, and
the end-to-end acceptance scenario (30% slow nodes + a rack partition
healing mid-job → byte-identical output, bounded makespan, exported
suspicion/hedge/partition telemetry, full determinism)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import HDFSCluster
from repro.cli import main
from repro.core.bipartite import BipartiteGraph
from repro.core.datanet import DataNet
from repro.errors import ConfigError, FaultError, SchedulingError
from repro.faults import (
    ChaosRunner,
    CompletionWin,
    FaultInjector,
    FaultPlan,
    FirstWinLedger,
    FlakyLink,
    HealthDetector,
    NetworkPartition,
    NodeCrash,
    RetryPolicy,
    SlowNode,
    validate_health,
)
from repro.hdfs.hedged import HedgedReader
from repro.hdfs.scrubber import ReadVerifier
from repro.mapreduce.apps.grep import grep_job
from repro.mapreduce.apps.histogram import histogram_job
from repro.mapreduce.apps.word_count import word_count_job
from repro.mapreduce.scheduler import LocalityScheduler
from repro.obs import Observability
from repro.obs.export import snapshot_text
from tests.conftest import make_records


# ---------------------------------------------------------------------------
# plan validation


class TestGrayPlanValidation:
    def test_windowed_slow_node(self):
        s = SlowNode(1, factor=4.0, start=1.0, end=3.0)
        assert s.window == (1.0, 3.0)

    def test_zero_duration_window_rejected(self):
        with pytest.raises(ConfigError):
            SlowNode(1, factor=4.0, start=2.0, end=2.0)
        with pytest.raises(ConfigError):
            SlowNode(1, factor=4.0, start=3.0, end=1.0)
        with pytest.raises(ConfigError):
            FlakyLink(a=0, b=1, loss=0.1, start=2.0, end=2.0)
        with pytest.raises(ConfigError):
            NetworkPartition(nodes=(1,), start=2.0, heals_at=2.0)

    def test_overlapping_slow_windows_same_node_rejected(self):
        with pytest.raises(ConfigError, match="overlapping fault windows"):
            FaultPlan(
                slow_nodes=(
                    SlowNode(1, factor=2.0, start=0.0, end=5.0),
                    SlowNode(1, factor=3.0, start=4.0, end=6.0),
                )
            )

    def test_open_ended_window_overlaps_everything_after(self):
        with pytest.raises(ConfigError, match="overlapping fault windows"):
            FaultPlan(
                slow_nodes=(
                    SlowNode(1, factor=2.0, start=0.0),  # end=None → forever
                    SlowNode(1, factor=3.0, start=9.0, end=10.0),
                )
            )

    def test_adjacent_windows_allowed(self):
        plan = FaultPlan(
            slow_nodes=(
                SlowNode(1, factor=2.0, start=0.0, end=2.0),
                SlowNode(1, factor=4.0, start=2.0, end=4.0),
                SlowNode(2, factor=2.0, start=0.0),
            )
        )
        assert plan.has_gray and not plan.is_empty()

    def test_flaky_link_validation(self):
        with pytest.raises(ConfigError):  # self-loop
            FlakyLink(a=1, b=1, loss=0.1)
        with pytest.raises(ConfigError):  # loss out of range
            FlakyLink(a=0, b=1, loss=1.0)
        with pytest.raises(ConfigError):  # degrades nothing
            FlakyLink(a=0, b=1, loss=0.0, latency_s=0.0)
        link = FlakyLink(a=3, b=1, loss=0.2, latency_s=0.1)
        assert link.edge == (1, 3)  # canonical undirected form

    def test_overlapping_link_windows_same_edge_rejected(self):
        with pytest.raises(ConfigError, match="overlapping fault windows"):
            FaultPlan(
                flaky_links=(
                    FlakyLink(a=0, b=1, loss=0.1, start=0.0, end=5.0),
                    # same edge written in the other direction
                    FlakyLink(a=1, b=0, loss=0.2, start=3.0, end=6.0),
                )
            )

    def test_partition_scope_validation(self):
        with pytest.raises(ConfigError):  # no scope
            NetworkPartition(start=0.0, heals_at=1.0)
        with pytest.raises(ConfigError):  # two scopes
            NetworkPartition(nodes=(1,), rack=0, start=0.0, heals_at=1.0)
        with pytest.raises(ConfigError):  # duplicate members
            NetworkPartition(nodes=(1, 1), start=0.0, heals_at=1.0)

    def test_overlapping_partitions_sharing_a_node_rejected(self):
        with pytest.raises(ConfigError, match="overlapping fault windows"):
            FaultPlan(
                partitions=(
                    NetworkPartition(nodes=(1, 2), start=0.0, heals_at=5.0),
                    NetworkPartition(nodes=(2, 3), start=4.0, heals_at=6.0),
                )
            )

    def test_disjoint_partitions_allowed(self):
        plan = FaultPlan(
            partitions=(
                NetworkPartition(nodes=(1,), start=0.0, heals_at=2.0),
                NetworkPartition(nodes=(1,), start=3.0, heals_at=4.0),
            )
        )
        assert plan.has_gray

    def test_has_gray_false_for_failstop_plans(self):
        assert not FaultPlan(crashes=(NodeCrash(1, time=1.0),)).has_gray


# ---------------------------------------------------------------------------
# injector: windows, links, partitions


class TestGrayInjector:
    def test_windowed_slowdown(self):
        inj = FaultInjector(
            FaultPlan(slow_nodes=(SlowNode(1, factor=4.0, start=1.0, end=3.0),))
        )
        assert inj.slowdown(1, 0.5) == 1.0
        assert inj.slowdown(1, 1.0) == 4.0  # inclusive start
        assert inj.slowdown(1, 2.9) == 4.0
        assert inj.slowdown(1, 3.0) == 1.0  # exclusive end
        assert inj.slowdown(2, 2.0) == 1.0

    def test_link_penalty_latency_and_deterministic_loss(self):
        plan = FaultPlan(
            seed=9, flaky_links=(FlakyLink(a=0, b=2, loss=0.5, latency_s=0.1),)
        )
        a, b = FaultInjector(plan), FaultInjector(plan)
        costs_a = [a.link_penalty(0, 2, key=f"k{i}", base_cost=1.0) for i in range(40)]
        costs_b = [b.link_penalty(2, 0, key=f"k{i}", base_cost=1.0) for i in range(40)]
        assert costs_a == costs_b  # same seed, symmetric edge → same coins
        assert all(c in (0.1, 1.1) for c in costs_a)  # latency, ± one retransmit
        assert 0 < sum(c > 1.0 for c in costs_a) < 40  # the coin actually flips
        assert a.link_penalty(0, 1, key="k0", base_cost=1.0) == 0.0  # healthy edge

    def test_link_penalty_respects_window(self):
        inj = FaultInjector(
            FaultPlan(
                flaky_links=(
                    FlakyLink(a=0, b=2, latency_s=0.5, start=1.0, end=2.0),
                )
            )
        )
        assert inj.link_penalty(0, 2, time=0.5, key="x") == 0.0
        assert inj.link_penalty(0, 2, time=1.5, key="x") == 0.5
        assert inj.link_penalty(0, 2, time=2.0, key="x") == 0.0

    def test_partition_queries_require_resolution(self):
        inj = FaultInjector(
            FaultPlan(partitions=(NetworkPartition(nodes=(1,), start=0.0, heals_at=1.0),))
        )
        with pytest.raises(ConfigError, match="resolve_partitions"):
            inj.unreachable(1, 0.5)

    def test_resolved_partition_semantics(self):
        inj = FaultInjector(
            FaultPlan(
                partitions=(NetworkPartition(nodes=(1, 2), start=1.0, heals_at=3.0),)
            )
        )
        inj.resolve_partitions(list(range(6)))
        assert not inj.unreachable(1, 0.5)  # before the cut
        assert inj.unreachable(1, 1.0) and inj.unreachable(2, 2.9)
        assert not inj.unreachable(1, 3.0)  # healed
        assert not inj.unreachable(0, 2.0)  # majority side
        assert inj.same_side(1, 2, 2.0)  # both behind the cut
        assert not inj.same_side(0, 1, 2.0)
        assert inj.same_side(0, 3, 2.0)
        assert inj.same_side(0, 1, 0.5)  # inactive window

    def test_rack_scope_resolution(self):
        inj = FaultInjector(
            FaultPlan(partitions=(NetworkPartition(rack=1, start=0.0, heals_at=2.0),))
        )
        resolved = inj.resolve_partitions(
            list(range(6)), rack_of=lambda n: n % 3
        )
        assert resolved[0].sorted_nodes() == [1, 4]

    def test_rack_scope_without_topology_rejected(self):
        inj = FaultInjector(
            FaultPlan(partitions=(NetworkPartition(rack=1, start=0.0, heals_at=2.0),))
        )
        with pytest.raises(ConfigError):
            inj.resolve_partitions(list(range(6)))

    def test_cut_covering_every_node_rejected(self):
        inj = FaultInjector(
            FaultPlan(
                partitions=(NetworkPartition(nodes=(0, 1), start=0.0, heals_at=1.0),)
            )
        )
        with pytest.raises(ConfigError):
            inj.resolve_partitions([0, 1])

    def test_unknown_partition_node_rejected(self):
        inj = FaultInjector(
            FaultPlan(
                partitions=(NetworkPartition(nodes=(99,), start=0.0, heals_at=1.0),)
            )
        )
        with pytest.raises(ConfigError):
            inj.resolve_partitions([0, 1, 2])


# ---------------------------------------------------------------------------
# health detection


class TestHealthDetector:
    def test_insufficient_evidence_is_neutral(self):
        det = HealthDetector(expected_interval_s=1.0)
        assert det.suspicion(7, now=100.0) == 0.0
        assert det.health_score(7) == 1.0
        det.record(7, 1.0)
        assert det.health_score(7) == 1.0  # one arrival is still no interval

    def test_slow_node_scores_inverse_factor(self):
        det = HealthDetector(expected_interval_s=1.0)
        inj = FaultInjector(FaultPlan(slow_nodes=(SlowNode(1, factor=4.0),)))
        det.observe_heartbeats([0, 1], inj, count=8)
        assert det.health_score(0) == 1.0
        assert det.health_score(1) == pytest.approx(0.25)

    def test_health_clamped_to_min_score(self):
        det = HealthDetector(expected_interval_s=1.0, min_score=0.1)
        inj = FaultInjector(FaultPlan(slow_nodes=(SlowNode(1, factor=100.0),)))
        det.observe_heartbeats([1], inj, count=4)
        assert det.health_score(1) == 0.1

    def test_suspicion_grows_with_silence(self):
        det = HealthDetector(expected_interval_s=1.0)
        for t in (1.0, 2.0, 3.0, 4.0):
            det.record(5, t)
        quiet = det.suspicion(5, now=4.5)
        silent = det.suspicion(5, now=14.0)
        assert 0.0 <= quiet < silent
        # φ = elapsed / (mean · ln 10); mean interval is exactly 1 here
        assert silent == pytest.approx(10.0 / math.log(10.0))
        assert det.suspected([5], now=14.0) == [5]
        assert det.suspected([5], now=4.1) == []

    def test_partitioned_node_goes_suspect(self):
        det = HealthDetector(expected_interval_s=1.0)
        inj = FaultInjector(
            FaultPlan(
                partitions=(NetworkPartition(nodes=(1,), start=3.0, heals_at=60.0),)
            )
        )
        inj.resolve_partitions([0, 1, 2])
        det.observe_heartbeats([0, 1], inj, count=8)
        assert det.suspicion(1, now=8.0) > det.suspicion(0, now=8.0)

    def test_non_monotonic_arrivals_rejected(self):
        det = HealthDetector()
        det.record(1, 5.0)
        with pytest.raises(ConfigError):
            det.record(1, 4.0)

    def test_validate_health(self):
        validate_health(None)
        validate_health({1: 0.5, 2: 1.0})
        with pytest.raises(ConfigError):
            validate_health({1: 0.0})
        with pytest.raises(ConfigError):
            validate_health({1: 1.5})

    def test_export_publishes_gauges(self):
        obs = Observability.create()
        det = HealthDetector(expected_interval_s=1.0)
        inj = FaultInjector(FaultPlan(slow_nodes=(SlowNode(1, factor=4.0),)))
        det.observe_heartbeats([0, 1], inj, count=4)
        det.export(obs, [0, 1], now=4.0)
        text = snapshot_text(metrics=obs.metrics)
        assert "node_suspicion_phi" in text
        assert "node_health_score" in text
        assert "node=1" in text


# ---------------------------------------------------------------------------
# first-win dedup (satellite: hypothesis property)


class TestFirstWinLedger:
    def test_first_offer_wins(self):
        led = FirstWinLedger()
        assert led.offer("k", "primary", 1.0, nbytes=10)
        assert not led.offer("k", "hedge", 0.5, nbytes=10)
        assert led.winner("k") == CompletionWin("primary", 1.0, 10)
        assert led.counted_bytes == 10
        assert led.duplicates == 1 and led.duplicate_bytes == 10
        assert "k" in led and len(led) == 1

    def test_invalid_offers_rejected(self):
        led = FirstWinLedger()
        with pytest.raises(ConfigError):
            led.offer("k", "p", -1.0)
        with pytest.raises(ConfigError):
            led.offer("k", "p", 1.0, nbytes=-1)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),  # key
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                st.integers(min_value=0, max_value=1000),  # nbytes
            ),
            max_size=40,
        )
    )
    def test_never_double_counts_bytes(self, offers):
        """First-win semantics: counted bytes == one completion per key,
        regardless of how many duplicate/speculative copies report in."""
        led = FirstWinLedger()
        first_for = {}
        for i, (key, arrival, nbytes) in enumerate(offers):
            won = led.offer(key, f"copy-{i}", arrival, nbytes=nbytes)
            if key not in first_for:
                first_for[key] = (arrival, nbytes)
                assert won
            else:
                assert not won
        assert led.counted_bytes == sum(nb for _, nb in first_for.values())
        assert led.offers == len(offers)
        assert led.duplicates == len(offers) - len(first_for)
        assert sorted(led.keys()) == sorted(first_for)
        for key, (arrival, nbytes) in first_for.items():
            win = led.winner(key)
            assert (win.arrival, win.nbytes) == (arrival, nbytes)


# ---------------------------------------------------------------------------
# hedged reads


def _tiny_cluster(num_nodes=4, seed=3):
    cluster = HDFSCluster(
        num_nodes=num_nodes,
        block_size=2048,
        replication=2,
        rng=np.random.default_rng(seed),
    )
    dataset = cluster.write_dataset(
        "d", make_records({"hot": 40}, payload_len=30)
    )
    return cluster, dataset


READ_LOCAL = lambda n: 0.01  # noqa: E731
READ_REMOTE = lambda n: 0.02  # noqa: E731
WRITE_LOCAL = lambda n: 0.005  # noqa: E731


class TestHedgedReader:
    def _reader(self, plan, **kw):
        cluster, dataset = _tiny_cluster()
        inj = FaultInjector(plan)
        if plan.partitions:
            inj.resolve_partitions(sorted(cluster.datanodes))
        kw.setdefault("min_samples", 2)
        kw.setdefault("window", 8)
        return cluster, dataset, HedgedReader(cluster, inj, **kw)

    def _read(self, reader, node, replicas, *, when=0.0, block=0):
        return reader.read_cost(
            "d", block, node, tuple(replicas), 100,
            READ_LOCAL, READ_REMOTE, WRITE_LOCAL, when=when,
        )

    def test_local_read_never_hedges(self):
        _, _, reader = self._reader(FaultPlan())
        assert self._read(reader, 1, (1, 2)) == READ_LOCAL(100)
        assert reader.hedges_issued == 0 and len(reader.ledger) == 0

    def test_unarmed_window_never_hedges(self):
        _, _, reader = self._reader(
            FaultPlan(slow_nodes=(SlowNode(1, factor=10.0),)), min_samples=8
        )
        cost = self._read(reader, 3, (1,))
        assert cost == pytest.approx(0.2)  # slow primary, but no trigger yet
        assert reader.hedges_issued == 0

    def test_slow_primary_triggers_hedge_and_backup_wins(self):
        _, _, reader = self._reader(
            FaultPlan(slow_nodes=(SlowNode(1, factor=10.0),))
        )
        for block in (1, 2):  # warm the window with healthy reads
            self._read(reader, 3, (2,), block=block)
        trigger = reader.threshold()
        assert trigger == pytest.approx(0.02)
        # no detector → repr ranking → the slow node 1 becomes primary
        cost = self._read(reader, 3, (1, 2), block=0)
        assert reader.hedges_issued == 1 and reader.hedges_won == 1
        # backup launched at the trigger, served at healthy speed
        assert cost == pytest.approx(trigger + 0.02)
        assert reader.wasted_seconds == pytest.approx(cost)  # loser ran from 0
        win = reader.ledger.winner("d/0/r3")
        assert win.source == "hedge:2"
        assert reader.ledger.duplicates == 1  # the primary reported second

    def test_healthy_primary_no_hedge(self):
        _, _, reader = self._reader(FaultPlan())
        for block in (1, 2, 3):
            self._read(reader, 3, (2,), block=block)
        assert reader.hedges_issued == 0
        assert reader.ledger.counted_bytes == 300  # one win per read

    def test_detector_steers_primary_away_from_slow_replica(self):
        det = HealthDetector(expected_interval_s=1.0)
        plan = FaultPlan(slow_nodes=(SlowNode(1, factor=10.0),))
        det.observe_heartbeats([0, 1, 2, 3], FaultInjector(plan), count=4)
        _, _, reader = self._reader(plan, detector=det)
        cost = self._read(reader, 3, (1, 2))
        assert cost == pytest.approx(0.02)  # healthy node 2 chosen as primary
        assert reader.hedges_issued == 0

    def test_partition_filters_replicas(self):
        plan = FaultPlan(
            partitions=(NetworkPartition(nodes=(1, 2), start=0.0, heals_at=5.0),)
        )
        _, _, reader = self._reader(plan)
        with pytest.raises(FaultError):
            self._read(reader, 3, (1, 2), when=1.0)  # every replica cut
        assert self._read(reader, 3, (0, 1), when=1.0) == pytest.approx(0.02)
        # after the heal the cut replicas serve again
        assert self._read(reader, 3, (1, 2), when=5.0) == pytest.approx(0.02)

    def test_corrupt_replica_delegates_to_verifier(self):
        cluster, dataset = _tiny_cluster()
        node = dataset.placement()[0][0]
        cluster.corrupt_replica("d", node, 0)
        verifier = ReadVerifier(cluster)
        reader = HedgedReader(cluster, FaultInjector(FaultPlan()), verify=verifier)
        replicas = dataset.placement()[0]
        other = next(n for n in cluster.datanodes if n not in replicas)
        self._read(reader, other, replicas)
        assert verifier.detected == 1  # the wrapped verifier saw the rot

    def test_flaky_link_penalty_reaches_service_time(self):
        _, _, reader = self._reader(
            FaultPlan(flaky_links=(FlakyLink(a=3, b=2, loss=0.0, latency_s=0.5),)),
        )
        assert self._read(reader, 3, (2,)) == pytest.approx(0.52)

    def test_deterministic_across_instances(self):
        plan = FaultPlan(
            seed=7,
            slow_nodes=(SlowNode(1, factor=10.0),),
            flaky_links=(FlakyLink(a=3, b=2, loss=0.5, latency_s=0.1),),
        )
        costs = []
        for _ in range(2):
            _, _, reader = self._reader(plan)
            run = [self._read(reader, 3, (2,), block=b) for b in range(4)]
            run.append(self._read(reader, 3, (1, 2), block=9))
            costs.append((run, reader.hedges_issued, reader.hedges_won))
        assert costs[0] == costs[1]

    def test_bad_config_rejected(self):
        cluster, _ = _tiny_cluster()
        inj = FaultInjector(FaultPlan())
        with pytest.raises(ConfigError):
            HedgedReader(cluster, inj, percentile=1.0)
        with pytest.raises(ConfigError):
            HedgedReader(cluster, inj, min_samples=1)


# ---------------------------------------------------------------------------
# health- and partition-aware scheduling


class TestGrayScheduling:
    def _datanet(self, num_nodes=8, seed=11):
        cluster = HDFSCluster(
            num_nodes=num_nodes,
            block_size=2048,
            replication=3,
            rng=np.random.default_rng(seed),
        )
        dataset = cluster.write_dataset(
            "d", make_records({"hot": 800, "cold": 60}, payload_len=30)
        )
        return dataset, DataNet.build(dataset, alpha=0.3)

    def test_restrict_drops_stranded_blocks(self):
        graph = BipartiteGraph(
            {0: [1, 2], 1: [3]}, {0: 100, 1: 50}, nodes=[1, 2, 3]
        )
        sub, stranded = graph.restrict([3])
        assert stranded == [0]
        assert sub.num_blocks == 1 and sub.nodes == [3]

    def test_restrict_to_nothing_rejected(self):
        graph = BipartiteGraph({0: [1]}, {0: 100}, nodes=[1])
        with pytest.raises(SchedulingError):
            graph.restrict([99])

    def test_gray_schedule_avoids_unreachable_nodes(self):
        dataset, datanet = self._datanet()
        cut = [0, 4]
        assignment, stranded = datanet.gray_schedule("hot", unreachable=cut)
        for node in cut:
            assert not assignment.blocks_by_node.get(node)
        placement = dataset.placement()
        for b in stranded:
            assert set(placement[b]) <= set(cut)

    def test_gray_schedule_health_shifts_load_off_suspects(self):
        _, datanet = self._datanet()
        plain = datanet.schedule("hot")
        health = {n: (0.05 if n in (1, 2) else 1.0) for n in range(8)}
        biased, stranded = datanet.gray_schedule("hot", health=health)
        assert stranded == []
        assert sum(biased.workload_by_node.get(n, 0) for n in (1, 2)) < sum(
            plain.workload_by_node.get(n, 0) for n in (1, 2)
        )
        # every block is still scheduled exactly once
        assert sorted(
            b for bs in biased.blocks_by_node.values() for b in bs
        ) == sorted(b for bs in plain.blocks_by_node.values() for b in bs)

    def test_locality_scheduler_capacity_validation(self):
        with pytest.raises(ConfigError):
            LocalityScheduler(capacities={1: 0.0})
        with pytest.raises(ConfigError):
            LocalityScheduler(capacities={1: 1.5})

    def test_locality_scheduler_capacities_shift_load(self):
        graph = BipartiteGraph(
            {b: [0, 1] for b in range(12)},
            {b: 100 for b in range(12)},
            nodes=[0, 1],
        )
        even = LocalityScheduler().schedule(graph)
        skewed = LocalityScheduler(capacities={1: 0.25}).schedule(graph)
        assert len(skewed.blocks_by_node[1]) < len(even.blocks_by_node[1])


# ---------------------------------------------------------------------------
# end-to-end acceptance


def _gray_plan():
    """30% slow nodes (3/10 at 8×), flaky uplinks, one rack cut that heals
    mid-job — the ISSUE acceptance scenario."""
    return FaultPlan(
        seed=5,
        slow_nodes=(
            SlowNode(1, factor=8.0),
            SlowNode(4, factor=8.0),
            SlowNode(7, factor=8.0),
        ),
        flaky_links=tuple(
            FlakyLink(a=a, b=9, loss=0.2, latency_s=0.3) for a in (0, 2, 3, 6, 8)
        ),
        partitions=(NetworkPartition(rack=1, start=0.5, heals_at=1.5),),
    )


def _gray_fresh(seed=11):
    cluster = HDFSCluster(
        num_nodes=10,
        block_size=1024,
        replication=3,
        rng=np.random.default_rng(seed),
    )
    dataset = cluster.write_dataset(
        "d", make_records({"hot": 2000, "cold": 600}, payload_len=30)
    )
    return cluster, dataset


def _gray_run(job, *, detect=True, hedge=True, obs=None):
    cluster, dataset = _gray_fresh()
    runner = ChaosRunner(
        cluster,
        _gray_plan(),
        retry=RetryPolicy(heartbeat_timeout_s=0.5),
        detect=detect,
        hedge=hedge,
        **({"obs": obs} if obs is not None else {}),
    )
    return runner.run(dataset, "hot", job)


class TestGrayEndToEnd:
    @pytest.mark.parametrize(
        "job_factory",
        [word_count_job, lambda: grep_job("aa"), histogram_job],
        ids=["word_count", "grep", "histogram"],
    )
    def test_every_workload_family_byte_identical_and_bounded(self, job_factory):
        report = _gray_run(job_factory())
        assert report.output_matches_baseline
        assert report.makespan < 2.0 * report.baseline.makespan
        assert report.partition_events == 1
        assert report.deferred_blocks  # the all-rack-1 block waited for heal
        assert report.hedged_reads > 0 and report.hedges_won > 0
        assert 0 < report.health[1] < 0.2  # slow node seen by the detector
        assert report.health[0] == 1.0

    def test_detector_off_is_much_worse_but_still_correct(self):
        with_det = _gray_run(word_count_job())
        without = _gray_run(word_count_job(), detect=False, hedge=False)
        assert without.output_matches_baseline  # safety never depends on it
        assert without.hedged_reads == 0 and without.health == {}
        assert with_det.makespan < 2.0 * with_det.baseline.makespan
        assert without.makespan > 2.0 * without.baseline.makespan
        assert with_det.makespan < without.makespan

    def test_gray_run_fully_deterministic(self):
        a = _gray_run(word_count_job())
        b = _gray_run(word_count_job())
        assert a.job == b.job
        assert a.makespan == b.makespan
        assert a.hedged_reads == b.hedged_reads
        assert a.hedges_won == b.hedges_won
        assert a.hedge_wasted_seconds == b.hedge_wasted_seconds
        assert a.rescheduled_blocks == b.rescheduled_blocks
        assert a.deferred_blocks == b.deferred_blocks
        assert a.attempts_histogram == b.attempts_histogram

    def test_cut_node_work_is_rerun_elsewhere(self):
        cut = NetworkPartition(nodes=(0,), start=0.3, heals_at=3.0)
        cluster, dataset = _gray_fresh()
        obs = Observability.create()
        report = ChaosRunner(cluster, FaultPlan(partitions=(cut,)), obs=obs).run(
            dataset, "hot", word_count_job()
        )
        assert report.partition_events == 1
        assert report.rescheduled_blocks
        assert report.output_matches_baseline
        ran_on = {}
        for span in obs.tracer.find(category="attempt"):
            if span.attrs["outcome"] == "ok":
                ran_on[span.name.split("#")[0]] = span
                if span.attrs["track"] == "node 0":
                    assert not cut.start <= span.sim_start < cut.heals_at
        for bid in report.rescheduled_blocks:
            assert ran_on[f"sel/d/{bid}"].attrs["track"] != "node 0"

    def test_deferred_blocks_wait_for_the_heal(self):
        obs = Observability.create()
        report = _gray_run(word_count_job(), obs=obs)
        (cut,) = _gray_plan().partitions
        assert report.deferred_blocks
        for bid in report.deferred_blocks:
            for span in obs.tracer.find(category="attempt"):
                if span.name.startswith(f"sel/d/{bid}#"):
                    assert span.sim_start >= cut.heals_at

    def test_gray_with_crash_composes(self):
        cluster, dataset = _gray_fresh()
        plan = FaultPlan(
            seed=5,
            crashes=(NodeCrash(3, time=2.0),),
            slow_nodes=(SlowNode(1, factor=8.0),),
            partitions=(NetworkPartition(rack=1, start=0.5, heals_at=1.5),),
        )
        runner = ChaosRunner(
            cluster, plan, retry=RetryPolicy(heartbeat_timeout_s=0.5)
        )
        report = runner.run(dataset, "hot", word_count_job())
        assert report.output_matches_baseline
        assert report.dead_nodes == [3]
        assert report.partition_events == 1

    def test_telemetry_exported_through_obs(self):
        obs = Observability.create()
        report = _gray_run(word_count_job(), obs=obs)
        text = snapshot_text(tracer=obs.tracer, metrics=obs.metrics)
        assert "node_suspicion_phi" in text
        assert "node_health_score" in text
        assert "partition_events_total" in text
        assert "hedged_reads_total" in text
        assert report.hedged_reads > 0

    def test_summary_includes_gray_lines(self):
        report = _gray_run(word_count_job())
        text = report.summary().format()
        assert "partition events" in text
        assert "hedged reads" in text

    def test_failstop_summary_unchanged(self):
        # zero gray fields keep the report byte-compatible with pre-gray runs
        cluster, dataset = _gray_fresh()
        report = ChaosRunner(cluster, FaultPlan()).run(
            dataset, "hot", word_count_job()
        )
        text = report.summary().format()
        assert "partition events" not in text
        assert "hedged reads" not in text

    def test_driver_restarts_with_network_faults_rejected(self):
        from repro.faults import DriverRestart

        cluster, dataset = _gray_fresh()
        plan = FaultPlan(
            driver_restarts=(DriverRestart(1),),
            partitions=(NetworkPartition(rack=1, start=0.5, heals_at=1.5),),
        )
        with pytest.raises(ConfigError):
            ChaosRunner(cluster, plan)

    def test_unknown_link_endpoint_rejected(self):
        cluster, dataset = _gray_fresh()
        plan = FaultPlan(flaky_links=(FlakyLink(a=0, b=99, latency_s=0.1),))
        with pytest.raises(ConfigError):
            ChaosRunner(cluster, plan)

    def test_unknown_slow_node_rejected(self):
        cluster, dataset = _gray_fresh()
        plan = FaultPlan(slow_nodes=(SlowNode(99, factor=8.0),))
        with pytest.raises(ConfigError, match="unknown node 99"):
            ChaosRunner(cluster, plan)


# ---------------------------------------------------------------------------
# node-set partitions in a simulated selection phase


class TestSimulatorPartitions:
    def test_partition_run_deterministic(self):
        plan = FaultPlan(
            seed=3,
            partitions=(NetworkPartition(nodes=(1,), start=0.4, heals_at=2.0),),
            slow_nodes=(SlowNode(2, factor=3.0, start=0.0, end=1.0),),
        )
        runs = []
        for _ in range(2):
            cluster, dataset = _gray_fresh()
            obs = Observability.create()
            report = ChaosRunner(cluster, plan, obs=obs).run(
                dataset, "hot", word_count_job()
            )
            timeline = [
                (s.name, s.attrs["track"], s.attrs["outcome"], s.sim_start, s.sim_end)
                for s in obs.tracer.find(category="attempt")
            ]
            runs.append((report, timeline))
        (a, timeline_a), (b, timeline_b) = runs
        assert a.partition_events == 1 and a.rescheduled_blocks
        assert a.output_matches_baseline
        assert repr(a.job) == repr(b.job)
        assert timeline_a == timeline_b
        assert a.rescheduled_blocks == b.rescheduled_blocks
        assert a.deferred_blocks == b.deferred_blocks
        assert a.health == b.health


class TestGrayCli:
    def test_cli_gray_scenario_exits_clean(self, capsys):
        rc = main(
            [
                "chaos",
                "--nodes", "8",
                "--seed", "3",
                "-n", "4000",
                "-k", "50",
                "--slow-node", "1@8:0-5",
                "--slow-node", "4@8",
                "--flaky-link", "0-2@0.3:0.01",
                "--partition", "rack1@0-2.5",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "partition events" in out

    def test_cli_no_detector_exits_clean(self, capsys):
        rc = main(
            [
                "chaos",
                "--nodes", "8",
                "--seed", "3",
                "-n", "4000",
                "-k", "50",
                "--slow-node", "1@8",
                "--partition", "1,5@0-2.5",
                "--no-detector",
                "--no-hedge",
            ]
        )
        assert rc == 0

    def test_cli_bad_specs_rejected(self, capsys, monkeypatch, tmp_path):
        """Every fault spec is checked before any data is generated."""
        from repro.workloads.movielens import MovieLensGenerator

        def generate(self):
            raise AssertionError("a bad fault spec reached data generation")

        monkeypatch.setattr(MovieLensGenerator, "generate", generate)
        trace = ["trace", "--out", str(tmp_path)]
        for argv in (
            ["chaos", "--slow-node", "1"],
            ["chaos", "--flaky-link", "nonsense"],
            ["chaos", "--partition", "rack1"],
            ["chaos", "--kill", "1@0", "--kill", "1@2"],
            ["chaos", "--meta-down", "m0", "--meta-down", "m0"],
            trace + ["--kill", "nope"],
            trace + ["--bitrot", "3"],
            # well-formed specs naming a node the cluster lacks
            ["chaos", "--slow-node", "99@8"],
            ["chaos", "--slow", "99@3"],
            ["chaos", "--kill", "99@0.5"],
            ["chaos", "--bitrot", "99@0"],
            # restart plans the restart rule cannot model
            ["chaos", "--restart-wave", "0", "--kill", "1@0.5"],
            # counts and probabilities outside their range
            ["chaos", "-n", "0"],
            trace + ["-n", "0"],
            ["theory", "--trials", "0"],
            ["scrub", "--corrupt", "-1"],
            ["chaos", "--flaky", "-0.1", "-n", "2000", "-k", "20"],
        ):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects a bad count itself
                rc = exc.code
            assert rc == 2, argv
            assert "error:" in capsys.readouterr().err
