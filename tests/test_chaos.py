"""End-to-end chaos tests: the ISSUE acceptance criteria.

* Determinism — the same FaultPlan over the same seeded cluster yields an
  identical JobResult across two fresh runs.
* Output safety — killing a node mid-selection still produces the exact
  failure-free analysis output.
* Graceful degradation — a metadata shard outage downgrades only the
  affected blocks to locality scheduling; the job completes and records
  which blocks degraded.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DataNet, HDFSCluster
from repro.cli import main
from repro.core.metastore import DistributedMetaStore
from repro.errors import (
    ConfigError,
    ReplicationError,
    SchedulingError,
    TaskAttemptError,
)
from repro.faults import (
    ChaosRunner,
    FaultInjector,
    FaultPlan,
    MetaOutage,
    NodeCrash,
    RetryPolicy,
    SlowNode,
    TransientFaults,
    degraded_schedule,
    merge_assignments,
)
from repro.mapreduce.apps.word_count import word_count_job
from repro.obs import Observability
from tests.conftest import make_records


def _fresh(num_nodes=8, seed=11, records=None):
    cluster = HDFSCluster(
        num_nodes=num_nodes,
        block_size=2048,
        replication=3,
        rng=np.random.default_rng(seed),
    )
    recs = records or make_records({"hot": 150, "cold": 50}, payload_len=30)
    dataset = cluster.write_dataset("d", recs)
    return cluster, dataset


def _run(plan, *, metastore=None, retry=None, num_nodes=8):
    cluster, dataset = _fresh(num_nodes=num_nodes)
    runner = ChaosRunner(
        cluster, plan, metastore=metastore, retry=retry or RetryPolicy()
    )
    return runner.run(dataset, "hot", word_count_job())


class TestDeterminism:
    def test_same_plan_same_cluster_identical_result(self):
        plan = FaultPlan(
            seed=3,
            crashes=(NodeCrash(2, time=0.5),),
            transient=TransientFaults(0.15),
        )
        a = _run(plan)
        b = _run(plan)
        assert a.job == b.job
        assert repr(a.job) == repr(b.job)
        assert a.attempts_histogram == b.attempts_histogram
        assert a.wasted_seconds == b.wasted_seconds
        assert a.rescheduled_blocks == b.rescheduled_blocks

    def test_empty_plan_equals_baseline(self):
        report = _run(FaultPlan())
        assert report.job == report.baseline
        assert report.recovery_overhead == 0.0
        assert report.dead_nodes == [] and report.rescheduled_blocks == []


class TestCrashRecovery:
    def test_mid_selection_crash_output_intact(self):
        report = _run(FaultPlan(seed=1, crashes=(NodeCrash(2, time=0.5),)))
        assert report.output_matches_baseline
        assert report.dead_nodes == [2]
        assert report.re_replicated_bytes > 0
        assert report.makespan >= report.baseline.makespan
        # the dead node contributed nothing to the surviving selection
        assert 2 not in report.job.selection.local_data

    def test_two_crashes_survived(self):
        plan = FaultPlan(
            seed=2, crashes=(NodeCrash(1, time=0.3), NodeCrash(5, time=0.9))
        )
        report = _run(plan)
        assert report.output_matches_baseline
        assert report.dead_nodes == [1, 5]

    def test_transient_faults_retry_and_converge(self):
        report = _run(FaultPlan(seed=9, transient=TransientFaults(0.25)))
        assert report.output_matches_baseline
        assert report.summary().retried_tasks > 0
        assert report.wasted_seconds > 0

    def test_slow_node_only_stretches_makespan(self):
        report = _run(FaultPlan(slow_nodes=(SlowNode(0, factor=3.0),)))
        assert report.output_matches_baseline
        assert report.makespan >= report.baseline.makespan
        assert report.attempts_histogram == {
            1: report.summary().total_tasks
        }

    def test_unknown_crash_node_rejected(self):
        cluster, dataset = _fresh()
        with pytest.raises(ConfigError):
            ChaosRunner(cluster, FaultPlan(crashes=(NodeCrash(99),)))

    def test_summary_round_trip(self):
        report = _run(FaultPlan(seed=4, crashes=(NodeCrash(3, time=0.4),)))
        summary = report.summary()
        assert summary.makespan == report.makespan
        assert summary.dead_nodes == 1
        text = report.format()
        assert "Recovery summary" in text and "attempts" in text


def _traced(plan, *, retry=None, injector=None, records=None):
    """A traced run; ``injector`` replaces the plan's fault oracle."""
    cluster, dataset = _fresh(records=records)
    obs = Observability.create()
    runner = ChaosRunner(cluster, plan, retry=retry or RetryPolicy(), obs=obs)
    if injector is not None:
        runner.injector = injector
    return runner.run(dataset, "hot", word_count_job()), obs


def _attempts(obs, bid, outcome=None):
    """Attempt spans of block ``bid``'s selection task, in record order."""
    return [
        s
        for s in obs.tracer.find(category="attempt")
        if s.name.startswith(f"sel/d/{bid}#")
        and (outcome is None or s.attrs["outcome"] == outcome)
    ]


class TestRecoveryLoop:
    """The attempt lifecycle of the recovery loop, end to end."""

    def test_lost_blocks_wait_for_the_heartbeat(self):
        crash = NodeCrash(2, time=0.3)
        policy = RetryPolicy(heartbeat_timeout_s=3.0)
        report, obs = _traced(FaultPlan(seed=3, crashes=(crash,)), retry=policy)
        assert report.rescheduled_blocks
        assert report.output_matches_baseline
        starts = [
            s.sim_start
            for bid in report.rescheduled_blocks
            for s in _attempts(obs, bid)
            if s.attrs["track"] != "node 2"
        ]
        assert min(starts) >= crash.time + policy.heartbeat_timeout_s

    def test_retry_budget_exhaustion_raises(self):
        plan = FaultPlan(transient=TransientFaults(0.999999))
        with pytest.raises(TaskAttemptError):
            _run(plan, retry=RetryPolicy(max_attempts=2, blacklist_after=1000))

    def test_losing_every_node_raises(self):
        plan = FaultPlan(
            crashes=tuple(NodeCrash(n, time=0.1 * (n + 1)) for n in range(8))
        )
        with pytest.raises(ReplicationError):
            _run(plan)

    @pytest.mark.parametrize(
        "blacklist_after, benched", [(2, [0]), (1000, [])], ids=["benched", "control"]
    )
    def test_blacklisted_node_gets_no_rescheduled_block(
        self, blacklist_after, benched
    ):
        class FirstTryFailsOnZero(FaultInjector):
            def attempt_fails(self, task_key, attempt, node):
                return node == 0 and attempt == 1

        plan = FaultPlan(
            seed=1,
            crashes=(NodeCrash(1, time=3.0),),
            transient=TransientFaults(0.5),
        )
        report, obs = _traced(
            plan,
            retry=RetryPolicy(blacklist_after=blacklist_after),
            injector=FirstTryFailsOnZero(plan),
            records=make_records({"hot": 1000, "cold": 300}, payload_len=30),
        )
        assert report.blacklisted_nodes == benched
        assert report.output_matches_baseline
        ran_on = {
            span.attrs["track"]
            for bid in report.rescheduled_blocks
            for span in _attempts(obs, bid, "ok")
        }
        # node 0 takes a share of the lost work unless it is benched
        assert ("node 0" in ran_on) == (not benched)

    @given(
        st.integers(0, 10**6),
        st.integers(1, 2),
        st.floats(0.0, 0.2),
    )
    @settings(max_examples=12, deadline=None)
    def test_property_random_plans_recover_exactly(self, seed, crashes, flaky):
        plan = FaultPlan.random(
            seed,
            list(range(8)),
            crash_count=crashes,
            crash_horizon_s=2.0,
            flaky_probability=flaky,
        )
        retry = RetryPolicy(max_attempts=25)
        report = _run(plan, retry=retry)
        _cluster, dataset = _fresh()
        target = Counter(
            r for bid in dataset.placement() for r in dataset.block(bid).filter("hot")
        )
        selected = Counter(
            r for recs in report.job.selection.local_data.values() for r in recs
        )
        assert selected == target and set(target.values()) == {1}
        assert report.output_matches_baseline
        again = _run(plan, retry=retry)
        assert again.job == report.job
        assert again.attempts_histogram == report.attempts_histogram
        assert again.wasted_seconds == report.wasted_seconds


class TestMetastoreDegradation:
    def _store(self, dataset, *, num_nodes=3, replication=1):
        datanet = DataNet.build(dataset, alpha=0.3)
        store = DistributedMetaStore(
            num_nodes=num_nodes, replication=replication
        )
        store.load_array(datanet.elasticmap)
        return store

    def test_shard_down_degrades_only_owned_blocks(self):
        cluster, dataset = _fresh()
        store = self._store(dataset)
        expected = {
            bid
            for bid in store.block_ids
            if store.shard_map.owners(bid) == ["meta-0"]
        }
        store.fail_node("meta-0")
        _assignment, healthy, degraded = degraded_schedule(
            store, dataset, "hot"
        )
        assert set(degraded) == expected
        assert not set(degraded) & set(healthy)

    def test_degraded_blocks_all_scheduled(self):
        cluster, dataset = _fresh()
        store = self._store(dataset)
        store.fail_node("meta-0")
        assignment, healthy, degraded = degraded_schedule(
            store, dataset, "hot"
        )
        assigned = {
            b for bs in assignment.blocks_by_node.values() for b in bs
        }
        # degraded blocks cannot be skipped (no metadata to prove absence)
        assert set(degraded) <= assigned

    def test_replicated_store_needs_no_degradation(self):
        cluster, dataset = _fresh()
        store = self._store(dataset, replication=2)
        store.fail_node("meta-0")
        _assignment, _healthy, degraded = degraded_schedule(
            store, dataset, "hot"
        )
        assert degraded == []

    def test_job_completes_with_shard_down(self):
        cluster, dataset = _fresh()
        store = self._store(dataset)
        plan = FaultPlan(meta_outages=(MetaOutage("meta-0"),))
        runner = ChaosRunner(cluster, plan, metastore=store)
        report = runner.run(dataset, "hot", word_count_job())
        assert report.output_matches_baseline
        assert report.degraded_blocks  # which blocks fell back is recorded
        assert report.summary().degraded_blocks == len(report.degraded_blocks)

    def test_exclude_nodes_respected(self):
        cluster, dataset = _fresh()
        store = self._store(dataset)
        assignment, _h, _d = degraded_schedule(
            store, dataset, "hot", exclude_nodes=(0, 1)
        )
        assert not {0, 1} & set(assignment.blocks_by_node)


class TestMergeAssignments:
    def test_duplicate_block_rejected(self):
        cluster, dataset = _fresh()
        datanet = DataNet.build(dataset, alpha=0.3)
        a = datanet.schedule("hot")
        with pytest.raises(SchedulingError):
            merge_assignments(a, a)


class TestChaosCli:
    def test_cli_crash_run(self, capsys):
        code = main(
            [
                "chaos", "--nodes", "6", "-n", "3000", "-k", "40",
                "--kill", "2@0.5", "--flaky", "0.1", "--seed", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Recovery summary" in out
        assert "dead nodes              : 1" in out

    def test_cli_meta_outage(self, capsys):
        code = main(
            [
                "chaos", "--nodes", "6", "-n", "3000", "-k", "40",
                "--meta-nodes", "3", "--meta-down", "meta-0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "degraded blocks" in out

    def test_cli_bad_kill_spec(self, capsys):
        assert main(["chaos", "--kill", "nope"]) == 2
        assert "expected NODE@NUMBER" in capsys.readouterr().err


class TestIntegrityChaos:
    """ISSUE acceptance: injected corruption never silently reaches output —
    it is repaired, rebuilt, or raised as IntegrityError."""

    def _plan_rot(self, *pairs, seed=5, **kw):
        from repro.faults import BitRot

        return FaultPlan(
            seed=seed, bit_rots=tuple(BitRot(n, b) for n, b in pairs), **kw
        )

    def test_bit_rot_repaired_and_output_intact(self):
        report = _run(self._plan_rot((0, 0), (3, 1)))
        assert report.output_matches_baseline
        i = report.integrity
        assert i.corruptions_injected == 2
        assert i.corruptions_repaired == i.corruptions_injected
        assert i.fully_repaired

    def test_bit_rot_with_crash_and_transients(self):
        plan = self._plan_rot(
            (1, 0),
            seed=3,
            crashes=(NodeCrash(2, time=0.5),),
            transient=TransientFaults(0.1),
        )
        report = _run(plan)
        assert report.output_matches_baseline
        assert report.integrity.fully_repaired

    def test_every_replica_rotten_raises_not_corrupts(self):
        from repro.errors import IntegrityError
        from repro.faults import BitRot

        cluster, dataset = _fresh()
        replicas = dataset.placement()[0]
        plan = FaultPlan(
            seed=1, bit_rots=tuple(BitRot(n, 0) for n in replicas)
        )
        runner = ChaosRunner(cluster, plan)
        with pytest.raises(IntegrityError):
            runner.run(dataset, "hot", word_count_job())

    def test_stale_metadata_rebuilt_and_output_intact(self):
        from repro.faults import StaleMetadata

        plan = FaultPlan(
            seed=2, stale_metadata=(StaleMetadata(0), StaleMetadata(2))
        )
        report = _run(plan)
        assert report.output_matches_baseline
        assert report.integrity.stale_entries == 2
        assert report.integrity.rebuilt_blocks == 2
        assert report.job == report.baseline  # rebuild is bit-for-bit

    def test_integrity_plan_deterministic(self):
        from repro.faults import StaleMetadata

        plan = self._plan_rot((1, 0), (4, 2), seed=9,
                              stale_metadata=(StaleMetadata(1),))
        a, b = _run(plan), _run(plan)
        assert a.job == b.job
        assert a.integrity == b.integrity

    def test_unknown_rot_block_rejected(self):
        with pytest.raises(ConfigError):
            _run(self._plan_rot((0, 10_000)))

    def test_unknown_rot_node_rejected(self):
        with pytest.raises(ConfigError):
            _run(self._plan_rot((999, 0)))

    def test_unknown_stale_block_rejected(self):
        from repro.faults import StaleMetadata

        with pytest.raises(ConfigError):
            _run(FaultPlan(stale_metadata=(StaleMetadata(10_000),)))

    def test_rot_on_non_holder_falls_back_to_primary(self):
        cluster, dataset = _fresh()
        holders = set(dataset.placement()[0])
        outsider = next(n for n in cluster.nodes if n not in holders)
        report = ChaosRunner(cluster, self._plan_rot((outsider, 0))).run(
            dataset, "hot", word_count_job()
        )
        assert report.integrity.corruptions_injected == 1
        assert report.integrity.fully_repaired
        assert report.output_matches_baseline

    def test_standing_scrub_reported_even_on_empty_plan(self):
        report = _run(FaultPlan())
        assert report.integrity.scrubbed_replicas > 0
        assert report.integrity.corruptions_injected == 0
        assert "Integrity summary" not in report.format()

    def test_integrity_section_in_report(self):
        report = _run(self._plan_rot((0, 0)))
        out = report.format()
        assert "Integrity summary" in out
        assert "corruptions repaired" in out

    def test_metastore_sees_validated_entries(self):
        from repro.faults import StaleMetadata

        plan = FaultPlan(seed=4, stale_metadata=(StaleMetadata(0),))
        store = DistributedMetaStore(num_nodes=3)
        report = _run(plan, metastore=store)
        assert report.output_matches_baseline
        assert report.integrity.rebuilt_blocks == 1


class TestIntegrityCli:
    def test_cli_bitrot_and_stale(self, capsys):
        code = main(
            [
                "chaos", "--nodes", "6", "-n", "3000", "-k", "40",
                "--bitrot", "1@0", "--stale", "1", "--seed", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Integrity summary" in out
        assert "corruptions injected    : 1" in out
        assert "metadata blocks rebuilt : 1" in out

    def test_cli_restart_wave(self, capsys):
        code = main(
            [
                "chaos", "--nodes", "6", "-n", "3000", "-k", "40",
                "--restart-wave", "0", "--seed", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "driver restarts         : 1" in out

    def test_cli_scrub_repairs(self, capsys):
        code = main(
            [
                "scrub", "--nodes", "6", "-n", "3000", "-k", "40",
                "--rot", "0@0", "--corrupt", "2", "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Scrub report" in out
        assert "unrepairable     : 0" in out
        assert "repaired" in out

    def test_cli_scrub_clean(self, capsys):
        code = main(["scrub", "--nodes", "4", "-n", "2000", "-k", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "corrupt found    : 0" in out

    def test_cli_bad_rot_spec(self, capsys):
        code = main(["scrub", "--rot", "nonsense"])
        assert code == 2
        assert "expected NODE@BLOCK" in capsys.readouterr().err
