"""Unit tests for the fault-injection subsystem: plans, the deterministic
injector oracle, the attempt lifecycle, blacklisting, degraded
scheduling, and the fault path of a simulated selection phase."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import HDFSCluster
from repro.errors import ConfigError, ReproError, SchedulingError, TaskAttemptError
from repro.faults import (
    AttemptLog,
    BitRot,
    ChaosRunner,
    DriverRestart,
    FaultInjector,
    FaultPlan,
    FlakyLink,
    MetaOutage,
    NetworkPartition,
    NodeBlacklist,
    NodeCrash,
    RetryPolicy,
    SlowNode,
    TransientFaults,
    run_attempts,
)
from repro.mapreduce.apps.word_count import word_count_job
from repro.obs import Observability
from tests.conftest import make_records


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty()
        assert plan.crashed_nodes == ()

    def test_duplicate_crash_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(crashes=(NodeCrash(1), NodeCrash(1, time=2.0)))

    def test_duplicate_slow_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(slow_nodes=(SlowNode(1, 2.0), SlowNode(1, 3.0)))

    def test_duplicate_outage_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(meta_outages=(MetaOutage("m0"), MetaOutage("m0")))

    def test_validation_of_components(self):
        with pytest.raises(ConfigError):
            NodeCrash(1, time=-1.0)
        with pytest.raises(ConfigError):
            SlowNode(1, factor=0.5)
        with pytest.raises(ConfigError):
            TransientFaults(probability=1.0)
        with pytest.raises(ConfigError):
            TransientFaults(probability=0.1, waste_fraction=2.0)
        with pytest.raises(ConfigError):
            MetaOutage("")

    def test_random_is_deterministic(self):
        nodes = list(range(8))
        a = FaultPlan.random(7, nodes, crash_count=2, slow_count=1)
        b = FaultPlan.random(7, nodes, crash_count=2, slow_count=1)
        assert a == b
        assert len(a.crashes) == 2 and len(a.slow_nodes) == 1
        assert not set(a.crashed_nodes) & {s.node for s in a.slow_nodes}

    def test_random_rejects_oversubscription(self):
        with pytest.raises(ConfigError):
            FaultPlan.random(0, [1, 2], crash_count=2, slow_count=1)

    @pytest.mark.parametrize(
        "plan, message",
        [
            (FaultPlan(crashes=(NodeCrash(9),)), "plan crashes unknown node 9"),
            (FaultPlan(slow_nodes=(SlowNode(9, 2.0),)), "plan slows unknown node 9"),
            (FaultPlan(bit_rots=(BitRot(9, 0),)), "plan rots replica on unknown node 9"),
            (
                FaultPlan(flaky_links=(FlakyLink(0, 9, latency_s=0.1),)),
                "plan degrades link at unknown node 9",
            ),
            (
                FaultPlan(partitions=(NetworkPartition((1, 9), heals_at=1.0),)),
                "partition names unknown node",
            ),
            (
                FaultPlan(crashes=(NodeCrash(1),), driver_restarts=(DriverRestart(0),)),
                "driver restarts cannot be combined with node crashes",
            ),
            (
                FaultPlan(
                    partitions=(NetworkPartition((1,), heals_at=1.0),),
                    driver_restarts=(DriverRestart(0),),
                ),
                "driver restarts cannot be combined with partitions",
            ),
        ],
    )
    def test_validate_targets_rejects(self, plan, message):
        with pytest.raises(ConfigError, match=message):
            plan.validate_targets(range(4))

    def test_validate_targets_accepts_known_nodes(self):
        FaultPlan(
            crashes=(NodeCrash(0),),
            slow_nodes=(SlowNode(1, 2.0),),
            bit_rots=(BitRot(2, 0),),
            flaky_links=(FlakyLink(1, 3, latency_s=0.1),),
            partitions=(NetworkPartition(rack=5, heals_at=1.0),),
        ).validate_targets(range(4))
        FaultPlan(driver_restarts=(DriverRestart(0),)).validate_targets([])


class TestFaultInjector:
    def test_no_transient_never_fails(self):
        inj = FaultInjector(FaultPlan())
        assert not any(
            inj.attempt_fails(f"t{i}", 1, 0) for i in range(50)
        )

    def test_transient_rate_roughly_matches(self):
        inj = FaultInjector(FaultPlan(transient=TransientFaults(0.3)))
        fails = sum(inj.attempt_fails(f"t{i}", 1, i % 4) for i in range(2000))
        assert 0.25 < fails / 2000 < 0.35

    def test_decisions_are_deterministic_and_keyed(self):
        plan = FaultPlan(seed=5, transient=TransientFaults(0.5))
        a, b = FaultInjector(plan), FaultInjector(plan)
        draws_a = [a.attempt_fails("t", k, 0) for k in range(1, 20)]
        draws_b = [b.attempt_fails("t", k, 0) for k in range(1, 20)]
        assert draws_a == draws_b
        # a different seed flips at least one decision
        other = FaultInjector(FaultPlan(seed=6, transient=TransientFaults(0.5)))
        assert draws_a != [other.attempt_fails("t", k, 0) for k in range(1, 20)]

    def test_crash_queries(self):
        inj = FaultInjector(
            FaultPlan(crashes=(NodeCrash(2, 1.5), NodeCrash(0, 0.5)))
        )
        assert inj.crash_time(2) == 1.5
        assert inj.crash_time(7) is None
        assert inj.is_crashed(2, 2.0) and not inj.is_crashed(2, 1.0)
        assert [c.node for c in inj.crashes_chronological()] == [0, 2]

    def test_slowdown_applies_after_start(self):
        inj = FaultInjector(
            FaultPlan(slow_nodes=(SlowNode(1, factor=3.0, start=5.0),))
        )
        assert inj.slowdown(1, 1.0) == 1.0
        assert inj.slowdown(1, 6.0) == 3.0
        assert inj.slowdown(0, 6.0) == 1.0


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        p = RetryPolicy(backoff_base_s=1.0, backoff_factor=2.0)
        assert [p.backoff(n) for n in (1, 2, 3)] == [1.0, 2.0, 4.0]

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(blacklist_after=0)
        with pytest.raises(ConfigError):
            RetryPolicy().backoff(0)


class TestAttemptLog:
    def test_histogram_counts_only_completed(self):
        log = AttemptLog()
        log.record("a", 0, 1, "fault", 0.2)
        log.record("a", 0, 2, "ok")
        log.record("b", 1, 1, "ok")
        log.record("c", 2, 1, "fault", 0.1)  # never completed
        assert log.histogram() == {1: 1, 2: 1}
        assert log.attempts_of("a") == 2
        assert log.wasted_seconds == pytest.approx(0.3)
        assert log.num_failures == 2

    def test_rejects_unknown_outcome(self):
        with pytest.raises(ConfigError):
            AttemptLog().record("a", 0, 1, "meh")


class TestNodeBlacklist:
    def test_benches_at_threshold(self):
        bl = NodeBlacklist(2)
        assert not bl.record_failure(3)
        assert not bl.is_blacklisted(3)
        assert bl.record_failure(3)  # newly benched exactly once
        assert bl.is_blacklisted(3)
        assert not bl.record_failure(3)
        assert bl.nodes == [3]
        assert bl.failures_on(3) == 3


class TestRunAttempts:
    def _flaky(self, p):
        return FaultInjector(FaultPlan(seed=1, transient=TransientFaults(p)))

    def test_clean_run_is_one_attempt(self):
        log = AttemptLog()
        elapsed, used = run_attempts(
            2.0, 0, "t", FaultInjector(FaultPlan()), RetryPolicy(), log,
            NodeBlacklist(3),
        )
        assert (elapsed, used) == (2.0, 1)
        assert log.histogram() == {1: 1}

    def test_retries_charge_waste_and_backoff(self):
        inj = self._flaky(0.9)
        policy = RetryPolicy(max_attempts=50, backoff_base_s=0.25)
        log = AttemptLog()
        elapsed, used = run_attempts(
            1.0, 0, "t", inj, policy, log, NodeBlacklist(1000)
        )
        assert used > 1
        wasted = (used - 1) * inj.waste_fraction
        backoffs = sum(policy.backoff(n) for n in range(1, used))
        assert elapsed == pytest.approx(1.0 + wasted + backoffs)

    def test_exhaustion_raises_with_context(self):
        inj = FaultInjector(
            FaultPlan(transient=TransientFaults(0.999999))
        )
        with pytest.raises(TaskAttemptError) as exc:
            run_attempts(
                1.0, 4, "t", inj, RetryPolicy(max_attempts=3),
                AttemptLog(), NodeBlacklist(1000),
            )
        assert exc.value.task_id == "t"
        assert exc.value.node == 4
        assert exc.value.attempts == 3
        assert isinstance(exc.value, ReproError)


def _traced_selection(plan, **runner_options):
    """A traced chaos run on eight nodes with three or four "hot" blocks each."""
    cluster = HDFSCluster(
        num_nodes=8,
        block_size=2048,
        replication=3,
        rng=np.random.default_rng(11),
    )
    dataset = cluster.write_dataset(
        "d", make_records({"hot": 1000, "cold": 300}, payload_len=30)
    )
    obs = Observability.create()
    report = ChaosRunner(cluster, plan, obs=obs, **runner_options).run(
        dataset, "hot", word_count_job()
    )
    return report, obs


def _simulated_selection(obs):
    """block -> (track, start, end) of the baseline's selection tasks, as
    the discrete-event simulator timed them (ids ``sel/<seq>/<block>``)."""
    return {
        int(s.name.rsplit("/", 1)[1]): (s.attrs["track"], s.sim_start, s.sim_end)
        for s in obs.tracer.find(category="task")
        if s.name.startswith("sel/") and not s.name.startswith("sel/d/")
    }


def _attempt_spans(obs):
    """(block, track, outcome, start, end) of every selection attempt of
    the faulted run, in record order."""
    return [
        (
            int(s.name.split("#")[0].rsplit("/", 1)[1]),
            s.attrs["track"],
            s.attrs["outcome"],
            s.sim_start,
            s.sim_end,
        )
        for s in obs.tracer.find(category="attempt")
    ]


class TestSimulatorFaultPath:
    """A simulated selection phase under faults.  The fault path is the
    chaos runner's recovery loop; its fault-free reference is the
    simulator's timeline of the same assignment."""

    def test_empty_plan_reproduces_fault_free_timeline(self):
        report, obs = _traced_selection(FaultPlan())
        simulated = _simulated_selection(obs)
        recovered = {
            bid: (track, start, end)
            for bid, track, _outcome, start, end in _attempt_spans(obs)
        }
        # several blocks per node: the queued ones start off zero
        assert len(simulated) > len(report.job.selection.local_data)
        assert recovered == simulated
        assert report.attempts_histogram == {1: len(simulated)}
        assert report.wasted_seconds == 0.0

    def test_deterministic_under_faults(self):
        plan = FaultPlan(
            seed=7,
            crashes=(NodeCrash(1, time=0.35),),
            slow_nodes=(SlowNode(2, factor=1.5),),
            transient=TransientFaults(0.2),
        )
        (a, trace_a), (b, trace_b) = (_traced_selection(plan) for _ in range(2))
        assert a.rescheduled_blocks and a.summary().retried_tasks > 0
        assert a.job == b.job
        assert _attempt_spans(trace_a) == _attempt_spans(trace_b)
        assert a.attempts_histogram == b.attempts_histogram
        assert a.rescheduled_blocks == b.rescheduled_blocks

    def test_crash_migrates_work_off_dead_node(self):
        crash = NodeCrash(1, time=0.35)
        report, obs = _traced_selection(FaultPlan(crashes=(crash,)))
        assert report.dead_nodes == [1]
        assert 1 not in report.job.selection.local_data
        spans = _attempt_spans(obs)
        # every block completes exactly once on a live node ...
        survived = Counter(
            bid
            for bid, track, outcome, _start, _end in spans
            if outcome == "ok" and track != "node 1"
        )
        assert sorted(survived) == sorted(_simulated_selection(obs))
        assert set(survived.values()) == {1}
        # ... and the dead node runs nothing after its crash
        for _bid, track, _outcome, _start, end in spans:
            if track == "node 1":
                assert end <= crash.time
        assert report.output_matches_baseline

    def test_slow_node_stretches_duration(self):
        # without the detector or hedged reads the schedule and the read
        # paths stay fault-free, so only the slow node's blocks change
        report, obs = _traced_selection(
            FaultPlan(slow_nodes=(SlowNode(0, factor=4.0),)),
            detect=False,
            hedge=False,
        )
        simulated = _simulated_selection(obs)
        for bid, track, _outcome, start, end in _attempt_spans(obs):
            base_track, base_start, base_end = simulated[bid]
            factor = 4.0 if track == "node 0" else 1.0
            assert track == base_track
            assert end - start == pytest.approx(factor * (base_end - base_start))
        times = dict(report.job.selection.timing.node_times)
        base = dict(report.baseline.selection.timing.node_times)
        assert times.pop(0) == pytest.approx(4.0 * base.pop(0))
        assert times == base


class TestIntegrityFaultPlan:
    def test_duplicate_bitrot_rejected(self):
        from repro.faults import BitRot

        with pytest.raises(ConfigError):
            FaultPlan(bit_rots=(BitRot(1, 0), BitRot(1, 0, time=2.0)))

    def test_duplicate_stale_rejected(self):
        from repro.faults import StaleMetadata

        with pytest.raises(ConfigError):
            FaultPlan(stale_metadata=(StaleMetadata(3), StaleMetadata(3)))

    def test_duplicate_restart_wave_rejected(self):
        from repro.faults import DriverRestart

        with pytest.raises(ConfigError):
            FaultPlan(driver_restarts=(DriverRestart(1), DriverRestart(1)))

    def test_integrity_faults_make_plan_non_empty(self):
        from repro.faults import BitRot, DriverRestart, StaleMetadata

        assert not FaultPlan(bit_rots=(BitRot(0, 0),)).is_empty()
        assert not FaultPlan(stale_metadata=(StaleMetadata(0),)).is_empty()
        assert not FaultPlan(driver_restarts=(DriverRestart(0),)).is_empty()

    def test_random_bitrot_requires_num_blocks(self):
        with pytest.raises(ConfigError):
            FaultPlan.random(1, [0, 1, 2], bitrot_count=2)

    def test_random_bitrot_deterministic_and_in_range(self):
        a = FaultPlan.random(5, [0, 1, 2, 3], bitrot_count=3, num_blocks=6)
        b = FaultPlan.random(5, [0, 1, 2, 3], bitrot_count=3, num_blocks=6)
        assert a.bit_rots == b.bit_rots
        assert len(a.bit_rots) == 3
        for rot in a.bit_rots:
            assert rot.node in (0, 1, 2, 3)
            assert 0 <= rot.block < 6


class TestTransientIndependence:
    """The transient-failure oracle is a pure hash of (seed, task, attempt,
    node): stateless, order-free, and independent across coordinates."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        task=st.text(min_size=1, max_size=12),
        attempt=st.integers(1, 6),
        node=st.integers(0, 63),
    )
    @settings(max_examples=60, deadline=None)
    def test_decision_is_pure_and_coordinate_independent(
        self, seed, task, attempt, node
    ):
        plan = FaultPlan(seed=seed, transient=TransientFaults(0.5))
        verdict = FaultInjector(plan).attempt_fails(task, attempt, node)

        # stateless: a fresh injector that first consulted *perturbed*
        # tuples (each differing in exactly one coordinate) still returns
        # the same verdict for the original tuple
        other = FaultInjector(plan)
        other.attempt_fails(task + "x", attempt, node)
        other.attempt_fails(task, attempt + 1, node)
        other.attempt_fails(task, attempt, node + 1)
        assert other.attempt_fails(task, attempt, node) == verdict

        # unrelated plan content does not shift the draw
        dressed = FaultPlan(
            seed=seed,
            transient=TransientFaults(0.5),
            crashes=(NodeCrash(node + 1, time=1.0),),
            slow_nodes=(SlowNode(node + 2, 2.0),),
        )
        assert FaultInjector(dressed).attempt_fails(task, attempt, node) == verdict

    def test_coin_varies_across_each_coordinate(self):
        injector = FaultInjector(FaultPlan(seed=3, transient=TransientFaults(0.5)))
        tasks = {injector.attempt_fails(f"t{i}", 1, 0) for i in range(40)}
        attempts = {injector.attempt_fails("t", a, 0) for a in range(1, 41)}
        nodes = {injector.attempt_fails("t", 1, n) for n in range(40)}
        seeds = {
            FaultInjector(
                FaultPlan(seed=s, transient=TransientFaults(0.5))
            ).attempt_fails("t", 1, 0)
            for s in range(40)
        }
        assert tasks == attempts == nodes == seeds == {True, False}
