"""Driver restarts inside the chaos runner's recovery loop.

A restart at wave ``w`` strikes while each node runs the ``w``-th block of
its assigned queue.  Completed outputs survive and the interrupted block
reruns from attempt 1, so the output equals the uninterrupted run's and
only time is lost: ``waste_fraction`` of the interrupted block's
fault-free cost plus ``restart_delay_s``, reported rather than hidden.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataNet, HDFSCluster
from repro.errors import ConfigError
from repro.faults import (
    ChaosRunner,
    DriverRestart,
    FaultPlan,
    NodeCrash,
    TransientFaults,
)
from repro.mapreduce import MapReduceEngine
from repro.mapreduce.apps.word_count import word_count_job
from repro.workloads import MovieLensGenerator
from tests.conftest import make_records


def _fresh(seed=11):
    """Eight nodes whose queues for "hot" hold three or four blocks."""
    cluster = HDFSCluster(
        num_nodes=8,
        block_size=2048,
        replication=3,
        rng=np.random.default_rng(seed),
    )
    recs = make_records({"hot": 1000, "cold": 300}, payload_len=30)
    return cluster, cluster.write_dataset("d", recs)


def _assignment(dataset):
    """The schedule ChaosRunner builds for a plan without gray faults."""
    return DataNet.build(dataset, alpha=0.3).schedule("hot")


def _cost(cluster, dataset, node, bid):
    """A block's fault-free selection cost on ``node``."""
    base, _matched, _nbytes = MapReduceEngine(cluster).selection_task_cost(
        dataset, "hot", dataset.placement(), node, bid, word_count_job().profile
    )
    return base


class TestChaosRunnerRestarts:
    def _run(self, plan, seed=11):
        cluster = HDFSCluster(
            num_nodes=8,
            block_size=2048,
            replication=3,
            rng=np.random.default_rng(seed),
        )
        recs = make_records({"hot": 150, "cold": 50}, payload_len=30)
        dataset = cluster.write_dataset("d", recs)
        return ChaosRunner(cluster, plan).run(dataset, "hot", word_count_job())

    def test_restart_mid_job_output_intact(self):
        plan = FaultPlan(
            seed=5,
            driver_restarts=(DriverRestart(0, restart_delay_s=3.0),),
            transient=TransientFaults(0.1),
        )
        report = self._run(plan)
        assert report.output_matches_baseline
        assert report.integrity.driver_restarts == 1
        assert report.integrity.resume_wasted_seconds > 0.0
        assert report.makespan > report.baseline.makespan

    def test_multiple_restarts_deterministic(self):
        plan = FaultPlan(
            seed=7,
            driver_restarts=(DriverRestart(0), DriverRestart(1)),
        )
        a, b = self._run(plan), self._run(plan)
        assert a.job == b.job
        assert a.output_matches_baseline
        assert (
            a.integrity.resume_wasted_seconds == b.integrity.resume_wasted_seconds
        )

    def test_restart_plus_crash_rejected(self):
        plan = FaultPlan(
            seed=1,
            crashes=(NodeCrash(1, time=0.5),),
            driver_restarts=(DriverRestart(0),),
        )
        with pytest.raises(ConfigError):
            self._run(plan)


class TestRestartRule:
    def test_resume_is_byte_identical(self):
        """Outputs completed before the restart are kept exactly as read,
        float timestamps included."""
        rng = np.random.default_rng(4)
        records = MovieLensGenerator(
            num_movies=30, total_reviews=3000, rng=rng
        ).generate()
        cluster = HDFSCluster(num_nodes=8, block_size=4096, rng=rng)
        dataset = cluster.write_dataset("d", records)
        sizes = dataset.subdataset_sizes()
        sub_id = min(sizes, key=lambda sid: (-sizes[sid], sid))
        plan = FaultPlan(driver_restarts=(DriverRestart(1, restart_delay_s=2.0),))
        report = ChaosRunner(cluster, plan).run(dataset, sub_id, word_count_job())
        assert report.integrity.driver_restarts == 1
        resumed, straight = report.job.selection, report.baseline.selection
        assert resumed.local_data == straight.local_data
        assert resumed.bytes_per_node == straight.bytes_per_node
        # only time differs: lost work + restart delay are charged
        for node, t in straight.timing.node_times.items():
            assert resumed.timing.node_times[node] > t

    def test_wasted_work_is_half_the_wave(self):
        cluster, dataset = _fresh()
        queues = _assignment(dataset).blocks_by_node
        expected = sum(
            0.5 * _cost(cluster, dataset, node, queues[node][0])
            for node in sorted(queues, key=repr)
            if queues[node]
        )
        report = ChaosRunner(
            cluster, FaultPlan(driver_restarts=(DriverRestart(0),))
        ).run(dataset, "hot", word_count_job())
        assert report.integrity.resume_wasted_seconds == expected

    def test_restart_past_the_last_wave_never_fires(self):
        cluster, dataset = _fresh()
        num_waves = max(map(len, _assignment(dataset).blocks_by_node.values()))
        plan = FaultPlan(driver_restarts=(DriverRestart(num_waves),))
        report = ChaosRunner(cluster, plan).run(dataset, "hot", word_count_job())
        assert report.integrity.driver_restarts == 0
        assert report.integrity.resume_wasted_seconds == 0.0
        assert report.job == report.baseline

    def test_resume_under_transients_draws_same_coins(self):
        transients = FaultPlan(seed=9, transient=TransientFaults(0.2))
        restarted = FaultPlan(
            seed=9,
            transient=TransientFaults(0.2),
            driver_restarts=(DriverRestart(0), DriverRestart(2)),
        )
        reports = []
        for plan in (transients, restarted):
            cluster, dataset = _fresh()
            reports.append(
                ChaosRunner(cluster, plan).run(dataset, "hot", word_count_job())
            )
        straight, resumed = reports
        assert straight.summary().retried_tasks > 0
        assert resumed.integrity.driver_restarts == 2
        assert resumed.job.selection.local_data == straight.job.selection.local_data
        assert (
            resumed.job.selection.bytes_per_node
            == straight.job.selection.bytes_per_node
        )
        assert resumed.attempts_histogram == straight.attempts_histogram

    @pytest.mark.parametrize("seed", [3, 11])
    def test_node_times_follow_the_restart_rule(self, seed):
        cluster, dataset = _fresh(seed=seed)
        queues = _assignment(dataset).blocks_by_node
        num_waves = max(map(len, queues.values()))
        assert min(map(len, queues.values())) < num_waves
        restarts = (
            DriverRestart(0, waste_fraction=0.25, restart_delay_s=0.5),
            DriverRestart(2, waste_fraction=1.0, restart_delay_s=0.0),
            DriverRestart(num_waves - 1, waste_fraction=0.5, restart_delay_s=1.5),
            DriverRestart(num_waves + 3, restart_delay_s=7.0),  # never fires
        )
        fired = [r for r in restarts if r.wave < num_waves]
        # the rule, in the order the runner adds to each node's clock
        expected = {}
        losses = [{} for _ in fired]
        for node, queue in queues.items():
            clock, due = 0.0, list(enumerate(fired))
            for i, bid in enumerate(queue):
                base = _cost(cluster, dataset, node, bid)
                while due and due[0][1].wave <= i:
                    k, restart = due.pop(0)
                    losses[k][node] = restart.waste_fraction * base
                    clock += losses[k][node]
                    clock += restart.restart_delay_s
                clock += base
            for _k, restart in due:
                clock += restart.restart_delay_s
            expected[node] = clock
        wasted = 0.0
        for lost in losses:
            wasted += sum(lost[n] for n in sorted(lost, key=repr))

        plan = FaultPlan(seed=seed, driver_restarts=restarts)
        report = ChaosRunner(cluster, plan).run(dataset, "hot", word_count_job())
        assert report.job.selection.timing.node_times == expected
        assert report.integrity.driver_restarts == len(fired) == 3
        assert report.integrity.resume_wasted_seconds == wasted
        assert report.output_matches_baseline
