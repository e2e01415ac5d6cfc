"""Wave-granularity checkpoint/resume for the selection phase.

The acceptance bar: interrupting a job mid-wave and resuming from the
serialized checkpoint produces output byte-identical to the uninterrupted
run under the same seed, with the lost work reported rather than hidden.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataNet, HDFSCluster
from repro.errors import ConfigError, JobError
from repro.faults import (
    ChaosRunner,
    DriverRestart,
    FaultInjector,
    FaultPlan,
    NodeCrash,
    TransientFaults,
)
from repro.mapreduce import MapReduceEngine, WaveCheckpoint
from repro.mapreduce.apps.word_count import word_count_job
from tests.conftest import make_records


def _setup(seed=11, num_nodes=8):
    cluster = HDFSCluster(
        num_nodes=num_nodes,
        block_size=2048,
        replication=3,
        rng=np.random.default_rng(seed),
    )
    recs = make_records({"hot": 150, "cold": 50}, payload_len=30)
    dataset = cluster.write_dataset("d", recs)
    datanet = DataNet.build(dataset, alpha=0.5)
    assignment = datanet.schedule("hot")
    engine = MapReduceEngine(cluster)
    profile = word_count_job().profile
    return cluster, dataset, assignment, engine, profile


def _num_waves(assignment):
    return max(len(b) for b in assignment.blocks_by_node.values())


class TestUninterrupted:
    def test_matches_run_selection(self):
        _c, dataset, assignment, engine, profile = _setup()
        plain = engine.run_selection(dataset, "hot", assignment, profile)
        wavey, checkpoint, wasted = engine.run_selection_checkpointed(
            dataset, "hot", assignment, profile
        )
        assert wasted == 0.0
        assert wavey.local_data == plain.local_data
        assert wavey.bytes_per_node == plain.bytes_per_node
        assert wavey.blocks_read == plain.blocks_read
        assert wavey.bytes_read == plain.bytes_read
        assert wavey.timing.node_times == plain.timing.node_times
        assert checkpoint.wave == _num_waves(assignment)

    def test_rejects_multislot_engine(self):
        cluster, dataset, assignment, _e, profile = _setup()
        fat = MapReduceEngine(cluster, map_slots=2)
        with pytest.raises(ConfigError):
            fat.run_selection_checkpointed(dataset, "hot", assignment, profile)


class TestInterruptAndResume:
    def test_resume_is_byte_identical(self):
        _c, dataset, assignment, engine, profile = _setup()
        uninterrupted = engine.run_selection(dataset, "hot", assignment, profile)
        restart = DriverRestart(wave=0, waste_fraction=0.5, restart_delay_s=2.0)
        interrupted, checkpoint, wasted = engine.run_selection_checkpointed(
            dataset, "hot", assignment, profile, interrupt=restart
        )
        assert interrupted is None
        assert wasted > 0.0
        assert checkpoint.restarts == 1
        # the driver that resumes only has the durable bytes
        revived = WaveCheckpoint.from_bytes(checkpoint.to_bytes())
        resumed, final, _ = engine.run_selection_checkpointed(
            dataset, "hot", assignment, profile, checkpoint=revived
        )
        assert resumed.local_data == uninterrupted.local_data
        assert resumed.bytes_per_node == uninterrupted.bytes_per_node
        # only time differs: lost work + restart delay are charged
        for node, t in uninterrupted.timing.node_times.items():
            assert resumed.timing.node_times[node] >= t

    def test_wasted_work_is_half_the_wave(self):
        _c, dataset, assignment, engine, profile = _setup()
        placement = dataset.placement()
        expected = 0.0
        for node, bids in assignment.blocks_by_node.items():
            if bids:
                base, _m, _n = engine.selection_task_cost(
                    dataset, "hot", placement, node, bids[0], profile
                )
                expected += 0.5 * base
        _sel, _cp, wasted = engine.run_selection_checkpointed(
            dataset, "hot", assignment, profile, interrupt=DriverRestart(0)
        )
        assert wasted == pytest.approx(expected)

    def test_interrupt_past_end_completes(self):
        _c, dataset, assignment, engine, profile = _setup()
        beyond = DriverRestart(wave=_num_waves(assignment) + 5)
        selection, _cp, wasted = engine.run_selection_checkpointed(
            dataset, "hot", assignment, profile, interrupt=beyond
        )
        assert selection is not None and wasted == 0.0

    def test_resume_under_transients_draws_same_coins(self):
        _c, dataset, assignment, engine, profile = _setup()
        plan = FaultPlan(seed=9, transient=TransientFaults(0.2))
        straight, _cp0, _w0 = engine.run_selection_checkpointed(
            dataset, "hot", assignment, profile, injector=FaultInjector(plan)
        )
        _n, cp, _w = engine.run_selection_checkpointed(
            dataset,
            "hot",
            assignment,
            profile,
            interrupt=DriverRestart(0, restart_delay_s=0.0, waste_fraction=0.0),
            injector=FaultInjector(plan),
        )
        resumed, _cp2, _ = engine.run_selection_checkpointed(
            dataset,
            "hot",
            assignment,
            profile,
            checkpoint=WaveCheckpoint.from_bytes(cp.to_bytes()),
            injector=FaultInjector(plan),
        )
        assert resumed.local_data == straight.local_data
        assert resumed.bytes_per_node == straight.bytes_per_node


class TestSerialization:
    def test_roundtrip_preserves_everything(self):
        _c, dataset, assignment, engine, profile = _setup()
        _sel, cp, _w = engine.run_selection_checkpointed(
            dataset, "hot", assignment, profile, interrupt=DriverRestart(1)
        )
        clone = WaveCheckpoint.from_bytes(cp.to_bytes())
        assert clone.wave == cp.wave
        assert clone.queues == cp.queues
        assert clone.clocks == cp.clocks
        assert clone.restarts == cp.restarts
        assert clone.blocks_read == cp.blocks_read
        assert clone.bytes_read == cp.bytes_read
        assert clone.outputs == cp.outputs
        assert clone.to_bytes() == cp.to_bytes()

    def test_corrupt_blob_rejected(self):
        with pytest.raises(JobError):
            WaveCheckpoint.from_bytes(b"not json at all")
        with pytest.raises(JobError):
            WaveCheckpoint.from_bytes(b'{"dataset": "d"}')

    def test_mismatched_resume_rejected(self):
        _c, dataset, assignment, engine, profile = _setup()
        _sel, cp, _w = engine.run_selection_checkpointed(
            dataset, "hot", assignment, profile, interrupt=DriverRestart(0)
        )
        cp.sub_id = "cold"
        with pytest.raises(JobError):
            engine.run_selection_checkpointed(
                dataset, "hot", assignment, profile, checkpoint=cp
            )


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
