"""What a driver restart resumes from: the outputs of finished blocks,
which the chaos runner's recovery loop keeps across the restart.

When no planned restart falls inside the job nothing is resumed, and the
loop's selection is the engine's own.  The restart rule itself is covered
in ``tests/test_restarts.py``.
"""

from __future__ import annotations

import numpy as np

from repro import DataNet, HDFSCluster
from repro.faults import ChaosRunner, DriverRestart, FaultPlan
from repro.mapreduce import MapReduceEngine
from repro.mapreduce.apps.word_count import word_count_job
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


class TestUninterrupted:
    def test_matches_run_selection(self):
        cluster, dataset = _fresh()
        assignment = DataNet.build(dataset, alpha=0.3).schedule("hot")
        plain = MapReduceEngine(cluster).run_selection(
            dataset, "hot", assignment, word_count_job().profile
        )
        num_waves = max(map(len, assignment.blocks_by_node.values()))
        plan = FaultPlan(
            driver_restarts=(DriverRestart(num_waves), DriverRestart(num_waves + 5))
        )
        cluster, dataset = _fresh()
        report = ChaosRunner(cluster, plan).run(dataset, "hot", word_count_job())
        assert report.integrity.driver_restarts == 0
        assert report.integrity.resume_wasted_seconds == 0.0
        looped = report.job.selection
        assert looped.local_data == plain.local_data
        assert looped.bytes_per_node == plain.bytes_per_node
        assert looped.blocks_read == plain.blocks_read
        assert looped.bytes_read == plain.bytes_read
        assert looped.timing.node_times == plain.timing.node_times
