"""Tests for the MapReduce engine and the shuffle timing it reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataNet, HDFSCluster, Record
from repro.errors import ConfigError, JobError
from repro.mapreduce import ClusterCostModel, LocalityScheduler, MapReduceEngine
from repro.mapreduce.apps import tokenize, top_k_search_job, word_count_job
from tests.conftest import make_records


@pytest.fixture
def env(small_cluster):
    recs = make_records({"hot": 200, "cold-a": 60, "cold-b": 60}, payload_len=40)
    dataset = small_cluster.write_dataset("d", recs)
    datanet = DataNet.build(dataset, alpha=0.5)
    engine = MapReduceEngine(small_cluster, ClusterCostModel(data_scale=64.0))
    return small_cluster, dataset, datanet, engine


class TestSelectionPhase:
    def test_filtered_records_complete(self, env):
        cluster, dataset, datanet, engine = env
        assignment = datanet.schedule("hot", skip_absent=False)
        sel = engine.run_selection(
            dataset, "hot", assignment, word_count_job().profile
        )
        got = sum(len(v) for v in sel.local_data.values())
        assert got == len(dataset.records_of("hot")) == 200

    def test_bytes_per_node_matches_records(self, env):
        _c, dataset, datanet, engine = env
        assignment = datanet.schedule("hot", skip_absent=False)
        sel = engine.run_selection(dataset, "hot", assignment, word_count_job().profile)
        for node, records in sel.local_data.items():
            assert sel.bytes_per_node[node] == sum(r.nbytes for r in records)

    def test_all_blocks_read_when_not_skipping(self, env):
        _c, dataset, datanet, engine = env
        assignment = datanet.schedule("hot", skip_absent=False)
        sel = engine.run_selection(dataset, "hot", assignment, word_count_job().profile)
        assert sel.blocks_read == dataset.num_blocks
        assert sel.bytes_read == dataset.total_bytes

    def test_skipping_reads_fewer_blocks(self, env):
        _c, dataset, datanet, engine = env
        full = engine.run_selection(
            dataset, "cold-a",
            datanet.schedule("cold-a", skip_absent=False),
            word_count_job().profile,
        )
        skipped = engine.run_selection(
            dataset, "cold-a",
            datanet.schedule("cold-a", skip_absent=True),
            word_count_job().profile,
        )
        assert skipped.blocks_read <= full.blocks_read
        # both must still find every record
        assert sum(len(v) for v in skipped.local_data.values()) == 60

    def test_positive_node_times(self, env):
        _c, dataset, datanet, engine = env
        assignment = datanet.schedule("hot", skip_absent=False)
        sel = engine.run_selection(dataset, "hot", assignment, word_count_job().profile)
        busy = [t for n, t in sel.timing.node_times.items() if assignment.blocks_by_node[n]]
        assert all(t > 0 for t in busy)
        assert sel.makespan == max(sel.timing.node_times.values())

    def test_unknown_block_raises(self, env):
        from repro.core.scheduler import Assignment

        _c, dataset, _dn, engine = env
        bogus = Assignment({0: [9999]}, {0: 0})
        with pytest.raises(JobError):
            engine.run_selection(dataset, "hot", bogus, word_count_job().profile)


class TestAnalysisPhase:
    def test_output_matches_direct_execution(self, env):
        _c, dataset, datanet, engine = env
        assignment = datanet.schedule("hot", skip_absent=False)
        result = engine.run_job(dataset, "hot", word_count_job(), assignment)
        naive = {}
        for r in dataset.records_of("hot"):
            for w in tokenize(r.payload):
                naive[w] = naive.get(w, 0) + 1
        assert result.output == naive

    def test_output_independent_of_scheduling(self, env):
        _c, dataset, datanet, engine = env
        a1 = datanet.schedule("hot", skip_absent=False)
        a2 = LocalityScheduler().schedule(
            datanet.bipartite_graph("hot", skip_absent=False)
        )
        r1 = engine.run_job(dataset, "hot", word_count_job(), a1)
        r2 = engine.run_job(dataset, "hot", word_count_job(), a2)
        assert r1.output == r2.output

    def test_map_times_scale_with_data(self, env):
        _c, dataset, datanet, engine = env
        assignment = datanet.schedule("hot", skip_absent=False)
        sel = engine.run_selection(dataset, "hot", assignment, word_count_job().profile)
        result = engine.run_analysis(word_count_job(), sel.local_data)
        # node with most data should have the longest map
        heaviest = max(sel.bytes_per_node, key=sel.bytes_per_node.get)
        assert result.map_times[heaviest] == max(result.map_times.values())

    def test_total_includes_job_overhead(self, env):
        _c, dataset, datanet, engine = env
        assignment = datanet.schedule("hot", skip_absent=False)
        sel = engine.run_selection(dataset, "hot", assignment, word_count_job().profile)
        result = engine.run_analysis(word_count_job(), sel.local_data)
        assert result.total_time >= engine.cost.job_overhead_s

    def test_chained_run_job_includes_selection(self, env):
        _c, dataset, datanet, engine = env
        assignment = datanet.schedule("hot", skip_absent=False)
        chained = engine.run_job(dataset, "hot", word_count_job(), assignment)
        sel = chained.selection
        assert sel is not None
        analysis_only = engine.run_analysis(word_count_job(), sel.local_data)
        assert chained.total_time >= analysis_only.total_time

    def test_empty_input_raises(self, env):
        _c, _d, _dn, engine = env
        with pytest.raises(JobError):
            engine.run_analysis(word_count_job(), {})

    def test_topk_through_engine(self, env):
        _c, dataset, datanet, engine = env
        assignment = datanet.schedule("hot", skip_absent=False)
        result = engine.run_job(
            dataset, "hot", top_k_search_job("x" * 10, k=5), assignment
        )
        assert len(result.output["topk"]) == 5

    def test_map_slots_shorten_node_time(self, small_cluster):
        recs = make_records({"hot": 200}, payload_len=40)
        dataset = small_cluster.write_dataset("d2", recs)
        datanet = DataNet.build(dataset, alpha=1.0)
        assignment = datanet.schedule("hot", skip_absent=False)
        cost = ClusterCostModel(data_scale=64.0)
        serial = MapReduceEngine(small_cluster, cost, map_slots=1)
        parallel = MapReduceEngine(small_cluster, cost, map_slots=2)
        prof = word_count_job().profile
        s1 = serial.run_selection(dataset, "hot", assignment, prof)
        s2 = parallel.run_selection(dataset, "hot", assignment, prof)
        assert s2.makespan <= s1.makespan

    def test_engine_validation(self, small_cluster):
        with pytest.raises(ConfigError):
            MapReduceEngine(small_cluster, map_slots=0)


class TestShuffleModel:
    """The shuffle timing the engine reads off the simulated timeline."""

    @staticmethod
    def _records(n):
        return [Record("hot", float(i), f"w{i % 17} w{i % 5} common") for i in range(n)]

    def test_straggler_dominates_when_maps_imbalanced(self, small_cluster):
        engine = MapReduceEngine(small_cluster, ClusterCostModel(data_scale=64.0))
        recs = self._records(400)
        res = engine.run_analysis(word_count_job(num_reducers=1), {0: recs[:10], 1: recs})
        straggler = max(res.map_times.values()) - min(res.map_times.values())
        assert straggler > 0.0
        assert res.shuffle.start_time == min(res.map_times.values())
        assert res.shuffle.durations[0] >= straggler  # waits for the straggler

    def test_fetch_dominates_when_maps_balanced(self, small_cluster):
        cost = ClusterCostModel(network_bps=1e6)
        engine = MapReduceEngine(small_cluster, cost)
        recs = self._records(200)
        res = engine.run_analysis(word_count_job(num_reducers=1), {0: recs, 1: list(recs)})
        assert len(set(res.map_times.values())) == 1  # no straggler
        partition = sum(v.get(0, 0) for v in res.shuffle.volumes.values())
        assert res.shuffle.durations[0] == pytest.approx(
            cost.transfer(partition) + 1.5e-8 * partition, rel=1e-9
        )

    def test_min_max_mean(self, small_cluster):
        engine = MapReduceEngine(small_cluster)
        recs = self._records(300)
        res = engine.run_analysis(
            word_count_job(num_reducers=4), {0: recs[:50], 1: recs[50:], 2: recs[:7]}
        )
        assert res.shuffle.min <= res.shuffle.mean <= res.shuffle.max

    def test_empty_map_times_raises(self, small_cluster):
        with pytest.raises(JobError):
            MapReduceEngine(small_cluster).run_analysis(word_count_job(), {})

    def test_end_time_covers_all_reducers(self, small_cluster):
        engine = MapReduceEngine(small_cluster)
        recs = self._records(300)
        res = engine.run_analysis(
            word_count_job(num_reducers=4), {0: recs[:100], 1: recs[100:], 2: recs[:3]}
        )
        ends = [res.shuffle.start_time + d for d in res.shuffle.durations.values()]
        assert len(ends) == 4
        assert res.shuffle.end_time == pytest.approx(max(ends), rel=1e-12)
        assert res.total_time >= res.shuffle.end_time + engine.cost.job_overhead_s
