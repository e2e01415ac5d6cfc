"""Property-based invariants of the execution stack.

These cross-check the layers against each other on randomized inputs:
conservation (no record gained or lost anywhere), scheduling-independence
of outputs, monotonicity of simulated time in the cost knobs, and the one
time model (the engine's times are the simulator's).
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DataNet, HDFSCluster, Record
from repro.core.bucketizer import BucketSpec
from repro.mapreduce import ClusterCostModel, LocalityScheduler, MapReduceEngine
from repro.mapreduce.apps import tokenize, word_count_job
from repro.sim import DiscreteEventSimulator, JobGraphBuilder, SimTask


def _random_environment(seed: int, num_subdatasets: int, records_per: int):
    rng = np.random.default_rng(seed)
    cluster = HDFSCluster(num_nodes=6, block_size=4096, rng=rng)
    records = []
    t = 0.0
    for i in range(num_subdatasets * records_per):
        sid = f"s{rng.integers(num_subdatasets)}"
        records.append(Record(sid, t, "w" * int(rng.integers(10, 60))))
        t += float(rng.random())
    dataset = cluster.write_dataset("d", records)
    datanet = DataNet.build(
        dataset, alpha=0.5, spec=BucketSpec.for_block_size(4096)
    )
    engine = MapReduceEngine(cluster, ClusterCostModel(data_scale=32.0))
    return cluster, dataset, datanet, engine, records


class TestConservation:
    @given(st.integers(0, 10**6), st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_property_selection_conserves_records(self, seed, num_sids):
        _c, dataset, datanet, engine, records = _random_environment(
            seed, num_sids, 40
        )
        target = "s0"
        assignment = datanet.schedule(target, skip_absent=False)
        sel = engine.run_selection(
            dataset, target, assignment, word_count_job().profile
        )
        got = sum(len(v) for v in sel.local_data.values())
        want = sum(1 for r in records if r.sub_id == target)
        assert got == want

    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_property_wordcount_totals_match_tokens(self, seed):
        _c, dataset, datanet, engine, records = _random_environment(seed, 3, 40)
        target = "s0"
        assignment = datanet.schedule(target, skip_absent=False)
        result = engine.run_job(dataset, target, word_count_job(), assignment)
        token_total = sum(
            len(tokenize(r.payload)) for r in records if r.sub_id == target
        )
        assert sum(result.output.values()) == token_total

    @given(st.integers(0, 10**6))
    @settings(max_examples=6, deadline=None)
    def test_property_output_scheduler_independent(self, seed):
        _c, dataset, datanet, engine, _r = _random_environment(seed, 3, 30)
        target = "s0"
        a1 = datanet.schedule(target, skip_absent=False)
        a2 = LocalityScheduler().schedule(
            datanet.bipartite_graph(target, skip_absent=False)
        )
        r1 = engine.run_job(dataset, target, word_count_job(), a1)
        r2 = engine.run_job(dataset, target, word_count_job(), a2)
        assert r1.output == r2.output


class TestTimeModelMonotonicity:
    def _makespan(self, cluster, dataset, datanet, *, scale):
        engine = MapReduceEngine(cluster, ClusterCostModel(data_scale=scale))
        assignment = datanet.schedule("s0", skip_absent=False)
        return engine.run_job(
            dataset, "s0", word_count_job(), assignment
        ).total_time

    def test_time_grows_with_data_scale(self):
        cluster, dataset, datanet, _e, _r = _random_environment(1, 3, 40)
        t_small = self._makespan(cluster, dataset, datanet, scale=16.0)
        t_big = self._makespan(cluster, dataset, datanet, scale=256.0)
        assert t_big > t_small

    def test_slower_disk_never_faster(self):
        cluster, dataset, datanet, _e, _r = _random_environment(2, 3, 40)
        assignment = datanet.schedule("s0", skip_absent=False)
        fast = MapReduceEngine(
            cluster, ClusterCostModel(disk_read_bps=200e6, data_scale=64.0)
        ).run_job(dataset, "s0", word_count_job(), assignment)
        slow = MapReduceEngine(
            cluster, ClusterCostModel(disk_read_bps=20e6, data_scale=64.0)
        ).run_job(dataset, "s0", word_count_job(), assignment)
        assert slow.total_time >= fast.total_time

    def test_balanced_assignment_never_slower_map_phase(self):
        """Across seeds: DataNet's analysis map makespan <= stock's."""
        for seed in range(5):
            _c, dataset, datanet, engine, _r = _random_environment(seed, 4, 40)
            target = "s0"
            prof = word_count_job().profile
            aware = datanet.schedule(target, skip_absent=False)
            stock = LocalityScheduler().schedule(
                datanet.bipartite_graph(target, skip_absent=False)
            )
            sel_aware = engine.run_selection(dataset, target, aware, prof)
            sel_stock = engine.run_selection(dataset, target, stock, prof)
            map_aware = engine.run_analysis(
                word_count_job(), sel_aware.local_data
            ).map_phase.makespan
            map_stock = engine.run_analysis(
                word_count_job(), sel_stock.local_data
            ).map_phase.makespan
            # allow one block's worth of slack: block granularity caps
            # what any scheduler can do at toy scale
            truth = dataset.subdataset_bytes_per_block(target)
            slack = max(truth.values(), default=0) * 32.0 * 3e-7 + 0.2
            assert map_aware <= map_stock + slack, f"seed {seed}"


def _lane_finish(durations, slots):
    """Reference: tasks start in order, each on the lane that frees first."""
    lanes = [0.0] * min(slots, len(durations))
    for d in durations:
        heapq.heappush(lanes, heapq.heappop(lanes) + d)
    return max(lanes, default=0.0)


class TestOneTimeModel:
    @given(st.integers(0, 10**6), st.sampled_from([1, 2, 3]))
    @settings(max_examples=12, deadline=None)
    def test_property_selection_matches_lane_reference(self, seed, slots):
        cluster, dataset, datanet, _e, _r = _random_environment(seed, 3, 40)
        engine = MapReduceEngine(cluster, ClusterCostModel(data_scale=32.0), map_slots=slots)
        assignment = datanet.schedule("s0", skip_absent=False)
        prof = word_count_job().profile
        sel = engine.run_selection(dataset, "s0", assignment, prof)
        placement = dataset.placement()
        for node, blocks in assignment.blocks_by_node.items():
            durations = [
                engine.selection_task_cost(dataset, "s0", placement, node, b, prof)[0]
                for b in blocks
            ]
            assert sel.timing.node_times[node] == _lane_finish(durations, slots)

    @given(st.integers(0, 10**6), st.sampled_from([1, 2, 3]))
    @settings(max_examples=12, deadline=None)
    def test_property_job_time_is_simulated_makespan(self, seed, slots):
        """Chaining the phases equals one simulation of all the job's
        tasks with the selection → analysis barrier."""
        cluster, dataset, datanet, _e, _r = _random_environment(seed, 3, 40)
        engine = MapReduceEngine(cluster, ClusterCostModel(data_scale=32.0), map_slots=slots)
        assignment = datanet.schedule("s0", skip_absent=False)
        job = word_count_job()
        result = engine.run_job(dataset, "s0", job, assignment)

        builder = JobGraphBuilder(engine.cost)
        placement = dataset.placement()
        for node, blocks in assignment.blocks_by_node.items():
            for b in blocks:
                duration = engine.selection_task_cost(
                    dataset, "s0", placement, node, b, job.profile
                )[0]
                builder.tasks.append(
                    SimTask(f"sel/{len(builder.tasks):06d}", node, duration)
                )
        sel_ids = [t.task_id for t in builder.tasks]
        builder.add_analysis(job.name, job, result.selection.local_data, deps=sel_ids)
        sim = DiscreteEventSimulator(slots_per_node=slots).run(builder.tasks)
        assert result.total_time == pytest.approx(sim.makespan, rel=1e-9)
