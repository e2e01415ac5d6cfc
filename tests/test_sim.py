"""Tests for the discrete-event simulator: event loop, adapter, gantt."""

from __future__ import annotations

import heapq
import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, JobError
from repro.sim import (
    DiscreteEventSimulator,
    JobGraphBuilder,
    SimTask,
    build_job_graph,
    render_gantt,
)


def _t(tid, node=0, dur=1.0, deps=(), kind="task", job="j", release=0.0):
    return SimTask(
        task_id=tid,
        node=node,
        duration=dur,
        deps=frozenset(deps),
        kind=kind,
        job=job,
        release_time=release,
    )


def _reference_intervals(tasks, slots):
    """The simulator's semantics as a plain loop over string task ids.

    One event heap ordered by (time, push sequence); each node runs its
    ready tasks by (ready time, task id) on ``slots`` slots.  Intervals are
    recorded in start order.
    """
    by_id = {t.task_id: t for t in tasks}
    waiting = {tid: set(t.deps) for tid, t in by_id.items()}
    successors = {tid: [] for tid in by_id}
    for tid, task in by_id.items():
        for dep in task.deps:
            successors[dep].append(tid)
    free = {t.node: slots for t in tasks}
    ready = {node: [] for node in free}
    seq = itertools.count()
    events = [
        (t.release_time, next(seq), "ready", t.task_id) for t in tasks if not t.deps
    ]
    heapq.heapify(events)
    intervals = {}
    while events:
        now, _seq, kind, tid = heapq.heappop(events)
        node = by_id[tid].node
        if kind == "ready":
            heapq.heappush(ready[node], (now, tid))
        else:
            free[node] += 1
            for succ in successors[tid]:
                waiting[succ].discard(tid)
                if not waiting[succ]:
                    ready_at = max(now, by_id[succ].release_time)
                    heapq.heappush(events, (ready_at, next(seq), "ready", succ))
        while free[node] and ready[node]:
            _ready_at, started = heapq.heappop(ready[node])
            free[node] -= 1
            end = now + by_id[started].duration
            intervals[started] = (now, end)
            heapq.heappush(events, (end, next(seq), "finish", started))
    return intervals


class TestEventLoop:
    def test_single_task(self):
        r = DiscreteEventSimulator().run([_t("a", dur=5.0)])
        assert r.timeline.intervals["a"] == (0.0, 5.0)
        assert r.makespan == 5.0

    def test_sequential_on_one_slot(self):
        r = DiscreteEventSimulator(slots_per_node=1).run(
            [_t("a", dur=2.0), _t("b", dur=3.0)]
        )
        # same node, one slot: serialized
        spans = sorted(r.timeline.intervals.values())
        assert spans[0][1] <= spans[1][0]
        assert r.makespan == 5.0

    def test_parallel_on_two_slots(self):
        r = DiscreteEventSimulator(slots_per_node=2).run(
            [_t("a", dur=2.0), _t("b", dur=3.0)]
        )
        assert r.makespan == 3.0

    def test_parallel_across_nodes(self):
        r = DiscreteEventSimulator().run(
            [_t("a", node=0, dur=2.0), _t("b", node=1, dur=3.0)]
        )
        assert r.makespan == 3.0

    def test_dependency_ordering(self):
        r = DiscreteEventSimulator().run(
            [_t("a", dur=2.0), _t("b", node=1, dur=1.0, deps={"a"})]
        )
        assert r.timeline.start_of("b") >= r.timeline.end_of("a")
        assert r.makespan == 3.0

    def test_diamond_dependencies(self):
        tasks = [
            _t("src", dur=1.0),
            _t("left", node=1, dur=2.0, deps={"src"}),
            _t("right", node=2, dur=3.0, deps={"src"}),
            _t("sink", node=0, dur=1.0, deps={"left", "right"}),
        ]
        r = DiscreteEventSimulator().run(tasks)
        assert r.timeline.start_of("sink") == 4.0
        assert r.makespan == 5.0

    def test_release_time_respected(self):
        r = DiscreteEventSimulator().run([_t("a", dur=1.0, release=10.0)])
        assert r.timeline.start_of("a") == 10.0

    def test_fifo_within_node(self):
        tasks = [_t(f"t{i}", dur=1.0) for i in range(5)]
        r = DiscreteEventSimulator().run(tasks)
        starts = [r.timeline.start_of(f"t{i}") for i in range(5)]
        assert starts == sorted(starts)
        assert r.makespan == 5.0

    def test_zero_duration_tasks(self):
        r = DiscreteEventSimulator().run([_t("a", dur=0.0), _t("b", dur=0.0, deps={"a"})])
        assert r.makespan == 0.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            DiscreteEventSimulator().run([_t("a"), _t("a")])

    def test_unknown_dep_rejected(self):
        with pytest.raises(ConfigError):
            DiscreteEventSimulator().run([_t("a", deps={"ghost"})])

    def test_cycle_rejected(self):
        with pytest.raises(ConfigError):
            DiscreteEventSimulator().run(
                [_t("a", deps={"b"}), _t("b", deps={"a"})]
            )

    def test_self_dep_rejected(self):
        with pytest.raises(ConfigError):
            _t("a", deps={"a"})

    def test_slots_validated(self):
        with pytest.raises(ConfigError):
            DiscreteEventSimulator(slots_per_node=0)

    def test_long_chain_validates_in_linear_time(self):
        """Dependency checks stay linear in the task count: rescanning
        every task id per task is quadratic, seconds on a 20k-task chain."""
        tasks = [
            _t(f"t{i}", node=i % 4, deps={f"t{i - 1}"} if i else ())
            for i in range(20_000)
        ]
        start = time.perf_counter()
        DiscreteEventSimulator._validate({t.task_id: t for t in tasks})
        assert time.perf_counter() - start < 2.0

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.floats(0.0, 10.0),
                st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
            ),
            min_size=1,
            max_size=25,
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_chain_graph_consistent(self, specs, slots):
        """Random chain graphs with release times: the realized intervals
        equal the plain reference loop's, in values and insertion order;
        every task runs after its dep and its release; the makespan is at
        most the latest release plus the serial sum."""
        tasks = []
        prev = None
        for i, (node, dur, release) in enumerate(specs):
            deps = {prev} if prev is not None and i % 2 == 0 else set()
            tid = f"t{i}"
            tasks.append(_t(tid, node=node, dur=dur, deps=deps, release=release))
            prev = tid
        r = DiscreteEventSimulator(slots_per_node=slots).run(tasks)
        assert list(r.timeline.intervals.items()) == list(
            _reference_intervals(tasks, slots).items()
        )
        total = sum(d for _n, d, _r in specs)
        assert r.makespan <= max(rel for _n, _d, rel in specs) + total + 1e-6
        for task in tasks:
            assert r.timeline.start_of(task.task_id) >= task.release_time
            for dep in task.deps:
                assert (
                    r.timeline.start_of(task.task_id)
                    >= r.timeline.end_of(dep) - 1e-9
                )


class TestTimelineViews:
    def _run(self):
        tasks = [
            _t("a", node=0, dur=2.0, kind="map", job="j1"),
            _t("b", node=1, dur=4.0, kind="map", job="j1"),
            _t("c", node=0, dur=1.0, deps={"a", "b"}, kind="reduce", job="j1"),
        ]
        return DiscreteEventSimulator().run(tasks).timeline

    def test_job_span(self):
        tl = self._run()
        start, end = tl.job_span("j1")
        assert start == 0.0 and end == 5.0

    def test_job_span_unknown(self):
        with pytest.raises(ConfigError):
            self._run().job_span("nope")

    def test_node_busy_time(self):
        tl = self._run()
        assert tl.node_busy_time(0) == 3.0
        assert tl.node_busy_time(1) == 4.0

    def test_by_kind(self):
        tl = self._run()
        assert tl.by_kind("map") == ["a", "b"]
        assert tl.by_kind("reduce") == ["c"]

    def test_utilization(self):
        tl = self._run()
        u = tl.utilization([0, 1], 1)
        assert u == pytest.approx(7.0 / 10.0)
        with pytest.raises(ConfigError):
            tl.utilization([0], 0)


class TestAdapter:
    def test_single_job_close_to_engine(self):
        """The engine times a job on this simulator, so a single job's
        makespan matches its simulated task graph for every app."""
        from repro.experiments.config import ReferenceConfig, build_movie_environment
        from repro.mapreduce.apps import (
            histogram_job,
            moving_average_job,
            top_k_search_job,
            word_count_job,
        )

        env = build_movie_environment(ReferenceConfig.small())
        assignment = env.datanet.schedule(env.target, skip_absent=False)
        for job in (
            moving_average_job(),
            word_count_job(),
            histogram_job(),
            top_k_search_job("great movie", k=5),
        ):
            tasks = build_job_graph(
                env.engine.cost, env.dataset, env.target, job, assignment
            )
            sim = DiscreteEventSimulator(slots_per_node=env.engine.map_slots).run(tasks)
            engine = env.engine.run_job(env.dataset, env.target, job, assignment)
            assert sim.makespan == pytest.approx(engine.total_time, rel=1e-9), job.name

    def test_phase_ordering(self):
        from repro.experiments.config import ReferenceConfig, build_movie_environment
        from repro.mapreduce.apps import moving_average_job

        env = build_movie_environment(ReferenceConfig.small())
        job = moving_average_job()
        assignment = env.datanet.schedule(env.target, skip_absent=False)
        tasks = build_job_graph(
            env.engine.cost, env.dataset, env.target, job, assignment
        )
        tl = DiscreteEventSimulator().run(tasks).timeline
        last_sel = max(tl.end_of(t) for t in tl.by_kind("selection"))
        first_map = min(tl.start_of(t) for t in tl.by_kind("map"))
        assert first_map >= last_sel - 1e-9
        last_map = max(tl.end_of(t) for t in tl.by_kind("map"))
        first_red = min(tl.start_of(t) for t in tl.by_kind("reduce"))
        assert first_red >= last_map - 1e-9

    def test_analysis_requires_data(self):
        from repro.mapreduce.apps import word_count_job
        from repro.mapreduce.costmodel import ClusterCostModel

        builder = JobGraphBuilder(ClusterCostModel())
        with pytest.raises(JobError):
            builder.add_analysis("x", word_count_job(), {})

    def test_selection_rejects_unknown_block(self):
        """The builder and the engine reject a bad assignment with the
        same error type."""
        import numpy as np

        from repro import HDFSCluster
        from repro.core.scheduler import Assignment
        from repro.mapreduce.apps import word_count_job
        from repro.mapreduce.costmodel import ClusterCostModel
        from tests.conftest import make_records

        cluster = HDFSCluster(num_nodes=4, block_size=2048, rng=np.random.default_rng(3))
        dataset = cluster.write_dataset("d", make_records({"hot": 40}))
        bogus = Assignment({0: [9999]}, {0: 0})
        builder = JobGraphBuilder(ClusterCostModel())
        with pytest.raises(JobError):
            builder.add_selection("x", dataset, "hot", bogus, word_count_job().profile)


class TestGantt:
    def _timeline(self):
        tasks = [
            _t("a", node=0, dur=3.0, kind="map", job="alpha"),
            _t("b", node=1, dur=6.0, kind="map", job="beta"),
            _t("c", node=0, dur=2.0, deps={"a"}, kind="reduce", job="alpha"),
        ]
        return DiscreteEventSimulator().run(tasks).timeline

    def test_renders_rows_per_node(self):
        out = render_gantt(self._timeline(), width=30)
        lines = out.splitlines()
        assert len(lines) == 4  # header + 2 nodes + legend
        assert "M" in out and "R" in out

    def test_by_job_glyphs(self):
        out = render_gantt(self._timeline(), width=30, by_job=True)
        assert "A" in out and "B" in out

    def test_idle_shown(self):
        out = render_gantt(self._timeline(), width=30)
        assert "." in out

    def test_validation(self):
        tl = self._timeline()
        with pytest.raises(ConfigError):
            render_gantt(tl, width=0)
        from repro.sim.tasks import TaskTimeline

        with pytest.raises(ConfigError):
            render_gantt(TaskTimeline(intervals={}, tasks={}))

    def test_zero_duration_timeline_raises_config_error(self):
        from repro.sim.tasks import SimTask, TaskTimeline

        tl = TaskTimeline(intervals={"a": (0.0, 0.0)}, tasks={})
        tl.tasks["a"] = SimTask(task_id="a", node=0, duration=0.0)
        with pytest.raises(ConfigError):
            render_gantt(tl)

    def test_empty_node_list_raises_config_error(self):
        with pytest.raises(ConfigError):
            render_gantt(self._timeline(), nodes=[])

    def test_legend_lists_kind_glyphs(self):
        legend = render_gantt(self._timeline(), width=30).splitlines()[-1]
        assert legend.startswith("legend:")
        for glyph in ("S=selection", "M=map", "s=shuffle", "R=reduce",
                      "c=cleanup", "#=other", ".=idle"):
            assert glyph in legend

    def test_by_job_legend_enumerates_jobs(self):
        legend = render_gantt(
            self._timeline(), width=30, by_job=True
        ).splitlines()[-1]
        assert "A=alpha" in legend and "B=beta" in legend
