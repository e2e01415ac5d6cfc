"""Wall-clock spans around the public callables of each layer.

The benchmark does not instrument the program: it wraps the callables
listed in :data:`TARGETS` from the outside, in the traced child only,
and keeps every span in memory until the run ends.  A layer is named
after the ``repro`` module it lives in.  A span's *self time* is its
duration minus the durations of the wrapped spans it directly contains;
the harness is single-threaded, so nested spans never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "TARGETS",
    "LAYERS",
    "COUNTERS",
    "Span",
    "SpanRecorder",
    "install",
    "uninstall",
    "layer_metrics",
]


def _filter_counts(records) -> Dict[str, float]:
    return {"hdfs.filter.records_out": len(records)}


def _assignment_counts(assignment) -> Dict[str, float]:
    return {
        "core.schedule.tasks": assignment.num_tasks,
        "core.schedule.local_tasks": assignment.local_assignments,
    }


def _selection_counts(selection) -> Dict[str, float]:
    return {"mapreduce.selected_bytes": sum(selection.bytes_per_node.values())}


def _sim_counts(result) -> Dict[str, float]:
    return {"sim.run.events": result.events_processed}


def _summary_counts(summary) -> Dict[str, float]:
    return {"serve.wait_p99_sim_s": summary.wait_p99_s}


#: (layer, module, attribute path, optional counter over the return value).
#: ``degraded_schedule`` is patched where its two callers imported it.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[[Any], Dict[str, float]]]], ...] = (
    ("workloads", "repro.workloads.movielens", "MovieLensGenerator.generate", None),
    ("hdfs.write", "repro.hdfs.cluster", "HDFSCluster.write_dataset", None),
    ("hdfs.write", "repro.hdfs.cluster", "HDFSCluster.append_records", None),
    ("hdfs.truth", "repro.hdfs.cluster", "DatasetView.subdataset_sizes", None),
    ("hdfs.truth", "repro.hdfs.cluster", "DatasetView.subdataset_total_bytes", None),
    ("hdfs.truth", "repro.hdfs.cluster", "DatasetView.subdataset_bytes_per_block", None),
    ("hdfs.truth", "repro.hdfs.cluster", "DatasetView.subdataset_ids", None),
    ("hdfs.filter", "repro.hdfs.block", "Block.filter", _filter_counts),
    ("core.build", "repro.core.datanet", "DataNet.build", None),
    ("core.build", "repro.core.datanet", "DataNet.extend", None),
    ("core.build", "repro.core.datanet", "DataNet.validate_integrity", None),
    ("core.schedule", "repro.core.datanet", "DataNet.bipartite_graph", None),
    ("core.schedule", "repro.core.datanet", "DataNet.schedule", None),
    ("core.schedule", "repro.core.datanet", "DataNet.gray_schedule", None),
    ("core.schedule", "repro.core.scheduler", "DistributionAwareScheduler.schedule", _assignment_counts),
    ("core.schedule", "repro.mapreduce.scheduler", "LocalityScheduler.schedule", _assignment_counts),
    ("mapreduce.selection", "repro.mapreduce.engine", "MapReduceEngine.run_selection", _selection_counts),
    ("mapreduce.analysis", "repro.mapreduce.engine", "MapReduceEngine.run_analysis", None),
    ("sim.build", "repro.sim.adapter", "JobGraphBuilder.add_selection", None),
    ("sim.build", "repro.sim.adapter", "JobGraphBuilder.add_analysis", None),
    ("sim.run", "repro.sim.simulator", "DiscreteEventSimulator.run", _sim_counts),
    ("faults", "repro.faults.runner", "ChaosRunner.run", None),
    ("faults.degrade", "repro.serve.service", "degraded_schedule", None),
    ("faults.degrade", "repro.faults.runner", "degraded_schedule", None),
    ("serve", "repro.serve.service", "AnalysisService.run", _summary_counts),
    ("serve.journal", "repro.serve.journal", "MetadataJournal.append_block", None),
    ("serve.journal", "repro.serve.journal", "MetadataJournal.append_array", None),
    ("replication.journal", "repro.replication.journal", "ReplicatedJournal.append_block", None),
    ("replication.journal", "repro.replication.journal", "ReplicatedJournal.append_array", None),
    ("replication.journal", "repro.replication.journal", "ReplicatedJournal.fence", None),
    ("replication.journal", "repro.replication.journal", "ReplicatedJournal.recover", None),
    ("replication.journal", "repro.replication.journal", "ReplicatedJournal.heal", None),
    ("replication.journal", "repro.replication.journal", "ReplicatedJournal.restore_replica", None),
    ("replication.election", "repro.replication.election", "LeaderElector.elect", None),
)

#: Every layer, in the order the reports list them; ``other`` is the rest.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS)) + ("other",)

#: Return-value counters, reported as 0 when their layer never ran.
COUNTERS = (
    "hdfs.filter.records_out",
    "core.schedule.tasks",
    "mapreduce.selected_bytes",
    "sim.run.events",
    "serve.wait_p99_sim_s",
)


class Span:
    """One wrapped call: its layer, wall-clock interval and parent span."""

    __slots__ = ("name", "layer", "start", "end", "parent", "child_s")

    def __init__(self, name: str, layer: str, start: float, parent: int) -> None:
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class SpanRecorder:
    """Collects spans and return-value counters in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        count: Optional[Callable[[Any], Dict[str, float]]] = None,
    ) -> Callable:
        """``fn`` recording one span per call (and its counters, if any)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, layer, self.clock(), parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.duration
            if count is not None:
                for key, value in count(result).items():
                    self.counts[key] += value
            return result

        return traced

    def to_json(self) -> List[Dict[str, object]]:
        return [
            {"name": s.name, "layer": s.layer, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]


def _resolve(module: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: SpanRecorder, targets: Sequence = TARGETS) -> List[Tuple[object, str, object]]:
    """Replace every target with a recording wrapper; returns what to restore."""
    patched = []
    for layer, module, path, count in targets:
        owner, attr = _resolve(module, path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = f"{module}.{path}"
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(recorder.wrap(layer, name, raw.__func__, count))
        else:
            wrapped = recorder.wrap(layer, name, raw, count)
        setattr(owner, attr, wrapped)
        patched.append((owner, attr, raw))
    return patched


def uninstall(patched: List[Tuple[object, str, object]]) -> None:
    for owner, attr, raw in reversed(patched):
        setattr(owner, attr, raw)


def layer_metrics(recorder: SpanRecorder, wall_s: float) -> Dict[str, float]:
    """Per-layer self time, share of ``wall_s`` and call count.

    ``other.self_s`` is the part of the traced wall time outside every
    top-level span, so the layer self times sum to ``wall_s`` exactly.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    top = 0.0
    for span in recorder.spans:
        self_s[span.layer] += span.self_s
        calls[span.layer] += 1
        if span.parent < 0:
            top += span.duration
    self_s["other"] = wall_s - top
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / wall_s if wall_s > 0 else 0.0
        if layer != "other":
            out[f"{layer}.calls"] = calls[layer]
    for key in COUNTERS:
        out[key] = recorder.counts.get(key, 0)
    tasks = out["core.schedule.tasks"]
    local = recorder.counts.get("core.schedule.local_tasks", 0)
    out["core.schedule.local_share"] = local / tasks if tasks else 0.0
    return out
