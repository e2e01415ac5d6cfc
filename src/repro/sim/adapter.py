"""Build simulator task graphs from MapReduce workloads.

This module prices the tasks of a job; the event loop
(:mod:`repro.sim.simulator`) turns the priced tasks into a timeline.  The
engine (:mod:`repro.mapreduce.engine`), the analysis service and the
concurrent batch all time their jobs this way, so a single job, a batch
and the service follow the same rules, and the event loop adds slot
contention wherever tasks share a node.

Graph shape per analysis job (classic Hadoop):

- one **selection** task per assigned block (no deps), priced by
  :func:`~repro.mapreduce.costmodel.price_selection`;
- one **map** task per node holding filtered data, depending on *all*
  selection tasks (the phase barrier between the paper's two jobs).  The
  mappers and combiners run for real here, once per job; their combined
  pairs size the partitions and feed the reducers;
- one **shuffle** task per reducer, depending on all maps.  Paper
  Section V-A.3: "The shuffle phase starts whenever a map task is
  finished and ends when all map tasks have been executed", so reducer
  ``r``'s shuffle ends at ``first_map_end + max(straggler, fetch_r) +
  merge_r``, where ``straggler = last_map_end - first_map_end``.  The
  task starts at the last map end, so its duration is
  ``max(0, fetch_r - straggler) + merge_r``.  Under imbalance every
  reducer waits for the straggler; under balance the fetch dominates;
- one **reduce** task per reducer, depending on its own shuffle;
- one **cleanup** task (the per-job overhead), depending on all reduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..core.aggregation import plan_greedy
from ..core.scheduler import Assignment
from ..errors import JobError
from ..hdfs.cluster import DatasetView
from ..hdfs.records import Record
from ..mapreduce.costmodel import AppProfile, ClusterCostModel, price_selection
from ..mapreduce.job import MapReduceJob
from .tasks import SimTask

__all__ = ["AnalysisTasks", "JobGraphBuilder", "build_job_graph"]

NodeId = Hashable

#: Serialized framing bytes per intermediate key/value pair.
KV_OVERHEAD = 8

#: Merge/spill cost per shuffled byte (sort-merge on the reducer side).
MERGE_COST_PER_BYTE = 1.5e-8


def _kv_bytes(key: Any, value: Any) -> int:
    """Approximate serialized size of one intermediate pair."""
    return len(repr(key)) + len(repr(value)) + KV_OVERHEAD


@dataclass
class AnalysisTasks:
    """One job's analysis tasks, as added by :meth:`JobGraphBuilder.add_analysis`.

    Attributes:
        maps: node → its map task id, in sorted node order.
        shuffles: reducer → its shuffle task id.
        reduces: reducer → its reduce task id.
        pairs: node → one list per reducer of the node's combined pairs
            bound for it, in combiner order.
        volumes: node → reducer → serialized bytes of those pairs, for
            the reducers that get any.
    """

    maps: Dict[NodeId, str]
    shuffles: Dict[int, str]
    reduces: Dict[int, str]
    pairs: Dict[NodeId, List[List[Tuple[Any, Any]]]]
    volumes: Dict[NodeId, Dict[int, int]]


@dataclass
class JobGraphBuilder:
    """Accumulates tasks for one or many jobs over a shared cluster.

    Args:
        cost: the cost model pricing every task.
    """

    cost: ClusterCostModel
    tasks: List[SimTask] = field(default_factory=list)

    # -- selection phase -------------------------------------------------------

    def add_selection(
        self,
        label: str,
        dataset: DatasetView,
        sub_id: str,
        assignment: Assignment,
        profile: AppProfile,
    ) -> Tuple[List[str], Dict[NodeId, List[Record]]]:
        """One task per assigned block; returns (task ids, filtered data).

        Raises:
            JobError: when the assignment names a block the dataset lacks.
        """
        placement = dataset.placement()
        task_ids: List[str] = []
        local_data: Dict[NodeId, List[Record]] = {}
        for node, block_ids in assignment.blocks_by_node.items():
            filtered: List[Record] = []
            for bid in block_ids:
                duration, matched, _nbytes = price_selection(
                    self.cost, dataset, sub_id, placement, node, bid, profile
                )
                task_id = f"{label}/sel/{bid}"
                self.tasks.append(
                    SimTask(
                        task_id=task_id,
                        node=node,
                        duration=duration,
                        kind="selection",
                        job=label,
                    )
                )
                task_ids.append(task_id)
                filtered.extend(matched)
            local_data[node] = filtered
        return task_ids, local_data

    # -- analysis phase -----------------------------------------------------------

    def add_analysis(
        self,
        label: str,
        job: MapReduceJob,
        local_data: Mapping[NodeId, List[Record]],
        *,
        deps: Sequence[str] = (),
        reducer_nodes: Optional[Sequence[NodeId]] = None,
        release_time: float = 0.0,
        colocate_per_node: Optional[int] = None,
    ) -> AnalysisTasks:
        """Map/shuffle/reduce/cleanup tasks for one analysis job.

        Args:
            label: job label (task-id prefix).
            job: the MapReduce job; its mappers and combiners run here.
            local_data: per-node filtered input (from :meth:`add_selection`).
            deps: task ids every map task must wait for (phase barrier).
            reducer_nodes: hosts for reduce tasks; defaults to round-robin
                over the data-holding nodes.
            release_time: job submission time.
            colocate_per_node: when set, reducers holding data are placed
                on the nodes that already hold most of their partition
                (:func:`repro.core.aggregation.plan_greedy`, at most this
                many per node), and those co-located bytes skip the
                network — the paper's future-work transfer optimization.

        Raises:
            JobError: when ``local_data`` names no node.
            ConfigError: when more reducers hold data than
                ``colocate_per_node`` times the number of nodes.
        """
        scale = self.cost.data_scale
        dep_set = frozenset(deps)
        nodes = sorted(local_data.keys(), key=repr)
        if not nodes:
            raise JobError("analysis phase received no input partitions")
        reducers = range(job.num_reducers)
        maps: Dict[NodeId, str] = {}
        map_durations: List[float] = []
        pairs: Dict[NodeId, List[List[Tuple[Any, Any]]]] = {}
        volumes: Dict[NodeId, Dict[int, int]] = {}
        partition_bytes = [0] * job.num_reducers
        for node in nodes:
            records = local_data[node]
            nbytes = sum(r.nbytes for r in records)
            emitted: Dict[Any, List[Any]] = {}
            for record in records:
                for k, v in job.run_mapper(record):
                    emitted.setdefault(k, []).append(v)
            node_pairs = pairs[node] = [[] for _ in reducers]
            sizes = [0] * job.num_reducers
            for k, values in emitted.items():
                for ck, cv in job.run_combiner(k, values):
                    r = job.partition(ck)
                    node_pairs[r].append((ck, cv))
                    sizes[r] += _kv_bytes(ck, cv)
            volumes[node] = {r: size for r, size in enumerate(sizes) if size}
            for r in reducers:
                partition_bytes[r] += sizes[r]
            duration = (
                self.cost.task_overhead_s
                + self.cost.read_local(nbytes)
                + job.profile.map_cpu_seconds(nbytes * scale, len(records) * scale)
            )
            task_id = f"{label}/map/{node}"
            self.tasks.append(
                SimTask(
                    task_id=task_id,
                    node=node,
                    duration=duration,
                    deps=dep_set,
                    kind="map",
                    job=label,
                    release_time=release_time,
                )
            )
            maps[node] = task_id
            map_durations.append(duration)

        hosts = list(reducer_nodes) if reducer_nodes is not None else nodes
        host_of = {r: hosts[r % len(hosts)] for r in reducers}
        colocated: Dict[int, int] = {}
        if colocate_per_node is not None and any(volumes.values()):
            plan = plan_greedy(volumes, max_reducers_per_node=colocate_per_node)
            host_of.update(plan.placement)
            colocated = {r: volumes[host].get(r, 0) for r, host in plan.placement.items()}

        # the straggler wait from map durations: exact when the maps start
        # together, as they do in a job that has the cluster to itself
        straggler = max(map_durations) - min(map_durations)
        all_map_deps = frozenset(maps.values())
        shuffles: Dict[int, str] = {}
        reduces: Dict[int, str] = {}
        for r in reducers:
            host = host_of[r]
            fetch = self.cost.transfer(partition_bytes[r] - colocated.get(r, 0))
            merge = MERGE_COST_PER_BYTE * partition_bytes[r] * scale
            shuffle_id = shuffles[r] = f"{label}/shuf/{r}"
            self.tasks.append(
                SimTask(
                    task_id=shuffle_id,
                    node=host,
                    duration=max(0.0, fetch - straggler) + merge,
                    deps=all_map_deps,
                    kind="shuffle",
                    job=label,
                )
            )
            reduce_id = reduces[r] = f"{label}/red/{r}"
            # reduce output bytes approximated by the partition's
            # post-combine volume, so the task is priced before it runs
            out_bytes = int(partition_bytes[r] * 0.5) + KV_OVERHEAD
            self.tasks.append(
                SimTask(
                    task_id=reduce_id,
                    node=host,
                    duration=(
                        self.cost.task_overhead_s
                        + job.profile.reduce_cost_per_byte
                        * partition_bytes[r]
                        * scale
                        + self.cost.write_local(out_bytes)
                    ),
                    deps=frozenset({shuffle_id}),
                    kind="reduce",
                    job=label,
                )
            )

        self.tasks.append(
            SimTask(
                task_id=f"{label}/cleanup",
                node=hosts[0],
                duration=self.cost.job_overhead_s,
                deps=frozenset(reduces.values()),
                kind="cleanup",
                job=label,
            )
        )
        return AnalysisTasks(
            maps=maps, shuffles=shuffles, reduces=reduces, pairs=pairs, volumes=volumes
        )


def build_job_graph(
    cost: ClusterCostModel,
    dataset: DatasetView,
    sub_id: str,
    job: MapReduceJob,
    assignment: Assignment,
) -> List[SimTask]:
    """Single-job convenience: selection + analysis with the phase barrier."""
    builder = JobGraphBuilder(cost)
    sel_ids, local_data = builder.add_selection(
        job.name, dataset, sub_id, assignment, job.profile
    )
    builder.add_analysis(job.name, job, local_data, deps=sel_ids)
    return builder.tasks
