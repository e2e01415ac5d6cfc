"""The MapReduce engine: runs each job once and times it on the simulator.

Executes the paper's two-phase workflow (Section V-A):

1. **Selection phase** (:meth:`MapReduceEngine.run_selection`) — map tasks
   read assigned blocks, filter the target sub-dataset's records, and
   store them on the node that ran the task.  Which node reads which block
   is the *scheduling decision under study*: the baseline
   :class:`~repro.mapreduce.scheduler.LocalityScheduler` vs DataNet's
   Algorithm 1.
2. **Analysis phase** (:meth:`MapReduceEngine.run_analysis`) — the actual
   MapReduce job (map over each node's filtered records, combine, shuffle,
   reduce).  The user functions execute for real, once per job.

The engine computes no time itself.  Each phase prices its tasks
(:func:`~repro.mapreduce.costmodel.price_selection`,
:mod:`repro.sim.adapter`) and runs them on the
:class:`~repro.sim.simulator.DiscreteEventSimulator` with ``map_slots``
slots per node; every time below is read off that timeline.  The
concurrent batch and the analysis service time their jobs the same way.

:meth:`MapReduceEngine.run_job` chains both phases and returns a
:class:`JobResult` carrying every quantity the paper plots: per-node map
times (Fig. 6), shuffle min/avg/max (Fig. 7), per-node filtered workload
(Fig. 5c) and the end-to-end makespan (Fig. 5a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports (avoids a cycle)
    from ..faults.injector import FaultInjector
    from ..faults.plan import DriverRestart
    from ..faults.retry import AttemptLog, NodeBlacklist, RetryPolicy
    from ..hdfs.coded import CodedReader
    from ..hdfs.scrubber import ReadVerifier
    from .checkpoint import WaveCheckpoint

from ..core.scheduler import Assignment
from ..errors import ConfigError
from ..hdfs.cluster import DatasetView, HDFSCluster
from ..hdfs.records import Record
from ..obs import NULL_OBS, Observability
from ..sim.adapter import JobGraphBuilder
from ..sim.simulator import DiscreteEventSimulator
from ..sim.tasks import SimTask, TaskTimeline
from .costmodel import AppProfile, ClusterCostModel, price_selection
from .job import MapReduceJob

__all__ = [
    "MapReduceEngine",
    "PhaseResult",
    "SelectionResult",
    "ShuffleResult",
    "JobResult",
]

NodeId = Hashable


@dataclass
class PhaseResult:
    """Per-node timing of one parallel phase."""

    node_times: Dict[NodeId, float]

    @property
    def makespan(self) -> float:
        """Slowest node's duration — the phase's parallel completion time."""
        return max(self.node_times.values(), default=0.0)

    @property
    def min(self) -> float:
        return min(self.node_times.values(), default=0.0)

    @property
    def max(self) -> float:
        return self.makespan

    @property
    def mean(self) -> float:
        if not self.node_times:
            return 0.0
        return sum(self.node_times.values()) / len(self.node_times)


@dataclass
class SelectionResult:
    """Outcome of the filter/selection phase.

    Attributes:
        local_data: node → filtered records now stored on that node.
        timing: per-node phase durations.
        bytes_per_node: node → filtered sub-dataset bytes it holds
            (the Fig. 5c quantity).
        blocks_read: blocks actually scanned.
        bytes_read: raw bytes read off disk/network.
    """

    local_data: Dict[NodeId, List[Record]]
    timing: PhaseResult
    bytes_per_node: Dict[NodeId, int]
    blocks_read: int
    bytes_read: int

    @property
    def makespan(self) -> float:
        return self.timing.makespan


@dataclass
class ShuffleResult:
    """Per-reducer shuffle timing — the Fig. 7 view.

    Paper Section V-A.3: "The shuffle phase starts whenever a map task is
    finished and ends when all map tasks have been executed", so each
    duration is measured from the first map end.

    Attributes:
        durations: reducer index → seconds from the first map end until
            its shuffle finished.
        start_time: simulated time when shuffling began (first map done).
        end_time: simulated time when the *last* reducer finished fetching.
        volumes: node → reducer → intermediate bytes the node produced
            for that reducer.
    """

    durations: Dict[int, float]
    start_time: float
    end_time: float
    volumes: Dict[NodeId, Dict[int, int]]

    @property
    def min(self) -> float:
        return min(self.durations.values()) if self.durations else 0.0

    @property
    def max(self) -> float:
        return max(self.durations.values()) if self.durations else 0.0

    @property
    def mean(self) -> float:
        if not self.durations:
            return 0.0
        return sum(self.durations.values()) / len(self.durations)


@dataclass
class JobResult:
    """Everything the paper measures about one analysis job run."""

    job_name: str
    output: Dict[Any, Any]
    map_times: Dict[NodeId, float]
    shuffle: ShuffleResult
    reduce_times: Dict[int, float]
    total_time: float
    selection: Optional[SelectionResult] = None

    @property
    def map_phase(self) -> PhaseResult:
        """Per-node analysis map timings (Fig. 6)."""
        return PhaseResult(dict(self.map_times))

    @property
    def makespan(self) -> float:
        """End-to-end simulated duration (selection included if chained)."""
        return self.total_time


class MapReduceEngine:
    """Phase executor bound to a cluster and a cost model.

    Args:
        cluster: the HDFS substrate (topology + replicas).
        cost: hardware cost parameters.
        map_slots: concurrent task slots per node (the testbed's nodes had
            2 cores; 1 keeps per-node execution strictly sequential).
    """

    def __init__(
        self,
        cluster: HDFSCluster,
        cost: Optional[ClusterCostModel] = None,
        *,
        map_slots: int = 1,
        obs: Observability = NULL_OBS,
    ) -> None:
        if map_slots <= 0:
            raise ConfigError("map_slots must be positive")
        self.cluster = cluster
        self.cost = cost or ClusterCostModel()
        self.map_slots = map_slots
        self.obs = obs
        self._default_coded: Optional["CodedReader"] = None

    def _coded_reader(
        self, dataset: DatasetView, coded: Optional["CodedReader"]
    ) -> Optional["CodedReader"]:
        """The coded-read path for a dataset, if it needs one.

        A coded dataset has no whole-block replicas, so its reads *must*
        assemble k fragments; when the caller did not thread an explicit
        :class:`~repro.hdfs.coded.CodedReader` (the chaos runner does, to
        share counters), a plain one is created lazily and reused so
        fault-free runs on coded data work out of the box.
        """
        if coded is not None:
            return coded
        if dataset.coding is None:
            return None
        if self._default_coded is None:
            from ..hdfs.coded import CodedReader

            self._default_coded = CodedReader(self.cluster, obs=self.obs)
        return self._default_coded

    def _simulate(self, tasks: Sequence[SimTask]) -> TaskTimeline:
        """Run ``tasks`` on ``map_slots`` slots per node."""
        simulator = DiscreteEventSimulator(slots_per_node=self.map_slots)
        return simulator.run(tasks, obs=self.obs).timeline

    # -- selection phase ----------------------------------------------------------

    def selection_task_cost(
        self,
        dataset: DatasetView,
        sub_id: str,
        placement: Mapping[int, Any],
        node: NodeId,
        bid: int,
        profile: AppProfile,
        *,
        coded: Optional["CodedReader"] = None,
        **readers: Any,
    ) -> Tuple[float, List[Record], int]:
        """:func:`~repro.mapreduce.costmodel.price_selection` on this engine's cost model.

        ``readers`` are its keyword options.  An erasure-coded dataset
        always reads through a :class:`~repro.hdfs.coded.CodedReader`:
        ``coded`` when given, a lazily-created default otherwise.
        """
        return price_selection(
            self.cost,
            dataset,
            sub_id,
            placement,
            node,
            bid,
            profile,
            coded=self._coded_reader(dataset, coded),
            **readers,
        )

    def run_selection(
        self,
        dataset: DatasetView,
        sub_id: str,
        assignment: Assignment,
        profile: AppProfile,
    ) -> SelectionResult:
        """Run the filter phase under a given block-task assignment.

        Every assigned block is read (locally if the node holds a replica,
        remotely otherwise), filtered for ``sub_id``, and the matching
        records are written to the executing node's local store.  Each
        node runs its blocks in assignment order on ``map_slots`` slots.

        Raises:
            JobError: the assignment names a block the dataset lacks.
        """
        placement = dataset.placement()
        # The simulator starts a node's ready tasks in id order, so
        # zero-padded sequence numbers keep each node's assignment order.
        width = len(str(assignment.num_tasks))
        tasks: List[SimTask] = []
        local_data: Dict[NodeId, List[Record]] = {}
        bytes_per_node: Dict[NodeId, int] = {}
        bytes_read = 0
        with self.obs.tracer.span(
            f"selection/{sub_id}", category="phase", sim_start=0.0, dataset=dataset.name
        ) as phase:
            for node, block_ids in assignment.blocks_by_node.items():
                filtered: List[Record] = []
                for bid in block_ids:
                    duration, matched, nbytes = self.selection_task_cost(
                        dataset, sub_id, placement, node, bid, profile
                    )
                    tasks.append(
                        SimTask(
                            task_id=f"sel/{len(tasks):0{width}d}/{bid}",
                            node=node,
                            duration=duration,
                            kind="selection",
                        )
                    )
                    bytes_read += nbytes
                    filtered.extend(matched)
                local_data[node] = filtered
                bytes_per_node[node] = sum(r.nbytes for r in filtered)
            timeline = self._simulate(tasks)
            node_times = dict.fromkeys(local_data, 0.0)
            for task in tasks:
                node_times[task.node] = max(
                    node_times[task.node], timeline.end_of(task.task_id)
                )
            phase.sim(0.0, max(node_times.values(), default=0.0))
        if self.obs.metrics.enabled:
            m = self.obs.metrics
            m.counter(
                "selection_blocks_scanned_total",
                help="blocks read during selection phases",
            ).inc(len(tasks))
            m.counter(
                "selection_bytes_read_total",
                help="raw bytes read off disk/network during selection",
            ).inc(bytes_read)
            out_bytes = m.counter(
                "selection_output_bytes_total",
                help="filtered sub-dataset bytes stored, per node",
                labelnames=("node",),
            )
            for node, nbytes in bytes_per_node.items():
                out_bytes.inc(nbytes, node=str(node))
        return SelectionResult(
            local_data=local_data,
            timing=PhaseResult(node_times),
            bytes_per_node=bytes_per_node,
            blocks_read=len(tasks),
            bytes_read=bytes_read,
        )

    def run_selection_checkpointed(
        self,
        dataset: DatasetView,
        sub_id: str,
        assignment: Assignment,
        profile: AppProfile,
        *,
        checkpoint: Optional["WaveCheckpoint"] = None,
        interrupt: Optional["DriverRestart"] = None,
        injector: Optional["FaultInjector"] = None,
        retry: Optional["RetryPolicy"] = None,
        attempt_log: Optional["AttemptLog"] = None,
        blacklist: Optional["NodeBlacklist"] = None,
        verify: Optional["ReadVerifier"] = None,
    ) -> Tuple[Optional[SelectionResult], "WaveCheckpoint", float]:
        """Wave-granularity selection with durable checkpoints.

        See :func:`repro.mapreduce.checkpoint.run_selection_checkpointed`;
        this is the engine-level entry point (single-slot semantics).
        """
        from .checkpoint import run_selection_checkpointed

        return run_selection_checkpointed(
            self,
            dataset,
            sub_id,
            assignment,
            profile,
            checkpoint=checkpoint,
            interrupt=interrupt,
            injector=injector,
            retry=retry,
            attempt_log=attempt_log,
            blacklist=blacklist,
            verify=verify,
        )

    # -- analysis phase -------------------------------------------------------------

    def run_analysis(
        self,
        job: MapReduceJob,
        local_data: Mapping[NodeId, List[Record]],
        *,
        start_time: float = 0.0,
        colocate_reducers: bool = False,
    ) -> JobResult:
        """Run the MapReduce job over per-node filtered data.

        :meth:`~repro.sim.adapter.JobGraphBuilder.add_analysis` runs the
        mappers and combiners and prices the map/shuffle/reduce/cleanup
        tasks; they are simulated released at ``start_time``.  The
        reducers then run on the combined pairs for the output.

        With ``colocate_reducers``, reduce tasks are placed on the nodes
        already holding the largest share of their partitions
        (:func:`repro.core.aggregation.plan_greedy`, at most ``map_slots``
        per node), so those bytes skip the shuffle network — the paper's
        future-work transfer optimization, wired end to end.

        Raises:
            JobError: ``local_data`` names no node.
        """
        with self.obs.tracer.span(
            f"analysis/{job.name}", category="phase", sim_start=start_time
        ) as phase:
            builder = JobGraphBuilder(self.cost)
            graph = builder.add_analysis(
                job.name,
                job,
                local_data,
                release_time=start_time,
                colocate_per_node=self.map_slots if colocate_reducers else None,
            )
            timeline = self._simulate(builder.tasks)
            map_times: Dict[NodeId, float] = {}
            for node in local_data:
                start, end = timeline.intervals[graph.maps[node]]
                map_times[node] = end - start
            reduce_times: Dict[int, float] = {}
            for r, tid in graph.reduces.items():
                start, end = timeline.intervals[tid]
                reduce_times[r] = end - start
            first_map_end = min(timeline.end_of(tid) for tid in graph.maps.values())
            shuffle_ends = {r: timeline.end_of(tid) for r, tid in graph.shuffles.items()}
            shuffle = ShuffleResult(
                durations={r: end - first_map_end for r, end in shuffle_ends.items()},
                start_time=first_map_end,
                end_time=max(shuffle_ends.values()),
                volumes=graph.volumes,
            )
            # group the combined pairs in local_data order: reducers that
            # sum floats are sensitive to the order of their values
            partitions: List[Dict[Any, List[Any]]] = [{} for _ in range(job.num_reducers)]
            for node in local_data:
                for group, pairs in zip(partitions, graph.pairs[node]):
                    for k, v in pairs:
                        group.setdefault(k, []).append(v)
            output: Dict[Any, Any] = {}
            for group in partitions:
                for k, values in group.items():
                    for ok, ov in job.run_reducer(k, values):
                        output[ok] = ov
            phase.sim(start_time, timeline.makespan)
        if self.obs.metrics.enabled:
            shuffled = self.obs.metrics.counter(
                "shuffle_bytes_total",
                help="intermediate bytes produced per mapper node",
                labelnames=("node",),
            )
            for node, per_reducer in graph.volumes.items():
                shuffled.inc(sum(per_reducer.values()), node=str(node))
        return JobResult(
            job_name=job.name,
            output=output,
            map_times=map_times,
            shuffle=shuffle,
            reduce_times=reduce_times,
            total_time=timeline.makespan,
        )

    # -- full pipeline ------------------------------------------------------------------

    def run_job(
        self,
        dataset: DatasetView,
        sub_id: str,
        job: MapReduceJob,
        assignment: Assignment,
    ) -> JobResult:
        """Selection then analysis, chained on the simulated clock.

        The analysis phase starts when the selection phase's slowest node
        finishes (the phases synchronize on the filtered dataset being
        fully materialized, as in the paper's two-job workflow).
        """
        with self.obs.tracer.span(
            f"job/{job.name}", category="job", sim_start=0.0, dataset=dataset.name
        ) as span:
            selection = self.run_selection(dataset, sub_id, assignment, job.profile)
            result = self.run_analysis(
                job, selection.local_data, start_time=selection.makespan
            )
            result.selection = selection
            span.sim(0.0, result.total_time)
        return result
