"""The long-lived multi-tenant analysis service (driver event loop).

:class:`AnalysisService` keeps one cluster + ElasticMap resident and
consumes concurrent job streams from multiple tenants on the simulated
clock.  Four layers stack on the existing building blocks:

1. **Admission + fair share** — every submission passes the
   :class:`~repro.serve.admission.AdmissionController` (quota bucket,
   weighted fair queue, bounded backlog).  Load is shed with *typed*
   :class:`~repro.errors.Overloaded` rejections, never dropped silently.
2. **Deadlines** — each dispatched job runs on its own
   :class:`~repro.sim.DiscreteEventSimulator` with a ``cancel_at``
   horizon; a cut run's partial task spans are rolled back through the
   tracer's mark/discard machinery and the job resolves to a typed
   cancellation at its limit, releasing its slot.
3. **Crash-safe ingest** — streamed appends are indexed incrementally
   and journaled block by block (:class:`~repro.replication.ReplicatedJournal`)
   before they count as durable.  A :class:`~repro.faults.ServiceCrash`
   kills the driver mid-append: the journal replicas outlive it, so
   recovery reads the committed blocks back from a quorum, re-indexes
   the uncommitted tail from the (durable) data plane, and the resulting
   metadata is byte-identical to an uninterrupted run.
4. **Graceful degradation** — a gray partition routes dispatches through
   :meth:`~repro.core.datanet.DataNet.gray_schedule` (stranded jobs are
   parked until the heal), and a metadata-shard outage falls back to
   :func:`~repro.faults.degrade.degraded_schedule`; both keep the
   service admitting at reduced QoS instead of failing closed.
5. **Replicated metadata plane** — the write-ahead journal commits each
   frame at majority quorum over ``journal_replicas`` copies (one replica
   is a quorum of one), and a :class:`~repro.replication.LeaderElector`
   owns the leader role.  A :class:`~repro.faults.LeaderCrash` kills
   only that role: the φ-accrual detector takes its deterministic time
   to suspect the silence, an election fences a new epoch onto the
   quorum *and* the cluster mutation path, the successor recovers
   committed metadata from any surviving majority, and every job in
   flight or submitted during the outage is parked and replayed — never
   shed — so ``silent_drops`` stays 0 and the final digests match the
   crash-free run byte for byte.

Everything is simulated-time and seed-deterministic: two runs of the
same request stream produce byte-identical
:class:`~repro.metrics.ServiceSummary` digests, and the crash/no-crash
pair agrees on both the metadata digest and the per-job results digest.
A job's digest covers what its reducers made of its map tasks' pairs, so
a placement change after recovery leaves it alone; a dropped block moves it.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..core.builder import ElasticMapBuilder
from ..core.datanet import DataNet
from ..core.elasticmap import BlockElasticMap, ElasticMapArray
from ..core.metastore import DistributedMetaStore
from ..errors import ConfigError, MetadataError, Overloaded, SchedulingError
from ..faults.degrade import degraded_schedule
from ..faults.health import HealthDetector
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan, LeaderCrash, ServiceCrash
from ..faults.retry import RetryPolicy
from ..hdfs.cluster import DatasetView, HDFSCluster
from ..replication import LeaderElector, ReplicatedJournal, detection_delay
from ..mapreduce.costmodel import ClusterCostModel
from ..mapreduce.job import MapReduceJob
from ..metrics.service import ServiceSummary
from ..obs import NULL_OBS, Observability
from ..sim import DiscreteEventSimulator, JobGraphBuilder
from .admission import AdmissionController, TenantSpec
from .journal import array_digest

__all__ = [
    "AnalysisService",
    "AppendBatch",
    "JobRequest",
    "MetaOutageWindow",
    "ServiceConfig",
]

NodeId = Hashable


@dataclass(frozen=True)
class JobRequest:
    """One tenant's analysis request.

    Attributes:
        tenant: submitting tenant (must be configured on the service).
        job_id: unique id; doubles as the task-id prefix and results key.
        sub_id: target sub-dataset.
        job: the MapReduce job to run over the selection.
        submit_time: simulated arrival time.
        deadline_s: absolute wall (simulated) deadline — the job is
            cancelled at this instant whether queued or in flight.
        timeout_s: relative limit on in-flight execution time.
    """

    tenant: str
    job_id: str
    sub_id: str
    job: MapReduceJob
    submit_time: float
    deadline_s: Optional[float] = None
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ConfigError("job_id must be non-empty")
        if self.submit_time < 0:
            raise ConfigError("submit_time must be non-negative")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError("timeout_s must be positive")
        if self.deadline_s is not None and self.deadline_s <= self.submit_time:
            raise ConfigError("deadline_s must be after submit_time")


@dataclass(frozen=True)
class AppendBatch:
    """A chunk of fresh records streaming into the dataset at ``time``."""

    time: float
    records: Tuple[object, ...]

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigError("append time must be non-negative")
        if not self.records:
            raise ConfigError("an append batch needs at least one record")


@dataclass(frozen=True)
class MetaOutageWindow:
    """One metadata shard down during ``[start, heals_at)``.

    The windowed cousin of :class:`~repro.faults.MetaOutage` (which is
    whole-run): the service fails the shard at ``start``, recovers it at
    ``heals_at``, and runs degraded-mode scheduling in between.
    """

    node_id: str
    start: float
    heals_at: float

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ConfigError("meta-node id must be non-empty")
        if self.start < 0 or self.heals_at <= self.start:
            raise ConfigError(
                f"inverted meta outage window [{self.start}, {self.heals_at})"
            )

    def active(self, time: float) -> bool:
        return self.start <= time < self.heals_at


@dataclass(frozen=True)
class ServiceConfig:
    """Service sizing knobs.

    Attributes:
        slots: jobs the driver executes concurrently.
        high_water: admission queue bound (backpressure threshold).
        slots_per_node: per-node task slots inside each job's simulation.
        ingest_block_cost_s: simulated seconds to index + journal one
            appended block — the window a :class:`~repro.faults.ServiceCrash`
            can land inside.
        journal_replicas: copies of the quorum journal behind the
            metadata plane; 1 (the default) is a quorum of one.
        heartbeat_interval_s: leader heartbeat cadence feeding the
            φ-accrual detector — sets how long a leader crash stays
            undetected.
        retry: backoff policy pacing quorum-append retry probes while a
            majority of journal replicas is unreachable (``None`` uses
            the default :class:`~repro.faults.RetryPolicy`).
    """

    slots: int = 2
    high_water: int = 32
    slots_per_node: int = 2
    ingest_block_cost_s: float = 0.5
    journal_replicas: int = 1
    heartbeat_interval_s: float = 0.5
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.slots <= 0 or self.slots_per_node <= 0:
            raise ConfigError("slots and slots_per_node must be positive")
        if self.high_water <= 0:
            raise ConfigError("high_water must be positive")
        if self.ingest_block_cost_s <= 0:
            raise ConfigError("ingest_block_cost_s must be positive")
        if self.journal_replicas < 1:
            raise ConfigError(
                f"journal_replicas must be >= 1, got {self.journal_replicas}"
            )
        if self.heartbeat_interval_s <= 0:
            raise ConfigError("heartbeat_interval_s must be positive")


@dataclass
class JobOutcome:
    """Terminal state of one admitted job."""

    job_id: str
    tenant: str
    status: str  # "completed" | "deadline" | "timeout"
    submit_time: float
    start_time: float
    end_time: float
    wait_s: float
    degraded: bool = False
    output_digest: str = ""


# Event kinds in pop order at equal times: the service restarts (and the
# metadata leader resumes) before anything else happens, faults heal
# before new ones land, running jobs finish (and free their slots) before
# a crash kills them "at the same instant", and ingest lands before the
# submissions that might query it.
_PRIO = {
    "restart": 0,
    "lrestore": 1,
    "jheal": 2,
    "mpheal": 3,
    "pheal": 4,
    "meta_up": 5,
    "crash": 6,
    "lcrash": 7,
    "jcrash": 8,
    "mpstart": 9,
    "failover": 10,
    "pstart": 11,
    "meta_down": 12,
    "finish": 13,
    "append": 14,
    "jretry": 15,
    "submit": 16,
}


class _Parked(Exception):
    """Internal: dispatch must wait for a partition heal."""


def _output_digest(output: Dict[object, object]) -> str:
    """BLAKE2b-16 over one job's reduced output, keys in ``repr`` order."""
    digest = hashlib.blake2b(digest_size=16)
    for key in sorted(output, key=repr):
        digest.update(f"{key!r}={output[key]!r};".encode("utf-8"))
    return digest.hexdigest()


class AnalysisService:
    """Single-process analysis daemon over one dataset.

    Args:
        cluster: the (durable) data plane.
        dataset_name: dataset the service owns and extends.
        datanet: resident metadata; must come from
            :meth:`~repro.core.datanet.DataNet.build` so crash recovery
            can re-index blocks with the same builder configuration.
        cost: cost model pricing every simulated task.
        tenants: admission-control specs, one per tenant.
        config: sizing knobs.
        metastore: optional distributed metadata fleet (enables the
            shard-outage degradation path; populated from ``datanet`` if
            empty).
        plan: fault plan — ``service_crashes`` and ``partitions`` drive
            the crash and gray-degradation machinery.
        meta_windows: timed metadata-shard outages.
        obs: observability bundle (spans, counters, gauges).
    """

    def __init__(
        self,
        cluster: HDFSCluster,
        dataset_name: str,
        datanet: DataNet,
        cost: ClusterCostModel,
        tenants: Sequence[TenantSpec],
        *,
        config: Optional[ServiceConfig] = None,
        metastore: Optional[DistributedMetaStore] = None,
        plan: Optional[FaultPlan] = None,
        meta_windows: Sequence[MetaOutageWindow] = (),
        obs: Observability = NULL_OBS,
    ) -> None:
        self.cluster = cluster
        self.dataset_name = dataset_name
        self.datanet = datanet
        self.cost = cost
        self.config = config or ServiceConfig()
        self.obs = obs
        self.metastore = metastore
        self.meta_windows = tuple(meta_windows)
        self._view: DatasetView = cluster.dataset(dataset_name)

        builder_config = getattr(datanet, "_builder_config", None)
        if builder_config is None:
            raise ConfigError(
                "AnalysisService needs a DataNet created by DataNet.build() — "
                "crash recovery re-indexes appended blocks with the same "
                "builder configuration"
            )
        self._builder_config = dict(builder_config)

        self.plan = plan or FaultPlan()
        self._injector = FaultInjector(self.plan)
        if self.plan.partitions:
            self._partitions = self._injector.resolve_partitions(
                cluster.nodes, rack_of=cluster.rack_of
            )
        else:
            self._partitions = []
        self._crashes: List[ServiceCrash] = (
            self._injector.service_crashes_chronological()
        )
        self._crash_idx = 0

        self.controller: AdmissionController[JobRequest] = AdmissionController(
            tenants, high_water=self.config.high_water, obs=obs
        )
        self.journal = ReplicatedJournal(self.config.journal_replicas)
        for jc in self.plan.journal_crashes:
            if jc.replica not in self.journal.replicas:
                raise ConfigError(
                    f"plan crashes unknown journal replica {jc.replica!r}"
                )
        for mp in self.plan.meta_partitions:
            for rid in mp.replicas:
                if rid not in self.journal.replicas:
                    raise ConfigError(
                        f"plan partitions unknown journal replica {rid!r}"
                    )
        # Startup election seats the first leader and installs its
        # fencing epoch everywhere before any frame is written.
        self._elector = LeaderElector(
            self.journal.replica_ids, seed=self.plan.seed
        )
        seated = self._elector.elect(self.journal.replica_ids)
        self._epoch = seated.term
        self.journal.fence(self._epoch)
        cluster.install_fence(self._epoch)
        # The journal's first frames snapshot the initial build — recovery
        # never needs to rescan blocks that predate the service.
        self.journal.append_array(datanet.elasticmap)
        if self.metastore is not None and not self.metastore.block_ids:
            self.metastore.load_array(datanet.elasticmap)

        # runtime state
        self._up = True
        self._leader_up = True
        self._slots_free = self.config.slots
        self._run_token = 0
        self._live_tokens: Set[int] = set()
        self._inflight: Dict[int, Tuple[str, JobRequest]] = {}
        self._parked: List[Tuple[str, JobRequest]] = []
        self._append_backlog: List[AppendBatch] = []
        # metadata-fleet writes that found no live owner; flushed on heal
        self._meta_pending: Dict[int, object] = {}
        # quorum-append retry pacing (while a majority is unreachable)
        self._retry = self.config.retry or RetryPolicy()
        self._retry_attempts = 0
        self._retry_waited = 0.0
        self._retry_pending = False

        # accounting
        self.outcomes: List[JobOutcome] = []
        self._waits: Dict[str, List[float]] = {t.name: [] for t in tenants}
        self._max_queue_depth = 0
        self._appends = 0
        self._blocks_appended = 0
        self._journal_replays = 0
        self._crash_count = 0
        self._requeued = 0
        self._degraded_jobs = 0
        self._deferred = 0
        self._leadership_changes = 0
        self._failover_downtime = 0.0
        self._horizon = 0.0
        self._events: List[Tuple[float, int, int, str, object]] = []
        self._seq = 0

    # -- degradation state -------------------------------------------------------

    def _cut_at(self, time: float) -> Set[NodeId]:
        cut: Set[NodeId] = set()
        for part in self._partitions:
            if part.active(time):
                cut.update(part.nodes)
        return cut

    def _meta_down_at(self, time: float) -> List[str]:
        return [w.node_id for w in self.meta_windows if w.active(time)]

    def _degraded_at(self, time: float) -> bool:
        return bool(self._cut_at(time)) or bool(self._meta_down_at(time))

    def degraded_intervals(self) -> Tuple[Tuple[float, float], ...]:
        """Merged ``[start, end)`` windows of degraded operation."""
        raw = [(p.start, p.heals_at) for p in self._partitions]
        raw += [(w.start, w.heals_at) for w in self.meta_windows]
        raw.sort()
        merged: List[List[float]] = []
        for start, end in raw:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        return tuple((s, e) for s, e in merged)

    # -- dispatch ----------------------------------------------------------------

    def _schedule_for(self, now: float, req: JobRequest):
        """Pick an assignment for the current health state.

        Returns ``(assignment, degraded)``; raises :class:`_Parked` when
        some needed block is unreachable until a partition heals.
        """
        cut = self._cut_at(now)
        down = self._meta_down_at(now)
        if down and self.metastore is not None:
            try:
                assignment, _healthy, degraded_blocks = degraded_schedule(
                    self.metastore,
                    self._view,
                    req.sub_id,
                    exclude_nodes=sorted(cut, key=repr),
                )
            except SchedulingError as exc:
                raise _Parked(str(exc))
            return assignment, bool(degraded_blocks or cut)
        if cut:
            assignment, stranded = self.datanet.gray_schedule(
                req.sub_id, unreachable=sorted(cut, key=repr)
            )
            if stranded:
                raise _Parked(f"{len(stranded)} blocks behind the partition cut")
            return assignment, True
        return self.datanet.schedule(req.sub_id), False

    def _start_job(self, now: float, tenant: str, req: JobRequest) -> bool:
        """Dispatch one queued job; returns True iff a slot was consumed."""
        tracer = self.obs.tracer
        wait = now - req.submit_time
        if req.deadline_s is not None and now >= req.deadline_s:
            # Expired while queued: resolve without ever taking a slot.
            self._resolve(
                JobOutcome(
                    job_id=req.job_id,
                    tenant=tenant,
                    status="deadline",
                    submit_time=req.submit_time,
                    start_time=now,
                    end_time=now,
                    wait_s=wait,
                )
            )
            return False

        assignment, degraded = self._schedule_for(now, req)

        builder = JobGraphBuilder(self.cost)
        sel_ids, local_data = builder.add_selection(
            f"{req.job_id}/select",
            self._view,
            req.sub_id,
            assignment,
            req.job.profile,
        )
        analysis = builder.add_analysis(req.job_id, req.job, local_data, deps=sel_ids)

        limits: List[Tuple[str, float]] = []
        if req.timeout_s is not None:
            limits.append(("timeout", req.timeout_s))
        if req.deadline_s is not None:
            limits.append(("deadline", req.deadline_s - now))
        cancel_at = min(v for _k, v in limits) if limits else None

        sim = DiscreteEventSimulator(slots_per_node=self.config.slots_per_node)
        result = sim.run(builder.tasks, cancel_at=cancel_at)

        if result.cancelled_tasks:
            # The limit cut the run.  Record the partial waves, then roll
            # them back through the tracer mark — cancelled work leaves no
            # durable spans, only the terminal cancellation record.
            assert cancel_at is not None
            which = min(limits, key=lambda kv: kv[1])[0]
            mark = tracer.mark()
            for task_id, (t_start, t_end) in sorted(
                result.timeline.intervals.items()
            ):
                tracer.record(
                    f"task/{task_id}",
                    category="service-task",
                    sim_start=now + t_start,
                    sim_end=now + t_end,
                )
            rolled_back = tracer.discard_from(mark)
            end = now + cancel_at
            outcome = JobOutcome(
                job_id=req.job_id,
                tenant=tenant,
                status=which,
                submit_time=req.submit_time,
                start_time=now,
                end_time=end,
                wait_s=wait,
                degraded=degraded,
            )
            if self.obs.metrics.enabled:
                self.obs.metrics.counter(
                    "service_spans_rolled_back_total",
                    help="partial task spans discarded on job cancellation",
                ).inc(rolled_back)
        else:
            end = now + result.makespan
            outcome = JobOutcome(
                job_id=req.job_id,
                tenant=tenant,
                status="completed",
                submit_time=req.submit_time,
                start_time=now,
                end_time=end,
                wait_s=wait,
                degraded=degraded,
                output_digest=_output_digest(analysis.reduce(req.job, local_data)),
            )

        self._run_token += 1
        token = self._run_token
        self._live_tokens.add(token)
        self._inflight[token] = (tenant, req)
        self._slots_free -= 1
        self._push(end, "finish", (token, outcome))
        if degraded:
            self._degraded_jobs += 1
            if self.obs.metrics.enabled:
                self.obs.metrics.counter(
                    "service_degraded_jobs_total",
                    help="jobs dispatched in degraded (fallback) mode",
                ).inc()
        return True

    def _dispatch(self, now: float) -> None:
        while (
            self._up
            and self._leader_up
            and self._slots_free > 0
            and self.controller.queue
        ):
            tenant, req = self.controller.queue.pop()
            try:
                self._start_job(now, tenant, req)
            except _Parked:
                self._parked.append((tenant, req))
                self._deferred += 1
        self._note_queue_depth(now)

    def _resolve(self, outcome: JobOutcome) -> None:
        """Record one job's terminal state (span, wait, counters)."""
        self.outcomes.append(outcome)
        self._waits[outcome.tenant].append(outcome.wait_s)
        self.obs.tracer.record(
            f"job/{outcome.job_id}",
            category="service-job",
            sim_start=outcome.start_time,
            sim_end=max(outcome.end_time, outcome.start_time + 1e-9),
            tenant=outcome.tenant,
            status=outcome.status,
            degraded=outcome.degraded,
        )
        if self.obs.metrics.enabled:
            metrics = self.obs.metrics
            if outcome.status == "completed":
                metrics.counter(
                    "service_jobs_completed_total", help="jobs that produced output"
                ).inc()
            else:
                metrics.counter(
                    "service_jobs_cancelled_total",
                    help="jobs cancelled by deadline or timeout",
                    labelnames=("reason",),
                ).inc(reason=outcome.status)
            waits = self._waits[outcome.tenant]
            metrics.gauge(
                "service_tenant_wait_seconds",
                help="mean admission-queue wait per tenant",
                labelnames=("tenant",),
            ).set(sum(waits) / len(waits), tenant=outcome.tenant)

    def _note_queue_depth(self, now: float) -> None:
        depth = len(self.controller.queue)
        self._max_queue_depth = max(self._max_queue_depth, depth)
        if self.obs.metrics.enabled:
            self.obs.metrics.gauge(
                "service_queue_depth", help="jobs waiting in the admission queue"
            ).set(depth)

    # -- ingest ------------------------------------------------------------------

    def _next_crash(self) -> Optional[ServiceCrash]:
        if self._crash_idx < len(self._crashes):
            return self._crashes[self._crash_idx]
        return None

    def _apply_append(self, now: float, batch: AppendBatch) -> None:
        """Index one append batch; a crash inside the window commits a prefix."""
        self._appends += 1
        view = self.cluster.append_records(self.dataset_name, list(batch.records))
        self._view = view
        covered = set(self.datanet.elasticmap.block_ids)
        covered.update(self.journal.committed_blocks)
        new_ids = [bid for bid in view.block_ids if bid not in covered]
        window_end = now + len(new_ids) * self.config.ingest_block_cost_s
        self._horizon = max(self._horizon, window_end)

        crash = self._next_crash()
        if crash is not None and now <= crash.time < window_end:
            # The driver dies mid-append: only the blocks whose journal
            # frames landed before the crash instant are durable.  The
            # in-memory DataNet is about to be lost, so it is not touched;
            # recovery re-indexes the tail from the stored blocks.
            committed = int((crash.time - now) // self.config.ingest_block_cost_s)
            self._commit_blocks(new_ids[:committed])
            return
        self.datanet.extend(view)
        for bid in new_ids:
            self.journal.append_block(self.datanet.elasticmap[bid])
            self._meta_put(self.datanet.elasticmap[bid])
        self._blocks_appended += len(new_ids)
        if self.obs.metrics.enabled and new_ids:
            self.obs.metrics.counter(
                "service_blocks_appended_total",
                help="blocks indexed incrementally from streamed appends",
            ).inc(len(new_ids))

    def _meta_put(self, block_map) -> None:
        """Spread one block's metadata; buffer it if no shard is alive.

        During a total shard outage the journal is still the durability
        anchor — the fleet write is retried when a shard heals, so the
        degraded window never blocks ingest.
        """
        if self.metastore is None:
            return
        try:
            self.metastore.put_block(block_map)
        except MetadataError:
            self._meta_pending[block_map.block_id] = block_map

    def _flush_meta_pending(self) -> None:
        for bid in sorted(self._meta_pending):
            try:
                self.metastore.put_block(self._meta_pending[bid])
            except MetadataError:
                continue
            del self._meta_pending[bid]

    def _commit_blocks(self, block_ids: Sequence[int]) -> None:
        """Journal a prefix of an append without touching the live DataNet."""
        builder = ElasticMapBuilder(**self._builder_config)
        fingerprint_of = getattr(self._view, "block_fingerprint", None)
        for bid in block_ids:
            block_map = builder.build_block(
                bid,
                self._view.block(bid).scan(),
                fingerprint=(
                    fingerprint_of(bid) if fingerprint_of is not None else None
                ),
            )
            self.journal.append_block(block_map)
            self._meta_put(block_map)
            self._blocks_appended += 1

    # -- crash & recovery --------------------------------------------------------

    def _crash(self, now: float, crash: ServiceCrash) -> None:
        self._crash_count += 1
        self._crash_idx += 1
        self._up = False
        # Every in-flight job dies with the driver; the admission ledger
        # already paid for them, so they re-enter the queue without a new
        # quota charge and reach a terminal state after the restart.
        for token in sorted(self._inflight):
            tenant, req = self._inflight[token]
            self._live_tokens.discard(token)
            self.controller.requeue(tenant, req)
            self._requeued += 1
        self._inflight.clear()
        self._slots_free = self.config.slots
        self.obs.tracer.record(
            "service/crash",
            category="service",
            sim_start=now,
            sim_end=now + crash.restart_delay_s,
            requeued=self._requeued,
        )
        if self.obs.metrics.enabled:
            self.obs.metrics.counter(
                "service_crashes_total", help="driver crashes survived"
            ).inc()
        self._push(now + crash.restart_delay_s, "restart", None)

    def _recover_metadata(self) -> Tuple[int, int]:
        """Re-seat resident metadata from the journal quorum.

        The journal replicas are separate processes and outlive the
        driver and the leader, so a restart and a failover both read
        committed state back from any quorum.  Blocks the crash caught
        before their journal frame landed are re-indexed from the durable
        data plane — deterministic per block, so the rebuilt array is
        byte-identical to the uninterrupted one — and journaled now.
        Returns ``(recovered records, re-indexed blocks)``.
        """
        entries = self.journal.recover()
        array = ElasticMapArray(
            [BlockElasticMap.from_bytes(entries[bid]) for bid in sorted(entries)]
        )
        self._journal_replays += 1
        needed = (
            self._view.fragments_needed()
            if hasattr(self._view, "fragments_needed")
            else {}
        )
        datanet = DataNet(
            array,
            self._view.placement(),
            nodes=list(self._view.nodes),
            needed=needed or None,
            obs=self.obs,
        )
        datanet._builder_config = dict(self._builder_config)
        readded = datanet.extend(self._view)
        for bid in datanet.elasticmap.block_ids:
            if self.journal.append_block(datanet.elasticmap[bid]):
                self._blocks_appended += 1
                self._meta_put(datanet.elasticmap[bid])
        self.datanet = datanet
        return len(entries), readded

    def _restart(self, now: float) -> None:
        """Rebuild resident metadata from the journal, then resume."""
        records, readded = self._recover_metadata()
        self._up = True
        self.obs.tracer.record(
            "service/recovery",
            category="service",
            sim_start=now,
            sim_end=now,
            replayed_records=records,
            reindexed_blocks=readded,
        )
        if self.obs.metrics.enabled:
            self.obs.metrics.counter(
                "service_journal_replays_total",
                help="metadata recoveries from the write-ahead journal",
            ).inc()
        self._try_flush_appends(now)

    # -- leader failover ----------------------------------------------------------

    def _quorum_ok(self) -> bool:
        """Whether a majority of journal replicas is currently reachable."""
        up = sum(1 for r in self.journal.replicas.values() if r.available)
        return up >= self.journal.quorum

    def _try_flush_appends(self, now: float) -> None:
        """Apply backlogged ingest once the plane can accept it again."""
        if not (self._up and self._leader_up and self._quorum_ok()):
            return
        self._retry_attempts = 0
        self._retry_waited = 0.0
        backlog, self._append_backlog = self._append_backlog, []
        for batch in backlog:
            self._apply_append(now, batch)

    def _maybe_schedule_append_retry(self, now: float) -> None:
        """Probe for quorum return on the retry policy's backoff schedule.

        Heal events flush the backlog the instant a majority returns;
        these bounded probes only pace the case where the retry budget
        should give up first (surfacing ``max_elapsed`` in the drill).
        """
        if self._retry_pending:
            return
        if not (self._up and self._leader_up):
            return  # restart / lrestore will flush instead
        if self._retry_attempts >= self._retry.max_attempts:
            return  # budget exhausted: wait for an explicit heal
        self._retry_attempts += 1
        delay = self._retry.backoff(
            self._retry_attempts,
            task_key="journal-append",
            seed=self.plan.seed,
            waited_s=self._retry_waited,
        )
        self._retry_waited += delay
        self._retry_pending = True
        self._push(now + delay, "jretry", None)

    def _leader_crash(self, now: float, crash: LeaderCrash) -> None:
        """The metadata leader dies: park in-flight work, start suspecting.

        Unlike :meth:`_crash` nothing is shed — admission stays open (the
        daemon's front door is not the leader), queued submissions simply
        wait, and in-flight jobs are re-queued without a fresh quota
        charge, to be replayed by the successor.
        """
        self._leader_up = False
        for token in sorted(self._inflight):
            tenant, req = self._inflight[token]
            self._live_tokens.discard(token)
            self.controller.requeue(tenant, req)
            self._requeued += 1
        self._inflight.clear()
        self._slots_free = self.config.slots
        # φ-accrual suspicion: replay the heartbeats the leader actually
        # sent into a detector, then find when the silence crosses the
        # threshold.  Deterministic — same cadence, same detection time.
        hb = self.config.heartbeat_interval_s
        detector = HealthDetector(expected_interval_s=hb)
        beats = int(now // hb) + 1
        for i in range(max(0, beats - detector.window), beats):
            detector.record("leader", i * hb)
        mean = detector.mean_interval("leader") or hb
        last_beat = (beats - 1) * hb
        detect_at = max(
            now, last_beat + detection_delay(mean, crash.suspicion_threshold)
        )
        self._push(detect_at, "failover", crash)
        self.obs.tracer.record(
            "service/leader-crash",
            category="service",
            sim_start=now,
            sim_end=detect_at,
            suspicion_threshold=crash.suspicion_threshold,
        )

    def _failover(self, now: float, crash: LeaderCrash) -> None:
        """Elect a successor, fence its epoch, recover from the quorum."""
        live = [
            rid
            for rid in self.journal.replica_ids
            if self.journal.replicas[rid].available
        ]
        result = self._elector.elect(live)
        self._epoch = result.term
        self.journal.fence(self._epoch)
        self.cluster.install_fence(self._epoch)
        _records, readded = self._recover_metadata()
        self._leadership_changes += 1
        resume = now + result.elapsed_s
        self._failover_downtime += resume - crash.time
        self._push(resume, "lrestore", (crash, result, readded))
        if self.obs.metrics.enabled:
            self.obs.metrics.counter(
                "service_leadership_changes_total",
                help="metadata-plane leader elections completed",
            ).inc()
            self.obs.metrics.gauge(
                "service_leader_term", help="current metadata-leader term"
            ).set(float(result.term))
            self.obs.metrics.gauge(
                "service_failover_latency_seconds",
                help="crash-to-resume latency of the last leader failover",
            ).set(resume - crash.time)

    def _leader_restore(
        self, now: float, crash: LeaderCrash, result, readded: int
    ) -> None:
        self._leader_up = True
        self.obs.tracer.record(
            "service/failover",
            category="service",
            sim_start=crash.time,
            sim_end=now,
            term=result.term,
            leader=result.leader,
            election_rounds=len(result.rounds),
            reindexed_blocks=readded,
        )
        self._try_flush_appends(now)
        self._dispatch(now)

    # -- event loop --------------------------------------------------------------

    def _push(self, time: float, kind: str, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._events, (time, _PRIO[kind], self._seq, kind, payload))

    def run(
        self,
        requests: Sequence[JobRequest],
        appends: Sequence[AppendBatch] = (),
    ) -> ServiceSummary:
        """Consume the full request/append streams; returns the summary."""
        self._events = []
        self._seq = 0
        for req in requests:
            self._push(req.submit_time, "submit", req)
        for batch in appends:
            self._push(batch.time, "append", batch)
        for crash in self._crashes:
            self._push(crash.time, "crash", crash)
        for window in self.meta_windows:
            self._push(window.start, "meta_down", window)
            self._push(window.heals_at, "meta_up", window)
        for part in self._partitions:
            self._push(part.start, "pstart", part)
            self._push(part.heals_at, "pheal", part)
        for lcrash in self._injector.leader_crashes_chronological():
            self._push(lcrash.time, "lcrash", lcrash)
        for jcrash in self._injector.journal_crashes_chronological():
            self._push(jcrash.time, "jcrash", jcrash)
            if jcrash.restores_at is not None:
                self._push(jcrash.restores_at, "jheal", jcrash)
        for mpart in self._injector.meta_partitions_chronological():
            self._push(mpart.start, "mpstart", mpart)
            self._push(mpart.heals_at, "mpheal", mpart)

        degraded_gauge = (
            self.obs.metrics.gauge(
                "service_degraded_mode",
                help="1 while a fault window forces fallback scheduling",
            )
            if self.obs.metrics.enabled
            else None
        )

        while self._events:
            now, _prio, _seq, kind, payload = heapq.heappop(self._events)
            self._horizon = max(self._horizon, now)
            if kind == "submit":
                req = payload
                try:
                    self.controller.submit(
                        req.tenant, req, now, open_for_business=self._up
                    )
                except Overloaded:
                    pass  # typed + ledgered; the stream carries on
                self._note_queue_depth(now)
                if self.obs.metrics.enabled:
                    self.obs.metrics.gauge(
                        "service_admission_rate",
                        help="fraction of submissions admitted so far",
                    ).set(
                        self.controller.admitted / self.controller.submitted
                    )
                self._dispatch(now)
            elif kind == "append":
                if self._up and self._leader_up and self._quorum_ok():
                    self._apply_append(now, batch=payload)
                else:
                    self._append_backlog.append(payload)
                    self._maybe_schedule_append_retry(now)
            elif kind == "jretry":
                self._retry_pending = False
                if self._quorum_ok():
                    self._try_flush_appends(now)
                elif self._append_backlog:
                    self._maybe_schedule_append_retry(now)
            elif kind == "lcrash":
                if self._up and self._leader_up:
                    self._leader_crash(now, payload)
            elif kind == "failover":
                self._failover(now, payload)
            elif kind == "lrestore":
                crash, result, readded = payload
                self._leader_restore(now, crash, result, readded)
            elif kind == "jcrash":
                self.journal.crash_replica(
                    payload.replica, at_byte=payload.at_byte
                )
            elif kind == "jheal":
                moved = self.journal.restore_replica(payload.replica)
                if self.obs.metrics.enabled and moved:
                    self.obs.metrics.counter(
                        "service_antientropy_frames_total",
                        help="journal frames copied to lagging replicas",
                    ).inc(moved)
                self._try_flush_appends(now)
            elif kind == "mpstart":
                self.journal.partition(payload.replicas)
            elif kind == "mpheal":
                moved = self.journal.heal(payload.replicas)
                if self.obs.metrics.enabled and moved:
                    self.obs.metrics.counter(
                        "service_antientropy_frames_total",
                        help="journal frames copied to lagging replicas",
                    ).inc(moved)
                self._try_flush_appends(now)
            elif kind == "crash":
                if (
                    self._crash_idx < len(self._crashes)
                    and self._crashes[self._crash_idx] is payload
                ):
                    if self._up:
                        self._crash(now, payload)
                    else:
                        # Landed inside another crash's downtime: the
                        # process is already dead, nothing extra to kill.
                        self._crash_idx += 1
            elif kind == "restart":
                self._restart(now)
                self._dispatch(now)
            elif kind == "meta_down":
                if self.metastore is not None:
                    self.metastore.fail_node(payload.node_id)
                if degraded_gauge is not None:
                    degraded_gauge.set(1.0)
            elif kind == "meta_up":
                if self.metastore is not None:
                    self.metastore.recover_node(payload.node_id)
                    self._flush_meta_pending()
                if degraded_gauge is not None:
                    degraded_gauge.set(1.0 if self._degraded_at(now) else 0.0)
            elif kind == "pstart":
                if degraded_gauge is not None:
                    degraded_gauge.set(1.0)
            elif kind == "pheal":
                if degraded_gauge is not None:
                    degraded_gauge.set(1.0 if self._degraded_at(now) else 0.0)
                parked, self._parked = self._parked, []
                for tenant, req in parked:
                    self.controller.requeue(tenant, req)
                self._dispatch(now)
            elif kind == "finish":
                token, outcome = payload
                if token not in self._live_tokens:
                    continue  # the crash already requeued this job
                self._live_tokens.discard(token)
                del self._inflight[token]
                self._slots_free += 1
                self._resolve(outcome)
                self._dispatch(now)

        if self._parked:
            raise ConfigError(
                f"{len(self._parked)} jobs still parked at end of run — the "
                "fault plan's partitions must heal before the stream ends"
            )
        if self.obs.metrics.enabled:
            self.obs.metrics.gauge(
                "service_journal_replica_lag",
                help="peak committed frames any journal replica was missing",
            ).set(float(self.journal.peak_lag))
        return self._summary()

    # -- summary -----------------------------------------------------------------

    def _summary(self) -> ServiceSummary:
        completed = [o for o in self.outcomes if o.status == "completed"]
        digest = hashlib.blake2b(digest_size=16)
        for outcome in sorted(completed, key=lambda o: o.job_id):
            digest.update(
                f"{outcome.job_id}|{outcome.output_digest}\n".encode("utf-8")
            )
        all_waits = sorted(w for waits in self._waits.values() for w in waits)
        if all_waits:
            p99_index = max(0, -(-99 * len(all_waits) // 100) - 1)
            wait_p99 = all_waits[p99_index]
        else:
            wait_p99 = 0.0
        return ServiceSummary(
            tenants=len(self.controller.tenants),
            submitted=self.controller.submitted,
            admitted=self.controller.admitted,
            completed=len(completed),
            rejected=dict(self.controller.rejected),
            cancelled_deadline=sum(
                1 for o in self.outcomes if o.status == "deadline"
            ),
            cancelled_timeout=sum(
                1 for o in self.outcomes if o.status == "timeout"
            ),
            requeued_on_crash=self._requeued,
            degraded_jobs=self._degraded_jobs,
            deferred_jobs=self._deferred,
            appends=self._appends,
            blocks_appended=self._blocks_appended,
            journal_records=self.journal.record_count,
            journal_replays=self._journal_replays,
            service_crashes=self._crash_count,
            max_queue_depth=self._max_queue_depth,
            makespan=self._horizon,
            wait_mean_by_tenant={
                tenant: sum(waits) / len(waits)
                for tenant, waits in self._waits.items()
                if waits
            },
            wait_p99_s=wait_p99,
            degraded_intervals=self.degraded_intervals(),
            leadership_changes=self._leadership_changes,
            failover_downtime=self._failover_downtime,
            journal_replica_lag=self.journal.peak_lag,
            metadata_digest=array_digest(self.datanet.elasticmap),
            results_digest=digest.hexdigest(),
        )
