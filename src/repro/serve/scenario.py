"""Deterministic multi-tenant service drills (the soak workload).

:func:`run_service_drill` builds a small movie environment, withholds the
chronological tail of the review stream as streaming append batches, and
replays a fixed multi-tenant request schedule through
:class:`~repro.serve.service.AnalysisService`.  Everything — arrivals,
tenants, targets, fault windows — is a pure function of the
:class:`DrillConfig`, so the same config always produces byte-identical
:class:`~repro.metrics.ServiceSummary` digests.  The CLI, the CI soak
job, the example, and the tests all run through here.

The fault placement is deliberate:

* the :class:`~repro.faults.ServiceCrash` lands *inside* an ingest
  window (after the first appended block's journal frame, before the
  rest), in an arrival gap wide enough that the restart finishes before
  the next submission — so the crash perturbs timing but neither the
  admitted set nor any job's output, which is what makes the
  crash/no-crash digest comparison a meaningful oracle;
* the gray partition and the metadata-shard outage overlap the middle of
  the schedule, forcing real degraded-mode dispatches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.datanet import DataNet
from ..core.metastore import DistributedMetaStore
from ..errors import ConfigError
from ..faults.plan import (
    FaultPlan,
    JournalReplicaCrash,
    LeaderCrash,
    MetadataPartition,
    NetworkPartition,
    ServiceCrash,
)
from ..faults.retry import RetryPolicy
from ..hdfs.cluster import HDFSCluster
from ..mapreduce.apps import (
    histogram_job,
    moving_average_job,
    top_k_search_job,
    word_count_job,
)
from ..metrics.service import ServiceSummary
from ..obs import NULL_OBS, Observability
from ..rebalance import RebalanceExecutor, RebalancePlanner, WorkloadProfile
from ..workloads.movielens import GammaArrivalModel, MovieLensGenerator, most_popular
from .admission import TenantSpec
from .service import (
    AnalysisService,
    AppendBatch,
    JobRequest,
    MetaOutageWindow,
    ServiceConfig,
)

__all__ = ["DrillConfig", "DrillSetup", "build_drill", "run_service_drill"]

KiB = 1024

#: Per-tenant fair-share weights and quotas.  tenant-c is deliberately
#: rate-limited below its submission rate so the soak always exercises
#: typed ``quota`` shedding; the others are unlimited.
_TENANTS = (
    TenantSpec("tenant-a", weight=2.0),
    TenantSpec("tenant-b", weight=1.0),
    TenantSpec("tenant-c", weight=1.0, rate=1.0 / 40.0, burst=1.0),
)

_QUERY = "great movie amazing plot wonderful acting"


@dataclass(frozen=True)
class DrillConfig:
    """All knobs of one service drill, digest-determining.

    Attributes:
        seed: environment seed (data, placement, targets).
        num_nodes: cluster size.
        jobs: total submissions across all tenants.
        pressure: arrival-rate multiplier — 1.0 is the calibrated
            sustainable load; 2.0/4.0 overload the queue for the
            backpressure sweeps.
        append_batches: streaming ingest batches cut from the tail of the
            review stream.
        crash: inject a :class:`~repro.faults.ServiceCrash` mid-append.
        meta_down: take one metadata shard down mid-schedule.
        partition: gray-partition one rack mid-schedule.
        slots: concurrent job slots on the driver.
        high_water: admission queue bound.
        rebalance_budget: migration-byte budget (fraction of dataset
            bytes) for a background rebalance pass run before the drill;
            0.0 (the default) skips it, keeping legacy digests intact.
        journal_replicas: copies of the quorum metadata journal; 1 is a
            quorum of one.
        leader_crash: kill the metadata leader mid-drill and fail over
            to an elected successor (parks + replays, never sheds).
        journal_crash: kill one journal replica mid-drill (restored
            later via anti-entropy catch-up).
        meta_partition: cut a minority of journal replicas from the
            leader for a window mid-schedule.
        retry_jitter: ``"none"`` or ``"full"`` — jitter mode of the
            quorum-append retry backoff (see
            :class:`~repro.faults.RetryPolicy`).
        retry_max_elapsed: optional cap on cumulative quorum-append
            backoff, in simulated seconds.
    """

    seed: int = 7
    num_nodes: int = 12
    jobs: int = 18
    pressure: float = 1.0
    append_batches: int = 2
    crash: bool = False
    meta_down: bool = False
    partition: bool = False
    slots: int = 2
    high_water: int = 64
    rebalance_budget: float = 0.0
    journal_replicas: int = 1
    leader_crash: bool = False
    journal_crash: bool = False
    meta_partition: bool = False
    retry_jitter: str = "none"
    retry_max_elapsed: float | None = None

    def __post_init__(self) -> None:
        if self.jobs < 4:
            raise ConfigError("a drill needs at least 4 jobs")
        if self.pressure <= 0:
            raise ConfigError("pressure must be positive")
        if self.append_batches < 1:
            raise ConfigError("a drill streams at least one append batch")
        if not 0.0 <= self.rebalance_budget <= 1.0:
            raise ConfigError("rebalance_budget must be in [0, 1]")
        if self.journal_replicas < 1:
            raise ConfigError("journal_replicas must be >= 1")
        if self.journal_crash and self.journal_replicas < 2:
            raise ConfigError(
                "a journal-replica crash drill needs journal_replicas >= 2 "
                "(crashing the only copy just loses quorum)"
            )
        if self.meta_partition and self.journal_replicas < 3:
            raise ConfigError(
                "a metadata-partition drill needs journal_replicas >= 3 "
                "(a quorum must survive on the leader's side)"
            )
        # RetryPolicy owns jitter/max-elapsed validation; constructing one
        # here surfaces bad CLI values as a ConfigError at parse time.
        RetryPolicy(jitter=self.retry_jitter, max_elapsed_s=self.retry_max_elapsed)


@dataclass
class DrillSetup:
    """A fully wired drill: the service plus its request/append streams."""

    service: AnalysisService
    requests: List[JobRequest]
    appends: List[AppendBatch]


def _arrivals(config: DrillConfig) -> List[float]:
    gap = 9.0 / config.pressure
    return [1.0 + i * gap for i in range(config.jobs)]


def _job_for(index: int, query: str):
    kind = index % 4
    if kind == 0:
        return word_count_job(num_reducers=4)
    if kind == 1:
        return histogram_job(num_reducers=4)
    if kind == 2:
        return moving_average_job(window_days=7.0, num_reducers=4)
    return top_k_search_job(query, k=10)


def build_drill(
    config: DrillConfig, *, obs: Observability = NULL_OBS
) -> DrillSetup:
    """Construct the environment, service, and deterministic streams."""
    rng = np.random.default_rng(config.seed)
    cluster = HDFSCluster(
        num_nodes=config.num_nodes,
        block_size=64 * KiB,
        replication=3,
        rng=rng,
    )
    generator = MovieLensGenerator(
        num_movies=300,
        total_reviews=36_000,
        duration_days=60.0,
        zipf_s=0.95,
        arrival=GammaArrivalModel(0.9, 18.0),
        rng=rng,
    )
    records = generator.generate()

    # The chronological tail streams in later (the paper's Flume-style
    # continuous collection); targets are ranked over the full stream so
    # append contents matter to job outputs.
    tail = len(records) // 5
    initial, appended = records[:-tail], records[-tail:]
    chunk = -(-len(appended) // config.append_batches)
    chunks = [
        appended[i : i + chunk] for i in range(0, len(appended), chunk)
    ]

    dataset = cluster.write_dataset("movielens", initial)
    datanet = DataNet.build(dataset, alpha=0.3, obs=obs)
    if config.rebalance_budget > 0.0:
        # Background rebalance pass before the drill: fix the layout for
        # the hottest sub-datasets (the ones the request schedule will
        # query) under the migration budget, then let the same drill run
        # on the improved placement.  Seeded by the drill seed, so the
        # digest oracle still holds.
        sizes = dataset.subdataset_sizes()
        hot = sorted(sizes, key=sizes.get, reverse=True)[:6]
        profile = WorkloadProfile({sid: float(sizes[sid]) for sid in hot})
        plan = RebalancePlanner(
            dataset,
            datanet,
            profile,
            budget_fraction=config.rebalance_budget,
            seed=config.seed,
            iterations=3000,
            obs=obs,
        ).plan()
        cluster.watch_placement(dataset.name, datanet)
        RebalanceExecutor(cluster, obs=obs).apply(plan)
    metastore = DistributedMetaStore(num_nodes=3, replication=1)
    metastore.load_array(datanet.elasticmap)

    arrivals = _arrivals(config)
    gap = arrivals[1] - arrivals[0]
    service_config = ServiceConfig(
        slots=config.slots,
        high_water=config.high_water,
        slots_per_node=2,
        ingest_block_cost_s=0.5,
        journal_replicas=config.journal_replicas,
        retry=RetryPolicy(
            jitter=config.retry_jitter, max_elapsed_s=config.retry_max_elapsed
        ),
    )

    # The first append's ingest window deliberately straddles arrival 6
    # (an unthrottled tenant): the crash (when enabled) lands after that
    # dispatch, so it catches a live job whose requeue is parity-safe
    # (its dispatch-time view is identical before and after the restart).
    # Later appends land in plain arrival gaps.
    append_times = [arrivals[6] - 0.8]
    for i in range(1, len(chunks)):
        append_times.append(
            arrivals[min(4 + 5 * (i + 1), config.jobs - 1)] + 0.45 * gap
        )
    appends = [
        AppendBatch(time=t, records=tuple(chunk_records))
        for t, chunk_records in zip(append_times, chunks)
    ]

    crashes: Tuple[ServiceCrash, ...] = ()
    if config.crash:
        crash_time = append_times[0] + 1.2
        crashes = (ServiceCrash(time=crash_time, restart_delay_s=3.0),)
    partitions: Tuple[NetworkPartition, ...] = ()
    if config.partition:
        start = arrivals[config.jobs // 2] + 0.2 * gap
        partitions = (
            NetworkPartition(rack=1, start=start, heals_at=start + 2.2 * gap),
        )
    # The leader crash reuses the service-crash placement: right after the
    # first ingest window straddles a live dispatch, in a gap wide enough
    # that detection + election + recovery finish before the next arrival.
    # It therefore perturbs only timing — the digest oracle again.
    leader_crashes: Tuple[LeaderCrash, ...] = ()
    if config.leader_crash:
        leader_crashes = (LeaderCrash(time=append_times[0] + 1.2),)
    journal_crashes: Tuple[JournalReplicaCrash, ...] = ()
    if config.journal_crash:
        # Kill the highest-numbered replica across the ingest batches, so
        # it misses committed frames and the restore exercises anti-entropy
        # catch-up of everything the quorum wrote without it.
        start = append_times[0] - 0.3 * gap
        journal_crashes = (
            JournalReplicaCrash(
                f"journal-{config.journal_replicas - 1}",
                time=start,
                restores_at=append_times[-1] + 0.5 * gap,
            ),
        )
    meta_partitions: Tuple[MetadataPartition, ...] = ()
    if config.meta_partition:
        # Cut a minority from the leader, straddling the last ingest
        # batch: quorum survives, commits proceed, the cut replicas fall
        # behind (visible lag), and the heal catches them back up.
        start = append_times[-1] - 0.25 * gap
        meta_partitions = (
            MetadataPartition(
                replicas=tuple(
                    f"journal-{i}" for i in range(config.journal_replicas // 2)
                ),
                start=start,
                heals_at=start + 2.0 * gap,
            ),
        )
    plan = FaultPlan(
        seed=config.seed,
        service_crashes=crashes,
        partitions=partitions,
        leader_crashes=leader_crashes,
        journal_crashes=journal_crashes,
        meta_partitions=meta_partitions,
    )

    meta_windows: Tuple[MetaOutageWindow, ...] = ()
    if config.meta_down:
        start = arrivals[config.jobs // 3] + 0.2 * gap
        meta_windows = (
            MetaOutageWindow("meta-0", start=start, heals_at=start + 2.2 * gap),
        )

    from ..experiments.config import ReferenceConfig

    cost = ReferenceConfig(data_scale=384.0).cost_model()
    service = AnalysisService(
        cluster,
        "movielens",
        datanet,
        cost,
        _TENANTS,
        config=service_config,
        metastore=metastore,
        plan=plan,
        meta_windows=meta_windows,
        obs=obs,
    )

    requests: List[JobRequest] = []
    for i, submit in enumerate(arrivals):
        tenant = _TENANTS[i % len(_TENANTS)].name
        deadline: float | None = submit + 600.0
        timeout: float | None = None
        if i == 4:
            # One intentional in-flight timeout per drill: far below any
            # job's runtime, so it always resolves to a typed cancellation.
            timeout = 0.4
            deadline = None
        requests.append(
            JobRequest(
                tenant=tenant,
                job_id=f"job-{i:03d}",
                sub_id=most_popular(records, rank=i % 6),
                job=_job_for(i, _QUERY),
                submit_time=submit,
                deadline_s=deadline,
                timeout_s=timeout,
            )
        )
    return DrillSetup(service=service, requests=requests, appends=appends)


def run_service_drill(
    config: DrillConfig, *, obs: Observability = NULL_OBS
) -> ServiceSummary:
    """Build and run one drill end to end."""
    setup = build_drill(config, obs=obs)
    return setup.service.run(setup.requests, setup.appends)
