"""Mid-job fault recovery: run a whole analysis job under a fault plan.

:class:`ChaosRunner` executes the paper's two-phase workflow while the
:class:`~repro.faults.injector.FaultInjector` fires: selection tasks run
through the retry lifecycle, planned node crashes kill everything their
node produced, HDFS re-replication restores replica counts, and the lost
work is rescheduled onto live replicas by rebuilding the DataNet
bipartite graph without the dead/blacklisted nodes.  When a distributed
metadata shard is down, affected blocks degrade to locality-only
scheduling instead of failing the job (:mod:`repro.faults.degrade`).

Driver restarts run in the same loop: a restart at wave ``w`` is charged
to each node as it reaches the ``w``-th block of its assigned queue (the
lost share of that block, then the restart delay); completed outputs are
kept and the interrupted block reruns from attempt 1.

Gray failures get the same treatment as fail-stop ones, one layer up:

* a heartbeat probe feeds the φ-accrual :class:`HealthDetector`, whose
  scores become per-node capacities for the distribution-aware scheduler
  (slow nodes get proportionally less work instead of being benched);
* remote reads go through the :class:`~repro.hdfs.hedged.HedgedReader`,
  racing a backup replica once the adaptive latency trigger fires;
* network partitions run as chronological events interleaved with
  crashes: work behind the cut is discarded and re-executed on the
  majority side (detected a heartbeat later), blocks with *no* reachable
  replica are deferred until the cut heals, and the minority nodes rejoin
  intact at heal time — no re-replication, because no replica was lost.

Guarantees (covered by the chaos + gray test suites):

* **Determinism** — the same plan over the same seeded cluster yields an
  identical :class:`~repro.mapreduce.engine.JobResult`, byte for byte.
* **Output safety** — the analysis output equals the failure-free run's
  output: recovery reschedules work, it never drops or double-counts a
  block.

Timing model: per-node sequential execution (the engine's default
``map_slots=1``), a crash loses every selection output the node held,
detection lags by the heartbeat timeout, and recovered tasks join the
back of their new node's queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..core.datanet import DataNet
from ..core.elasticmap import BlockElasticMap
from ..core.metastore import DistributedMetaStore
from ..core.scheduler import Assignment, DistributionAwareScheduler
from ..errors import ConfigError, FaultError
from ..hdfs.cluster import DatasetView, HDFSCluster
from ..hdfs.failure import FailureManager
from ..hdfs.records import Record
from ..hdfs.scrubber import ReadVerifier, Scrubber
from ..mapreduce.costmodel import ClusterCostModel
from ..mapreduce.engine import JobResult, MapReduceEngine, PhaseResult, SelectionResult
from ..mapreduce.job import MapReduceJob
from ..metrics.integrity import IntegritySummary
from ..metrics.recovery import RecoverySummary
from ..obs import NULL_OBS, Observability
from .degrade import degraded_schedule
from .health import HealthDetector
from .injector import FaultInjector
from .plan import FaultPlan
from .retry import AttemptLog, NodeBlacklist, RetryPolicy, run_attempts

__all__ = ["ChaosRunner", "ChaosReport"]

NodeId = Hashable

#: capacity floor handed to the scheduler for deeply suspected nodes
MIN_HEALTH_CAPACITY = 0.05


@dataclass
class ChaosReport:
    """Everything a chaos run produced, fault-free reference included."""

    job: JobResult
    baseline: JobResult
    plan: FaultPlan
    attempts_histogram: Dict[int, int]
    wasted_seconds: float
    re_replicated_bytes: int
    dead_nodes: List[NodeId]
    blacklisted_nodes: List[NodeId]
    degraded_blocks: List[int]
    rescheduled_blocks: List[int]
    integrity: IntegritySummary
    partition_events: int = 0
    deferred_blocks: List[int] = field(default_factory=list)
    hedged_reads: int = 0
    hedges_won: int = 0
    hedge_wasted_seconds: float = 0.0
    health: Dict[NodeId, float] = field(default_factory=dict)
    reconstructions: int = 0
    reconstructed_bytes: int = 0
    decode_bytes: int = 0
    degraded_reads: int = 0
    quarantined_blocks: int = 0

    @property
    def makespan(self) -> float:
        return self.job.makespan

    @property
    def recovery_overhead(self) -> float:
        """Extra makespan paid for surviving the plan, as a fraction."""
        base = self.baseline.makespan
        return (self.job.makespan - base) / base if base > 0 else 0.0

    @property
    def output_matches_baseline(self) -> bool:
        """Recovery must never change the analysis answer."""
        return self.job.output == self.baseline.output

    def summary(self) -> RecoverySummary:
        """The observability record for :mod:`repro.metrics`."""
        return RecoverySummary(
            attempts_histogram=dict(self.attempts_histogram),
            wasted_seconds=self.wasted_seconds,
            re_replicated_bytes=self.re_replicated_bytes,
            baseline_makespan=self.baseline.makespan,
            makespan=self.job.makespan,
            dead_nodes=len(self.dead_nodes),
            blacklisted_nodes=len(self.blacklisted_nodes),
            degraded_blocks=len(self.degraded_blocks),
            rescheduled_blocks=len(self.rescheduled_blocks),
            scrub_bytes=self.integrity.scrub_bytes,
            repaired_replicas=self.integrity.corruptions_repaired,
            rebuilt_blocks=self.integrity.rebuilt_blocks,
            driver_restarts=self.integrity.driver_restarts,
            resume_wasted_seconds=self.integrity.resume_wasted_seconds,
            partition_events=self.partition_events,
            deferred_blocks=len(self.deferred_blocks),
            hedged_reads=self.hedged_reads,
            hedges_won=self.hedges_won,
            hedge_wasted_seconds=self.hedge_wasted_seconds,
            reconstructions=self.reconstructions,
            reconstructed_bytes=self.reconstructed_bytes,
            decode_bytes=self.decode_bytes,
            degraded_reads=self.degraded_reads,
            quarantined_blocks=self.quarantined_blocks,
        )

    def format(self) -> str:
        parts = [self.summary().format()]
        if self.integrity.corruptions_injected or self.integrity.stale_entries:
            parts.append(self.integrity.format())
        return "\n\n".join(parts)


class ChaosRunner:
    """Fault-tolerant job executor bound to one cluster and one plan.

    Args:
        cluster: the HDFS substrate.  The runner *mutates* it on crashes
            (re-replication moves replicas), so use a fresh cluster per
            run — which is also what determinism tests do.
        plan: the fault script.
        cost: hardware cost parameters (engine defaults when omitted).
        retry: attempt lifecycle knobs (defaults per :class:`RetryPolicy`).
        metastore: optional distributed metadata fleet.  When given, the
            schedule is built through it with per-block degradation; plan
            meta-outages are applied to it before scheduling.
        alpha: ElasticMap sizing for the metadata build.
        detect: run the φ-accrual heartbeat probe before scheduling and
            weight node capacities by its health scores (gray plans only).
        hedge: route remote reads through the hedged read path (gray
            plans only).
    """

    def __init__(
        self,
        cluster: HDFSCluster,
        plan: FaultPlan,
        *,
        cost: Optional[ClusterCostModel] = None,
        retry: Optional[RetryPolicy] = None,
        metastore: Optional[DistributedMetaStore] = None,
        alpha: float = 0.3,
        detect: bool = True,
        hedge: bool = True,
        obs: Observability = NULL_OBS,
    ) -> None:
        plan.validate_targets(cluster.datanodes)
        if plan.driver_restarts and cluster.coding is not None:
            raise ConfigError(
                "driver restarts cannot be combined with erasure coding: the "
                "restart waste estimate would read fragments through the "
                "engine's own coded reader, whose counters never reach the report"
            )
        self.cluster = cluster
        self.plan = plan
        self.injector = FaultInjector(plan)
        if plan.partitions:
            # resolve rack scopes against the topology up front so a bad
            # plan fails at construction, not mid-job
            self.injector.resolve_partitions(
                sorted(cluster.datanodes), rack_of=cluster.rack_of
            )
        self.retry = retry or RetryPolicy()
        self.detect = detect
        self.hedge = hedge
        self.obs = obs
        self.engine = MapReduceEngine(cluster, cost, obs=obs)
        self.metastore = metastore
        self.alpha = alpha
        self.failures = FailureManager(cluster)

    # -- partition helpers --------------------------------------------------------

    def _cut_at(self, time: float) -> Set[NodeId]:
        """Union of partition cut sets active at ``time``."""
        if not self.plan.partitions:
            return set()
        return {
            n
            for p in self.injector.partitions_chronological()
            if p.active(time)
            for n in p.nodes
        }

    # -- the full pipeline --------------------------------------------------------

    def run(self, dataset: DatasetView, sub_id: str, job: MapReduceJob) -> ChaosReport:
        """Execute ``job`` over ``sub_id`` while the plan fires.

        The failure-free baseline is computed first, on the untouched
        cluster, so overhead and output-equality are measured against the
        exact run the faults perturb.
        """
        with self.obs.tracer.span(
            "chaos/run", category="run", dataset=dataset.name, sub=sub_id
        ):
            return self._run_inner(dataset, sub_id, job)

    def _run_inner(
        self, dataset: DatasetView, sub_id: str, job: MapReduceJob
    ) -> ChaosReport:
        datanet = DataNet.build(dataset, alpha=self.alpha, obs=self.obs)
        with self.obs.tracer.span("baseline", category="phase"):
            baseline = self.engine.run_job(
                dataset, sub_id, job, datanet.schedule(sub_id)
            )

        # Integrity faults strike after the baseline is captured: stale
        # metadata is diverged and then caught by standing validation
        # (before anything downstream trusts the array), and bit rot is
        # planted latent in the replicas the selection phase will read.
        stale = self._tamper_stale_entries(datanet, dataset)
        validation = datanet.validate_integrity(dataset)
        injected = self._inject_bit_rots(dataset)
        verifier = ReadVerifier(self.cluster, obs=self.obs)

        # Gray-failure instrumentation: the heartbeat probe runs before
        # scheduling (the detector can only steer decisions it precedes).
        gray = self.plan.has_gray
        detector: Optional[HealthDetector] = None
        health: Optional[Dict[NodeId, float]] = None
        if gray and self.detect:
            detector = HealthDetector(
                expected_interval_s=max(self.retry.heartbeat_timeout_s / 2.0, 1e-6)
            )
            all_nodes = sorted(self.cluster.datanodes)
            detector.observe_heartbeats(all_nodes, self.injector, count=8)
            health = detector.scores(all_nodes)
            detector.export(
                self.obs, all_nodes, now=8 * detector.expected_interval_s
            )
        coded_mode = dataset.coding is not None
        coded = None
        hedged = None
        if coded_mode:
            # coded datasets have no whole-block replicas: one reader
            # subsumes verification (fragment checksums), hedging (k + 1
            # fragment races) and degraded decodes, for every read path
            from ..hdfs.coded import CodedReader  # deferred: import cycle

            coded = CodedReader(
                self.cluster,
                self.injector,
                detector=detector,
                failures=self.failures,
                obs=self.obs,
            )
        elif gray and self.hedge and not self.plan.driver_restarts:
            from ..hdfs.hedged import HedgedReader  # deferred: import cycle

            hedged = HedgedReader(
                self.cluster,
                self.injector,
                detector=detector,
                verify=verifier,
                obs=self.obs,
            )

        degraded: List[int] = []
        deferred0: List[int] = []
        cut0 = self._cut_at(0.0)
        if self.metastore is not None:
            if not self.metastore.block_ids:
                self.metastore.load_array(datanet.elasticmap)
            for outage in self.plan.meta_outages:
                self.metastore.fail_node(outage.node_id)
            assignment, _healthy, degraded = degraded_schedule(
                self.metastore, dataset, sub_id, live_nodes=self.failures.live_nodes
            )
        elif gray and self.detect and (health is not None or cut0):
            assignment, deferred0 = datanet.gray_schedule(
                sub_id,
                health=health,
                unreachable=sorted(cut0, key=repr),
                min_capacity=MIN_HEALTH_CAPACITY,
            )
        else:
            assignment = datanet.schedule(sub_id)

        log = AttemptLog()
        blacklist = NodeBlacklist(self.retry.blacklist_after)
        with self.obs.tracer.span(f"selection/{sub_id}", category="phase") as sel_span:
            (
                selection,
                crash_waste,
                rescheduled,
                partition_events,
                deferred_blocks,
                restarts_survived,
                resume_wasted,
            ) = self._selection_with_recovery(
                dataset, sub_id, assignment, job.profile, datanet, log, blacklist,
                verifier,
                hedged=hedged,
                coded=coded,
                health=health,
                deferred0=deferred0,
            )
            sel_span.sim(0.0, selection.makespan)
        # Background scrub: repair rot the read path never touched (replicas
        # of unselected blocks, or copies a task skipped over).  Off the job
        # clock, like HDFS's block scanner.  Repair sources prefer the
        # healthiest verified holders when the detector ran.
        scrub = Scrubber(
            self.cluster, failures=self.failures, health=health, obs=self.obs
        ).scrub(dataset.name)
        if coded is not None:
            from ..hdfs.coded import fragment_health

            census = fragment_health(
                self.cluster, dataset.name, failures=self.failures
            )
            with self.obs.tracer.span(
                f"fragment-health/{dataset.name}", category="scrub"
            ) as fh_span:
                fh_span.set(**census)
            if self.obs.metrics.enabled:
                g = self.obs.metrics.gauge(
                    "coded_fragment_health",
                    help="post-run fragment census of the coded dataset",
                    labelnames=("state",),
                )
                for state, count in census.items():
                    g.set(count, state=state)
        analysis = self.engine.run_analysis(
            job, selection.local_data, start_time=selection.makespan
        )
        analysis.selection = selection
        coded_detected = coded.detected if coded is not None else 0
        coded_repaired = coded.repaired if coded is not None else 0
        integrity = IntegritySummary(
            corruptions_injected=injected,
            corruptions_detected=(
                verifier.detected + scrub.corrupt_found + coded_detected
            ),
            corruptions_repaired=verifier.repaired + scrub.repaired + coded_repaired,
            scrubbed_replicas=scrub.replicas_scanned,
            scrub_bytes=scrub.bytes_scanned,
            stale_entries=len(stale),
            rebuilt_blocks=len(validation.rebuilt),
            driver_restarts=restarts_survived,
            resume_wasted_seconds=resume_wasted,
        )
        reconstructions = (
            len(self.failures.reconstructions)
            + scrub.reconstructed
            + (len(coded.events) if coded is not None else 0)
        )
        reconstructed_bytes = self.failures.bytes_reconstructed() + (
            (scrub.repaired_bytes + coded.repaired_bytes)
            if coded is not None
            else 0
        )
        decode_bytes = (
            self.failures.decode_bytes_read()
            + scrub.decode_bytes
            + (coded.decoded_bytes if coded is not None else 0)
        )
        report = ChaosReport(
            job=analysis,
            baseline=baseline,
            plan=self.plan,
            attempts_histogram=log.histogram(),
            wasted_seconds=log.wasted_seconds + crash_waste,
            re_replicated_bytes=self.failures.bytes_re_replicated(),
            dead_nodes=self.failures.dead_nodes,
            blacklisted_nodes=blacklist.nodes,
            degraded_blocks=degraded,
            rescheduled_blocks=sorted(set(rescheduled)),
            integrity=integrity,
            partition_events=partition_events,
            deferred_blocks=deferred_blocks,
            hedged_reads=(
                coded.hedges_issued
                if coded is not None
                else hedged.hedges_issued if hedged is not None else 0
            ),
            hedges_won=(
                coded.hedges_won
                if coded is not None
                else hedged.hedges_won if hedged is not None else 0
            ),
            hedge_wasted_seconds=(
                coded.wasted_seconds
                if coded is not None
                else hedged.wasted_seconds if hedged is not None else 0.0
            ),
            health=dict(health) if health is not None else {},
            reconstructions=reconstructions,
            reconstructed_bytes=reconstructed_bytes,
            decode_bytes=decode_bytes,
            degraded_reads=coded.degraded_reads if coded is not None else 0,
            quarantined_blocks=(
                (len(coded.quarantined) if coded is not None else 0)
                + len(self.failures.quarantined)
            ),
        )
        if self.obs.metrics.enabled:
            m = self.obs.metrics
            m.counter("node_crashes_total", help="planned node deaths applied").inc(
                len(report.dead_nodes)
            )
            m.counter(
                "rescheduled_blocks_total",
                help="selection tasks re-routed after crashes",
            ).inc(len(report.rescheduled_blocks))
            m.counter(
                "re_replicated_bytes_total",
                help="bytes HDFS copied to restore replication",
            ).inc(report.re_replicated_bytes)
            m.counter(
                "wasted_seconds_total",
                help="simulated seconds burned by failed or lost attempts",
            ).inc(report.wasted_seconds)
            m.counter(
                "partition_events_total", help="network partitions applied"
            ).inc(report.partition_events)
            m.counter(
                "deferred_blocks_total",
                help="blocks that waited for a partition cut to heal",
            ).inc(len(report.deferred_blocks))
            if report.reconstructions or report.decode_bytes:
                m.counter(
                    "fragment_reconstructions_total",
                    help="coded fragments rebuilt from parity",
                ).inc(report.reconstructions)
                m.counter(
                    "reconstructed_bytes_total",
                    help="fragment bytes written by parity rebuilds",
                ).inc(report.reconstructed_bytes)
                m.counter(
                    "decode_bytes_total",
                    help="stripe bytes fed through the GF(256) decoder",
                ).inc(report.decode_bytes)
        return report

    # -- integrity fault application ----------------------------------------------

    def _tamper_stale_entries(
        self, datanet: DataNet, dataset: DatasetView
    ) -> List[int]:
        """Apply the plan's ``StaleMetadata`` faults to the live array.

        Models metadata written against an older version of the block:
        the recorded sub-dataset sizes are off and the stored fingerprint
        no longer matches the block content, which is exactly what
        validation quarantines on.
        """
        stale = self.injector.stale_blocks()
        if not stale:
            return []
        known = set(datanet.elasticmap.block_ids)
        unknown = [b for b in stale if b not in known]
        if unknown:
            raise ConfigError(f"plan stales unknown blocks {unknown[:5]}")
        for block_id in stale:
            old = datanet.elasticmap.remove_block(block_id)
            halved = {sid: max(1, size // 2) for sid, size in old.hash_map.items()}
            datanet.elasticmap.add_block(
                BlockElasticMap(
                    block_id,
                    halved,
                    old.bloom,
                    delta=old.delta,
                    memory_model=old.memory_model,
                    fingerprint=dataset.block_fingerprint(block_id) ^ 1,
                )
            )
        return stale

    def _inject_bit_rots(self, dataset: DatasetView) -> int:
        """Corrupt the planned replicas; returns how many were rotted.

        Rot is latent — planted now, noticed only when a verified read or
        the scrub touches the replica.  A plan may name a node that holds
        no replica of the block (placement is seeded and callers cannot
        know it); such rots fall back to the block's first replica, so a
        plan always corrupts *something* deterministically.
        """
        placement = dataset.placement()
        applied: set = set()
        for rot in self.injector.bit_rots_chronological():
            if rot.block not in placement:
                raise ConfigError(
                    f"plan rots unknown block {rot.block} of {dataset.name!r}"
                )
            replicas = placement[rot.block]
            node = rot.node if rot.node in replicas else replicas[0]
            if (node, rot.block) in applied:
                continue  # two fallbacks collapsed onto the same replica
            self.cluster.corrupt_replica(dataset.name, node, rot.block)
            applied.add((node, rot.block))
        return len(applied)

    # -- fault-tolerant selection -------------------------------------------------

    def _selection_with_recovery(
        self,
        dataset: DatasetView,
        sub_id: str,
        assignment: Assignment,
        profile,
        datanet: DataNet,
        log: AttemptLog,
        blacklist: NodeBlacklist,
        verifier: Optional[ReadVerifier] = None,
        *,
        hedged=None,
        coded=None,
        health: Optional[Dict[NodeId, float]] = None,
        deferred0: Optional[List[int]] = None,
    ) -> Tuple[SelectionResult, float, List[int], int, List[int], int, float]:
        """Drive selection to completion through crashes, cuts, retries and
        driver restarts.

        Crashes and partition start/heal events form one chronological
        list; between consecutive events every node drains its queue up to
        the boundary.  Driver restarts are charged inside the drain (see
        :class:`~repro.faults.plan.DriverRestart`).  Returns ``(selection,
        crash_wasted_seconds, rescheduled_blocks, partition_events,
        deferred_blocks, driver_restarts, resume_wasted_seconds)``.
        """
        injector, policy = self.injector, self.retry
        partitions = (
            injector.partitions_chronological() if self.plan.partitions else []
        )
        # block → holders a read must reach: k for coded blocks, 1 otherwise
        needed = dataset.fragments_needed()
        clock: Dict[NodeId, float] = {n: 0.0 for n in dataset.nodes}
        pending: Dict[NodeId, List[int]] = {n: [] for n in dataset.nodes}
        # node -> bid -> (records, attempts so far); insertion order = completion order
        outputs: Dict[NodeId, Dict[int, List[Record]]] = {n: {} for n in dataset.nodes}
        spans: Dict[NodeId, List[Tuple[float, float, int]]] = {n: [] for n in dataset.nodes}
        attempts_used: Dict[int, int] = {}
        blocks_read = 0
        bytes_read = 0
        crash_waste = 0.0
        rescheduled: List[int] = []
        deferred: List[int] = list(deferred0 or [])
        deferred_seen: Set[int] = set(deferred)
        active_cut: Set[NodeId] = set()
        partition_events = 0
        # per-node future cut times, for in-flight rollback at a cut
        cut_starts: Dict[NodeId, List[float]] = {
            n: sorted(p.start for p in partitions if n in p.nodes) for n in clock
        }

        for node, bids in assignment.blocks_by_node.items():
            pending[node] = list(bids)

        # Restarts never meet crashes or cuts (FaultPlan.validate_targets):
        # each node drains its assigned queue once, in order, so the block
        # it is about to run is wave len(outputs[node]).
        num_waves = max(map(len, assignment.blocks_by_node.values()), default=0)
        restarts = {
            r.wave: r for r in injector.driver_restarts() if r.wave < num_waves
        }
        # wave -> node -> work lost to that wave's restart
        restart_losses: Dict[int, Dict[NodeId, float]] = {w: {} for w in restarts}

        tracer = self.obs.tracer

        # one chronological event list; at equal times heals apply first
        # (nodes rejoin before anything else), then crashes, then cuts
        events: List[Tuple[float, int, int, str, object]] = []
        for i, p in enumerate(partitions):
            events.append((p.heals_at, 0, i, "pheal", p))
            events.append((p.start, 2, i, "pstart", p))
        for j, crash in enumerate(injector.crashes_chronological()):
            events.append((crash.time, 1, j, "crash", crash))
        events.sort(key=lambda e: e[:3])

        def rollback(node: NodeId, bid: int, first_attempt: int, start: float,
                     doom: float, outcome: str, checkpoint: int, trace_mark) -> None:
            """Undo an attempt that straddles the node's crash/cut time."""
            del log.records[checkpoint:]
            tracer.discard_from(trace_mark)
            log.record(
                f"sel/{dataset.name}/{bid}", node, first_attempt, outcome,
                doom - start,
            )
            if tracer.enabled:
                tracer.record(
                    f"sel/{dataset.name}/{bid}#a{first_attempt}",
                    category="attempt",
                    sim_start=start,
                    sim_end=doom,
                    track=f"node {node}",
                    outcome=outcome,
                )
            attempts_used[bid] = first_attempt
            clock[node] = doom

        def drain(node: NodeId, stop: Optional[float]) -> None:
            """Run a node's queue until empty, a boundary, or its doom."""
            nonlocal blocks_read, bytes_read
            if node in active_cut:
                return
            crash_at = injector.crash_time(node)
            placement = dataset.placement()
            queue = pending[node]
            while queue:
                if stop is not None and clock[node] >= stop:
                    break
                if crash_at is not None and clock[node] >= crash_at:
                    break  # the rest dies with the node
                bid = queue.pop(0)
                if active_cut:
                    reachable = [
                        r
                        for r in placement[bid]
                        if r not in active_cut and self.failures.is_alive(r)
                    ]
                    if len(reachable) < needed.get(bid, 1):
                        # too few holders on this side of the cut (every
                        # replica, or — coded — more than m fragments):
                        # park the block until the partition heals
                        deferred.append(bid)
                        deferred_seen.add(bid)
                        continue
                else:
                    reachable = list(placement[bid])
                restart = restarts.get(len(outputs[node]))
                if restart is not None:
                    # the driver died during this block: its lost share is
                    # priced with no reader, so the estimate has no side
                    # effects; the block then reruns from attempt 1
                    lost = restart.waste_fraction * self.engine.selection_task_cost(
                        dataset, sub_id, placement, node, bid, profile
                    )[0]
                    restart_losses[restart.wave][node] = lost
                    clock[node] += lost
                    clock[node] += restart.restart_delay_s
                base, matched, nbytes = self.engine.selection_task_cost(
                    dataset, sub_id, placement, node, bid, profile,
                    verify=verifier if hedged is None and coded is None else None,
                    hedge=hedged,
                    coded=coded,
                    when=clock[node],
                    replicas=reachable,
                )
                first_attempt = attempts_used.get(bid, 0) + 1
                checkpoint = len(log.records)
                trace_mark = tracer.mark()
                elapsed, used = run_attempts(
                    base,
                    node,
                    f"sel/{dataset.name}/{bid}",
                    injector,
                    policy,
                    log,
                    blacklist,
                    start_time=clock[node],
                    first_attempt=first_attempt,
                    obs=self.obs,
                )
                start = clock[node]
                end = start + elapsed
                cut_at = next((t for t in cut_starts[node] if t > start), None)
                doom: Optional[float] = None
                outcome = "crash"
                if crash_at is not None and end > crash_at:
                    doom = crash_at
                if cut_at is not None and end > cut_at and (
                    doom is None or cut_at < doom
                ):
                    doom, outcome = cut_at, "partition"
                if doom is not None:
                    # the attempt churn straddles the crash/cut: roll the
                    # ledger back and charge a single loss instead.
                    rollback(
                        node, bid, first_attempt, start, doom, outcome,
                        checkpoint, trace_mark,
                    )
                    queue.insert(0, bid)
                    break
                attempts_used[bid] = first_attempt + used - 1
                clock[node] = end
                spans[node].append((start, end, bid))
                outputs[node][bid] = matched
                blocks_read += 1
                bytes_read += nbytes
            if not queue:
                # restarts after the node's last block cost the delay only
                for wave, restart in restarts.items():
                    if wave >= len(outputs[node]):
                        clock[node] += restart.restart_delay_s

        def discard_node_work(node: NodeId, at: float, outcome: str) -> List[int]:
            """Crash-style loss: everything the node produced or owed."""
            nonlocal crash_waste
            lost = sorted(set(outputs[node]) | set(pending[node]))
            busy = sum(
                max(0.0, min(end, at) - min(start, at))
                for start, end, _bid in spans[node]
            )
            crash_waste += busy
            for bid in sorted(outputs[node]):
                attempts_used[bid] = attempts_used.get(bid, 0) + 1
                log.record(
                    f"sel/{dataset.name}/{bid}", node, attempts_used[bid],
                    outcome, 0.0,
                )
                if tracer.enabled:
                    tracer.record(
                        f"sel/{dataset.name}/{bid}#a{attempts_used[bid]}",
                        category="attempt",
                        sim_start=at,
                        sim_end=at,
                        track=f"node {node}",
                        outcome=outcome,
                    )
            outputs[node] = {}
            pending[node] = []
            spans[node] = []
            return lost

        def dispatch(lost: List[int], detection: float) -> None:
            """Requeue lost blocks on reachable holders; defer stranded ones."""
            placement = dataset.placement()
            dead = set(self.failures.dead_nodes)
            ready = [
                b
                for b in lost
                if sum(
                    1
                    for r in placement[b]
                    if r not in dead and r not in active_cut
                )
                >= needed.get(b, 1)
            ]
            stranded = set(lost) - set(ready)
            for b in sorted(stranded):
                deferred.append(b)
                deferred_seen.add(b)
            if not ready:
                return
            recovery = self._reschedule(
                ready, dataset, sub_id, datanet, blacklist,
                unreachable=sorted(active_cut, key=repr),
                health=health,
            )
            for node, bids in recovery.blocks_by_node.items():
                if not bids:
                    continue
                pending[node].extend(bids)
                clock[node] = max(clock[node], detection)
            rescheduled.extend(ready)

        ei = 0
        round_no = 0
        while True:
            boundary = events[ei][0] if ei < len(events) else None
            with tracer.span(f"recovery-round-{round_no}", category="wave") as rnd:
                round_start = min(clock.values(), default=0.0)
                for node in sorted(clock, key=repr):
                    drain(node, boundary)
                rnd.sim(round_start, max(clock.values(), default=round_start))
            round_no += 1
            if ei >= len(events):
                break
            etime, _rank, _idx, kind, payload = events[ei]
            ei += 1
            if kind == "crash":
                victim = payload.node
                # HDFS notices the death and restores replication
                self.failures.fail_node(victim)
                active_cut.discard(victim)  # dead trumps cut
                lost = discard_node_work(victim, etime, "crash")
                if lost:
                    dispatch(lost, etime + policy.heartbeat_timeout_s)
            elif kind == "pstart":
                partition_events += 1
                joining = [
                    n
                    for n in payload.sorted_nodes()
                    if n in clock and self.failures.is_alive(n)
                ]
                active_cut.update(joining)
                lost_all: List[int] = []
                for member in joining:
                    lost_all.extend(
                        discard_node_work(member, etime, "partition")
                    )
                if lost_all:
                    dispatch(
                        sorted(set(lost_all)),
                        etime + policy.heartbeat_timeout_s,
                    )
            else:  # pheal — the cut side rejoins, intact but idle since the cut
                for member in payload.sorted_nodes():
                    if member not in clock:
                        continue
                    active_cut.discard(member)
                    clock[member] = max(clock[member], etime)
                if deferred:
                    batch = sorted(set(deferred))
                    deferred.clear()
                    dispatch(batch, etime)

        if deferred:  # pragma: no cover - every partition heals by construction
            raise FaultError(
                f"blocks never became reachable: {sorted(set(deferred))[:5]}"
            )
        resume_wasted = 0.0
        for k, (wave, losses) in enumerate(restart_losses.items(), 1):
            wasted = sum(losses[n] for n in sorted(losses, key=repr))
            resume_wasted += wasted
            if tracer.enabled:
                tracer.record(
                    f"driver-restart-{k}", category="restart", wave=wave, wasted_s=wasted
                )
        if restarts and self.obs.metrics.enabled:
            self.obs.metrics.counter(
                "driver_restarts_total", help="driver deaths survived"
            ).inc(len(restarts))

        local_data: Dict[NodeId, List[Record]] = {}
        bytes_per_node: Dict[NodeId, int] = {}
        node_times: Dict[NodeId, float] = {}
        assigned_nodes = set(assignment.blocks_by_node)
        for node in sorted(clock, key=repr):
            if not self.failures.is_alive(node):
                continue
            if node not in assigned_nodes and not outputs[node]:
                continue
            records: List[Record] = []
            for bid in outputs[node]:
                records.extend(outputs[node][bid])
            local_data[node] = records
            bytes_per_node[node] = sum(r.nbytes for r in records)
            node_times[node] = clock[node]
        selection = SelectionResult(
            local_data=local_data,
            timing=PhaseResult(node_times),
            bytes_per_node=bytes_per_node,
            blocks_read=blocks_read,
            bytes_read=bytes_read,
        )
        return (
            selection,
            crash_waste,
            rescheduled,
            partition_events,
            sorted(deferred_seen),
            len(restarts),
            resume_wasted,
        )

    def _reschedule(
        self,
        blocks: List[int],
        dataset: DatasetView,
        sub_id: str,
        datanet: DataNet,
        blacklist: NodeBlacklist,
        *,
        unreachable: Sequence[NodeId] = (),
        health: Optional[Dict[NodeId, float]] = None,
    ) -> Assignment:
        """Balance the lost blocks over live, reachable, non-benched nodes.

        The DataNet placement is refreshed from the NameNode first, so the
        rebuilt bipartite graph reflects post-re-replication replica
        locations and never references a dead node.  Nodes behind an
        active partition cut are excluded outright; health scores (when a
        detector ran) weight the remaining capacities.
        """
        datanet.refresh_placement(dataset.placement())
        cut = set(unreachable)
        exclude = set(self.failures.dead_nodes) | set(blacklist.nodes) | cut
        if exclude >= set(dataset.nodes):
            raise FaultError("no live nodes remain to recover onto")
        try:
            graph = datanet.bipartite_graph(
                sub_id, only_blocks=blocks, exclude=sorted(exclude, key=repr)
            )
        except ConfigError:
            # a block's only live replicas sit on blacklisted nodes:
            # relax the blacklist rather than fail the job (the cut and
            # the dead stay excluded — they are unreachable, not benched)
            graph = datanet.bipartite_graph(
                sub_id,
                only_blocks=blocks,
                exclude=sorted(set(self.failures.dead_nodes) | cut, key=repr),
            )
        capacities = None
        if health:
            capacities = {
                n: max(MIN_HEALTH_CAPACITY, float(health.get(n, 1.0)))
                for n in graph.nodes
            }
        return DistributionAwareScheduler(capacities).schedule(graph)
