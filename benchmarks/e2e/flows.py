"""The four benchmark workloads, each one rep in the calling interpreter.

Every flow takes the workload seed, times its own set-up and run phases
with a wall clock, checks its outputs outside the timed phases, and
returns plain JSON-able measurements.  Flows import ``repro`` at module
level, so a child process pays for imports before any clock starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from collections import Counter
from typing import Callable, Dict, List, Sequence

import numpy as np

import repro.cli
from repro.core.datanet import DataNet
from repro.experiments.config import ReferenceConfig
from repro.faults.runner import ChaosRunner
from repro.hdfs.cluster import HDFSCluster
from repro.mapreduce.apps import histogram_job, moving_average_job, top_k_search_job, word_count_job
from repro.mapreduce.engine import MapReduceEngine
from repro.serve import DrillConfig, build_drill
from repro.workloads.clustering import GammaArrivalModel
from repro.workloads.movielens import MovieLensGenerator

__all__ = ["WORKLOADS", "ORACLES", "session_targets"]

clock = time.perf_counter

SESSION_QUERIES = 120
SESSION_BATCHES = 12  # one ingest after every tenth query


def session_targets(ranked: Sequence[str], n: int, rng: np.random.Generator) -> List[str]:
    """``n`` query targets drawn Zipf(s=1) over ``ranked`` (most popular first).

    The draw is stratified: one uniform per ``1/n`` slice of the CDF, so
    every seed queries the same mix of hot and cold ranks and run time
    depends on the seed's data, not on how many head draws it got.  The
    strata go in groups of four consecutive ranks; each group's members
    are shuffled over the four apps (query ``i`` runs app ``i % 4``) and
    the groups are shuffled in time, so each app sees every part of the
    popularity curve.
    """
    if n % 4:
        raise ValueError("the query count must be a multiple of the four apps")
    weights = 1.0 / np.arange(1, len(ranked) + 1)
    cdf = np.cumsum(weights) / weights.sum()
    u = (np.arange(n) + rng.random(n)) / n
    ranks = np.minimum(np.searchsorted(cdf, u, side="right"), len(ranked) - 1)
    groups = ranks.reshape(-1, 4)
    plan: List[str] = []
    for g in rng.permutation(len(groups)):
        plan.extend(ranked[r] for r in groups[g][rng.permutation(4)])
    return plan


def _sizes(records) -> Counter:
    sizes: Counter = Counter()
    for r in records:
        sizes[r.sub_id] += r.nbytes
    return sizes


def _handled(counts: Counter, targets: Sequence[str]) -> int:
    """Records a flow handles: every record stored, plus each queried
    sub-dataset's records once per query.  Dividing wall time by this
    keeps the throughput steady across seeds, whose data sizes differ."""
    return sum(counts.values()) + sum(counts[t] for t in targets)


def _counts(dataset) -> Counter:
    return Counter(r.sub_id for block in dataset.blocks() for r in block.records())


def analyst_session(seed: int) -> Dict[str, object]:
    """Reference dataset, then a closed loop of queries with streaming ingests."""
    cfg = ReferenceConfig(seed=seed)
    t0 = clock()
    rng = np.random.default_rng(seed)
    cluster = HDFSCluster(
        num_nodes=cfg.num_nodes, block_size=cfg.block_size, replication=cfg.replication, rng=rng
    )
    records = MovieLensGenerator(
        num_movies=cfg.num_movies,
        total_reviews=cfg.total_reviews,
        duration_days=cfg.duration_days,
        zipf_s=cfg.zipf_s,
        arrival=GammaArrivalModel(cfg.gamma_k, cfg.gamma_theta),
        rng=rng,
    ).generate()
    held = len(records) // 10
    initial, tail = records[:-held], records[-held:]
    step = -(-held // SESSION_BATCHES)
    batches = [tail[i : i + step] for i in range(0, held, step)]
    dataset = cluster.write_dataset("movielens", initial)
    datanet = DataNet.build(dataset, alpha=cfg.alpha, spec=cfg.bucket_spec())
    engine = MapReduceEngine(cluster, cfg.cost_model())
    setup_s = clock() - t0

    counts = Counter(r.sub_id for r in records)
    ranked = sorted(counts, key=lambda sid: (-counts[sid], sid))
    targets = session_targets(ranked, SESSION_QUERIES, np.random.default_rng([seed, 1]))
    jobs = [
        moving_average_job(window_days=7.0, num_reducers=8),
        word_count_job(num_reducers=8),
        histogram_job(num_reducers=8),
        top_k_search_job(cfg.topk_query, k=10),
    ]
    query_ms: List[float] = []
    ingest_ms: List[float] = []
    observed = []  # (target, batches ingested before the query, selected bytes)
    failed = 0
    sim_time = 0.0
    imbalances: List[float] = []
    for i, sid in enumerate(targets):
        t = clock()
        assignment = datanet.schedule(sid, skip_absent=False)
        result = engine.run_job(dataset, sid, jobs[i % 4], assignment)
        query_ms.append((clock() - t) * 1e3)
        assigned = sorted(b for blocks in assignment.blocks_by_node.values() for b in blocks)
        if assigned != sorted(dataset.block_ids):
            failed += 1
        per_node = [result.selection.bytes_per_node.get(n, 0) for n in cluster.nodes]
        observed.append((sid, len(ingest_ms), sum(per_node)))
        sim_time += result.total_time
        if sum(per_node):
            imbalances.append(max(per_node) * len(per_node) / sum(per_node))
        if (i + 1) % (SESSION_QUERIES // SESSION_BATCHES) == 0:
            before = dataset.num_blocks
            t = clock()
            cluster.append_records("movielens", batches[len(ingest_ms)])
            added = datanet.extend(dataset)
            ingest_ms.append((clock() - t) * 1e3)
            if added != dataset.num_blocks - before:
                failed += 1

    # Ground truth from one pass over the generated records.
    truth = [_sizes(initial)]
    for batch in batches:
        truth.append(truth[-1] + _sizes(batch))
    failed += sum(1 for sid, k, got in observed if got != truth[k][sid])
    run_s = (sum(query_ms) + sum(ingest_ms)) / 1e3
    return {
        "records": _handled(counts, targets),
        "setup_s": setup_s,
        "run_s": run_s,
        "wall_s": setup_s + run_s,
        "query_ms": query_ms,
        "ingest_ms": ingest_ms,
        "sim_time_s": sim_time,
        "imbalance": sum(imbalances) / len(imbalances),
        "attempted": len(targets) + len(batches),
        "failed": failed,
        "refused": 0,
        "repeat_share": 1.0 - len(set(targets)) / len(targets),
        "digest": "",
    }


CHAOS_ARGS = ["chaos", "-n", "40000", "-k", "300", "--kill", "2@0.5", "--flaky", "0.1"]


def chaos_recovery(seed: int) -> Dict[str, object]:
    """``repro chaos`` in process; set-up ends where ``ChaosRunner.run`` starts."""
    inner = ChaosRunner.run
    marks: Dict[str, object] = {}

    def timestamped(self, dataset, sub_id, job):
        marks["enter"] = clock()
        report = inner(self, dataset, sub_id, job)
        marks["exit"] = clock()
        marks.update(dataset=dataset, sub_id=sub_id, makespan=report.makespan)
        return report

    ChaosRunner.run = timestamped
    out = io.StringIO()
    try:
        t0 = clock()
        with contextlib.redirect_stdout(out):
            code = repro.cli.main(CHAOS_ARGS + ["--seed", str(seed)])
        wall_s = clock() - t0
    finally:
        ChaosRunner.run = inner
    return {
        "records": _handled(_counts(marks["dataset"]), [marks["sub_id"]]),
        "setup_s": marks["enter"] - t0,
        "run_s": marks["exit"] - marks["enter"],
        "wall_s": wall_s,
        "sim_time_s": marks["makespan"],
        "attempted": 1,
        "failed": int(code != 0),
        "refused": 0,
        "repeat_share": 0.0,
        "digest": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }


def _drill(config: DrillConfig) -> Dict[str, object]:
    t0 = clock()
    setup = build_drill(config)
    t1 = clock()
    summary = setup.service.run(setup.requests, setup.appends)
    t2 = clock()
    targets = [r.sub_id for r in setup.requests]
    return {
        "records": _handled(_counts(setup.service.cluster.dataset("movielens")), targets),
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "wall_s": t2 - t0,
        "sim_time_s": summary.makespan,
        "attempted": summary.submitted,
        "failed": 0,
        "refused": summary.rejected_total + summary.cancelled_deadline + summary.cancelled_timeout,
        "repeat_share": 1.0 - len(set(targets)) / len(targets),
        "digest": f"{summary.results_digest}/{summary.metadata_digest}",
    }


DRILLS = {
    "serve-mixed": dict(
        jobs=120, append_batches=4, crash=True, meta_down=True, partition=True
    ),
    "serve-failover": dict(
        jobs=60,
        append_batches=6,
        journal_replicas=5,
        leader_crash=True,
        journal_crash=True,
        meta_partition=True,
    ),
}

WORKLOADS: Dict[str, Callable[[int], Dict[str, object]]] = {
    "analyst-session": analyst_session,
    "chaos-recovery": chaos_recovery,
    **{
        name: (lambda seed, knobs=knobs: _drill(DrillConfig(seed=seed, **knobs)))
        for name, knobs in DRILLS.items()
    },
}

#: The fault-free drills whose digests the faulty ones must reproduce.
ORACLES: Dict[str, Callable[[int], Dict[str, object]]] = {
    name: (
        lambda seed, knobs=knobs: _drill(
            DrillConfig(seed=seed, jobs=knobs["jobs"], append_batches=knobs["append_batches"])
        )
    )
    for name, knobs in DRILLS.items()
}
