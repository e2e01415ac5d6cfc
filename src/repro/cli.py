"""Command-line interface.

Usage (after ``pip install -e .``)::

    repro info                        # what this is
    repro experiment fig5             # regenerate one paper figure/table
    repro experiment all --small      # regenerate everything, fast variant
    repro generate movielens -n 50000 -o reviews.tsv
    repro index reviews.tsv --alpha 0.3 --query movie-00000
    repro theory                      # Section II-B curves

``python -m repro ...`` works identically.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .errors import ReproError

__all__ = ["main", "build_parser"]

#: Experiment id → lazy runner returning a formatted string.
EXPERIMENTS: Dict[str, str] = {
    "fig1": "Figure 1 — content clustering & imbalance (motivation)",
    "fig2": "Figure 2 — extreme-workload probability vs cluster size",
    "table1": "Table I — per-block sub-dataset size map",
    "fig5": "Figure 5 — overall with/without DataNet comparison",
    "fig6": "Figure 6 — map execution time distributions",
    "fig7": "Figure 7 — shuffle phase comparison",
    "fig8": "Figure 8 — GitHub events experiment",
    "table2": "Table II — ElasticMap memory/accuracy trade-off",
    "fig9": "Figure 9 — per-sub-dataset estimate accuracy",
    "fig10": "Figure 10 — balance vs alpha",
    "migration": "Section V-A.4 — dynamic rebalance baseline",
    "rebalance": "Extension — background annealed rebalance, three-way comparison",
    "scaling": "Extension — imbalance vs cluster size (theory, end to end)",
    "hetero": "Extension — capacity-aware scheduling on a mixed cluster",
    "concurrent": "Extension — four jobs sharing the cluster (event-driven sim)",
    "skew": "Related work — LIBRA reducer-skew sampling is orthogonal to DataNet",
    "ablations": "Design ablations (buckets/schedulers/I-O/bloom/aggregation)",
}


def _run_experiment(exp_id: str, small: bool) -> str:
    """Dispatch one experiment id to its driver and return the report."""
    from .experiments.config import ReferenceConfig

    cfg = ReferenceConfig.small() if small else ReferenceConfig()
    if exp_id == "fig1":
        from .experiments.fig1 import run_fig1

        return run_fig1(cfg).format()
    if exp_id == "fig2":
        from .experiments.fig2 import run_fig2

        return run_fig2(mc_trials=200).format()
    if exp_id == "table1":
        from .experiments.table1 import run_table1

        return run_table1(cfg).format()
    if exp_id == "fig5":
        from .experiments.fig5 import run_fig5

        return run_fig5(cfg).format()
    if exp_id == "fig6":
        from .experiments.fig6 import run_fig6

        return run_fig6(cfg).format()
    if exp_id == "fig7":
        from .experiments.fig7 import run_fig7

        return run_fig7(cfg).format()
    if exp_id == "fig8":
        from .experiments.fig8 import run_fig8

        return run_fig8(cfg).format()
    if exp_id == "table2":
        from .experiments.table2 import run_table2

        return run_table2(cfg).format()
    if exp_id == "fig9":
        from .experiments.fig9 import run_fig9

        return run_fig9(cfg).format()
    if exp_id == "fig10":
        from .experiments.fig10 import run_fig10

        return run_fig10(cfg).format()
    if exp_id == "migration":
        from .experiments.migration import run_migration

        return run_migration(cfg).format()
    if exp_id == "rebalance":
        from .experiments.rebalance import run_rebalance_comparison

        iters = 6000 if small else 2000
        parts = [
            run_rebalance_comparison(cfg, workload=wl, iterations=iters).format()
            for wl in ("movielens", "github_events")
        ]
        return "\n\n".join(parts)
    if exp_id == "scaling":
        from .experiments.scaling import run_scaling

        sizes = (4, 8, 16) if small else (8, 16, 32, 64)
        return run_scaling(cfg, cluster_sizes=sizes).format()
    if exp_id == "hetero":
        from .experiments.heterogeneous import run_heterogeneous

        return run_heterogeneous(cfg).format()
    if exp_id == "concurrent":
        from .experiments.concurrent import run_concurrent

        return run_concurrent(cfg).format()
    if exp_id == "skew":
        from .experiments.reducer_skew import run_reducer_skew

        return run_reducer_skew(cfg).format()
    if exp_id == "ablations":
        from .experiments import ablations

        parts = [
            ablations.run_bucket_ablation(cfg).format(),
            ablations.run_tail_store_ablation(cfg).format(),
            ablations.run_scheduler_ablation(cfg).format(),
            ablations.run_io_skip_ablation(cfg).format(),
            ablations.run_bloom_eps_ablation(cfg).format(),
            ablations.run_aggregation_ablation(cfg).format(),
            ablations.run_speculation_ablation(cfg).format(),
        ]
        return "\n\n".join(parts)
    raise ReproError(f"unknown experiment id {exp_id!r}")


# -- subcommand handlers -------------------------------------------------------


def _cmd_info(args: argparse.Namespace) -> int:
    print(
        f"repro {__version__} — reproduction of 'DataNet: A Data "
        "Distribution-aware Method for Sub-dataset Analysis on Distributed "
        "File Systems' (IPDPS 2016).\n"
        "Experiments available via `repro experiment <id>`:"
    )
    for exp_id, desc in EXPERIMENTS.items():
        print(f"  {exp_id:<10} {desc}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    targets: List[str] = (
        list(EXPERIMENTS) if args.id == "all" else [args.id]
    )
    for exp_id in targets:
        report = _run_experiment(exp_id, args.small)
        print(report)
        print()
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{exp_id}.txt").write_text(report + "\n", encoding="utf-8")
    return 0


def _generate_records(workload: str, num_records: int, keys: int, rng) -> list:
    """Generate one of the three reference workload families."""
    if workload == "movielens":
        from .workloads import MovieLensGenerator

        return MovieLensGenerator(
            num_movies=keys, total_reviews=num_records, rng=rng
        ).generate()
    if workload == "github":
        from .workloads import GitHubEventsGenerator

        return GitHubEventsGenerator(num_records, rng=rng).generate()
    if workload == "worldcup":
        from .workloads import WorldCupGenerator

        return WorldCupGenerator(
            num_matches=max(keys, 1), total_requests=num_records, rng=rng
        ).generate()
    raise ReproError(f"unknown workload {workload!r}")


def _cmd_generate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    records = _generate_records(args.workload, args.records, args.keys, rng)
    with open(args.output, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record.serialize() + "\n")
    print(f"wrote {len(records)} records to {args.output}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from .core.bucketizer import BucketSpec
    from .core.datanet import DataNet
    from .hdfs.cluster import HDFSCluster
    from .hdfs.records import Record
    from .metrics import format_kv
    from .units import format_size, parse_size

    block_size = parse_size(args.block_size)
    records = []
    with open(args.input, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                records.append(Record.deserialize(line))
    cluster = HDFSCluster(
        num_nodes=args.nodes,
        block_size=block_size,
        rng=np.random.default_rng(args.seed),
    )
    dataset = cluster.write_dataset("cli", records)
    datanet = DataNet.build(
        dataset, alpha=args.alpha, spec=BucketSpec.for_block_size(block_size)
    )
    info = {
        "records": len(records),
        "blocks": dataset.num_blocks,
        "data": format_size(dataset.total_bytes),
        "sub-datasets": len(dataset.subdataset_ids()),
        "metadata": format_size(datanet.memory_bytes()),
        "representation ratio": f"{datanet.representation_ratio(dataset.total_bytes):.0f}",
    }
    print(format_kv(info, title=f"ElasticMap over {args.input} (alpha={args.alpha})"))
    if args.save:
        written = datanet.save(args.save)
        print(f"metadata saved to {args.save} ({written} bytes)")
    if args.query:
        est = datanet.estimate_total_size(args.query)
        truth = dataset.subdataset_total_bytes(args.query)
        blocks = datanet.blocks_containing(args.query)
        assignment = datanet.schedule(args.query)
        print()
        print(
            format_kv(
                {
                    "estimate (Eq. 6)": format_size(est),
                    "ground truth": format_size(truth),
                    "blocks holding it": len(blocks),
                    "balanced max/mean": f"{assignment.imbalance:.2f}",
                },
                title=f"sub-dataset {args.query!r}",
            )
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .experiments.concurrent import run_concurrent
    from .experiments.config import ReferenceConfig
    from .sim import render_gantt

    cfg = ReferenceConfig.small() if args.small else ReferenceConfig()
    coding = _coding_spec(args.coding, cfg.num_nodes)
    if coding is not None:
        from dataclasses import replace

        cfg = replace(cfg, coding=coding)
    result = run_concurrent(cfg, slots_per_node=args.slots)
    print(result.format())
    nodes = sorted(
        {t.node for t in result.timelines["with"].tasks.values()}, key=repr
    )[: args.rows]
    for method in ("without", "with"):
        print(f"\n=== schedule {method} DataNet ===")
        print(
            render_gantt(
                result.timelines[method], width=args.width, nodes=nodes
            )
        )
    if args.obs:
        # No tracer ran inside the batch; the timeline itself becomes the
        # trace, so the same Gantt data opens in Perfetto.
        _write_obs_artifacts(args.obs, timeline=result.timelines["with"])
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .theory.planner import plan
    from .units import parse_size

    report = plan(
        num_blocks=args.blocks,
        subdatasets_per_block=args.subdatasets,
        target_nodes=args.nodes,
        metadata_budget_bytes=float(parse_size(args.budget)),
        gamma_k=args.gamma_k,
        gamma_theta=args.gamma_theta,
    )
    print(report.format())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .core.datanet import DataNet
    from .metrics import format_kv
    from .units import format_size

    datanet = DataNet.load(args.metadata)
    assignment = datanet.schedule(args.sub_id)
    print(
        format_kv(
            {
                "blocks covered": datanet.num_blocks,
                "blocks holding it": len(datanet.blocks_containing(args.sub_id)),
                "size estimate (Eq. 6)": format_size(
                    datanet.estimate_total_size(args.sub_id)
                ),
                "balanced max/mean": f"{assignment.imbalance:.2f}",
                "locality": f"{assignment.locality_fraction:.0%}",
            },
            title=f"sub-dataset {args.sub_id!r} via {args.metadata}",
        )
    )
    return 0


def _parse_node_at(value: str, what: str) -> tuple:
    """Parse ``NODE@X`` (e.g. ``2@1.5``) into ``(int node, float x)``."""
    node_s, sep, x_s = value.partition("@")
    try:
        if not sep:
            return int(node_s), None
        return int(node_s), float(x_s)
    except ValueError:
        raise ReproError(f"bad --{what} value {value!r}, expected NODE@NUMBER")


def _parse_slow_spec(value: str) -> tuple:
    """Parse ``NODE@FACTOR[:START[-END]]`` into ``(node, factor, start, end)``."""
    head, sep, window = value.partition(":")
    node, factor = _parse_node_at(head, "slow-node")
    if factor is None:
        raise ReproError(
            f"bad --slow-node value {value!r}, expected NODE@FACTOR[:START[-END]]"
        )
    start, end = 0.0, None
    if sep:
        start_s, dash, end_s = window.partition("-")
        try:
            start = float(start_s)
            end = float(end_s) if dash else None
        except ValueError:
            raise ReproError(
                f"bad --slow-node window {window!r}, expected START[-END]"
            )
    return node, factor, start, end


def _parse_link_spec(value: str) -> tuple:
    """Parse ``A-B@LOSS[:LATENCY]`` into ``(a, b, loss, latency_s)``."""
    head, _, rest = value.partition("@")
    a_s, dash, b_s = head.partition("-")
    try:
        if not dash or not rest:
            raise ValueError
        loss_s, colon, lat_s = rest.partition(":")
        return int(a_s), int(b_s), float(loss_s), float(lat_s) if colon else 0.0
    except ValueError:
        raise ReproError(
            f"bad --flaky-link value {value!r}, expected A-B@LOSS[:LATENCY]"
        )


def _parse_partition_spec(value: str) -> tuple:
    """Parse ``rackR@START-HEAL`` or ``N,M@START-HEAL``.

    Returns ``(rack, nodes, start, heals_at)`` with exactly one of
    ``rack``/``nodes`` set, matching ``NetworkPartition``'s scopes.
    """
    scope, sep, window = value.partition("@")
    start_s, dash, heal_s = window.partition("-")
    try:
        if not sep or not dash:
            raise ValueError
        start, heal = float(start_s), float(heal_s)
        if scope.startswith("rack"):
            return int(scope[4:]), (), start, heal
        return None, tuple(int(n) for n in scope.split(",")), start, heal
    except ValueError:
        raise ReproError(
            f"bad --partition value {value!r}, "
            "expected rackR@START-HEAL or N,M@START-HEAL"
        )


def _coding_spec(value, num_nodes: int):
    """Parse and validate a ``--coding k,m`` flag before any data is written.

    Malformed text and infeasible (k, m) (k+m exceeding the node count)
    both fail here with a :class:`~repro.errors.ConfigError` — at parse
    time, not as a placement error mid-run.
    """
    if not value:
        return None
    from .coding import parse_coding, validate_coding

    return validate_coding(parse_coding(value), num_nodes)


def _int_at_least(low: int):
    """argparse type for an integer ``>= low``: a bad count exits 2 while
    the arguments are parsed, before any data is generated."""

    def count(value: str) -> int:
        number = int(value)  # argparse reports a ValueError as "invalid count"
        if number < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {number}")
        return number

    return count


def _parse_node_block(value: str, what: str) -> tuple:
    """Parse ``NODE@BLOCK`` (e.g. ``2@5``) into ``(int node, int block)``."""
    node_s, sep, block_s = value.partition("@")
    try:
        if not sep:
            raise ValueError
        return int(node_s), int(block_s)
    except ValueError:
        raise ReproError(f"bad --{what} value {value!r}, expected NODE@BLOCK")


def _fault_plan(args: argparse.Namespace):
    """Parse every fault flag on ``args`` into one seeded ``FaultPlan``.

    Called before any data is generated, so a malformed spec is rejected
    without paying for the workload.  The plan draws from its own seed,
    never from the generation RNG.  ``repro trace`` takes a subset of
    ``repro chaos``'s fault flags; the ones it lacks inject nothing.
    """
    from .faults import (
        BitRot,
        DriverRestart,
        FaultPlan,
        FlakyLink,
        MetaOutage,
        NetworkPartition,
        NodeCrash,
        SlowNode,
        StaleMetadata,
        TransientFaults,
    )

    def flag(name: str) -> list:
        return getattr(args, name, [])

    crashes = tuple(
        NodeCrash(node, time=0.0 if t is None else t)
        for node, t in (_parse_node_at(v, "kill") for v in args.kill)
    )
    slow = tuple(
        SlowNode(node, factor=2.0 if f is None else f)
        for node, f in (_parse_node_at(v, "slow") for v in args.slow)
    ) + tuple(
        SlowNode(node, factor=f, start=s, end=e)
        for node, f, s, e in (_parse_slow_spec(v) for v in flag("slow_node"))
    )
    links = tuple(
        FlakyLink(a=a, b=b, loss=loss, latency_s=lat)
        for a, b, loss, lat in (_parse_link_spec(v) for v in flag("flaky_link"))
    )
    partitions = tuple(
        NetworkPartition(rack=rack, nodes=nodes, start=s, heals_at=h)
        for rack, nodes, s, h in (_parse_partition_spec(v) for v in flag("partition"))
    )
    # Any non-zero value builds the fault, so its own range check runs.
    transient = TransientFaults(probability=args.flaky) if args.flaky else None
    outages = tuple(MetaOutage(node_id) for node_id in flag("meta_down"))
    bit_rots = tuple(
        BitRot(node, block)
        for node, block in (_parse_node_block(v, "bitrot") for v in args.bitrot)
    )
    stale = tuple(StaleMetadata(block) for block in args.stale)
    restarts = tuple(DriverRestart(wave) for wave in sorted(flag("restart_wave")))
    return FaultPlan(
        seed=args.seed,
        crashes=crashes,
        slow_nodes=slow,
        transient=transient,
        meta_outages=outages,
        bit_rots=bit_rots,
        stale_metadata=stale,
        driver_restarts=restarts,
        flaky_links=links,
        partitions=partitions,
    )


def _largest_subdataset(dataset) -> str:
    """The default target of ``chaos`` and ``trace``: the sub-dataset with
    the most bytes, the smallest id among equals.  One pass over the
    blocks sizes every sub-dataset."""
    sizes = dataset.subdataset_sizes()
    return min(sizes, key=lambda sid: (-sizes[sid], sid))


def _corrupt_replicas(cluster, dataset, rots, corrupt_count, rng, what) -> int:
    """Plant bit rot for the scrub/chaos CLI; returns replicas corrupted.

    Explicit ``NODE@BLOCK`` rots fall back to the block's first replica
    when the named node holds none (placement is seeded; users cannot
    know it).  ``corrupt_count`` rots are drawn from the seeded RNG over
    all replicas, so the same seed corrupts the same copies.
    """
    placement = dataset.placement()
    corrupted = set()
    for value in rots:
        node, block = _parse_node_block(value, what)
        if block not in placement:
            raise ReproError(f"--{what}: dataset has no block {block}")
        replicas = placement[block]
        target = node if node in replicas else replicas[0]
        corrupted.add((target, block))
    if corrupt_count:
        pairs = [(n, b) for b in sorted(placement) for n in placement[b]]
        count = min(corrupt_count, len(pairs))
        for i in sorted(int(j) for j in rng.choice(len(pairs), size=count, replace=False)):
            corrupted.add(pairs[i])
    for node, block in sorted(corrupted, key=lambda p: (p[1], p[0])):
        cluster.corrupt_replica(dataset.name, node, block)
    return len(corrupted)


def _cmd_scrub(args: argparse.Namespace) -> int:
    from .hdfs import Scrubber
    from .hdfs.cluster import HDFSCluster
    from .units import parse_size
    from .workloads import MovieLensGenerator

    rng = np.random.default_rng(args.seed)
    coding = _coding_spec(args.coding, args.nodes)
    records = MovieLensGenerator(
        num_movies=args.keys, total_reviews=args.records, rng=rng
    ).generate()
    cluster = HDFSCluster(
        num_nodes=args.nodes, block_size=parse_size(args.block_size), rng=rng,
        coding=coding,
    )
    dataset = cluster.write_dataset("scrub", records)
    rotted = _corrupt_replicas(
        cluster, dataset, args.rot, args.corrupt, rng, "rot"
    )
    from .obs import NULL_OBS, Observability

    obs = Observability.create() if args.obs else NULL_OBS
    report = Scrubber(cluster, strict=False, obs=obs).scrub(dataset.name)
    print(
        f"scrubbed dataset of {dataset.num_blocks} blocks on {args.nodes} nodes "
        f"({rotted} replicas rotted)"
    )
    print()
    from .metrics.reporting import format_kv

    print(
        format_kv(
            {
                "replicas scanned": report.replicas_scanned,
                "bytes scanned": report.bytes_scanned,
                "corrupt found": report.corrupt_found,
                "repaired": report.repaired,
                "repaired bytes": report.repaired_bytes,
                **(
                    {
                        "fragment reconstructions": report.reconstructed,
                        "decoded stripe bytes": report.decode_bytes,
                    }
                    if coding is not None
                    else {}
                ),
                "unrepairable": len(report.unrepairable),
            },
            title="Scrub report",
        )
    )
    for event in report.events:
        if hasattr(event, "sources"):
            peers = ",".join(str(n) for n in event.sources)
            print(
                f"  reconstructed fragment {event.index} of block "
                f"{event.block_id} on node {event.destination} from nodes "
                f"{peers} ({event.nbytes} B written, "
                f"{event.decode_bytes} B decoded)"
            )
        else:
            print(
                f"  repaired block {event.block_id} on node "
                f"{event.destination} from node {event.source} "
                f"({event.nbytes} B)"
            )
    if args.obs:
        _write_obs_artifacts(args.obs, obs)
    if report.unrepairable:
        for ds, block in report.unrepairable:
            print(f"error: no verified replica left for block {block} of {ds!r}",
                  file=sys.stderr)
        return 1
    return 0


def _write_obs_artifacts(out_dir: str, obs=None, *, timeline=None) -> None:
    """Write trace.json (+ events.jsonl/metrics.txt for live bundles)."""
    from .obs.export import snapshot_text, write_chrome_trace, write_jsonl

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tracer = obs.tracer if obs is not None else None
    write_chrome_trace(str(out / "trace.json"), tracer, timeline=timeline)
    if obs is None:
        print(f"trace written to {out / 'trace.json'}")
        return
    rows = write_jsonl(
        str(out / "events.jsonl"), tracer=obs.tracer, metrics=obs.metrics
    )
    (out / "metrics.txt").write_text(
        snapshot_text(tracer=obs.tracer, metrics=obs.metrics) + "\n",
        encoding="utf-8",
    )
    print(
        f"observability artifacts in {out}{'/' if str(out) != '/' else ''} "
        f"(trace.json, events.jsonl [{rows} rows], metrics.txt)"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .obs import NULL_OBS, Observability
    from .rebalance.executor import layout_digest
    from .serve import DrillConfig, build_drill

    config = DrillConfig(
        seed=args.seed,
        num_nodes=args.nodes,
        jobs=args.jobs,
        pressure=args.pressure,
        append_batches=args.appends,
        crash=args.crash,
        meta_down=args.meta_down,
        partition=args.partition,
        slots=args.slots,
        high_water=args.high_water,
        rebalance_budget=args.rebalance_budget,
        journal_replicas=args.journal_replicas,
        leader_crash=args.leader_crash,
        journal_crash=args.journal_crash,
        meta_partition=args.meta_partition,
        retry_jitter=args.retry_jitter,
        retry_max_elapsed=args.retry_max_elapsed,
    )
    obs = Observability.create() if args.obs else NULL_OBS
    setup = build_drill(config, obs=obs)
    summary = setup.service.run(setup.requests, setup.appends)
    faults = [
        name
        for name, on in (
            ("service crash", args.crash),
            ("metadata-shard outage", args.meta_down),
            ("gray partition", args.partition),
            ("leader crash", args.leader_crash),
            ("journal-replica crash", args.journal_crash),
            ("metadata partition", args.meta_partition),
        )
        if on
    ]
    print(
        f"multi-tenant service drill — seed {args.seed}, "
        f"{args.jobs} jobs at {args.pressure:g}x pressure"
        + (f", {args.journal_replicas} journal replicas"
           if args.journal_replicas > 1 else "")
        + (f", faults: {', '.join(faults)}" if faults else "")
    )
    print()
    print(summary.format())
    print(f"layout digest: {layout_digest(setup.service._view)}")
    if args.obs:
        _write_obs_artifacts(args.obs, obs)
    return 0


def _cmd_rebalance(args: argparse.Namespace) -> int:
    from .experiments.config import ReferenceConfig
    from .experiments.rebalance import WORKLOADS, run_rebalance_comparison
    from .obs import NULL_OBS, Observability

    cfg = ReferenceConfig() if args.full else ReferenceConfig.small()
    obs = Observability.create() if args.obs else NULL_OBS
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    failed = False
    for i, workload in enumerate(workloads):
        result = run_rebalance_comparison(
            cfg,
            workload=workload,
            budget_fraction=args.budget,
            iterations=args.iterations,
            seed=args.seed,
            obs=obs,
        )
        if i:
            print()
        print(result.plan.format())
        print()
        print(result.format())
        if result.plan.cost_after > result.plan.cost_before:
            print(
                f"error: {workload} plan raised the layout cost",
                file=sys.stderr,
            )
            failed = True
    if args.obs:
        _write_obs_artifacts(args.obs, obs)
    return 1 if failed else 0


def _rebalance_cluster(cluster, dataset, *, budget_fraction, seed, alpha, obs):
    """Background rebalance pre-pass shared by ``chaos`` and ad-hoc callers:
    plan against a fresh DataNet over the hottest sub-datasets and apply.
    Returns ``(plan, report)``."""
    from .core.datanet import DataNet
    from .rebalance import RebalanceExecutor, RebalancePlanner, WorkloadProfile

    datanet = DataNet.build(dataset, alpha=alpha)
    sizes = dataset.subdataset_sizes()
    hot = sorted(sizes, key=sizes.get, reverse=True)[:6]
    profile = WorkloadProfile({sid: float(sizes[sid]) for sid in hot})
    planner = RebalancePlanner(
        dataset,
        datanet,
        profile,
        budget_fraction=budget_fraction,
        seed=seed,
        iterations=3000,
        obs=obs,
    )
    plan = planner.plan()
    cluster.watch_placement(dataset.name, datanet)
    report = RebalanceExecutor(cluster, obs=obs).apply(plan)
    return plan, report


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.tenants:
        # Multi-tenant chaos delegates to the service drill: the same
        # crash/outage/partition toggles, but against the long-lived
        # admission-controlled service instead of a single batch job.
        args.jobs = 6 * args.tenants
        args.pressure = 1.0
        args.appends = 2
        args.crash = bool(args.kill) or bool(args.restart_wave)
        args.meta_down = bool(args.meta_down)
        args.partition = bool(args.partition)
        args.slots = 2
        args.high_water = 64
        # Metadata-plane faults the chaos surface doesn't expose directly.
        args.journal_crash = False
        args.meta_partition = False
        return _cmd_serve(args)
    from .core.metastore import DistributedMetaStore
    from .faults import ChaosRunner, RetryPolicy
    from .hdfs.cluster import HDFSCluster
    from .mapreduce.apps.word_count import word_count_job
    from .units import parse_size
    from .workloads import MovieLensGenerator

    # Every flag that needs no data is validated up front: bad CLI values
    # are rejected before any data is generated.
    retry = RetryPolicy(
        max_attempts=args.max_attempts,
        jitter=args.retry_jitter,
        max_elapsed_s=args.retry_max_elapsed,
    )
    rng = np.random.default_rng(args.seed)
    coding = _coding_spec(args.coding, args.nodes)
    plan = _fault_plan(args)
    plan.validate_targets(range(args.nodes))
    records = MovieLensGenerator(
        num_movies=args.keys, total_reviews=args.records, rng=rng
    ).generate()
    cluster = HDFSCluster(
        num_nodes=args.nodes, block_size=parse_size(args.block_size), rng=rng,
        coding=coding,
    )
    dataset = cluster.write_dataset("chaos", records)
    sub_id = args.sub or _largest_subdataset(dataset)

    metastore = None
    if args.meta_nodes or plan.meta_outages:
        metastore = DistributedMetaStore(
            num_nodes=max(args.meta_nodes, 1), replication=args.meta_replication
        )
    from .obs import NULL_OBS, Observability

    obs = Observability.create() if args.obs else NULL_OBS
    if args.rebalance_budget > 0:
        rplan, _report = _rebalance_cluster(
            cluster,
            dataset,
            budget_fraction=args.rebalance_budget,
            seed=args.seed,
            alpha=args.alpha,
            obs=obs,
        )
        print(
            f"rebalanced layout before the drill: {rplan.num_moves} moves, "
            f"{rplan.total_bytes} bytes "
            f"(cost {rplan.cost_before:.0f} -> {rplan.cost_after:.0f})"
        )
    runner = ChaosRunner(
        cluster,
        plan,
        retry=retry,
        metastore=metastore,
        alpha=args.alpha,
        detect=not args.no_detector,
        hedge=not args.no_hedge,
        obs=obs,
    )
    report = runner.run(dataset, sub_id, word_count_job())
    print(f"chaos run over sub-dataset {sub_id!r} ({args.nodes} nodes)")
    print()
    print(report.format())
    if args.obs:
        _write_obs_artifacts(args.obs, obs)
    if not report.output_matches_baseline:  # pragma: no cover - invariant
        print("error: output diverged from the failure-free run", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import append_record, format_record, run_core_suite

    record = run_core_suite(quick=args.quick, seed=args.seed)
    print(format_record(record))
    if args.no_append:
        return 0
    count = append_record(args.out, record)
    print(f"appended record #{count} to {args.out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .hdfs.cluster import HDFSCluster
    from .mapreduce.apps.word_count import word_count_job
    from .obs import Observability
    from .obs.export import validate_chrome_trace_file
    from .units import parse_size

    faulty = bool(args.kill or args.slow or args.flaky or args.bitrot or args.stale)
    plan = _fault_plan(args) if faulty else None
    if plan is not None:
        plan.validate_targets(range(args.nodes))
    rng = np.random.default_rng(args.seed)
    records = _generate_records(args.workload, args.records, args.keys, rng)
    cluster = HDFSCluster(
        num_nodes=args.nodes, block_size=parse_size(args.block_size), rng=rng
    )
    dataset = cluster.write_dataset("trace", records)
    sub_id = args.sub or _largest_subdataset(dataset)
    obs = Observability.create()
    if faulty:
        from .faults import ChaosRunner, RetryPolicy

        runner = ChaosRunner(
            cluster,
            plan,
            retry=RetryPolicy(max_attempts=args.max_attempts),
            alpha=args.alpha,
            obs=obs,
        )
        report = runner.run(dataset, sub_id, word_count_job())
        print(
            f"traced chaos run over sub-dataset {sub_id!r} "
            f"({args.workload}, {args.nodes} nodes): "
            f"makespan {report.makespan:.3f}s"
        )
    else:
        from .core.bucketizer import BucketSpec
        from .core.datanet import DataNet
        from .mapreduce.engine import MapReduceEngine

        datanet = DataNet.build(
            dataset,
            alpha=args.alpha,
            spec=BucketSpec.for_block_size(parse_size(args.block_size)),
            obs=obs,
        )
        engine = MapReduceEngine(cluster, obs=obs)
        result = engine.run_job(
            dataset, sub_id, word_count_job(), datanet.schedule(sub_id)
        )
        print(
            f"traced job over sub-dataset {sub_id!r} "
            f"({args.workload}, {args.nodes} nodes): "
            f"total time {result.total_time:.3f}s"
        )
    _write_obs_artifacts(args.out, obs)
    checked = validate_chrome_trace_file(str(Path(args.out) / "trace.json"))
    print(f"trace.json valid ({checked} duration events)")
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    from .experiments.fig2 import run_fig2

    print(run_fig2(mc_trials=args.trials).format())
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DataNet (IPDPS 2016) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="describe the library and experiments")
    p_info.set_defaults(func=_cmd_info)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument("id", choices=list(EXPERIMENTS) + ["all"])
    p_exp.add_argument("--small", action="store_true", help="fast scaled-down run")
    p_exp.add_argument("--out", help="directory to also write reports into")
    p_exp.set_defaults(func=_cmd_experiment)

    p_gen = sub.add_parser("generate", help="write a synthetic workload as TSV")
    p_gen.add_argument("workload", choices=["movielens", "github", "worldcup"])
    p_gen.add_argument("-n", "--records", type=int, default=50_000)
    p_gen.add_argument(
        "-k", "--keys", type=int, default=1000,
        help="movies/matches for keyed workloads",
    )
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=_cmd_generate)

    p_idx = sub.add_parser("index", help="build ElasticMap metadata over a TSV")
    p_idx.add_argument("input")
    p_idx.add_argument("--alpha", type=float, default=0.3)
    p_idx.add_argument("--block-size", default="64kb")
    p_idx.add_argument("--nodes", type=int, default=16)
    p_idx.add_argument("--seed", type=int, default=0)
    p_idx.add_argument("--query", help="report one sub-dataset id in detail")
    p_idx.add_argument("--save", help="persist the metadata to this file")
    p_idx.set_defaults(func=_cmd_index)

    p_q = sub.add_parser(
        "query", help="query a saved metadata file (no raw data needed)"
    )
    p_q.add_argument("metadata", help="file written by `repro index --save`")
    p_q.add_argument("sub_id")
    p_q.set_defaults(func=_cmd_query)

    p_theory = sub.add_parser("theory", help="Section II-B probability analysis")
    p_theory.add_argument("--trials", type=_int_at_least(1), default=200)
    p_theory.set_defaults(func=_cmd_theory)

    p_plan = sub.add_parser(
        "plan", help="capacity planning (alpha, metadata, cluster size)"
    )
    p_plan.add_argument("--blocks", type=int, default=256)
    p_plan.add_argument("--subdatasets", type=int, default=2000,
                        help="distinct sub-datasets per block")
    p_plan.add_argument("--nodes", type=int, default=128)
    p_plan.add_argument("--budget", default="16mb",
                        help="metadata memory budget (e.g. 16mb)")
    p_plan.add_argument("--gamma-k", type=float, default=1.2)
    p_plan.add_argument("--gamma-theta", type=float, default=7.0)
    p_plan.set_defaults(func=_cmd_plan)

    p_chaos = sub.add_parser(
        "chaos", help="run an analysis job under an injected fault plan"
    )
    p_chaos.add_argument("--nodes", type=int, default=8)
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("-n", "--records", type=_int_at_least(1), default=20_000)
    p_chaos.add_argument("-k", "--keys", type=int, default=200, help="movies")
    p_chaos.add_argument("--block-size", default="64kb")
    p_chaos.add_argument("--alpha", type=float, default=0.3)
    p_chaos.add_argument("--sub", help="sub-dataset id (default: the hottest)")
    p_chaos.add_argument(
        "--kill", action="append", default=[], metavar="NODE@TIME",
        help="crash NODE at TIME seconds (repeatable), e.g. --kill 2@0.5",
    )
    p_chaos.add_argument(
        "--slow", action="append", default=[], metavar="NODE@FACTOR",
        help="slow NODE down by FACTOR (repeatable), e.g. --slow 1@2.5",
    )
    p_chaos.add_argument(
        "--flaky", type=float, default=0.0,
        help="per-attempt transient failure probability",
    )
    p_chaos.add_argument(
        "--slow-node", action="append", default=[],
        metavar="NODE@FACTOR[:START[-END]]",
        help="gray failure: degrade NODE by FACTOR inside a time window "
        "(repeatable), e.g. --slow-node 1@8:0-3",
    )
    p_chaos.add_argument(
        "--flaky-link", action="append", default=[], metavar="A-B@LOSS[:LATENCY]",
        help="gray failure: remote reads over the A<->B link re-read with "
        "probability LOSS and pay LATENCY extra seconds (repeatable), "
        "e.g. --flaky-link 0-2@0.3:0.01",
    )
    p_chaos.add_argument(
        "--partition", action="append", default=[], metavar="SCOPE@START-HEAL",
        help="cut SCOPE (rackR or a node list N,M) off the network from "
        "START until HEAL (repeatable), e.g. --partition rack1@0-3",
    )
    p_chaos.add_argument(
        "--no-detector", action="store_true",
        help="disable the phi-accrual health detector and partition-aware "
        "scheduling (for overhead comparisons)",
    )
    p_chaos.add_argument(
        "--no-hedge", action="store_true",
        help="disable hedged replica reads",
    )
    p_chaos.add_argument("--max-attempts", type=int, default=4)
    p_chaos.add_argument(
        "--retry-jitter", choices=["none", "full"], default="none",
        help="backoff jitter mode for retries (full = seeded full jitter)",
    )
    p_chaos.add_argument(
        "--retry-max-elapsed", type=float, default=None, metavar="SECONDS",
        help="total retry budget per task (unset = unbounded)",
    )
    p_chaos.add_argument(
        "--journal-replicas", type=int, default=1, metavar="N",
        help="with --tenants: replicate the service's metadata journal "
        "across N replicas (majority-quorum commits)",
    )
    p_chaos.add_argument(
        "--leader-crash", action="store_true",
        help="with --tenants: kill the metadata-plane leader mid-ingest "
        "and fail over to a freshly elected, fenced leader",
    )
    p_chaos.add_argument(
        "--meta-nodes", type=int, default=0,
        help="run metadata from a sharded metastore with this many nodes",
    )
    p_chaos.add_argument("--meta-replication", type=int, default=1)
    p_chaos.add_argument(
        "--meta-down", action="append", default=[], metavar="META_NODE",
        help="take a metastore shard down (repeatable), e.g. --meta-down meta-0",
    )
    p_chaos.add_argument(
        "--bitrot", action="append", default=[], metavar="NODE@BLOCK",
        help="rot the replica of BLOCK on NODE (repeatable), e.g. --bitrot 2@0",
    )
    p_chaos.add_argument(
        "--stale", action="append", type=int, default=[], metavar="BLOCK",
        help="diverge BLOCK's metadata entry (repeatable); validation rebuilds it",
    )
    p_chaos.add_argument(
        "--restart-wave", action="append", type=int, default=[], metavar="WAVE",
        help="kill the driver while each node runs the WAVE-th block of its "
        "queue; completed outputs survive and that block reruns (repeatable; "
        "incompatible with --kill, --partition, --flaky-link and --coding)",
    )
    p_chaos.add_argument(
        "--coding", metavar="K,M",
        help="store the dataset erasure-coded with k data + m parity "
        "fragments instead of replicating (e.g. --coding 4,2); reads "
        "decode through parity and node loss triggers reconstruction",
    )
    p_chaos.add_argument(
        "--obs", metavar="DIR",
        help="trace the run and write observability artifacts into DIR",
    )
    p_chaos.add_argument(
        "--tenants", type=int, default=0,
        help="run the multi-tenant service drill instead of a single batch "
        "job: N tenants share the cluster through admission control, and "
        "the --kill/--meta-down/--partition toggles become a service "
        "crash, a metadata-shard outage, and a gray rack partition",
    )
    p_chaos.add_argument(
        "--rebalance-budget", type=float, default=0.0, metavar="FRACTION",
        help="run the background placement rebalancer before the drill, "
        "bounded to this fraction of dataset bytes (0 disables)",
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    p_reb = sub.add_parser(
        "rebalance",
        help="background annealed placement rebalance + three-way comparison",
    )
    p_reb.add_argument(
        "--workload", choices=["movielens", "github_events", "all"],
        default="movielens",
    )
    p_reb.add_argument(
        "--budget", type=float, default=0.25, metavar="FRACTION",
        help="migration budget as a fraction of dataset bytes",
    )
    p_reb.add_argument("--seed", type=int, default=7, help="annealer seed")
    p_reb.add_argument(
        "--iterations", type=int, default=6000,
        help="annealing proposals to evaluate",
    )
    p_reb.add_argument(
        "--full", action="store_true",
        help="reference-size config (32 nodes) instead of the fast variant",
    )
    p_reb.add_argument(
        "--obs", metavar="DIR",
        help="trace the run and write observability artifacts into DIR",
    )
    p_reb.set_defaults(func=_cmd_rebalance)

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived multi-tenant analysis service drill",
    )
    p_serve.add_argument("--seed", type=int, default=7)
    p_serve.add_argument("--nodes", type=int, default=12)
    p_serve.add_argument("--jobs", type=int, default=18)
    p_serve.add_argument(
        "--pressure", type=float, default=1.0,
        help="arrival-rate multiplier (1.0 is sustainable; 2/4 overload)",
    )
    p_serve.add_argument(
        "--appends", type=int, default=2,
        help="streaming ingest batches cut from the tail of the stream",
    )
    p_serve.add_argument(
        "--crash", action="store_true",
        help="kill the driver mid-append and recover from the journal",
    )
    p_serve.add_argument(
        "--meta-down", action="store_true",
        help="take a metadata shard down mid-schedule (degraded mode)",
    )
    p_serve.add_argument(
        "--partition", action="store_true",
        help="gray-partition one rack mid-schedule (degraded mode)",
    )
    p_serve.add_argument("--slots", type=int, default=2)
    p_serve.add_argument("--high-water", type=int, default=64)
    p_serve.add_argument(
        "--journal-replicas", type=int, default=1, metavar="N",
        help="replicate the metadata journal across N replicas and commit "
        "frames at majority quorum (1 is a quorum of one)",
    )
    p_serve.add_argument(
        "--leader-crash", action="store_true",
        help="kill the metadata-plane leader mid-ingest; the plane detects "
        "the silence, elects a new leader, fences the old epoch, and "
        "resumes from the quorum journal",
    )
    p_serve.add_argument(
        "--journal-crash", action="store_true",
        help="crash one journal replica mid-drill (needs --journal-replicas "
        ">= 2); anti-entropy catches it up when it restarts",
    )
    p_serve.add_argument(
        "--meta-partition", action="store_true",
        help="partition a minority of journal replicas around the final "
        "ingest batch (needs --journal-replicas >= 3)",
    )
    p_serve.add_argument(
        "--retry-jitter", choices=["none", "full"], default="none",
        help="backoff jitter mode for quorum-append retries",
    )
    p_serve.add_argument(
        "--retry-max-elapsed", type=float, default=None, metavar="SECONDS",
        help="total retry budget per journal append (unset = unbounded)",
    )
    p_serve.add_argument(
        "--rebalance-budget", type=float, default=0.0, metavar="FRACTION",
        help="rebalance the resident dataset's placement before serving, "
        "bounded to this fraction of dataset bytes (0 disables)",
    )
    p_serve.add_argument(
        "--obs", metavar="DIR",
        help="trace the run and write observability artifacts into DIR",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_scrub = sub.add_parser(
        "scrub", help="plant replica bit rot and repair it with the scrubber"
    )
    p_scrub.add_argument("--nodes", type=int, default=8)
    p_scrub.add_argument("--seed", type=int, default=0)
    p_scrub.add_argument("-n", "--records", type=_int_at_least(1), default=20_000)
    p_scrub.add_argument("-k", "--keys", type=int, default=200, help="movies")
    p_scrub.add_argument("--block-size", default="64kb")
    p_scrub.add_argument(
        "--rot", action="append", default=[], metavar="NODE@BLOCK",
        help="rot the replica of BLOCK on NODE (repeatable), e.g. --rot 2@0",
    )
    p_scrub.add_argument(
        "--corrupt", type=_int_at_least(0), default=0, metavar="N",
        help="additionally rot N seeded-random replicas",
    )
    p_scrub.add_argument(
        "--coding", metavar="K,M",
        help="store the dataset erasure-coded (k data + m parity); rotten "
        "fragments are rebuilt from parity instead of copied from a peer",
    )
    p_scrub.add_argument(
        "--obs", metavar="DIR",
        help="trace the sweep and write observability artifacts into DIR",
    )
    p_scrub.set_defaults(func=_cmd_scrub)

    p_sim = sub.add_parser(
        "simulate", help="event-driven multi-job batch + gantt charts"
    )
    p_sim.add_argument("--small", action="store_true")
    p_sim.add_argument("--slots", type=int, default=2)
    p_sim.add_argument("--rows", type=int, default=10, help="nodes to draw")
    p_sim.add_argument("--width", type=int, default=72)
    p_sim.add_argument(
        "--coding", metavar="K,M",
        help="store the batch dataset erasure-coded (k data + m parity); "
        "fragments become the schedulable unit",
    )
    p_sim.add_argument(
        "--obs", metavar="DIR",
        help="export the with-DataNet timeline as a Perfetto trace into DIR",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_trace = sub.add_parser(
        "trace",
        help="run a traced workload; writes trace.json/events.jsonl/metrics.txt",
    )
    p_trace.add_argument(
        "--workload", choices=["movielens", "github", "worldcup"],
        default="movielens",
    )
    p_trace.add_argument("--out", required=True, help="artifact directory")
    p_trace.add_argument("--nodes", type=int, default=8)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("-n", "--records", type=_int_at_least(1), default=20_000)
    p_trace.add_argument(
        "-k", "--keys", type=int, default=200,
        help="movies/matches for keyed workloads",
    )
    p_trace.add_argument("--block-size", default="64kb")
    p_trace.add_argument("--alpha", type=float, default=0.3)
    p_trace.add_argument("--sub", help="sub-dataset id (default: the hottest)")
    p_trace.add_argument(
        "--kill", action="append", default=[], metavar="NODE@TIME",
        help="crash NODE at TIME seconds (repeatable)",
    )
    p_trace.add_argument(
        "--slow", action="append", default=[], metavar="NODE@FACTOR",
        help="slow NODE down by FACTOR (repeatable)",
    )
    p_trace.add_argument(
        "--flaky", type=float, default=0.0,
        help="per-attempt transient failure probability",
    )
    p_trace.add_argument(
        "--bitrot", action="append", default=[], metavar="NODE@BLOCK",
        help="rot the replica of BLOCK on NODE (repeatable)",
    )
    p_trace.add_argument(
        "--stale", action="append", type=int, default=[], metavar="BLOCK",
        help="diverge BLOCK's metadata entry (repeatable)",
    )
    p_trace.add_argument("--max-attempts", type=int, default=4)
    p_trace.set_defaults(func=_cmd_trace)

    p_bench = sub.add_parser(
        "bench",
        help="run the fixed-seed core perf suite; append to BENCH_core.json",
    )
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="shrink workloads ~20x (CI smoke mode; same record schema)",
    )
    p_bench.add_argument("--seed", type=int, default=1729, help="workload seed")
    p_bench.add_argument(
        "--out",
        default="BENCH_core.json",
        help="record history to append to (default: BENCH_core.json)",
    )
    p_bench.add_argument(
        "--no-append",
        action="store_true",
        help="print the record without touching the history file",
    )
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
