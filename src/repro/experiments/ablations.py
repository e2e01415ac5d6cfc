"""Ablations of DataNet's design choices (DESIGN.md section 6).

Not figures from the paper — these probe the *why* behind its design:

- :func:`run_bucket_ablation` — Fibonacci vs uniform vs geometric bucket
  boundaries at equal bucket count.
- :func:`run_scheduler_ablation` — stock locality vs Algorithm 1 vs the
  Ford-Fulkerson optimal vs the fractional lower bound.
- :func:`run_io_skip_ablation` — the I/O saved by skipping blocks the
  ElasticMap proves empty of the target.
- :func:`run_bloom_eps_ablation` — Bloom error rate vs metadata size vs
  accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.bucketizer import BucketSpec
from ..core.builder import ElasticMapBuilder
from ..core.datanet import DataNet
from ..core.elasticmap import MemoryModel
from ..core.flow import fractional_optimum, optimal_assignment
from ..mapreduce.apps import word_count_job
from ..mapreduce.scheduler import LocalityScheduler
from ..metrics.reporting import format_table
from ..units import KiB
from .config import ReferenceConfig, build_movie_environment

__all__ = [
    "run_bucket_ablation",
    "run_scheduler_ablation",
    "run_io_skip_ablation",
    "run_bloom_eps_ablation",
    "run_tail_store_ablation",
    "run_aggregation_ablation",
    "run_speculation_ablation",
    "AblationTable",
]


@dataclass
class AblationTable:
    """Generic (headers, rows) ablation outcome with a printable form."""

    title: str
    headers: List[str]
    rows: List[List[object]]

    def format(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)

    def column(self, name: str) -> List[object]:
        """Values of one column, by header name."""
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]


def run_bucket_ablation(
    config: Optional[ReferenceConfig] = None, *, alpha: float = 0.3
) -> AblationTable:
    """Compare bucket-boundary families at the same bucket count.

    Quality = accuracy χ of the resulting ElasticMap and realized α drift
    from the requested α (whole buckets only — finer cutoffs track the
    request better).
    """
    env = build_movie_environment(config)
    all_ids = env.dataset.subdataset_ids()
    raw = env.dataset.total_bytes
    base = max(16, env.config.block_size // 1024)
    specs = {
        "fibonacci": BucketSpec.for_block_size(env.config.block_size),
        "uniform": BucketSpec.uniform(step=4 * base, count=10),
        "geometric": BucketSpec.geometric(base=base, ratio=1.66, count=10),
    }
    rows: List[List[object]] = []
    for name, spec in specs.items():
        builder = ElasticMapBuilder(alpha=alpha, spec=spec)
        array = builder.build(env.dataset.scan_blocks())
        rows.append(
            [
                name,
                f"{builder.stats.mean_alpha:.2f}",
                f"{abs(builder.stats.mean_alpha - alpha):.2f}",
                f"{array.accuracy(all_ids, raw):.3f}",
                f"{array.memory_bytes() / 1024:.1f}",
            ]
        )
    return AblationTable(
        title=f"Bucket-boundary ablation (requested alpha={alpha})",
        headers=["spec", "realized alpha", "alpha drift", "accuracy", "meta KiB"],
        rows=rows,
    )


def run_scheduler_ablation(config: Optional[ReferenceConfig] = None) -> AblationTable:
    """Max/mean workload of each scheduling strategy on the reference target."""
    env = build_movie_environment(config)
    graph = env.datanet.bipartite_graph(env.target, skip_absent=False)
    strategies = {
        "locality (stock Hadoop)": LocalityScheduler().schedule(graph),
        "Algorithm 1 (greedy)": env.datanet.schedule(env.target, skip_absent=False),
        "Ford-Fulkerson (optimal)": optimal_assignment(graph),
    }
    bound = fractional_optimum(graph)
    rows: List[List[object]] = []
    for name, assignment in strategies.items():
        rows.append(
            [
                name,
                f"{assignment.max_workload / KiB:.1f}",
                f"{assignment.imbalance:.2f}",
                f"{assignment.locality_fraction:.1%}",
            ]
        )
    rows.append(["fractional lower bound", f"{bound / KiB:.1f}", "1.00", "-"])
    return AblationTable(
        title="Scheduler ablation — max node workload (KiB of target sub-dataset)",
        headers=["strategy", "max workload KiB", "imbalance", "locality"],
        rows=rows,
    )


def run_io_skip_ablation(config: Optional[ReferenceConfig] = None) -> AblationTable:
    """Selection-phase I/O with and without ElasticMap block skipping."""
    env = build_movie_environment(config)
    job = word_count_job()
    rows: List[List[object]] = []
    for label, skip in (("scan all blocks", False), ("skip absent (ElasticMap)", True)):
        assignment = env.datanet.schedule(env.target, skip_absent=skip)
        selection = env.engine.run_selection(
            env.dataset, env.target, assignment, job.profile
        )
        rows.append(
            [
                label,
                selection.blocks_read,
                f"{selection.bytes_read / KiB:.0f}",
                f"{selection.makespan:.1f}",
            ]
        )
    return AblationTable(
        title="I/O-skipping ablation — selection phase cost",
        headers=["mode", "blocks read", "KiB read", "makespan (s)"],
        rows=rows,
    )


def run_tail_store_ablation(
    config: Optional[ReferenceConfig] = None, *, alpha: float = 0.3
) -> AblationTable:
    """Bloom-filter vs Count-Min tail store (design-space extension).

    The paper's Bloom tail records only existence; the Count-Min variant
    (:mod:`repro.core.sketchmap`) records approximate tail *sizes*.  This
    ablation measures what the extra bits buy: overall accuracy chi and
    the mean per-movie estimate error for the tail-resident population.
    """
    env = build_movie_environment(config)
    all_ids = env.dataset.subdataset_ids()
    truth = env.dataset.subdataset_sizes()
    raw = env.dataset.total_bytes
    rows: List[List[object]] = []
    for store in ("bloom", "countmin"):
        builder = ElasticMapBuilder(
            alpha=alpha, spec=env.config.bucket_spec(), tail_store=store
        )
        array = builder.build(env.dataset.scan_blocks())
        # mean relative error over the smaller half of sub-datasets (the
        # population that actually lives in the tail store)
        ordered = sorted(all_ids, key=lambda s: truth[s])
        tail_half = ordered[: len(ordered) // 2]
        errs = [
            abs(array.estimate_total_size(sid) - truth[sid]) / truth[sid]
            for sid in tail_half
            if truth[sid] > 0
        ]
        rows.append(
            [
                store,
                f"{array.memory_bytes() / 1024:.1f}",
                f"{array.accuracy(all_ids, raw):.3f}",
                f"{sum(errs) / len(errs):.2f}" if errs else "-",
            ]
        )
    return AblationTable(
        title=f"Tail-store ablation (alpha={alpha})",
        headers=["tail store", "meta KiB", "accuracy", "tail mean rel. err"],
        rows=rows,
    )


def run_aggregation_ablation(
    config: Optional[ReferenceConfig] = None,
) -> AblationTable:
    """Shuffle traffic with hash vs co-located reducer placement.

    Uses the balanced (DataNet) map phase, where the shuffle is fetch-
    rather than straggler-bound, so the transfer saving is visible in both
    bytes and seconds.  Implements the paper's future-work "minimize the
    data transferred" direction (Section IV-B).  The greedy row is the
    plan the engine runs: at most ``map_slots`` reducers per node.
    """
    from ..core.aggregation import plan_greedy, plan_optimal

    env = build_movie_environment(config)
    job = word_count_job()
    assignment = env.datanet.schedule(env.target, skip_absent=False)
    selection = env.engine.run_selection(
        env.dataset, env.target, assignment, job.profile
    )
    plain = env.engine.run_analysis(job, selection.local_data)
    coloc = env.engine.run_analysis(
        job, selection.local_data, colocate_reducers=True
    )
    volumes = plain.shuffle.volumes
    greedy = plan_greedy(volumes, max_reducers_per_node=env.engine.map_slots)
    optimal = plan_optimal(volumes)
    rows: List[List[object]] = [
        [
            "hash placement (baseline)",
            f"{greedy.baseline_transfer / KiB:.1f}",
            f"{plain.shuffle.mean:.2f}",
        ],
        [
            "co-located (greedy)",
            f"{greedy.transfer / KiB:.1f}",
            f"{coloc.shuffle.mean:.2f}",
        ],
        [
            "co-located (Hungarian)",
            f"{optimal.transfer / KiB:.1f}",
            "-",
        ],
    ]
    return AblationTable(
        title="Aggregation-transfer ablation — word_count shuffle volume",
        headers=["placement", "shuffle KiB", "shuffle avg (s)"],
        rows=rows,
    )


def run_speculation_ablation(
    config: Optional[ReferenceConfig] = None,
) -> AblationTable:
    """Speculative execution vs DataNet on the imbalanced map phase.

    Hadoop's own straggler defense re-runs slow tasks elsewhere; for
    *data-imbalance* stragglers the backup re-processes the same oversized
    input, so it recovers little — while DataNet removes the imbalance
    before launch.
    """
    from ..sim import SimTask
    from ..sim.speculation import SpeculativeSimulator
    from .pipeline import run_reference_pipeline

    pipe = run_reference_pipeline(config)
    base_maps = pipe.without_datanet.jobs["top_k_search"].map_times
    aware_maps = pipe.with_datanet.jobs["top_k_search"].map_times
    # replay the stock map phase through the event-driven simulator with
    # backups injected at the median finish
    dyn = SpeculativeSimulator(slots_per_node=2).run(
        SimTask(task_id=f"map/{n}", node=n, duration=d, kind="map")
        for n, d in base_maps.items()
    )
    rows: List[List[object]] = [
        ["stock locality", f"{max(base_maps.values()):.1f}", "-"],
        [
            "stock + speculation (event-driven)",
            f"{dyn.makespan:.1f}",
            f"{dyn.wasted_seconds:.1f}",
        ],
        ["DataNet (Algorithm 1)", f"{max(aware_maps.values()):.1f}", "0.0"],
    ]
    return AblationTable(
        title="Speculation ablation — top_k_search map makespan (s)",
        headers=["strategy", "map makespan (s)", "wasted work (s)"],
        rows=rows,
    )


def run_bloom_eps_ablation(
    config: Optional[ReferenceConfig] = None,
    *,
    error_rates: Sequence[float] = (0.001, 0.01, 0.05, 0.2),
    alpha: float = 0.3,
) -> AblationTable:
    """Bloom-filter error rate vs metadata footprint vs accuracy."""
    env = build_movie_environment(config)
    all_ids = env.dataset.subdataset_ids()
    raw = env.dataset.total_bytes
    rows: List[List[object]] = []
    for eps in error_rates:
        model = MemoryModel(bloom_error_rate=eps)
        builder = ElasticMapBuilder(
            alpha=alpha, spec=env.config.bucket_spec(), memory_model=model
        )
        array = builder.build(env.dataset.scan_blocks())
        rows.append(
            [
                f"{eps:g}",
                f"{array.memory_bytes() / 1024:.1f}",
                f"{array.accuracy(all_ids, raw):.3f}",
                f"{array.representation_ratio(raw):.0f}",
            ]
        )
    return AblationTable(
        title=f"Bloom error-rate ablation (alpha={alpha})",
        headers=["eps", "meta KiB", "accuracy", "ratio"],
        rows=rows,
    )
