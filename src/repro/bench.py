"""The core performance suite behind ``repro bench`` and ``BENCH_core.json``.

Every PR appends one schema-validated record to ``BENCH_core.json``, so the
repository carries its own performance trajectory: regressions show up as a
drop between consecutive records measured by the *same* harness at the
*same* fixed seeds.  Each kernel is measured twice — the NumPy batch path
and the scalar reference oracle — and the recorded speedup is the claim
the vectorization work has to keep honest.

The suite is wall-clock timing over seed-deterministic workloads: the
*data* never changes between runs, only the machine's speed.  ``quick``
mode shrinks the workloads ~20x for CI smoke runs; the recorded schema is
identical.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "SCHEMA_NAME",
    "run_core_suite",
    "validate_record",
    "append_record",
    "load_records",
    "format_record",
]

SCHEMA_NAME = "bench-core/v1"

#: result section → numeric fields every record must carry
_RESULT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "elasticmap_build": (
        "records",
        "blocks",
        "vectorized_records_per_s",
        "scalar_records_per_s",
        "speedup",
    ),
    "bloom_membership": (
        "keys",
        "lookups",
        "vectorized_lookups_per_s",
        "scalar_lookups_per_s",
        "vectorized_adds_per_s",
        "scalar_adds_per_s",
        "speedup",
    ),
    "bucketizer": (
        "records",
        "vectorized_records_per_s",
        "scalar_records_per_s",
        "speedup",
    ),
    "countmin": (
        "updates",
        "vectorized_updates_per_s",
        "scalar_updates_per_s",
        "speedup",
    ),
    "scheduling": (
        "blocks",
        "cached_graphs_per_s",
        "uncached_graphs_per_s",
        "speedup",
    ),
}


def _time(fn: Callable[[], object], *, repeat: int = 2) -> float:
    """Best-of-``repeat`` wall time of ``fn()`` in seconds (> 0)."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return max(best, 1e-9)


def _make_scan(
    rng: random.Random, blocks: int, records_per_block: int, sids: int
) -> List[Tuple[int, List[str], List[int]]]:
    """Seed-deterministic columnar scan input: skewed sizes, shared sids."""
    out = []
    size_choices = [64, 512, 4096, 20_000, 65_536, 500_000]
    weights = [30, 25, 20, 15, 7, 3]
    for bid in range(blocks):
        ids = [f"sid-{rng.randrange(sids)}" for _ in range(records_per_block)]
        sizes = rng.choices(size_choices, weights=weights, k=records_per_block)
        out.append((bid, ids, sizes))
    return out


def _bench_elasticmap_build(rng: random.Random, quick: bool) -> Dict[str, float]:
    from .core.builder import ElasticMapBuilder

    blocks = 16 if quick else 64
    per_block = 3_125 if quick else 15_625  # 50k / 1M records total
    scan = _make_scan(rng, blocks, per_block, sids=4_000)
    records = blocks * per_block

    def vec() -> None:
        ElasticMapBuilder(alpha=0.3, vectorized=True).build_arrays(scan)

    def sca() -> None:
        builder = ElasticMapBuilder(alpha=0.3, vectorized=False)
        builder.build(
            [(bid, zip(ids, sizes)) for bid, ids, sizes in scan]
        )

    t_vec = _time(vec, repeat=3)
    t_sca = _time(sca)
    return {
        "records": records,
        "blocks": blocks,
        "vectorized_records_per_s": records / t_vec,
        "scalar_records_per_s": records / t_sca,
        "speedup": t_sca / t_vec,
    }


def _bench_bloom(rng: random.Random, quick: bool) -> Dict[str, float]:
    from .core.bloom import BloomFilter

    n = 50_000 if quick else 1_000_000
    keys = [f"sid-{i}-{rng.randrange(1 << 30)}" for i in range(n)]
    probes = keys[: n // 2] + [f"absent-{i}" for i in range(n // 2)]
    # the scalar oracle is priced on a sample large enough to be stable
    # but small enough to keep the suite interactive; rates are size-free
    sample = min(n, 100_000)

    vec_filter = BloomFilter(capacity=n, error_rate=0.01, seed=7)
    t_vec_add = _time(lambda: vec_filter.add_many(keys))
    t_vec_q = _time(lambda: vec_filter.contains_many(probes), repeat=3)

    sca_filter = BloomFilter(capacity=n, error_rate=0.01, seed=7)

    def sca_add() -> None:
        for k in keys[:sample]:
            sca_filter.add(k)

    def sca_query() -> None:
        for k in probes[:sample]:
            k in sca_filter  # noqa: B015 - timing the membership test

    t_sca_add = _time(sca_add)
    t_sca_q = _time(sca_query)
    vec_rate = len(probes) / t_vec_q
    sca_rate = sample / t_sca_q
    return {
        "keys": n,
        "lookups": len(probes),
        "scalar_sample": sample,
        "vectorized_lookups_per_s": vec_rate,
        "scalar_lookups_per_s": sca_rate,
        "vectorized_adds_per_s": n / t_vec_add,
        "scalar_adds_per_s": sample / t_sca_add,
        "speedup": vec_rate / sca_rate,
    }


def _bench_bucketizer(rng: random.Random, quick: bool) -> Dict[str, float]:
    from .core.bucketizer import BucketSeparator

    n = 50_000 if quick else 500_000
    ids = [f"sid-{rng.randrange(5_000)}" for _ in range(n)]
    sizes = [rng.choice([64, 512, 4096, 20_000, 500_000]) for _ in range(n)]
    sample = min(n, 100_000)

    def vec() -> None:
        BucketSeparator().observe_batch(ids, sizes)

    def sca() -> None:
        sep = BucketSeparator()
        for sid, nbytes in zip(ids[:sample], sizes[:sample]):
            sep.observe(sid, nbytes)

    t_vec = _time(vec)
    t_sca = _time(sca, repeat=1)
    vec_rate = n / t_vec
    sca_rate = sample / t_sca
    return {
        "records": n,
        "vectorized_records_per_s": vec_rate,
        "scalar_records_per_s": sca_rate,
        "speedup": vec_rate / sca_rate,
    }


def _bench_countmin(rng: random.Random, quick: bool) -> Dict[str, float]:
    from .core.countmin import CountMinSketch

    n = 20_000 if quick else 200_000
    keys = [f"sid-{i}" for i in range(n)]  # distinct: the vectorized fast path
    amounts = [rng.randrange(1, 10_000) for _ in range(n)]
    sample = min(n, 50_000)

    def vec() -> None:
        CountMinSketch(epsilon=0.001, delta=0.01, seed=3).update_many(keys, amounts)

    def sca() -> None:
        sketch = CountMinSketch(epsilon=0.001, delta=0.01, seed=3)
        for k, a in zip(keys[:sample], amounts[:sample]):
            sketch.add(k, a)

    t_vec = _time(vec)
    t_sca = _time(sca, repeat=1)
    vec_rate = n / t_vec
    sca_rate = sample / t_sca
    return {
        "updates": n,
        "vectorized_updates_per_s": vec_rate,
        "scalar_updates_per_s": sca_rate,
        "speedup": vec_rate / sca_rate,
    }


def _bench_scheduling(rng: random.Random, quick: bool) -> Dict[str, float]:
    from .core.builder import ElasticMapBuilder
    from .core.datanet import DataNet

    blocks = 64 if quick else 512
    scan = _make_scan(rng, blocks, 400, sids=800)
    array = ElasticMapBuilder(alpha=0.3).build_arrays(scan)
    placement = {
        bid: [f"node-{(bid + r) % 20}" for r in range(3)] for bid in range(blocks)
    }
    datanet = DataNet(array, placement)
    sids = [f"sid-{i}" for i in range(40)]
    rounds = 5

    def cached() -> None:
        for _ in range(rounds):
            for sid in sids:
                datanet.bipartite_graph(sid)

    def uncached() -> None:
        for _ in range(rounds):
            for sid in sids:
                fresh = DataNet(array, placement)
                fresh.bipartite_graph(sid)

    graphs = rounds * len(sids)
    t_cached = _time(cached)
    t_uncached = _time(uncached, repeat=1)
    cached_rate = graphs / t_cached
    uncached_rate = graphs / t_uncached
    return {
        "blocks": blocks,
        "cached_graphs_per_s": cached_rate,
        "uncached_graphs_per_s": uncached_rate,
        "speedup": cached_rate / uncached_rate,
    }


def run_core_suite(*, quick: bool = False, seed: int = 1729) -> Dict[str, object]:
    """Run every core benchmark and return one BENCH_core.json record."""
    import numpy as np

    results: Dict[str, Dict[str, float]] = {}
    for name, fn in (
        ("elasticmap_build", _bench_elasticmap_build),
        ("bloom_membership", _bench_bloom),
        ("bucketizer", _bench_bucketizer),
        ("countmin", _bench_countmin),
        ("scheduling", _bench_scheduling),
    ):
        results[name] = fn(random.Random(seed), quick)
    return {
        "schema": SCHEMA_NAME,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": seed,
        "quick": quick,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "results": results,
    }


def validate_record(record: object) -> List[str]:
    """Schema check for one record; returns a list of problems (empty = ok).

    Hand-rolled on purpose: the container carries no jsonschema package,
    and the schema is small enough that explicitness beats a dependency.
    """
    problems: List[str] = []
    if not isinstance(record, dict):
        return [f"record must be an object, got {type(record).__name__}"]
    if record.get("schema") != SCHEMA_NAME:
        problems.append(
            f"schema must be {SCHEMA_NAME!r}, got {record.get('schema')!r}"
        )
    for key, kind in (
        ("timestamp", str),
        ("seed", int),
        ("quick", bool),
        ("python", str),
        ("numpy", str),
    ):
        if not isinstance(record.get(key), kind):
            problems.append(f"{key} must be {kind.__name__}")
    results = record.get("results")
    if not isinstance(results, dict):
        problems.append("results must be an object")
        return problems
    for section, fields in _RESULT_FIELDS.items():
        data = results.get(section)
        if not isinstance(data, dict):
            problems.append(f"results.{section} missing")
            continue
        for f in fields:
            value = data.get(f)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"results.{section}.{f} must be a number")
            elif value < 0:
                problems.append(f"results.{section}.{f} must be non-negative")
    return problems


def load_records(path: str) -> List[Dict[str, object]]:
    """Read a BENCH_core.json history (a JSON array; [] when absent)."""
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of records")
    return data


def append_record(path: str, record: Dict[str, object]) -> int:
    """Validate + append one record to the history; returns record count.

    Raises:
        ValueError: when the record fails schema validation.
    """
    problems = validate_record(record)
    if problems:
        raise ValueError("invalid bench record: " + "; ".join(problems))
    records = load_records(path)
    records.append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return len(records)


def format_record(record: Dict[str, object]) -> str:
    """Human-readable one-record summary table."""
    lines = [
        f"bench-core @ {record['timestamp']}  "
        f"(seed={record['seed']}, quick={record['quick']})",
        f"{'benchmark':<18} {'vectorized':>14} {'scalar':>14} {'speedup':>9}",
    ]
    results: Dict[str, Dict[str, float]] = record["results"]  # type: ignore[assignment]
    rows = (
        ("elasticmap_build", "vectorized_records_per_s", "scalar_records_per_s", "rec/s"),
        ("bloom_membership", "vectorized_lookups_per_s", "scalar_lookups_per_s", "qry/s"),
        ("bucketizer", "vectorized_records_per_s", "scalar_records_per_s", "rec/s"),
        ("countmin", "vectorized_updates_per_s", "scalar_updates_per_s", "upd/s"),
        ("scheduling", "cached_graphs_per_s", "uncached_graphs_per_s", "gph/s"),
    )
    for section, vec_key, sca_key, unit in rows:
        data = results[section]
        lines.append(
            f"{section:<18} {data[vec_key]:>11,.0f} {unit[:3]:<3}"
            f" {data[sca_key]:>10,.0f} {unit[:3]:<3} {data['speedup']:>8.2f}x"
        )
    return "\n".join(lines)
