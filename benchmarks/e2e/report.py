"""Statistics, the ``bench-e2e/v1`` record schema, tables and verdicts."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from spans import COUNTERS, LAYERS

SCHEMA = "bench-e2e/v1"
SESSION = "analyst-session"
SERVE = ("serve-mixed", "serve-failover")
WORKLOADS = (SESSION, "chaos-recovery") + SERVE

#: name -> (unit, better, bound, the one workload it is limited to or None).
#: A bound is the share of the first set's median by which the second
#: set's median may worsen; 0 allows no worsening at all.  ``compare`` and
#: ``BENCHMARK.json`` use these same bounds.  Wall times get 0.25: on the
#: shared two-core machine the baseline was recorded on, reps of one seed
#: spread 5-29 % between quartiles, and CPU time spreads as much as wall
#: time there.  Peak RSS is exact at one seed but spreads 6 % across seeds.
END_TO_END: Dict[str, Tuple[str, str, float, Optional[str]]] = {
    "setup_s": ("s", "lower", 0.25, None),
    "run_s": ("s", "lower", 0.25, None),
    "krecords_per_s": ("krec/s", "higher", 0.25, None),
    "query_p50_ms": ("ms", "lower", 0.25, SESSION),
    "query_p90_ms": ("ms", "lower", 0.25, SESSION),
    "ingest_p50_ms": ("ms", "lower", 0.25, SESSION),
    "peak_rss_mb": ("MB", "lower", 0.20, None),
    "sim_time_s": ("sim_s", "lower", 0.01, None),
    "imbalance": ("ratio", "lower", 0.01, SESSION),
    "failed_share": ("fraction", "lower", 0.0, None),
}

#: The end-to-end metrics a fixed-time run prints.  Every workload reports
#: each, and each stays steady across seeds: raw run times do not, because
#: a seed sets how large the queried sub-datasets are.
FIXED_TIME_END_TO_END = ("setup_s", "krecords_per_s", "peak_rss_mb")

#: Layers every workload enters; ``other`` is never empty either.
SHARED_LAYERS = ("workloads", "hdfs.write", "hdfs.filter", "core.build", "core.schedule", "other")

#: Per-layer metrics of a traced run and their units.
PER_LAYER: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "fraction" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS if layer != "other"},
    **{name: "count" for name in COUNTERS},
    "mapreduce.selected_bytes": "B",
    "serve.wait_p99_sim_s": "sim_s",
    "core.schedule.local_share": "fraction",
    "trace.wall_s": "s",
    "trace.overhead": "fraction",
    "import_s": "s",
    "workload.repeat_share": "fraction",
}

#: The per-layer metrics a fixed-time traced run prints, with the direction
#: an optimisation should move each.  Self seconds are printed for the
#: shared layers only: a layer a workload never enters would read exactly
#: 0 s on every run of it.  Calls show every layer; the full run's record
#: keeps every layer's self seconds.  Shares are left out, because they sum
#: to 1: a faster layer raises the share of every other.
FIXED_TIME_PER_LAYER: Dict[str, str] = {
    **{f"{layer}.self_s": "lower" for layer in SHARED_LAYERS},
    **{f"{layer}.calls": "lower" for layer in LAYERS if layer != "other"},
    "hdfs.filter.records_out": "lower",
    "core.schedule.tasks": "lower",
    "core.schedule.local_share": "higher",
    "sim.run.events": "lower",
    "serve.wait_p99_sim_s": "lower",
    "trace.wall_s": "lower",
    "trace.overhead": "lower",
    "import_s": "lower",
}

VERDICTS = ("improved", "unchanged", "regressed", "unresolved")


def metrics_for(workload: str) -> List[str]:
    return [name for name, (*_, only) in END_TO_END.items() if only in (None, workload)]


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the ``p``-th percentile of ``n`` samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: at least ``p`` % of the values are <= it."""
    return sorted(values)[_rank(p, len(values)) - 1]


def tail_percentile(n: int, ladder: Sequence[float] = (99.9, 99, 95, 90, 75, 50)) -> Optional[float]:
    """The highest percentile in ``ladder`` with at least ten of ``n`` samples beyond it."""
    for p in ladder:
        if n - _rank(p, n) >= 10:
            return p
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(
    a_value: float,
    a_samples: Sequence[float],
    b_value: float,
    b_samples: Sequence[float],
    better: str,
    bound: float,
) -> str:
    """Label B against A: improved, unchanged, regressed or unresolved.

    Improved: B wins at least nine tenths of the rep-by-rep pairs and the
    medians differ by more than A's interquartile spread.  Regressed: B's
    median is worse than A's by more than ``bound`` times A's median, and
    either both spreads are within that allowance or every B sample is
    worse than every A sample.  Unresolved: a spread is wider than the
    allowance and B does not beat A in every sample.  Otherwise unchanged.
    """
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (a_value - b_value)
    pairs = list(zip(a_samples, b_samples))
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    a_q1, a_q3 = quartiles(a_samples)
    b_q1, b_q3 = quartiles(b_samples)
    if pairs and wins >= 0.9 * len(pairs) and gain > a_q3 - a_q1:
        return "improved"
    allowed = bound * abs(a_value)
    noisy = max(a_q3 - a_q1, b_q3 - b_q1) > allowed
    everywhere = [sign * (a - b) for a in a_samples for b in b_samples]
    if -gain > allowed and (not noisy or all(d < 0 for d in everywhere)):
        return "regressed"
    if noisy and not all(d > 0 for d in everywhere):
        return "unresolved"
    return "unchanged"


def compare(a: Dict[str, object], b: Dict[str, object]) -> List[Dict[str, object]]:
    """One row per (workload, metric) present in both records."""
    rows = []
    for workload, a_entry in a["workloads"].items():
        b_entry = b["workloads"].get(workload)
        if b_entry is None:
            continue
        for name, (unit, better, bound, _only) in END_TO_END.items():
            if name not in a_entry["metrics"] or name not in b_entry["metrics"]:
                continue
            am, bm = a_entry["metrics"][name], b_entry["metrics"][name]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": unit,
                    "a": (am["value"], *quartiles(am["samples"])),
                    "b": (bm["value"], *quartiles(bm["samples"])),
                    "verdict": verdict(
                        am["value"], am["samples"], bm["value"], bm["samples"], better, bound
                    ),
                }
            )
    return rows


def validate_record(record: object) -> List[str]:
    """Every schema violation in one record (empty when valid)."""
    if not isinstance(record, dict):
        return ["record must be an object"]
    errors = []
    if record.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}")
    for key in ("seed", "reps"):
        if not isinstance(record.get(key), int) or isinstance(record.get(key), bool):
            errors.append(f"{key} must be an integer")
    workloads = record.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return errors + ["workloads must be a non-empty object"]
    for workload, entry in workloads.items():
        where = f"workloads[{workload!r}]"
        if not isinstance(entry, dict):
            errors.append(f"{where} must be an object")
            continue
        metrics = entry.get("metrics", {})
        for name in metrics_for(workload):
            m = metrics.get(name)
            if not isinstance(m, dict):
                errors.append(f"{where} lacks metric {name}")
                continue
            if not _number(m.get("value")):
                errors.append(f"{where}.{name}.value must be a number")
            if m.get("unit") != END_TO_END[name][0]:
                errors.append(f"{where}.{name}.unit must be {END_TO_END[name][0]!r}")
            samples = m.get("samples")
            if not isinstance(samples, list) or not samples or not all(map(_number, samples)):
                errors.append(f"{where}.{name}.samples must be a non-empty list of numbers")
        for key in ("attempted", "failed", "refused"):
            if not isinstance(entry.get(key), int) or entry[key] < 0:
                errors.append(f"{where}.{key} must be a non-negative integer")
        if entry.get("attempted") == 0:
            errors.append(f"{where}.attempted must be at least 1")
        checks = entry.get("checks")
        if not isinstance(checks, dict) or not all(isinstance(v, bool) for v in checks.values()):
            errors.append(f"{where}.checks must map names to booleans")
        layers = entry.get("layers")
        if not isinstance(layers, dict) or set(layers) != set(PER_LAYER):
            errors.append(f"{where}.layers must hold exactly the per-layer metrics")
        elif not all(map(_number, layers.values())):
            errors.append(f"{where}.layers values must be numbers")
    return errors


def _number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def format_metrics(record: Dict[str, object]) -> str:
    lines = [f"{'workload':<16} {'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} {'n':>3}  unit"]
    for workload, entry in record["workloads"].items():
        for name, m in entry["metrics"].items():
            q1, q3 = quartiles(m["samples"])
            lines.append(
                f"{workload:<16} {name:<14} {_fmt(m['value']):>10} {_fmt(q1):>10} "
                f"{_fmt(q3):>10} {len(m['samples']):>3}  {m['unit']}"
            )
    return "\n".join(lines)


def format_layers(record: Dict[str, object]) -> str:
    names = list(record["workloads"])
    lines = [f"{'layer (self s / share)':<24}" + "".join(f"{n:>24}" for n in names)]
    for layer in LAYERS:
        cells = []
        for n in names:
            layers = record["workloads"][n]["layers"]
            cells.append(f"{layers[f'{layer}.self_s']:>12.3f} {layers[f'{layer}.share']:>10.1%} ")
        lines.append(f"{layer:<24}" + "".join(cells))
    for name in PER_LAYER:
        if name.endswith((".self_s", ".share")):
            continue
        lines.append(
            f"{name:<24}" + "".join(f"{_fmt(record['workloads'][n]['layers'][name]):>24}" for n in names)
        )
    return "\n".join(lines)


def format_compare(rows: List[Dict[str, object]]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<14} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30}  verdict"
    ]
    for row in rows:
        a = "{} [{}, {}]".format(*map(_fmt, row["a"]))
        b = "{} [{}, {}]".format(*map(_fmt, row["b"]))
        lines.append(
            f"{row['workload']:<16} {row['metric']:<14} {a:>30} {b:>30}  {row['verdict']} ({row['unit']})"
        )
    return "\n".join(lines)
