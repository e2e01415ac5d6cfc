#!/usr/bin/env python3
"""End-to-end benchmark: four workloads, medians over fresh-interpreter reps.

Full run (prints every metric, checks outputs, appends one
``bench-e2e/v1`` record to ``BENCH_e2e.json``; a traced rep beside every
untraced one gives the per-layer table, its spans land in ``out/``)::

    python benchmarks/e2e/run.py --seed 1

One workload for a fixed measuring time, printing one JSON line
(end-to-end metrics with ``--trace 0``, per-layer ones with ``--trace 1``)::

    python benchmarks/e2e/run.py --workload serve-mixed --seed 3 --seconds 20 --trace 0

Compare two records (``FILE`` or ``FILE:INDEX``; the default is the last)::

    python benchmarks/e2e/run.py compare BENCH_e2e.json:0 BENCH_e2e.json:1

Load comes from one process with one thread; each rep is a new child
interpreter, so module caches start cold for every rep, as for a user.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import report

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
BENCH_FILE = HERE / "BENCH_e2e.json"
REPS = 9  # five left most timing pairs of two same-seed sets unresolved
MIN_REPS = 2  # cross-rep output checks need two
CHILD_TIMEOUT_S = 170.0


class ChildError(RuntimeError):
    pass


def run_child(workload: str, seed: int, *flags: str) -> Dict[str, object]:
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), *flags]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{workload} child timed out after {CHILD_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["child_s"] = time.perf_counter() - t0
    return result


def summarize(
    workload: str,
    reps: List[Dict[str, object]],
    checked: List[Dict[str, object]],
    oracle: Optional[Dict[str, object]],
) -> Dict[str, object]:
    """Record entry for one workload.

    ``reps`` are the untraced reps the timings come from; ``checked`` are
    every child whose outputs are checked (the reps plus any traced one).
    """
    metrics: Dict[str, Dict[str, object]] = {}

    def put(name: str, samples: List[float], value: Optional[float] = None) -> None:
        value = statistics.median(samples) if value is None else value
        metrics[name] = {"value": value, "unit": report.END_TO_END[name][0], "samples": samples}

    put("setup_s", [r["setup_s"] for r in reps])
    put("run_s", [r["run_s"] for r in reps])
    put("krecords_per_s", [r["records"] / r["wall_s"] / 1e3 for r in reps])
    if workload == report.SESSION:
        # Median over reps per query, then the percentile over queries:
        # a GC pause in one rep moves one sample, not the tail.
        for key, points in (("query", (50, report.tail_percentile(len(reps[0]["query_ms"])))), ("ingest", (50,))):
            per_rep = [r[f"{key}_ms"] for r in reps]
            per_op = [statistics.median(col) for col in zip(*per_rep)]
            for p in points:
                put(
                    f"{key}_p{p:g}_ms",
                    [report.percentile(x, p) for x in per_rep],
                    report.percentile(per_op, p),
                )
        put("imbalance", [r["imbalance"] for r in reps])
    put("peak_rss_mb", [r["peak_rss_mb"] for r in reps])
    put("sim_time_s", [r["sim_time_s"] for r in reps])

    # A rep whose output differs from the reference fails all its operations.
    reference = oracle["digest"] if oracle is not None else checked[0]["digest"]
    matches = [r["digest"] == reference for r in checked]
    failed = [r["failed"] + (0 if ok else r["attempted"]) for r, ok in zip(checked, matches)]
    succeeded = all(r["failed"] == 0 for r in checked)
    if workload == report.SESSION:
        checks = {"assignments exactly-once, selected bytes match truth": succeeded}
    elif oracle is None:
        checks = {"exit code 0": succeeded, "report identical across reps": all(matches)}
    else:
        checks = {
            "digests identical across reps": len({r["digest"] for r in checked}) == 1,
            "digests equal the fault-free drill": all(matches),
        }
    attempted = sum(r["attempted"] for r in checked)
    refused = sum(r["refused"] for r in checked)
    put(
        "failed_share",
        [(r["refused"] + f) / r["attempted"] for r, f in zip(checked, failed)],
        (refused + sum(failed)) / attempted,
    )
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": sum(failed),
        "refused": refused,
        "checks": checks,
    }


def layers_of(traced: List[Dict[str, object]], plain: List[Dict[str, object]]) -> Dict[str, float]:
    """Per-layer metrics of the median traced child, plus measurement ones.

    ``traced[i]`` ran right beside ``plain[i]``.  The layers come from one
    child, the one with the median traced wall time, so they still sum to
    ``trace.wall_s``.  The overhead is the median of the pairs' wall-time
    ratios: the machine's speed drifts over minutes, and a pair shares it.
    """
    median_rep = sorted(traced, key=lambda t: t["wall_s"])[(len(traced) - 1) // 2]
    out = dict(median_rep["layers"])
    out["trace.wall_s"] = median_rep["wall_s"]
    out["trace.overhead"] = statistics.median(t["wall_s"] / p["wall_s"] for t, p in zip(traced, plain)) - 1.0
    out["import_s"] = statistics.median(r["import_s"] for r in plain)
    out["workload.repeat_share"] = plain[0]["repeat_share"]
    return out


def oracle_for(workload: str, seed: int) -> Optional[Dict[str, object]]:
    return run_child(workload, seed, "--oracle") if workload in report.SERVE else None


def full_run(seed: int, workloads: List[str]) -> int:
    results: Dict[str, List[Dict[str, object]]] = {w: [] for w in workloads}
    traced: Dict[str, List[Dict[str, object]]] = {w: [] for w in workloads}
    for rep in range(REPS):
        shift = rep % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            # Each untraced rep gets a traced twin; which runs first alternates.
            for flags in ((), ("--trace",)) if rep % 2 == 0 else (("--trace",), ()):
                result = run_child(workload, seed, *flags)
                (traced if flags else results)[workload].append(result)
                kind = "traced" if flags else "plain"
                print(f"rep {rep + 1}/{REPS} {workload} {kind}: {result['wall_s']:.2f} s", file=sys.stderr)
    record: Dict[str, object] = {
        "schema": report.SCHEMA,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        "reps": REPS,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "workloads": {},
    }
    for workload in workloads:
        checked = results[workload] + traced[workload]
        entry = summarize(workload, results[workload], checked, oracle_for(workload, seed))
        entry["layers"] = layers_of(traced[workload], results[workload])
        record["workloads"][workload] = entry
    print(report.format_metrics(record))
    print()
    print(report.format_layers(record))
    failed = [
        f"{w}: {name}" for w, e in record["workloads"].items() for name, ok in e["checks"].items() if not ok
    ]
    for line in failed:
        print(f"check failed: {line}", file=sys.stderr)
    errors = report.validate_record(record)
    for line in errors:
        print(f"schema: {line}", file=sys.stderr)
    if failed or errors:
        return 1
    records = json.loads(BENCH_FILE.read_text(encoding="utf-8")) if BENCH_FILE.exists() else []
    records.append(record)
    BENCH_FILE.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"\nappended record #{len(records)} to {BENCH_FILE.name}")
    return 0


def fixed_time_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Reps until ``seconds`` would be exceeded; one JSON line on stdout.

    The untimed fault-free drill of a serve workload runs first and counts
    against ``seconds`` too.
    """
    start = time.perf_counter()
    oracle = oracle_for(workload, seed)
    plain: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    while True:
        done = plain + traced
        enough = (traced and plain) if trace else len(plain) >= MIN_REPS
        if done and enough:
            next_s = statistics.median(r["child_s"] for r in done)
            if time.perf_counter() - start + next_s > seconds:
                break
        if trace and len(traced) < len(plain):
            traced.append(run_child(workload, seed, "--trace"))
        else:
            plain.append(run_child(workload, seed))
    entry = summarize(workload, plain, plain + traced, oracle)
    if trace:
        layers = layers_of(traced, plain)
        metrics = {
            name: {"value": layers[name], "unit": report.PER_LAYER[name]}
            for name in report.FIXED_TIME_PER_LAYER
        }
    else:
        metrics = {
            name: {"value": entry["metrics"][name]["value"], "unit": entry["metrics"][name]["unit"]}
            for name in report.FIXED_TIME_END_TO_END
        }
    line = {
        "correct": all(entry["checks"].values()),
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


def _load(spec: str) -> Dict[str, object]:
    path, _, index = spec.partition(":")
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    records = data if isinstance(data, list) else [data]
    return records[int(index) if index else -1]


def compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", help="baseline: FILE or FILE:INDEX")
    parser.add_argument("b", help="candidate: FILE or FILE:INDEX")
    args = parser.parse_args(argv)
    rows = report.compare(_load(args.a), _load(args.b))
    print(report.format_compare(rows))
    counts = {v: sum(1 for r in rows if r["verdict"] == v) for v in report.VERDICTS}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=report.WORKLOADS, action="append")
    parser.add_argument("--seconds", type=float, help="measure one workload for this long")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="with --seconds: print per-layer instead of end-to-end metrics",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.seconds is not None:
            if not args.workload or len(args.workload) != 1:
                parser.error("--seconds measures exactly one --workload")
            return fixed_time_run(args.workload[0], args.seed, args.seconds, bool(args.trace))
        return full_run(args.seed, args.workload or list(report.WORKLOADS))
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
