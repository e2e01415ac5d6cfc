"""Ablations of the extension features (paper future-work directions).

- aggregation-transfer minimization (Section IV-B future work)
- speculative execution vs proactive balancing
"""

from __future__ import annotations

from repro.experiments.ablations import (
    run_aggregation_ablation,
    run_speculation_ablation,
    run_tail_store_ablation,
)


def test_ablation_aggregation(benchmark, save_result):
    table = benchmark.pedantic(run_aggregation_ablation, rounds=1, iterations=1)
    kib = [float(row[1]) for row in table.rows]
    baseline, greedy, hungarian = kib
    # co-location never increases shuffle volume; Hungarian <= greedy.
    assert greedy <= baseline
    assert hungarian <= greedy + 0.1
    save_result("ablation_aggregation", table.format())


def test_ablation_speculation(benchmark, save_result):
    table = benchmark.pedantic(run_speculation_ablation, rounds=1, iterations=1)
    by_name = {row[0]: float(row[1]) for row in table.rows}
    # Speculation cannot beat proactive balancing on data-imbalance
    # stragglers (the backup reprocesses the same oversized input).
    speculated = by_name["stock + speculation (event-driven)"]
    assert by_name["DataNet (Algorithm 1)"] <= speculated
    # and speculation never hurts vs doing nothing
    assert speculated <= by_name["stock locality"] + 1e-6
    save_result("ablation_speculation", table.format())


def test_ablation_tail_store(benchmark, save_result):
    table = benchmark.pedantic(run_tail_store_ablation, rounds=1, iterations=1)
    by_store = {row[0]: row for row in table.rows}
    mem_bloom = float(by_store["bloom"][1])
    mem_cm = float(by_store["countmin"][1])
    acc_bloom = float(by_store["bloom"][2])
    acc_cm = float(by_store["countmin"][2])
    # Count-Min buys accuracy with memory; Bloom stays the frugal choice.
    assert mem_cm > mem_bloom
    assert acc_cm >= acc_bloom - 0.01
    save_result("ablation_tail_store", table.format())
