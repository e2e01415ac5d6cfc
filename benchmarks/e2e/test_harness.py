"""Tests of the benchmark harness itself: spans, statistics, verdicts, schema.

Run from the repository root:  python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import report  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def ticking_clock():
    """A clock that advances by exactly 1.0 per reading."""
    counter = itertools.count()
    return lambda: float(next(counter))


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    rec = spans.SpanRecorder(clock=ticking_clock())
    leaf = rec.wrap("hdfs.filter", "leaf", lambda: None)
    mid = rec.wrap("hdfs.filter", "mid", lambda: leaf())
    top = rec.wrap("core.schedule", "top", lambda: (mid(), leaf()))
    top()
    by_name = {}
    for span in rec.spans:
        by_name.setdefault(span.name, []).append(span)
    (t,), (m,) = by_name["top"], by_name["mid"]
    # top: 0..7, mid: 1..4 (its leaf 2..3), the second leaf: 5..6
    assert (t.start, t.end, t.duration) == (0.0, 7.0, 7.0)
    assert m.duration == 3.0 and m.self_s == 2.0
    assert t.self_s == 7.0 - 3.0 - 1.0
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 0]
    layers = spans.layer_metrics(rec, wall_s=12.0)
    assert layers["core.schedule.self_s"] == 3.0
    assert layers["hdfs.filter.self_s"] == 4.0
    assert layers["other.self_s"] == 5.0
    assert layers["core.schedule.calls"] == 1 and layers["hdfs.filter.calls"] == 3
    assert layers["other.share"] == 5.0 / 12.0
    assert sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS) == 12.0


def test_span_closes_when_the_call_raises():
    rec = spans.SpanRecorder(clock=ticking_clock())

    def boom():
        raise KeyError("x")

    outer = rec.wrap("serve", "outer", lambda: rec.wrap("serve", "inner", boom)())
    with pytest.raises(KeyError):
        outer()
    assert [(s.start, s.end) for s in rec.spans] == [(0.0, 3.0), (1.0, 2.0)]
    assert rec.spans[0].self_s == 2.0


def _small_datanet():
    from repro import DataNet, HDFSCluster
    from repro.workloads import MovieLensGenerator, most_popular

    rng = np.random.default_rng(3)
    cluster = HDFSCluster(num_nodes=6, block_size=16 * 1024, rng=rng)
    records = MovieLensGenerator(num_movies=40, total_reviews=3000, rng=rng).generate()
    dataset = cluster.write_dataset("d", records)
    return DataNet.build(dataset, alpha=0.3), most_popular(records)


def test_datanet_schedule_nests_graph_and_algorithm_spans():
    from repro.core.datanet import DataNet

    datanet, sid = _small_datanet()
    original = DataNet.__dict__["schedule"]
    targets = [t for t in spans.TARGETS if t[0] == "core.schedule"]
    rec = spans.SpanRecorder()
    patched = spans.install(rec, targets)
    try:
        assignment = datanet.schedule(sid, skip_absent=False)
    finally:
        spans.uninstall(patched)
    assert DataNet.__dict__["schedule"] is original
    names = [s.name.rsplit(".", 2)[-2:] for s in rec.spans]
    assert names[0] == ["DataNet", "schedule"]
    assert ["DataNet", "bipartite_graph"] in names
    assert ["DistributionAwareScheduler", "schedule"] in names
    assert all(s.parent == 0 for s in rec.spans[1:])
    top = rec.spans[0]
    assert top.self_s == pytest.approx(top.duration - sum(s.duration for s in rec.spans[1:]))
    layers = spans.layer_metrics(rec, wall_s=top.duration)
    assert layers["core.schedule.self_s"] == pytest.approx(top.duration)
    assert layers["other.self_s"] == pytest.approx(0.0, abs=1e-12)
    assert layers["core.schedule.tasks"] == assignment.num_tasks
    assert layers["core.schedule.calls"] == 3


def test_classmethod_targets_stay_classmethods():
    from repro.core.datanet import DataNet

    rec = spans.SpanRecorder()
    patched = spans.install(rec, [t for t in spans.TARGETS if t[2] == "DataNet.build"])
    try:
        assert isinstance(DataNet.__dict__["build"], classmethod)
        _small_datanet()
    finally:
        spans.uninstall(patched)
    assert [s.layer for s in rec.spans] == ["core.build"]


# -- percentiles ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(120, 90), (12, None), (19, None), (20, 50), (40, 75), (199, 90), (200, 95), (1000, 99), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert report.tail_percentile(n) == expected


def test_nearest_rank_percentile_leaves_twelve_of_120_beyond_p90():
    values = list(range(1, 121))
    p90 = report.percentile(values, 90)
    assert p90 == 108
    assert sum(1 for v in values if v > p90) == 12
    assert report.percentile(values, 50) == 60


# -- verdicts --------------------------------------------------------------------


def _record(samples_by_metric, workload="serve-mixed"):
    metrics = {
        name: {
            "value": float(np.median(samples)),
            "unit": report.END_TO_END[name][0],
            "samples": list(samples),
        }
        for name, samples in samples_by_metric.items()
    }
    return {"workloads": {workload: {"metrics": metrics}}}


def _verdicts(a, b):
    return {row["metric"]: row["verdict"] for row in report.compare(_record(a), _record(b))}


def test_compare_labels_every_verdict():
    a = {
        "setup_s": [1.00, 1.01, 0.99, 1.00, 1.02],
        "run_s": [2.0, 2.02, 1.98, 2.01, 1.99],
        "peak_rss_mb": [50.0, 50.1, 49.9, 50.0, 50.0],
        "sim_time_s": [10.0, 14.0, 6.0, 10.0, 12.0],
        "failed_share": [0.1] * 5,
    }
    b = {
        "setup_s": [0.80, 0.81, 0.79, 0.80, 0.82],  # faster in every pair
        "run_s": [2.01, 1.99, 2.0, 2.02, 1.98],  # same
        "peak_rss_mb": [65.0, 65.1, 64.9, 65.0, 65.0],  # 30 % more memory
        "sim_time_s": [10.5, 15.0, 6.5, 10.5, 12.5],  # spread wider than the bound
        "failed_share": [0.1] * 5,
    }
    assert _verdicts(a, b) == {
        "setup_s": "improved",
        "run_s": "unchanged",
        "peak_rss_mb": "regressed",
        "sim_time_s": "unresolved",
        "failed_share": "unchanged",
    }


def test_compare_allows_no_rise_in_failures():
    a = {"failed_share": [0.0] * 5}
    b = {"failed_share": [0.0, 0.0, 0.01, 0.0, 0.0]}
    assert _verdicts(a, {"failed_share": [0.01] * 5}) == {"failed_share": "regressed"}
    # the median did not move, but one rep failed: any spread exceeds a 0 bound
    assert _verdicts(a, b) == {"failed_share": "unresolved"}


def test_wide_spread_verdicts_follow_dominance():
    wide = {"run_s": [10.0, 12.0, 14.0, 16.0, 18.0]}
    tight = {"run_s": [9.0, 9.1, 9.2, 9.3, 9.4]}
    # every tight run beats every wide one, but by less than the wide spread
    assert _verdicts(wide, tight) == {"run_s": "unchanged"}
    assert _verdicts(tight, wide) == {"run_s": "regressed"}
    assert _verdicts(wide, {"run_s": [9.0, 11.0, 14.5, 17.0, 19.0]}) == {"run_s": "unresolved"}


# -- record schema ---------------------------------------------------------------


def _valid_record():
    entry = {
        "metrics": {
            name: {"value": 1.0, "unit": report.END_TO_END[name][0], "samples": [1.0, 1.0]}
            for name in report.metrics_for(report.SESSION)
        },
        "attempted": 132,
        "failed": 0,
        "refused": 0,
        "checks": {"assignments exactly-once, selected bytes match truth": True},
        "layers": {name: 0.0 for name in report.PER_LAYER},
    }
    return {"schema": report.SCHEMA, "seed": 1, "reps": 2, "workloads": {report.SESSION: entry}}


def test_valid_record_passes():
    assert report.validate_record(_valid_record()) == []


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda r: r.update(schema="bench-core/v1"), "schema"),
        (lambda r: r.update(seed="1"), "seed"),
        (lambda r: r["workloads"].clear(), "workloads"),
        (lambda r: r["workloads"][report.SESSION]["metrics"].pop("query_p90_ms"), "query_p90_ms"),
        (lambda r: r["workloads"][report.SESSION]["metrics"]["run_s"].update(unit="ms"), "unit"),
        (lambda r: r["workloads"][report.SESSION]["metrics"]["run_s"].update(samples=[]), "samples"),
        (lambda r: r["workloads"][report.SESSION].update(attempted=0), "attempted"),
        (lambda r: r["workloads"][report.SESSION]["checks"].update(x="yes"), "checks"),
        (lambda r: r["workloads"][report.SESSION]["layers"].pop("other.share"), "layers"),
    ],
)
def test_invalid_record_is_rejected(mutate, fragment):
    record = _valid_record()
    mutate(record)
    errors = report.validate_record(record)
    assert errors and any(fragment in e for e in errors)


def _baseline():
    path = HERE / "BENCH_e2e.json"
    if not path.exists():
        pytest.skip("no baseline recorded yet")
    return json.loads(path.read_text(encoding="utf-8"))


def test_committed_baseline_records_are_valid():
    for record in _baseline():
        assert report.validate_record(record) == []


def test_shared_layers_run_in_every_workload():
    # A fixed-time run prints self seconds only for these layers, because
    # any other layer reads exactly 0 s on some workload.
    for record in _baseline():
        for workload, entry in record["workloads"].items():
            for layer in report.SHARED_LAYERS:
                assert entry["layers"][f"{layer}.self_s"] > 0, (workload, layer)


# -- traced and untraced reps ------------------------------------------------------


def _traced(wall_s, filter_s):
    layers = {name: 0.0 for name in report.PER_LAYER}
    layers.update({"hdfs.filter.self_s": filter_s, "other.self_s": wall_s - filter_s})
    return {"wall_s": wall_s, "layers": layers}


def test_layers_come_from_the_median_traced_rep_and_overhead_from_pairs():
    traced = [_traced(12.0, 2.0), _traced(10.5, 1.5), _traced(30.0, 9.0)]
    plain = [
        {"wall_s": w, "import_s": 0.5, "repeat_share": 0.3} for w in (10.0, 10.0, 25.0)
    ]
    out = run.layers_of(traced, plain)
    # median traced wall is 12.0; its layers sum to it
    assert out["trace.wall_s"] == 12.0
    assert out["hdfs.filter.self_s"] + out["other.self_s"] == 12.0
    # pair ratios 1.2, 1.05, 1.2: the slow third pair does not skew it
    assert out["trace.overhead"] == pytest.approx(0.2)
    assert out["import_s"] == 0.5 and out["workload.repeat_share"] == 0.3
    # a trailing untraced rep without a twin is left out of the pairs
    unpaired = plain[:2] + [dict(plain[0], wall_s=1.0)]
    assert run.layers_of(traced[:2], unpaired)["trace.overhead"] == pytest.approx(0.125)


# -- the benchmark description -------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    import flows

    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(report.WORKLOADS) == list(flows.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(report.FIXED_TIME_END_TO_END)
    for m in spec["end_to_end"]:
        # compare and the fixed-time runs judge a metric by one bound
        unit, better, bound, only = report.END_TO_END[m["name"]]
        assert (m["unit"], m["better"], m["bound"], only) == (unit, better, bound, None)
    # set-up time, listed first, carries the largest bound
    assert max(m["bound"] for m in spec["end_to_end"]) == spec["end_to_end"][0]["bound"]
    assert {m["name"]: m["better"] for m in spec["per_layer"]} == report.FIXED_TIME_PER_LAYER
    assert all(m["unit"] == report.PER_LAYER[m["name"]] for m in spec["per_layer"])
