"""The vectorized kernels against their scalar reference oracles.

Every batch API added for the profile-guided kernel layer keeps its
scalar counterpart as the source of truth; these properties assert
bit-identity — equal serialized bytes, equal dict insertion order, equal
counters — on randomized inputs, including the empty and single-element
batches where off-by-one bugs live.  The caching layers (DataNet graph
cache, metastore parse cache, ElasticMap blob cache) are checked for
transparency: cached answers must equal freshly computed ones, before
and after mutation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import SCHEMA_NAME, append_record, validate_record
from repro.core.bipartite import BipartiteGraph
from repro.core.bloom import BloomFilter
from repro.core.bucketizer import BucketSeparator
from repro.core.builder import ElasticMapBuilder
from repro.core.countmin import CountMinSketch
from repro.errors import ConfigError, SchedulingError

# small alphabets on purpose: duplicate keys inside one batch are the
# order-sensitive case every batched kernel must get right
_ids = st.lists(
    st.text(alphabet="abcdef", min_size=0, max_size=4), min_size=0, max_size=60
)


class TestBloomBatch:
    @given(_ids, st.integers(0, 2**31), st.sampled_from([16, 64, 1000]))
    @settings(max_examples=60, deadline=None)
    def test_property_add_many_matches_scalar(self, keys, seed, capacity):
        a = BloomFilter(capacity=capacity, error_rate=0.05, seed=seed)
        b = BloomFilter(capacity=capacity, error_rate=0.05, seed=seed)
        before = a.approx_count
        for k in keys:
            a.add(k)
        added = b.add_many(keys)
        assert a.to_bytes() == b.to_bytes()
        assert added == a.approx_count - before

    @given(_ids, _ids, st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_property_contains_many_matches_scalar(self, keys, probes, seed):
        f = BloomFilter(capacity=200, error_rate=0.02, seed=seed)
        f.add_many(keys)
        got = f.contains_many(probes)
        want = np.array([p in f for p in probes], dtype=bool)
        assert got.dtype == np.bool_
        assert got.shape == (len(probes),)
        assert (got == want).all()

    def test_empty_and_single_batches(self):
        f = BloomFilter(capacity=32, error_rate=0.1, seed=3)
        assert f.add_many([]) == 0
        assert f.contains_many([]).shape == (0,)
        assert f.add_many(["only"]) == 1
        assert f.add_many(["only"]) == 0
        assert list(f.contains_many(["only", "other"])) == [True, False]

    def test_sparse_and_dense_paths_agree(self):
        # a filter big enough to route add_many through the sorted
        # (sparse) variant, checked against scalar adds
        big_a = BloomFilter(capacity=50_000_000, error_rate=0.01, seed=1)
        big_b = BloomFilter(capacity=50_000_000, error_rate=0.01, seed=1)
        keys = [f"x-{i % 40}" for i in range(100)]
        for k in keys:
            big_a.add(k)
        big_b.add_many(keys)
        assert big_b.num_bits > 8 * len(keys) * big_b.num_hashes
        assert big_a.to_bytes() == big_b.to_bytes()


class TestBucketizerBatch:
    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="xyz", min_size=0, max_size=3),
                st.integers(0, 10**9),
            ),
            max_size=60,
        ),
        st.lists(
            st.tuples(
                st.text(alphabet="xyzw", min_size=0, max_size=3),
                st.integers(0, 10**9),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_observe_batch_matches_scalar(self, batch1, batch2):
        a, b = BucketSeparator(), BucketSeparator()
        for sid, nbytes in batch1 + batch2:
            a.observe(sid, nbytes)
        # two batches: the second one merges into warm separator state
        b.observe_batch([s for s, _ in batch1], [n for _, n in batch1])
        b.observe_many(iter(batch2))
        assert list(a.sizes().items()) == list(b.sizes().items())
        assert a.histogram() == b.histogram()
        ra = a.separate(alpha=0.4)
        rb = b.separate(alpha=0.4)
        assert list(ra.dominant.items()) == list(rb.dominant.items())
        assert list(ra.tail.items()) == list(rb.tail.items())

    def test_empty_and_single_batches(self):
        sep = BucketSeparator()
        sep.observe_batch([], [])
        assert sep.num_subdatasets == 0
        sep.observe_batch(["a"], [123])
        ref = BucketSeparator()
        ref.observe("a", 123)
        assert dict(sep.sizes()) == dict(ref.sizes())

    def test_batch_rejects_bad_input(self):
        sep = BucketSeparator()
        with pytest.raises(ConfigError):
            sep.observe_batch(["a", "b"], [1])
        with pytest.raises(ConfigError):
            sep.observe_batch(["a"], [-1])


class TestCountMinBatch:
    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="pq", min_size=0, max_size=2),
                st.integers(0, 500),
            ),
            max_size=50,
        ),
        st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_update_many_matches_scalar(self, items, seed):
        # tiny width forces column collisions, exercising the sequential
        # replay fallback; the tiny alphabet forces duplicate keys
        a = CountMinSketch(epsilon=0.5, delta=0.1, seed=seed)
        b = CountMinSketch(epsilon=0.5, delta=0.1, seed=seed)
        for k, amt in items:
            a.add(k, amt)
        b.update_many([k for k, _ in items], [amt for _, amt in items])
        assert a.to_bytes() == b.to_bytes()
        assert a.total == b.total

    @given(_ids, st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_property_estimate_many_matches_scalar(self, keys, seed):
        sketch = CountMinSketch(epsilon=0.01, delta=0.05, seed=seed)
        sketch.update_many(keys, [7] * len(keys))
        got = sketch.estimate_many(keys)
        assert got.shape == (len(keys),)
        assert [int(v) for v in got] == [sketch.estimate(k) for k in keys]

    def test_zero_amounts_and_validation(self):
        a = CountMinSketch(seed=1)
        b = CountMinSketch(seed=1)
        b.update_many(["x", "y"], [0, 0])
        assert a.to_bytes() == b.to_bytes()  # zero updates are no-ops
        with pytest.raises(ConfigError):
            b.update_many(["x"], [-3])
        with pytest.raises(ConfigError):
            b.update_many(["x", "y"], [1])
        assert b.update_many([], []) is None
        assert b.estimate_many([]).shape == (0,)


class TestBuilderVectorized:
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(0, 80))
    @settings(max_examples=25, deadline=None)
    def test_property_vectorized_build_bit_identical(
        self, seed, blocks, per_block
    ):
        rng = np.random.default_rng(seed)
        scan = []
        for bid in range(blocks):
            ids = [f"s{rng.integers(0, 12)}" for _ in range(per_block)]
            sizes = [int(v) for v in rng.integers(0, 50_000, per_block)]
            scan.append((bid, ids, sizes))
        vec = ElasticMapBuilder(alpha=0.3, vectorized=True).build_arrays(scan)
        sca = ElasticMapBuilder(alpha=0.3, vectorized=False).build(
            [(bid, zip(ids, sizes)) for bid, ids, sizes in scan]
        )
        assert [e.to_bytes() for e in vec] == [e.to_bytes() for e in sca]

    def test_countmin_tail_store_bit_identical(self):
        rng = np.random.default_rng(7)
        scan = [
            (
                bid,
                [f"s{rng.integers(0, 30)}" for _ in range(400)],
                [int(v) for v in rng.integers(1, 9_000, 400)],
            )
            for bid in range(4)
        ]
        vec = ElasticMapBuilder(
            alpha=0.3, tail_store="countmin", vectorized=True
        ).build_arrays(scan)
        sca = ElasticMapBuilder(
            alpha=0.3, tail_store="countmin", vectorized=False
        ).build([(bid, zip(ids, sizes)) for bid, ids, sizes in scan])
        assert [e.to_bytes() for e in vec] == [e.to_bytes() for e in sca]

    def test_scalar_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALAR", "1")
        builder = ElasticMapBuilder(alpha=0.3, vectorized=True)
        assert builder.vectorized is False
        monkeypatch.setenv("REPRO_SCALAR", "0")
        assert ElasticMapBuilder(alpha=0.3).vectorized is True


class TestBipartiteIncremental:
    @staticmethod
    def _graphs_equal(a: BipartiteGraph, b: BipartiteGraph) -> bool:
        return (
            a.nodes == b.nodes
            and a.blocks == b.blocks
            and all(a.nodes_of(x) == b.nodes_of(x) for x in a.blocks)
            and all(a.weight(x) == b.weight(x) for x in a.blocks)
            and all(a.needed_of(x) == b.needed_of(x) for x in a.blocks)
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_property_incremental_matches_rebuild(self, seed):
        rng = np.random.default_rng(seed)
        nodes = [f"n{i}" for i in range(6)]
        placement = {
            b: [nodes[i] for i in rng.choice(6, size=3, replace=False)]
            for b in range(8)
        }
        weights = {b: int(w) for b, w in enumerate(rng.integers(0, 100, 8))}
        g = BipartiteGraph(placement, weights, nodes=nodes)
        # drift the placement via incremental mutators...
        moved = int(rng.integers(0, 8))
        placement[moved] = [nodes[i] for i in rng.choice(6, size=2, replace=False)]
        assert g.set_block_nodes(moved, placement[moved]) in (True, False)
        placement[8] = [nodes[0], nodes[5]]
        weights[8] = 42
        g.add_block(8, placement[8], weight=42)
        g.set_weight(moved, weights[moved] + 7)
        weights[moved] += 7
        # ...and compare to a graph rebuilt from scratch
        fresh = BipartiteGraph(placement, weights, nodes=nodes)
        assert self._graphs_equal(g, fresh)

    def test_remove_node_strands_blocks(self):
        g = BipartiteGraph(
            {0: ["a", "b"], 1: ["b"]}, {0: 5, 1: 7}, needed={0: 2, 1: 1}
        )
        stranded = g.remove_node("b")
        assert stranded == [0, 1]
        assert g.blocks == []
        assert "b" not in g.nodes

    def test_add_block_and_set_weight(self):
        g = BipartiteGraph({0: ["a"]}, {0: 1})
        g.add_block(5, ["a", "c"], weight=9, needed=2)
        assert g.nodes_of(5) == {"a", "c"}
        assert g.weight(5) == 9
        g.set_weight(5, 11)
        assert g.weight(5) == 11
        with pytest.raises(SchedulingError):
            g.add_block(5, ["a"])


class TestBenchRecord:
    def _record(self):
        return {
            "schema": SCHEMA_NAME,
            "timestamp": "2026-01-01T00:00:00Z",
            "seed": 1729,
            "quick": True,
            "python": "3.11.7",
            "numpy": "2.4.6",
            "results": {
                "elasticmap_build": {
                    "records": 1000,
                    "blocks": 4,
                    "vectorized_records_per_s": 2.0,
                    "scalar_records_per_s": 1.0,
                    "speedup": 2.0,
                },
                "bloom_membership": {
                    "keys": 10,
                    "lookups": 10,
                    "vectorized_lookups_per_s": 2.0,
                    "scalar_lookups_per_s": 1.0,
                    "vectorized_adds_per_s": 2.0,
                    "scalar_adds_per_s": 1.0,
                    "speedup": 2.0,
                },
                "bucketizer": {
                    "records": 10,
                    "vectorized_records_per_s": 2.0,
                    "scalar_records_per_s": 1.0,
                    "speedup": 2.0,
                },
                "countmin": {
                    "updates": 10,
                    "vectorized_updates_per_s": 2.0,
                    "scalar_updates_per_s": 1.0,
                    "speedup": 2.0,
                },
                "scheduling": {
                    "blocks": 10,
                    "cached_graphs_per_s": 2.0,
                    "uncached_graphs_per_s": 1.0,
                    "speedup": 2.0,
                },
            },
        }

    def test_valid_record_passes(self):
        assert validate_record(self._record()) == []

    def test_retired_section_still_validates(self):
        """Committed records keep sections the suite no longer runs."""
        old = self._record()
        old["results"]["simulator"] = {"tasks": 10, "speedup": 2.0}
        assert validate_record(old) == []

    def test_schema_violations_reported(self):
        bad = self._record()
        bad["schema"] = "bench-core/v0"
        bad["seed"] = "not-an-int"
        del bad["results"]["scheduling"]
        bad["results"]["countmin"]["speedup"] = "fast"
        problems = validate_record(bad)
        assert any("schema" in p for p in problems)
        assert any("seed" in p for p in problems)
        assert any("scheduling" in p for p in problems)
        assert any("countmin.speedup" in p for p in problems)
        assert validate_record([]) != []

    def test_append_record_roundtrip(self, tmp_path):
        path = str(tmp_path / "BENCH_core.json")
        assert append_record(path, self._record()) == 1
        assert append_record(path, self._record()) == 2
        import json

        records = json.load(open(path))
        assert len(records) == 2
        assert all(validate_record(r) == [] for r in records)

    def test_append_rejects_invalid(self, tmp_path):
        bad = self._record()
        bad["results"]["bucketizer"]["speedup"] = -1
        with pytest.raises(ValueError, match="non-negative"):
            append_record(str(tmp_path / "x.json"), bad)
