"""Tests for the HDFS substrate: records, blocks, placement, cluster."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    BlockNotFoundError,
    ConfigError,
    ReplicationError,
    StorageError,
)
from repro.hdfs import (
    Block,
    DataNode,
    HDFSCluster,
    NameNode,
    RackAwarePlacement,
    RandomPlacement,
    Record,
    RoundRobinPlacement,
    pack_records,
)
from tests.conftest import make_records


class TestRecord:
    def test_nbytes_counts_all_fields(self):
        r = Record("movie-1", 12.0, "hello")
        assert r.nbytes == len("movie-1") + len("12.000") + len("hello") + 2

    @given(
        st.text(min_size=1),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        st.text(),
        st.text(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_cached_nbytes(self, sub_id, timestamp, payload, other):
        """The size computed at construction is the serialized size, is
        carried by pickle and copies, is recomputed by ``replace``, and
        takes no part in equality or hashing."""
        r = Record(sub_id, timestamp, payload)
        assert r.nbytes == len(r.serialize().encode("utf-8"))
        for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r)):
            assert twin.nbytes == r.nbytes and twin == r
        changed = dataclasses.replace(r, payload=other)
        assert changed.nbytes == len(changed.serialize().encode("utf-8"))
        stale = copy.copy(r)
        object.__setattr__(stale, "nbytes", r.nbytes + 1)
        assert stale == r and hash(stale) == hash(r)

    def test_serialize_roundtrip(self):
        r = Record("m1", 3.5, "some\ttext-free payload")
        # payload may not contain tabs for roundtrip; use clean payload
        r = Record("m1", 3.5, "payload body")
        assert Record.deserialize(r.serialize()) == r

    def test_deserialize_rejects_malformed(self):
        with pytest.raises(ConfigError):
            Record.deserialize("only-one-field")
        with pytest.raises(ConfigError):
            Record.deserialize("a\tnot-a-number\tx")

    def test_rejects_empty_sub_id(self):
        with pytest.raises(ConfigError):
            Record("", 0.0)

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ConfigError):
            Record("a", -1.0)

    def test_frozen(self):
        r = Record("a", 0.0)
        with pytest.raises(AttributeError):
            r.sub_id = "b"  # type: ignore[misc]


class TestBlock:
    def test_append_until_full(self):
        b = Block(0, capacity_bytes=100)
        r = Record("s", 0.0, "x" * 20)  # nbytes = 1+5+20+2 = 28
        assert b.try_append(r)
        assert b.try_append(r)
        assert b.try_append(r)
        assert not b.try_append(r)  # 4th would exceed 100
        assert b.num_records == 3

    def test_oversized_record_raises_on_empty_block(self):
        b = Block(0, capacity_bytes=10)
        with pytest.raises(StorageError):
            b.try_append(Record("s", 0.0, "x" * 100))
        assert b.num_records == 0

    def test_oversized_record_on_partial_block_defers(self):
        # a non-empty block never raises: only the *empty* block can prove
        # the record fits nowhere, so the caller gets False and retries
        # against a fresh block (where the oversize check then fires)
        b = Block(0, capacity_bytes=100)
        assert b.try_append(Record("s", 0.0, "x" * 20))
        huge = Record("s", 0.0, "x" * 200)
        assert not b.try_append(huge)
        assert b.num_records == 1
        with pytest.raises(StorageError):
            Block(1, capacity_bytes=100).try_append(huge)

    def test_scan_yields_sid_and_bytes(self):
        b = Block(0, capacity_bytes=1000)
        r = Record("s1", 0.0, "abc")
        b.try_append(r)
        assert list(b.scan()) == [("s1", r.nbytes)]

    def test_subdataset_sizes_ground_truth(self):
        b = Block(0, capacity_bytes=10_000)
        for i in range(6):
            b.try_append(Record(f"s{i % 2}", float(i), "pp"))
        sizes = b.subdataset_sizes()
        assert set(sizes) == {"s0", "s1"}
        assert sizes["s0"] == sizes["s1"]
        assert sum(sizes.values()) == b.used_bytes

    def test_filter(self):
        b = Block(0, capacity_bytes=10_000)
        for i in range(4):
            b.try_append(Record(f"s{i % 2}", float(i)))
        assert len(b.filter("s0")) == 2
        assert all(r.sub_id == "s0" for r in b.filter("s0"))

    def test_validation(self):
        with pytest.raises(ConfigError):
            Block(-1)
        with pytest.raises(ConfigError):
            Block(0, capacity_bytes=0)


class TestPackRecords:
    def test_sequential_ids(self):
        recs = make_records({"a": 50}, payload_len=30)
        blocks = pack_records(recs, block_size=500)
        assert [b.block_id for b in blocks] == list(range(len(blocks)))
        assert len(blocks) > 1

    def test_order_preserved(self):
        recs = make_records({"a": 10, "b": 10}, payload_len=10)
        blocks = pack_records(recs, block_size=10**6)
        flat = [r for b in blocks for r in b.records()]
        assert flat == recs

    def test_no_record_lost(self):
        recs = make_records({"a": 33, "b": 21}, payload_len=25)
        blocks = pack_records(recs, block_size=300)
        assert sum(b.num_records for b in blocks) == 54

    def test_blocks_respect_capacity(self):
        recs = make_records({"a": 100}, payload_len=40)
        blocks = pack_records(recs, block_size=256)
        assert all(b.used_bytes <= 256 for b in blocks)

    def test_bad_block_size(self):
        with pytest.raises(ConfigError):
            pack_records([], 0)

    def test_empty_stream_single_empty_block(self):
        blocks = pack_records([], 100)
        assert len(blocks) == 1
        assert blocks[0].num_records == 0

    @given(st.integers(64, 512), st.integers(1, 120))
    @settings(max_examples=30, deadline=None)
    def test_property_conservation(self, block_size, n):
        recs = [Record("s", float(i), "p" * 10) for i in range(n)]
        blocks = pack_records(recs, block_size)
        assert sum(b.num_records for b in blocks) == n
        assert sum(b.used_bytes for b in blocks) == sum(r.nbytes for r in recs)


class TestPlacementPolicies:
    def test_random_distinct_nodes(self):
        p = RandomPlacement(3, rng=np.random.default_rng(0))
        for bid in range(50):
            nodes = p.place(bid, list(range(10)))
            assert len(nodes) == 3
            assert len(set(nodes)) == 3

    def test_random_clamps_to_cluster_size(self):
        p = RandomPlacement(3, rng=np.random.default_rng(0))
        assert len(p.place(0, [0, 1])) == 2

    def test_random_empty_cluster_raises(self):
        p = RandomPlacement(3, rng=np.random.default_rng(0))
        with pytest.raises(ReplicationError):
            p.place(0, [])

    def test_round_robin_deterministic_striping(self):
        p = RoundRobinPlacement(3)
        assert p.place(0, [0, 1, 2, 3]) == [0, 1, 2]
        assert p.place(3, [0, 1, 2, 3]) == [3, 0, 1]

    def test_round_robin_balanced_block_counts(self):
        p = RoundRobinPlacement(2)
        counts = {n: 0 for n in range(4)}
        for bid in range(40):
            for n in p.place(bid, list(range(4))):
                counts[n] += 1
        assert max(counts.values()) == min(counts.values())

    def test_rack_aware_spans_two_racks(self):
        p = RackAwarePlacement(3, num_racks=4, rng=np.random.default_rng(1))
        nodes = list(range(16))
        for bid in range(50):
            placed = p.place(bid, nodes)
            assert len(set(placed)) == 3
            racks = {p.rack_of(n, 16) for n in placed}
            assert len(racks) == 2  # replicas 2 and 3 share a rack != replica 1's

    def test_rack_aware_single_rack_degrades(self):
        p = RackAwarePlacement(3, num_racks=1, rng=np.random.default_rng(2))
        placed = p.place(0, list(range(5)))
        assert len(set(placed)) == 3

    def test_replication_validation(self):
        with pytest.raises(ConfigError):
            RandomPlacement(0)
        with pytest.raises(ConfigError):
            RackAwarePlacement(3, num_racks=0)


class TestNameNode:
    def test_register_and_lookup(self):
        nn = NameNode()
        nn.register_block("d", 0, 100, [1, 2, 3])
        assert nn.blocks_of("d") == [0]
        assert nn.block_locations("d", 0) == (1, 2, 3)
        assert nn.dataset_bytes("d") == 100

    def test_duplicate_registration_rejected(self):
        nn = NameNode()
        nn.register_block("d", 0, 100, [1])
        with pytest.raises(StorageError):
            nn.register_block("d", 0, 50, [2])

    def test_unknown_dataset(self):
        nn = NameNode()
        with pytest.raises(BlockNotFoundError):
            nn.blocks_of("nope")
        with pytest.raises(BlockNotFoundError):
            nn.block_meta("nope", 0)

    def test_placement_map(self):
        nn = NameNode()
        nn.register_block("d", 0, 10, [1])
        nn.register_block("d", 1, 10, [2, 3])
        assert nn.placement("d") == {0: (1,), 1: (2, 3)}

    def test_blocks_on_node(self):
        nn = NameNode()
        nn.register_block("d", 0, 10, [1, 2])
        nn.register_block("e", 0, 10, [2])
        assert nn.blocks_on_node(2) == [("d", 0), ("e", 0)]

    def test_meta_validation(self):
        nn = NameNode()
        with pytest.raises(ConfigError):
            nn.register_block("d", 0, -1, [1])
        with pytest.raises(ConfigError):
            nn.register_block("d", 1, 10, [])
        with pytest.raises(ConfigError):
            nn.register_block("d", 2, 10, [1, 1])


class TestDataNode:
    def test_store_and_get(self):
        dn = DataNode(0)
        b = Block(0, 100)
        dn.store_replica("d", b)
        assert dn.has_replica("d", 0)
        assert dn.get_replica("d", 0) is b

    def test_double_store_rejected(self):
        dn = DataNode(0)
        b = Block(0, 100)
        dn.store_replica("d", b)
        with pytest.raises(StorageError):
            dn.store_replica("d", b)

    def test_missing_replica(self):
        dn = DataNode(0)
        with pytest.raises(StorageError):
            dn.get_replica("d", 0)

    def test_used_bytes(self):
        dn = DataNode(0)
        b = Block(0, 1000)
        b.try_append(Record("s", 0.0, "xyz"))
        dn.store_replica("d", b)
        assert dn.used_bytes() == b.used_bytes


class TestHDFSCluster:
    def test_write_dataset_replication_invariant(self, small_cluster):
        recs = make_records({"a": 40, "b": 40}, payload_len=30)
        ds = small_cluster.write_dataset("d", recs)
        for bid, replicas in ds.placement().items():
            assert len(set(replicas)) == 3
            for node in replicas:
                assert small_cluster.datanodes[node].has_replica("d", bid)

    def test_dataset_total_bytes_matches_records(self, small_cluster):
        recs = make_records({"a": 40}, payload_len=30)
        ds = small_cluster.write_dataset("d", recs)
        assert ds.total_bytes == sum(r.nbytes for r in recs)

    def test_duplicate_dataset_rejected(self, small_cluster):
        small_cluster.write_dataset("d", make_records({"a": 3}))
        with pytest.raises(ConfigError):
            small_cluster.write_dataset("d", make_records({"a": 3}))

    def test_dataset_view_lookup(self, small_cluster):
        small_cluster.write_dataset("d", make_records({"a": 3}))
        assert small_cluster.dataset("d").num_blocks >= 1
        with pytest.raises(BlockNotFoundError):
            small_cluster.dataset("unknown")

    def test_subdataset_ground_truth(self, small_cluster):
        recs = make_records({"a": 30, "b": 10}, payload_len=30)
        ds = small_cluster.write_dataset("d", recs)
        total_a = ds.subdataset_total_bytes("a")
        assert total_a == sum(r.nbytes for r in recs if r.sub_id == "a")
        per_block = ds.subdataset_bytes_per_block("a")
        assert sum(per_block.values()) == total_a
        assert ds.subdataset_ids() == ["a", "b"]
        assert ds.subdataset_sizes()["b"] == ds.subdataset_total_bytes("b")

    def test_records_of(self, small_cluster):
        recs = make_records({"a": 7, "b": 2}, payload_len=10)
        ds = small_cluster.write_dataset("d", recs)
        got = ds.records_of("a")
        assert len(got) == 7
        assert all(r.sub_id == "a" for r in got)

    def test_scan_blocks_matches_ground_truth(self, small_cluster):
        recs = make_records({"a": 20, "b": 20}, payload_len=30)
        ds = small_cluster.write_dataset("d", recs)
        scanned_total = sum(
            nbytes for _bid, obs in ds.scan_blocks() for _sid, nbytes in obs
        )
        assert scanned_total == ds.total_bytes

    def test_rack_striping(self):
        c = HDFSCluster(num_nodes=8, num_racks=4, rng=np.random.default_rng(0))
        assert c.rack_of(0) == 0
        assert c.rack_of(5) == 1
        with pytest.raises(ConfigError):
            c.rack_of(99)

    def test_validation(self):
        with pytest.raises(ConfigError):
            HDFSCluster(num_nodes=0)
        with pytest.raises(ConfigError):
            HDFSCluster(num_nodes=2, block_size=0)
        with pytest.raises(ConfigError):
            HDFSCluster(num_nodes=2, num_racks=0)


class TestLocalitySchedulerDelay:
    def test_stock_scheduler_has_delay_patience(self):
        from repro.core.bipartite import BipartiteGraph
        from repro.hdfs import HDFSCluster
        from repro.mapreduce.scheduler import LocalityScheduler

        placement = {b: [5, 6, 7] for b in range(3)}
        g = BipartiteGraph(placement, {b: 10 for b in range(3)},
                           nodes=list(range(8)))
        a = LocalityScheduler().schedule(g)
        assert a.locality_fraction == 1.0
