"""Tests for the shard layer: router stability, sharded store, reshard."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DiGraph, Graph, powerlaw_graph
from repro.storage import DiskKVStore, GraphStore, ShardedGraphStore, ShardRouter
from repro.storage.faults import FaultConfig, FaultInjectingKVStore

_MASK64 = (1 << 64) - 1


def _reference_mix64(x):
    """Independent splitmix64 finalizer the router must agree with."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class TestShardRouter:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardRouter(0)

    @given(v=st.integers(min_value=0, max_value=2**32 - 1),
           shards=st.integers(min_value=1, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_mixer(self, v, shards):
        router = ShardRouter(shards)
        assert router.shard_of(v) == _reference_mix64(v) % shards

    @given(ids=st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                        min_size=1, max_size=100),
           shards=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_vectorized_agrees_with_scalar(self, ids, shards):
        router = ShardRouter(shards)
        vec = router.shard_of_array(np.asarray(ids, dtype=np.int64))
        assert vec.tolist() == [router.shard_of(v) for v in ids]

    @given(ids=st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                        min_size=0, max_size=100),
           shards=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_partition_is_exact_and_input_stable(self, ids, shards):
        router = ShardRouter(shards)
        arr = np.asarray(ids, dtype=np.int64)
        parts = router.partition(arr)
        assert len(parts) == shards
        seen = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        # every input position exactly once
        assert sorted(seen.tolist()) == list(range(len(ids)))
        for shard, idx in enumerate(parts):
            # routed to the owner, in original order
            assert all(router.shard_of(ids[i]) == shard for i in idx)
            assert idx.tolist() == sorted(idx.tolist())

    def test_stable_across_processes_and_hash_seeds(self):
        """The assignment must not depend on PYTHONHASHSEED or the
        process: a store written by one process is read by another."""
        ids = [0, 1, 7, 123456, 2**31, 2**32 - 1]
        expected = [ShardRouter(8).shard_of(v) for v in ids]
        code = (
            "from repro.storage import ShardRouter;"
            f"print([ShardRouter(8).shard_of(v) for v in {ids!r}])"
        )
        for seed in ("0", "1", "31337"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
            )
            assert eval(out.stdout.strip()) == expected


def _ring_graph(n):
    return Graph([(i, (i + 1) % n) for i in range(n)])


class TestShardedGraphStore:
    def test_single_shard_behaves_like_plain_store(self):
        g = _ring_graph(12)
        plain = GraphStore()
        plain.bulk_load(g)
        sharded = ShardedGraphStore(num_shards=1)
        sharded.bulk_load(g)
        for v in g.vertices():
            assert sharded.get_neighbors(v) == plain.get_neighbors(v)

    def test_bulk_load_partitions_by_owner(self):
        g = _ring_graph(40)
        store = ShardedGraphStore(num_shards=4)
        store.bulk_load(g)
        assert store.num_vertices == 40
        for v in g.vertices():
            owner = store.router.shard_of(v)
            assert store.segments[owner].has_vertex(v)
            for other in range(4):
                if other != owner:
                    assert not store.segments[other].has_vertex(v)

    def test_has_edge_many_matches_scalar(self):
        g = powerlaw_graph(200, avg_degree=6, seed=3)
        store = ShardedGraphStore(num_shards=3)
        store.bulk_load(g)
        rng = np.random.default_rng(0)
        verts = np.asarray(sorted(g.vertices()), dtype=np.int64)
        us = verts[rng.integers(0, len(verts), size=300)]
        vs = verts[rng.integers(0, len(verts), size=300)]
        batch = store.has_edge_many(us, vs)
        assert batch.tolist() == [store.has_edge(int(u), int(v))
                                  for u, v in zip(us, vs)]

    def test_cross_shard_edge_updates(self):
        store = ShardedGraphStore(num_shards=4)
        store.bulk_load(Graph([(1, 2)]))
        assert store.insert_edge(1, 3)
        assert not store.insert_edge(1, 3)  # idempotent
        assert store.has_edge(1, 3) and store.has_edge(3, 1)
        assert store.delete_edge(1, 3)
        assert not store.has_edge(1, 3) and not store.has_edge(3, 1)
        with pytest.raises(ValueError):
            store.insert_edge(5, 5)

    def test_delete_vertex_reaches_every_segment(self):
        store = ShardedGraphStore(num_shards=4)
        store.bulk_load(Graph([(0, 1), (0, 2), (0, 3), (2, 3)]))
        assert store.delete_vertex(0)
        assert not store.has_vertex(0)
        for v in (1, 2, 3):
            assert 0 not in store.get_neighbors(v)
        assert store.has_edge(2, 3)
        assert not store.delete_vertex(0)

    def test_directed_graphs_store_merged_neighbors(self):
        g = DiGraph([(1, 2), (3, 1)])
        store = ShardedGraphStore(num_shards=2)
        store.bulk_load(g)
        assert store.get_neighbors(1) == [2, 3]

    def test_get_neighbors_many_names_all_missing(self):
        store = ShardedGraphStore(num_shards=4)
        store.bulk_load(_ring_graph(8))
        with pytest.raises(KeyError, match=r"\[100, 200\]"):
            store.get_neighbors_many([0, 100, 1, 200])

    def test_stats_aggregate_sums_segments(self, tmp_path):
        g = _ring_graph(64)
        store = ShardedGraphStore(tmp_path / "g.db", num_shards=4)
        store.bulk_load(g)
        store.stats.reset()
        verts = np.asarray(sorted(g.vertices()), dtype=np.int64)
        store.has_edge_many(verts, np.roll(verts, -1))
        total = store.stats.disk_reads
        assert total == sum(seg.stats.disk_reads for seg in store.segments)
        assert total == 64  # one adjacency read per distinct left endpoint
        store.close()

    def test_segment_files_on_disk(self, tmp_path):
        store = ShardedGraphStore(tmp_path / "g.db", num_shards=3)
        store.bulk_load(_ring_graph(9))
        store.close()
        for shard in range(3):
            assert (tmp_path / f"g.db.shard{shard}").exists()
        # reopen sees the same data
        with ShardedGraphStore(tmp_path / "g.db", num_shards=3) as again:
            assert sorted(again.vertices()) == list(range(9))

    def test_kv_factory_faults_stay_shard_local(self, tmp_path):
        """Per-shard fault passthrough: only the wrapped segment
        degrades; healthy shards answer normally."""
        def factory(seg_path, shard):
            inner = DiskKVStore(seg_path)
            if shard == 0:
                return FaultInjectingKVStore(
                    inner, FaultConfig(read_error_rate=0.2, seed=5))
            return inner

        store = ShardedGraphStore(tmp_path / "f.db", num_shards=2,
                                  kv_factory=factory)
        store.bulk_load(_ring_graph(32))
        for v in range(32):
            store.get_neighbors(v)  # retries hide the injected errors
        assert store.segments[0].degraded
        assert not store.segments[1].degraded
        assert store.degraded  # aggregate latches on any segment
        store.close()


class TestReshard:
    @given(edges=st.lists(
        st.tuples(st.integers(min_value=0, max_value=60),
                  st.integers(min_value=0, max_value=60)).filter(
                      lambda e: e[0] != e[1]),
        min_size=1, max_size=80),
        s_from=st.integers(min_value=1, max_value=5),
        s_to=st.integers(min_value=1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_reshard_preserves_every_adjacency(self, edges, s_from, s_to):
        g = Graph(edges)
        store = ShardedGraphStore(num_shards=s_from)
        store.bulk_load(g)
        store.begin_reshard(s_to)
        store.finish_reshard()
        assert store.num_shards == s_to
        assert sorted(store.vertices()) == sorted(g.vertices())
        for v in g.vertices():
            assert store.get_neighbors(v) == g.sorted_neighbors(v)

    def test_reshard_to_disk(self, tmp_path):
        g = _ring_graph(20)
        store = ShardedGraphStore(num_shards=2)
        store.bulk_load(g)
        store.begin_reshard(4, path=tmp_path / "r.db")
        store.finish_reshard()
        for v in g.vertices():
            assert store.get_neighbors(v) == g.sorted_neighbors(v)
        store.close()
        # The relocated layout is durable under plain generation-0 names.
        reopened = ShardedGraphStore(tmp_path / "r.db", num_shards=4)
        for v in g.vertices():
            assert reopened.get_neighbors(v) == g.sorted_neighbors(v)
        reopened.close()
