"""Tests for online resharding: two-generation routing, the mutation
guard, reshard config inheritance, and concurrent delete_vertex."""

import threading

import numpy as np
import pytest

from repro.core import HybPlusVend
from repro.graph import Graph, powerlaw_graph
from repro.storage import (
    FaultConfig,
    FaultInjectingKVStore,
    GraphStore,
    ShardedGraphStore,
)
from repro.storage.kvstore import DiskKVStore


def _ring_graph(n):
    return Graph([(i, (i + 1) % n) for i in range(n)])


def _assert_matches(store, graph):
    assert sorted(store.vertices()) == sorted(graph.vertices())
    for v in graph.vertices():
        assert store.get_neighbors(v) == graph.sorted_neighbors(v)


class TestOnlineReshard:
    @pytest.mark.parametrize("s_from,s_to", [(4, 2), (2, 4), (3, 3)])
    def test_flip_preserves_every_adjacency(self, s_from, s_to):
        g = powerlaw_graph(120, avg_degree=6, seed=1)
        store = ShardedGraphStore(num_shards=s_from)
        store.bulk_load(g)
        store.begin_reshard(s_to)
        assert store.reshard_active
        while store.migrate_step(16):
            pass
        store.finish_reshard()
        assert not store.reshard_active
        assert store.num_shards == s_to
        _assert_matches(store, g)

    def test_reads_are_correct_mid_migration(self):
        g = powerlaw_graph(100, avg_degree=5, seed=2)
        store = ShardedGraphStore(num_shards=4)
        store.bulk_load(g)
        store.begin_reshard(2)
        verts = np.asarray(sorted(g.vertices()), dtype=np.int64)
        rng = np.random.default_rng(0)
        while True:
            moved = store.migrate_step(8)
            us = verts[rng.integers(0, len(verts), size=64)]
            vs = verts[rng.integers(0, len(verts), size=64)]
            got = store.has_edge_many(us, vs)
            expected = [g.has_edge(int(u), int(v)) for u, v in zip(us, vs)]
            assert got.tolist() == expected
            if moved == 0:
                break
        store.finish_reshard()
        _assert_matches(store, g)

    def test_writes_during_migration_land_in_both_generations(self):
        g = _ring_graph(40)
        store = ShardedGraphStore(num_shards=2)
        store.bulk_load(g)
        store.begin_reshard(4)
        store.migrate_step(20)               # partially migrated
        store.insert_edge(0, 20)             # endpoints in either gen
        store.delete_edge(1, 2)
        store.put_neighbors(999, [])         # brand-new vertex
        g.add_vertex(999)
        g.add_edge(0, 20)
        g.remove_edge(1, 2)
        assert store.has_edge(0, 20) and store.has_edge(20, 0)
        assert not store.has_edge(1, 2)
        store.finish_reshard()
        _assert_matches(store, g)

    def test_generation_counter_bumps_at_begin_and_flip(self):
        store = ShardedGraphStore(num_shards=2)
        store.bulk_load(_ring_graph(10))
        assert store.generation == 0
        store.begin_reshard(4)
        assert store.generation == 1
        assert len(store.segments) == 6      # combined old + new space
        store.finish_reshard()
        assert store.generation == 2
        assert len(store.segments) == 4

    def test_second_reshard_after_flip(self):
        g = _ring_graph(30)
        store = ShardedGraphStore(num_shards=2)
        store.bulk_load(g)
        store.begin_reshard(4)
        store.finish_reshard()
        store.begin_reshard(2)
        store.finish_reshard()
        assert store.num_shards == 2
        _assert_matches(store, g)

    def test_begin_twice_raises(self):
        store = ShardedGraphStore(num_shards=2)
        store.bulk_load(_ring_graph(8))
        store.begin_reshard(4)
        with pytest.raises(RuntimeError):
            store.begin_reshard(3)
        store.finish_reshard()
        with pytest.raises(RuntimeError):
            store.finish_reshard()

    def test_relocating_reshard_is_reopenable(self, tmp_path):
        g = _ring_graph(20)
        store = ShardedGraphStore(tmp_path / "old.db", num_shards=2)
        store.bulk_load(g)
        store.begin_reshard(4, path=tmp_path / "new.db")
        store.finish_reshard()
        _assert_matches(store, g)
        store.close()
        with ShardedGraphStore(tmp_path / "new.db", num_shards=4) as again:
            _assert_matches(again, g)

    def test_in_place_disk_reshard(self, tmp_path):
        g = _ring_graph(20)
        store = ShardedGraphStore(tmp_path / "g.db", num_shards=2)
        store.bulk_load(g)
        store.begin_reshard(4)
        store.finish_reshard()
        _assert_matches(store, g)
        # The new generation lives under a .g1 prefix, away from the
        # retired generation's files.
        assert (tmp_path / "g.db.g1.shard0").exists()
        store.close()

    def test_finish_reshard_preflushes_segments_before_flip(
            self, tmp_path, monkeypatch):
        """The heavy fsync happens per-segment *before* the flip span.

        Each new-generation segment must see exactly two durable
        flushes: the chunked pre-flush (its own short exclusive
        window) and the near-empty straggler sync inside the flip.
        """
        g = powerlaw_graph(80, avg_degree=5, seed=4)
        store = ShardedGraphStore(tmp_path / "old.db", num_shards=2)
        store.bulk_load(g)
        store.begin_reshard(4, path=tmp_path / "new.db")
        while store.migrate_step(16):
            pass
        new_segments = list(store._migration.segments)
        sync_flushes: list[int] = []
        orig_flush = GraphStore.flush

        def counting_flush(self, sync=False):
            if sync:
                sync_flushes.append(id(self))
            return orig_flush(self, sync)

        monkeypatch.setattr(GraphStore, "flush", counting_flush)
        store.finish_reshard()
        for seg in new_segments:
            assert sync_flushes.count(id(seg)) == 2, (
                "expected pre-flush + straggler sync for each segment")
        _assert_matches(store, g)
        store.close()
        # Durability: the flipped generation reopens complete.
        with ShardedGraphStore(tmp_path / "new.db", num_shards=4) as again:
            _assert_matches(again, g)

    def test_progress_gauges_move(self):
        store = ShardedGraphStore(num_shards=2)
        store.bulk_load(_ring_graph(32))
        stats = store.reshard_stats
        store.begin_reshard(4)
        assert stats.active == 1
        assert stats.vertices_pending == 32
        store.migrate_step(16)
        assert 0.0 < stats.progress < 1.0
        store.finish_reshard()
        assert stats.active == 0
        assert stats.progress == 1.0
        assert stats.migrations == 1
        assert stats.vertices_migrated >= 32


class TestReshardConfigInheritance:
    """Satellite regression: resharding used to silently drop the source
    store's compress/mmap/cache/kv_factory configuration.  The
    ``offline`` tests relocate the store to a new base path, the job
    the retired offline copy did."""

    def test_offline_reshard_inherits_compress_and_mmap(self, tmp_path):
        g = _ring_graph(24)
        store = ShardedGraphStore(tmp_path / "src.db", num_shards=2,
                                  cache_bytes=1 << 14, compress=True,
                                  use_mmap=True)
        store.bulk_load(g)
        store.begin_reshard(4, path=tmp_path / "dst.db")
        store.finish_reshard()
        _assert_matches(store, g)
        for shard, seg in enumerate(store.segments):
            assert seg._kv.path == tmp_path / f"dst.db.shard{shard}"
            assert seg._kv._compress is True
            assert seg._kv._use_mmap is True
            assert seg._kv._cache is not None
        # The relocated records really are compressed blobs.
        before = store.stats.compressed_puts
        store.put_neighbors(500, list(range(0, 64, 2)))
        assert store.stats.compressed_puts > before
        store.close()

    def test_offline_reshard_inherits_kv_factory(self, tmp_path):
        wrapped = []

        def factory(seg_path, shard):
            injector = FaultInjectingKVStore(DiskKVStore(seg_path),
                                             FaultConfig(seed=shard))
            wrapped.append(injector)
            return injector

        store = ShardedGraphStore(tmp_path / "src.db", num_shards=2,
                                  kv_factory=factory)
        g = _ring_graph(12)
        store.bulk_load(g)
        built_for_source = len(wrapped)
        store.begin_reshard(3, path=tmp_path / "dst.db")
        store.finish_reshard()
        assert len(wrapped) == built_for_source + 3
        for seg in store.segments:
            assert isinstance(seg._kv, FaultInjectingKVStore)
        _assert_matches(store, g)
        store.close()

    def test_online_reshard_inherits_config(self, tmp_path):
        g = _ring_graph(16)
        store = ShardedGraphStore(tmp_path / "g.db", num_shards=2,
                                  compress=True, use_mmap=True)
        store.bulk_load(g)
        store.begin_reshard(4)
        store.finish_reshard()
        for seg in store.segments:
            assert seg._kv._compress is True
            assert seg._kv._use_mmap is True
        _assert_matches(store, g)
        store.close()


class TestConcurrentDeleteVertex:
    """Satellite regression: delete_vertex used to scrub half-edges
    segment by segment with no guard, so a concurrent batch could see
    (u, v) gone while (v, u) still existed."""

    def test_batches_never_observe_half_deleted_vertices(self):
        n = 60
        g = _ring_graph(n)
        extra = [(i, (i + 7) % n) for i in range(0, n, 3)]
        for u, v in extra:
            if u != v:
                g.add_edge(u, v)
        store = ShardedGraphStore(num_shards=4)
        store.bulk_load(g)

        victims = list(range(0, n, 4))
        edges = sorted(g.edges())
        us = np.asarray([u for u, _ in edges] + [v for _, v in edges],
                        dtype=np.int64)
        vs = np.asarray([v for _, v in edges] + [u for u, _ in edges],
                        dtype=np.int64)
        half = len(edges)

        asymmetries = []
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    got = store.has_edge_many(us, vs)
                except KeyError:
                    # A fully-deleted vertex is a legitimate miss; a
                    # half-deleted one would show up as an asymmetry.
                    continue
                except Exception as exc:  # noqa: BLE001 - any crash fails
                    errors.append(repr(exc))
                    return
                forward, backward = got[:half], got[half:]
                for i in range(half):
                    if forward[i] != backward[i]:
                        asymmetries.append(edges[i])

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for v in victims:
                store.delete_vertex(v)
        finally:
            stop.set()
            for t in threads:
                t.join()

        assert not errors
        assert not asymmetries
        for v in victims:
            assert not store.has_vertex(v)
        for u in store.vertices():
            assert not set(store.get_neighbors(u)) & set(victims)

    def test_parallel_engine_batches_stay_symmetric(self):
        """The engine's read guard must span a whole batch: fan-out
        plus merge happen against one consistent store state."""
        from repro.apps.edge_query import ParallelEdgeQueryEngine

        n = 48
        g = _ring_graph(n)
        store = ShardedGraphStore(num_shards=4)
        store.bulk_load(g)
        engine = ParallelEdgeQueryEngine(store, None, workers=4)

        edges = sorted(g.edges())
        us = np.asarray([u for u, _ in edges] + [v for _, v in edges],
                        dtype=np.int64)
        vs = np.asarray([v for _, v in edges] + [u for u, _ in edges],
                        dtype=np.int64)
        half = len(edges)

        asymmetries = []
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    got = engine.has_edge_batch(us, vs)
                except KeyError:
                    continue  # fully-deleted vertex: a legitimate miss
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))
                    return
                bad = got[:half] != got[half:]
                if bad.any():
                    asymmetries.extend(
                        edges[i] for i in np.flatnonzero(bad))

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for v in range(0, n, 5):
                store.delete_vertex(v)
        finally:
            stop.set()
            thread.join()
        engine.close()
        assert not errors
        assert not asymmetries


class TestEngineGenerationAwareness:
    def test_engine_tracks_reshard_generations(self):
        from repro.apps.edge_query import ParallelEdgeQueryEngine

        g = powerlaw_graph(80, avg_degree=5, seed=4)
        store = ShardedGraphStore(num_shards=4)
        store.bulk_load(g)
        engine = ParallelEdgeQueryEngine(store, None, workers=4)
        verts = np.asarray(sorted(g.vertices()), dtype=np.int64)
        us, vs = verts, np.roll(verts, -1)
        expected = [g.has_edge(int(u), int(v)) for u, v in zip(us, vs)]

        assert engine.has_edge_batch(us, vs).tolist() == expected
        store.begin_reshard(2)
        store.migrate_step(20)
        # Mid-migration: the routable space is old + new generations.
        assert engine.has_edge_batch(us, vs).tolist() == expected
        assert len(engine.shard_stats) == 6
        store.finish_reshard()
        assert engine.has_edge_batch(us, vs).tolist() == expected
        assert len(engine.shard_stats) == 2
        assert engine.has_edge(int(us[0]), int(vs[0])) == expected[0]
        engine.close()

    def test_queries_concurrent_with_online_reshard(self):
        from repro.apps.edge_query import ParallelEdgeQueryEngine

        g = powerlaw_graph(120, avg_degree=6, seed=5)
        store = ShardedGraphStore(num_shards=4)
        store.bulk_load(g)
        engine = ParallelEdgeQueryEngine(store, None, workers=4)
        verts = np.asarray(sorted(g.vertices()), dtype=np.int64)
        us, vs = verts, np.roll(verts, -1)
        expected = [g.has_edge(int(u), int(v)) for u, v in zip(us, vs)]

        wrong = []
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    got = engine.has_edge_batch(us, vs)
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))
                    return
                if got.tolist() != expected:
                    wrong.append(got)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        try:
            store.begin_reshard(2)
            while store.migrate_step(10):
                pass
            store.finish_reshard()
        finally:
            stop.set()
            for t in threads:
                t.join()
        engine.close()
        assert not errors
        assert not wrong
        assert store.num_shards == 2


class TestDatabaseReshard:
    def test_db_reshard_roundtrip(self):
        from repro.apps import VendGraphDB

        g = powerlaw_graph(100, avg_degree=5, seed=6)
        db = VendGraphDB(shards=4, k=6)
        db.load_graph(g)
        verts = np.asarray(sorted(g.vertices()), dtype=np.int64)
        us, vs = verts, np.roll(verts, -1)
        expected = [g.has_edge(int(u), int(v)) for u, v in zip(us, vs)]
        db.reshard(2)
        assert db.num_shards == 2
        assert db.has_edge_batch(us, vs).tolist() == expected
        db.reshard(4)
        assert db.num_shards == 4
        assert db.has_edge_batch(us, vs).tolist() == expected
        # Mutations keep working across the new layout.
        assert db.remove_edge(int(us[0]), int(vs[0])) == expected[0]
        db.close()

    def test_default_db_reshards_one_to_two_and_back(self):
        from repro.apps import VendGraphDB

        g = powerlaw_graph(80, avg_degree=5, seed=9)
        db = VendGraphDB(k=6)
        db.load_graph(g)
        assert db.num_shards == 1
        verts = sorted(g.vertices())
        pairs = [(u, v) for u in verts for v in verts if u != v]
        us = np.asarray([u for u, _ in pairs], dtype=np.int64)
        vs = np.asarray([v for _, v in pairs], dtype=np.int64)
        expected = [g.has_edge(u, v) for u, v in pairs]
        for shards in (2, 1):
            db.reshard(shards)
            assert db.num_shards == shards
            assert db.has_edge_batch(us, vs).tolist() == expected
            assert len(db.shard_query_stats) == shards
            assert [db.has_edge(u, v) for u, v in pairs[::7]] == expected[::7]
        db.close()

    def test_shard_ledgers_follow_reshard_before_any_query(self):
        from repro.apps import VendGraphDB

        g = powerlaw_graph(60, avg_degree=4, seed=5)
        db = VendGraphDB(k=6)
        db.load_graph(g)
        assert len(db.shard_query_stats) == 1
        db.reshard(2)
        assert len(db.shard_query_stats) == 2
        db.close()

    def test_db_reshard_with_replicas(self):
        from repro.apps import VendGraphDB

        g = powerlaw_graph(60, avg_degree=4, seed=7)
        db = VendGraphDB(shards=2, replicas=1, k=6)
        db.load_graph(g)
        db.reshard(4)
        assert db.num_shards == 4
        assert db.replicas == 1
        for seg in db.store.segments:
            assert seg.num_replicas == 1
        for v in g.vertices():
            assert db.neighbors(v) == g.sorted_neighbors(v)
        db.close()


class TestChaosAudit:
    def test_chaos_audit_passes_both_directions(self):
        from repro.devtools import audit_chaos

        g = powerlaw_graph(150, avg_degree=6, seed=8)
        for shards, to in ((4, 2), (2, 4)):
            report = audit_chaos(g, HybPlusVend(k=6), shards=shards,
                                 replicas=1, workers=shards, seed=3,
                                 pairs=300, updates=12, reshard_to=to)
            assert report.ok, report.summary()
            assert report.failovers > 0
            assert report.reshard_to == to
