"""Tests for the integrated VendGraphDB facade."""

import random

import pytest

from repro.apps.database import VendGraphDB
from repro.graph import powerlaw_graph
from repro.storage import ShardedGraphStore
from repro.storage.kvstore import DiskKVStore


@pytest.fixture
def db(tmp_path):
    graph = powerlaw_graph(200, avg_degree=8, seed=160)
    database = VendGraphDB(tmp_path / "db.log", k=4)
    database.load_graph(graph)
    yield graph, database
    database.close()


class TestSetup:
    def test_invalid_method(self):
        with pytest.raises(ValueError):
            VendGraphDB(method="bloom")

    def test_rejects_non_thread_executor(self, tmp_path):
        with pytest.raises(ValueError, match="executor"):
            VendGraphDB(tmp_path / "db.log", executor="process")

    def test_updates_require_load(self):
        database = VendGraphDB()
        with pytest.raises(RuntimeError):
            database.add_edge(1, 2)

    def test_load_answers_ground_truth(self, db):
        graph, database = db
        rng = random.Random(161)
        vertices = sorted(graph.vertices())
        for _ in range(3000):
            u, v = rng.sample(vertices, 2)
            assert database.has_edge(u, v) == graph.has_edge(u, v)
        assert database.query_stats.filter_rate > 0.5

    def test_rebuild_index_from_storage(self, db):
        graph, database = db
        database.rebuild_index()
        assert database.index_rebuilds == 1
        rng = random.Random(162)
        vertices = sorted(graph.vertices())
        for _ in range(1000):
            u, v = rng.sample(vertices, 2)
            assert database.has_edge(u, v) == graph.has_edge(u, v)


class TestUpdates:
    def test_add_edge_visible_and_consistent(self, db):
        graph, database = db
        vertices = sorted(graph.vertices())
        pair = next(
            (u, v) for u in vertices for v in vertices
            if u < v and not graph.has_edge(u, v)
        )
        assert database.add_edge(*pair)
        assert database.has_edge(*pair)
        assert not database.add_edge(*pair)  # idempotent

    def test_remove_edge(self, db):
        graph, database = db
        u, v = next(iter(graph.edges()))
        assert database.remove_edge(u, v)
        assert not database.has_edge(u, v)
        assert not database.remove_edge(u, v)

    def test_remove_vertex(self, db):
        graph, database = db
        v = max(graph.vertices(), key=graph.degree)
        neighbors = database.neighbors(v)
        assert database.remove_vertex(v)
        assert not database.has_vertex(v)
        for u in neighbors:
            assert not database.has_edge(u, v)
        assert not database.remove_vertex(v)

    def test_new_vertex_triggers_capacity_rebuild(self, db):
        graph, database = db
        giant = 1 << 20  # far beyond the current I'
        database.add_vertex(giant)
        assert database.index_rebuilds == 1
        assert database.add_edge(giant, 1)
        assert database.has_edge(giant, 1)
        assert not database.has_edge(giant, 2)

    def test_churn_stays_consistent(self, db):
        graph, database = db
        work = graph.copy()
        rng = random.Random(163)
        vertices = sorted(work.vertices())
        for _ in range(300):
            u, v = rng.sample(vertices, 2)
            if rng.random() < 0.5:
                if work.add_edge(u, v):
                    database.add_edge(u, v)
            elif work.has_edge(u, v):
                work.remove_edge(u, v)
                database.remove_edge(u, v)
        for _ in range(3000):
            u, v = rng.sample(vertices, 2)
            assert database.has_edge(u, v) == work.has_edge(u, v)


class TestStats:
    def test_counters_exposed(self, db):
        _, database = db
        database.has_edge(1, 2)
        assert database.query_stats.total >= 1
        assert database.storage_stats.disk_writes > 0
        assert database.index_memory_bytes() > 0

    def test_context_manager(self, tmp_path):
        graph = powerlaw_graph(50, avg_degree=6, seed=164)
        with VendGraphDB(tmp_path / "ctx.log", k=2) as database:
            database.load_graph(graph)
            assert database.num_vertices == 50


class TestSingleFileLayout:
    """A log at ``path`` itself is the retired single-file layout.

    Opening it used to create an empty ``<path>.shard0`` beside it and
    report an empty database; it is refused instead, byte-for-byte
    untouched.
    """

    def test_single_file_log_is_refused_and_left_untouched(self, tmp_path):
        path = tmp_path / "db.log"
        kv = DiskKVStore(path)
        for v in range(20):
            kv.put(v, bytes(4 * (v % 5)))
        kv.close()
        before = path.read_bytes()
        for opener in (lambda: VendGraphDB(path, k=4),
                       lambda: ShardedGraphStore(path, num_shards=2)):
            with pytest.raises(ValueError, match=r"db\.log\.shard0"):
                opener()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["db.log"]

    def test_renamed_log_opens_as_one_segment(self, tmp_path):
        path = tmp_path / "db.log"
        kv = DiskKVStore(path)
        kv.put(7, bytes(8))
        kv.close()
        path.rename(tmp_path / "db.log.shard0")
        with VendGraphDB(path, k=4) as database:
            assert database.num_vertices == 1
            assert database.num_shards == 1


class TestRebuildFromHalfEdges:
    """A crash between the two half writes of an edge leaves one half.

    The rebuilt index must encode the union of both adjacency lists, or
    the NDF refutes an edge that storage still holds.
    """

    @pytest.mark.parametrize("shards", [1, 2])
    def test_half_in_smaller_endpoint_survives_rebuild(self, tmp_path,
                                                       shards):
        graph = powerlaw_graph(400, avg_degree=8, seed=165)
        database = VendGraphDB(tmp_path / "half.log", k=4, shards=shards)
        database.load_graph(graph)
        rng = random.Random(166)
        vertices = sorted(graph.vertices())
        halves = set()
        while len(halves) < 300:
            u, v = sorted(rng.sample(vertices, 2))
            if not graph.has_edge(u, v):
                halves.add((u, v))
        for u, v in sorted(halves):
            assert database.store.segment_of(u).insert_half_edge(u, v)
        database.rebuild_index()
        us = [u for u, _ in sorted(halves)]
        vs = [v for _, v in sorted(halves)]
        assert all(v in database.neighbors(u) for u, v in halves)
        assert not any(database.vend.is_nonedge(u, v) for u, v in halves)
        assert all(database.has_edge(u, v) for u, v in halves)
        assert database.has_edge_batch(us, vs).all()
        database.close()
