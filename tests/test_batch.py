"""Batch-pipeline equivalence: every vectorized path ≡ its scalar twin.

The batched NDF (`is_nonedge_batch`), the batched storage reads
(`get_many`, `get_neighbors_many`, `probe_edges`) and the batched
engine (`run_batch`) are pure execution-strategy changes — these tests
pin them to the scalar reference answers on random graphs, including
unknown vertices, self-pairs and both call forms.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import EdgeQueryEngine
from repro.core import available_solutions, create_solution
from repro.graph import erdos_renyi_graph, powerlaw_graph
from repro.storage import GraphStore

ALL_SOLUTIONS = available_solutions()


def probe_pairs(graph, rng, count=400):
    """Pairs mixing known, unknown, negative-ID and self endpoints."""
    vertices = sorted(graph.vertices())
    max_id = vertices[-1]
    us = rng.choice(vertices, size=count).astype(np.int64)
    vs = rng.choice(vertices, size=count).astype(np.int64)
    unknown = rng.random(count) < 0.1
    vs[unknown] = max_id + 1 + rng.integers(0, 5, size=int(unknown.sum()))
    vs[rng.random(count) < 0.02] = -3
    selfs = rng.random(count) < 0.05
    vs[selfs] = us[selfs]
    return us, vs


class TestNdfEquivalence:
    @pytest.mark.parametrize("name", ALL_SOLUTIONS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_matches_scalar(self, name, seed):
        graph = powerlaw_graph(150 + 40 * seed, avg_degree=7, seed=seed)
        solution = create_solution(name, k=4)
        solution.build(graph)
        rng = np.random.default_rng(100 + seed)
        us, vs = probe_pairs(graph, rng)
        scalar = [solution.is_nonedge(int(u), int(v)) for u, v in zip(us, vs)]
        batch = solution.is_nonedge_batch(us, vs)
        assert batch.dtype == bool
        assert batch.tolist() == scalar
        # Tuple-sequence call form answers identically.
        pairs = list(zip(us.tolist(), vs.tolist()))
        assert solution.is_nonedge_batch(pairs).tolist() == scalar

    @pytest.mark.parametrize("name", ALL_SOLUTIONS)
    def test_empty_batch(self, name):
        graph = erdos_renyi_graph(60, 200, seed=9)
        solution = create_solution(name, k=3)
        solution.build(graph)
        assert solution.is_nonedge_batch([]).tolist() == []

    def test_hybrid_maintenance_invalidates_snapshot(self):
        graph = erdos_renyi_graph(80, 300, seed=5)
        solution = create_solution("hybrid", k=4)
        solution.build(graph)
        vertices = sorted(graph.vertices())
        pairs = [(u, v) for u in vertices[:20] for v in vertices[:20] if u != v]
        solution.is_nonedge_batch(pairs)  # materialize the snapshot
        # Mutate through every maintenance entry point, then re-check.
        u, v = next((u, v) for u, v in pairs if not graph.has_edge(u, v)
                    and solution.is_nonedge(u, v))
        graph.add_edge(u, v)
        solution.insert_edge(u, v, graph.sorted_neighbors)
        scalar = [solution.is_nonedge(a, b) for a, b in pairs]
        assert solution.is_nonedge_batch(pairs).tolist() == scalar
        assert not solution.is_nonedge_batch([(u, v)])[0]
        graph.remove_edge(u, v)
        solution.delete_edge(u, v, graph.sorted_neighbors)
        scalar = [solution.is_nonedge(a, b) for a, b in pairs]
        assert solution.is_nonedge_batch(pairs).tolist() == scalar

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(2, 6))
    def test_property_random_graphs(self, seed, k):
        graph = erdos_renyi_graph(70, 260, seed=seed)
        rng = np.random.default_rng(seed)
        us, vs = probe_pairs(graph, rng, count=150)
        for name in ("range", "bit-hash", "hyb+"):
            solution = create_solution(name, k=k)
            solution.build(graph)
            scalar = [solution.is_nonedge(int(u), int(v))
                      for u, v in zip(us, vs)]
            assert solution.is_nonedge_batch(us, vs).tolist() == scalar


class TestBatchStorage:
    def make_store(self, tmp_path, cache_bytes=0):
        graph = erdos_renyi_graph(50, 180, seed=21)
        store = GraphStore(tmp_path / "g.log", cache_bytes=cache_bytes)
        store.bulk_load(graph)
        return graph, store

    def test_get_many_dedups_and_sorts_reads(self, tmp_path):
        graph, store = self.make_store(tmp_path)
        kv = store._kv
        keys = [1, 2, 1, 2, 1]
        store.stats.reset()
        result = kv.get_many(keys)
        assert store.stats.disk_reads == 2  # one physical read per distinct key
        assert set(result) == {1, 2}
        assert result[1] is not None and result[2] is not None
        store.close()

    def test_get_many_missing_key_is_none(self, tmp_path):
        _, store = self.make_store(tmp_path)
        result = store._kv.get_many([1, 10**6])
        assert result[10**6] is None
        assert result[1] is not None
        store.close()

    def test_get_neighbors_many_matches_scalar(self, tmp_path):
        graph, store = self.make_store(tmp_path)
        vertices = sorted(graph.vertices())[:20]
        batch = store.get_neighbors_many(vertices)
        for v in vertices:
            assert batch[v].tolist() == store.get_neighbors(v)
        store.close()

    def test_get_neighbors_many_raises_on_missing(self, tmp_path):
        _, store = self.make_store(tmp_path)
        with pytest.raises(KeyError, match="not stored"):
            store.get_neighbors_many([1, 999_999])
        store.close()

    def test_has_edge_many_matches_scalar(self, tmp_path):
        """The batched probe answers every pair like scalar has_edge."""
        graph, store = self.make_store(tmp_path)
        rng = np.random.default_rng(31)
        vertices = sorted(graph.vertices())
        us = rng.choice(vertices, size=300).astype(np.int64)
        vs = rng.choice(vertices, size=300).astype(np.int64)
        vs[rng.random(300) < 0.1] = max(vertices) + 7  # absent neighbor
        vs[rng.random(300) < 0.05] = -1                # out-of-range probe
        vs[rng.random(300) < 0.05] = 2**32 + 5         # beyond uint32
        scalar = [store.has_edge(int(u), int(v)) for u, v in zip(us, vs)]
        assert store.probe_edges(us, vs).tolist() == scalar
        assert store.probe_edges([], []).tolist() == []
        store.close()

    def test_has_edge_many_raises_on_unknown_source(self, tmp_path):
        _, store = self.make_store(tmp_path)
        with pytest.raises(KeyError):
            store.probe_edges([999_999], [1])
        store.close()

    def test_get_many_second_pass_served_by_cache(self, tmp_path):
        graph, store = self.make_store(tmp_path, cache_bytes=1 << 20)
        vertices = sorted(graph.vertices())[:10]
        store._kv._cache.clear()  # bulk_load pre-warmed the cache
        store.stats.reset()
        store.get_neighbors_many(vertices)
        first = store.stats.snapshot()
        assert first["disk_reads"] == len(vertices)
        store.get_neighbors_many(vertices)
        second = store.stats.snapshot()
        assert second["disk_reads"] == first["disk_reads"]  # no new I/O
        assert second["cache_hits"] - first["cache_hits"] == len(vertices)
        store.close()


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", ["hybrid", "range", "partial"])
    def test_run_batch_matches_run(self, name):
        graph = powerlaw_graph(200, avg_degree=8, seed=41)
        store = GraphStore()
        store.bulk_load(graph)
        solution = create_solution(name, k=4)
        solution.build(graph)
        rng = np.random.default_rng(42)
        vertices = sorted(graph.vertices())
        pairs = [(int(u), int(v)) for u, v in
                 zip(rng.choice(vertices, 500), rng.choice(vertices, 500))]

        scalar = EdgeQueryEngine(store, solution)
        s = scalar.run(pairs)
        batch = EdgeQueryEngine(store, solution)
        b = batch.run_batch(pairs)

        # Dedup changes cache/disk_served; the logical totals must match.
        assert (b.total, b.filtered, b.executed, b.positives) == \
               (s.total, s.filtered, s.executed, s.positives)
        scalar2 = EdgeQueryEngine(store, solution)
        answers = [scalar2.has_edge(u, v) for u, v in pairs]
        assert EdgeQueryEngine(store, solution).has_edge_batch(
            pairs
        ).tolist() == answers

    def test_run_batch_without_filter(self):
        graph = erdos_renyi_graph(60, 200, seed=51)
        store = GraphStore()
        store.bulk_load(graph)
        pairs = [(u, v) for u in sorted(graph.vertices())[:15]
                 for v in sorted(graph.vertices())[:15] if u != v]
        engine = EdgeQueryEngine(store)
        stats = engine.run_batch(pairs)
        assert stats.filtered == 0
        assert stats.executed == stats.total == len(pairs)
        truth = sum(1 for u, v in pairs if graph.has_edge(u, v))
        assert stats.positives == truth

    def test_query_stats_reset_covers_new_fields(self):
        graph = erdos_renyi_graph(40, 120, seed=61)
        store = GraphStore()
        store.bulk_load(graph)
        engine = EdgeQueryEngine(store)
        engine.run_batch([(u, v) for u, v in graph.edges()][:10])
        assert engine.stats.executed > 0
        engine.stats.reset()
        snapshot = engine.stats
        assert (snapshot.total, snapshot.filtered, snapshot.executed,
                snapshot.positives, snapshot.cache_served,
                snapshot.disk_served) == (0, 0, 0, 0, 0, 0)
        assert snapshot.elapsed_seconds == 0.0
