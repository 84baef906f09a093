"""Equivalence and attribution tests for the parallel query engine.

The contract under test: for every registered solution and any
(shards, workers) configuration, :class:`ParallelEdgeQueryEngine`
returns **bitwise-identical** verdicts to the serial
:class:`EdgeQueryEngine` over the same store contents — including
after maintenance (inserts/deletes) — and its stats views book exactly
the same totals, with per-shard attribution summing to the engine
totals even when the work actually ran on pool threads.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.apps.edge_query import EdgeQueryEngine, ParallelEdgeQueryEngine
from repro.bench import make_solution
from repro.core import available_solutions
from repro.graph import powerlaw_graph
from repro.storage import GraphStore, ShardedGraphStore
from repro.workloads import common_neighbor_pairs, random_pairs

ALL_SOLUTIONS = sorted(available_solutions())
PARITY_FIELDS = ("total", "filtered", "executed", "positives",
                 "cache_served", "disk_served")


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(300, avg_degree=6, seed=11)


@pytest.fixture(scope="module")
def workload(graph):
    pairs = (random_pairs(graph, 400, seed=1)
             + common_neighbor_pairs(graph, 200, seed=2)
             + sorted(graph.edges())[:200])
    us = np.asarray([p[0] for p in pairs], dtype=np.int64)
    vs = np.asarray([p[1] for p in pairs], dtype=np.int64)
    return us, vs


def _build_engines(graph, solution, shards, workers):
    serial_store = GraphStore()
    serial_store.bulk_load(graph)
    serial = EdgeQueryEngine(serial_store, nonedge_filter=solution)
    sharded_store = ShardedGraphStore(num_shards=shards)
    sharded_store.bulk_load(graph)
    parallel = ParallelEdgeQueryEngine(sharded_store,
                                       nonedge_filter=solution,
                                       workers=workers)
    return serial, parallel


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("method", ALL_SOLUTIONS)
    @pytest.mark.parametrize("shards,workers",
                             [(1, 1), (2, 1), (2, 4), (4, 1), (4, 4)])
    def test_every_solution_every_config(self, graph, workload, method,
                                         shards, workers):
        us, vs = workload
        solution = make_solution(method, 4, graph)
        serial, parallel = _build_engines(graph, solution, shards, workers)
        with parallel:
            want = serial.has_edge_batch(us, vs)
            got = parallel.has_edge_batch(us, vs)
            assert got.dtype == want.dtype
            assert (got == want).all()

    @pytest.mark.parametrize("method", ["hyb+", "hash"])
    def test_equivalence_survives_maintenance(self, graph, method):
        """Inserts and deletes routed through both stores must leave
        the engines bitwise-identical on a fresh sweep."""
        from repro.workloads import sample_deletions, sample_insertions

        solution = make_solution(method, 4, graph)
        serial, parallel = _build_engines(graph, solution, 4, 4)
        mutated = powerlaw_graph(300, avg_degree=6, seed=11)
        with parallel:
            for u, v in sample_insertions(graph, 20, seed=3):
                serial.store.insert_edge(u, v)
                parallel.store.insert_edge(u, v)
                mutated.add_edge(u, v)
            for u, v in sample_deletions(graph, 20, seed=4):
                serial.store.delete_edge(u, v)
                parallel.store.delete_edge(u, v)
                mutated.remove_edge(u, v)
            solution.build(mutated)  # rebuild codes on the mutated graph
            pairs = random_pairs(mutated, 500, seed=5)
            us = np.asarray([p[0] for p in pairs], dtype=np.int64)
            vs = np.asarray([p[1] for p in pairs], dtype=np.int64)
            want = serial.has_edge_batch(us, vs)
            got = parallel.has_edge_batch(us, vs)
            assert (got == want).all()

    def test_empty_batch(self, graph):
        solution = make_solution("hyb+", 4, graph)
        _, parallel = _build_engines(graph, solution, 4, 4)
        with parallel:
            empty = np.zeros(0, dtype=np.int64)
            assert parallel.has_edge_batch(empty, empty).tolist() == []
            assert parallel.stats.total == 0


class TestStatsParity:
    def test_parallel_books_exactly_serial_totals(self, graph, workload):
        us, vs = workload
        solution = make_solution("hyb+", 4, graph)
        serial, parallel = _build_engines(graph, solution, 4, 4)
        with parallel:
            serial.has_edge_batch(us, vs)
            parallel.has_edge_batch(us, vs)
            for field in PARITY_FIELDS:
                assert getattr(parallel.stats, field) == \
                    getattr(serial.stats, field), field

    def test_per_shard_attribution_sums_to_engine_totals(self, graph,
                                                         workload):
        us, vs = workload
        solution = make_solution("hyb+", 4, graph)
        _, parallel = _build_engines(graph, solution, 4, 4)
        with parallel:
            parallel.has_edge_batch(us, vs)
            parallel.has_edge(int(us[0]), int(vs[0]))  # scalar dual-books
            for field in PARITY_FIELDS:
                shard_sum = sum(getattr(view, field)
                                for view in parallel.shard_stats)
                assert shard_sum == getattr(parallel.stats, field), field

    def test_attribution_exact_under_concurrent_batches(self, graph,
                                                        workload):
        """Two caller threads hammer one engine; the shard ledgers must
        still sum exactly to the engine totals (no lost increments)."""
        us, vs = workload
        solution = make_solution("hyb+", 4, graph)
        _, parallel = _build_engines(graph, solution, 4, 2)
        rounds = 8
        with parallel:
            want = parallel.has_edge_batch(us, vs)

            def hammer(_):
                for _ in range(rounds):
                    got = parallel.has_edge_batch(us, vs)
                    assert (got == want).all()

            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(hammer, range(2)))
            expected_total = (2 * rounds + 1) * len(us)
            assert parallel.stats.total == expected_total
            for field in PARITY_FIELDS:
                shard_sum = sum(getattr(view, field)
                                for view in parallel.shard_stats)
                assert shard_sum == getattr(parallel.stats, field), field


class TestEngineApi:
    def test_workers_default_to_shard_count(self, graph):
        solution = make_solution("hyb+", 4, graph)
        store = ShardedGraphStore(num_shards=3)
        store.bulk_load(graph)
        with ParallelEdgeQueryEngine(store, nonedge_filter=solution) as eng:
            assert eng.workers == 3

    def test_rejects_bad_worker_count(self, graph):
        store = ShardedGraphStore(num_shards=2)
        store.bulk_load(graph)
        with pytest.raises(ValueError):
            ParallelEdgeQueryEngine(store, workers=0)

    def test_snapshot_warmup_runs_no_query(self, graph, workload,
                                           monkeypatch):
        """The columnar kernel runs once per shard slice: warming the
        snapshot before the fan-out builds it without querying."""
        from repro.core.batch import shard_slices
        from repro.core.columnar import ColumnarIndex

        calls = []
        original = ColumnarIndex.query_batch

        def counting(self, pairs_u, pairs_v):
            calls.append(len(pairs_u))
            return original(self, pairs_u, pairs_v)

        monkeypatch.setattr(ColumnarIndex, "query_batch", counting)
        solution = make_solution("hyb+", 4, graph)
        store = ShardedGraphStore(num_shards=3)
        store.bulk_load(graph)
        us, vs = workload
        slices = 0
        with ParallelEdgeQueryEngine(store, nonedge_filter=solution,
                                     workers=2) as engine:
            for lo in range(0, len(us), 300):
                su, sv = us[lo:lo + 300], vs[lo:lo + 300]
                slices += len(list(shard_slices(store.router, su, sv)))
                engine.has_edge_batch(su, sv)
        assert len(calls) == slices
        assert sum(calls) == len(us)

    def test_scalar_has_edge_matches_store(self, graph):
        solution = make_solution("hyb+", 4, graph)
        serial, parallel = _build_engines(graph, solution, 4, 4)
        edges = sorted(graph.edges())[:50]
        with parallel:
            for u, v in edges:
                assert parallel.has_edge(u, v) == serial.has_edge(u, v)
