"""Differential tests of the incremental write path.

``VendGraphDB.remove_edge`` only queues the core endpoints whose codes
still record the removed neighbor; the next read re-encodes them from
storage in one batch.  Maintenance that rewrites existing codes marks
snapshot rows for refill instead of dropping the columnar snapshot, and
overwrites patch the kv store's sorted ``_vindex`` in place.  Each test
drives a disk-backed DB beside a shadow graph and checks every
incremental structure against the one a from-scratch build produces.
"""

import numpy as np
import pytest

from repro.apps.database import VendGraphDB
from repro.core import columnar
from repro.core.columnar import ColumnarIndex
from repro.graph import Graph, powerlaw_graph
from repro.workloads.streams import OP_DELETE, OP_INSERT, OP_PROBE, churn_stream


def _kv_segments(db):
    return [segment._kv for segment in db.store.segments]


def _stored(db, v):
    return [int(w) for w in db.store.get_neighbors_many([v])[v]]


def _live_edges(shadow):
    edges = np.asarray(sorted(shadow.edges()), dtype=np.int64)
    return edges[:, 0], edges[:, 1]


def _assert_no_live_edge_refuted(db, shadow):
    eu, ev = _live_edges(shadow)
    assert not db.vend.is_nonedge_batch(eu, ev).any()
    assert not db.vend.is_nonedge_batch(ev, eu).any()


def _assert_complete_code(db, v):
    expected = db.vend._build_code(_stored(db, v), complete=True)
    assert db.vend.code_of(v) == expected, v


def _assert_snapshot_fresh(db):
    patched = db.vend._batch_index
    fresh = ColumnarIndex(db.vend)
    assert np.array_equal(patched._position, fresh._position)
    for name in ColumnarIndex._ROW_COLUMNS:
        assert np.array_equal(getattr(patched, name),
                              getattr(fresh, name)), name


def _assert_vindex_fresh(db):
    for kv in _kv_segments(db):
        if kv._vindex is None:
            continue
        for got, want in zip(kv._vindex, kv._build_vindex()):
            assert np.array_equal(got, want)


def _cycles(stream):
    """``(probe us, probe vs, writes)`` per probe run of ``stream``,
    ``writes`` being the storm that follows it."""
    runs = []
    for kind, start, end in stream.segments():
        if kind == OP_PROBE:
            runs.append((stream.us[start:end], stream.vs[start:end], []))
        else:
            runs[-1][2].extend(
                (int(stream.kinds[i]), int(stream.us[i]), int(stream.vs[i]))
                for i in range(start, end))
    return runs


@pytest.fixture(params=[1, 2], ids=["shards1", "shards2"])
def churned(request, tmp_path, monkeypatch):
    graph = powerlaw_graph(300, avg_degree=16, seed=41)
    builds = []
    original = columnar.ColumnarIndex.__init__

    def counting_init(self, solution):
        builds.append(1)
        original(self, solution)

    monkeypatch.setattr(columnar.ColumnarIndex, "__init__", counting_init)
    db = VendGraphDB(tmp_path / "db.log", k=3, shards=request.param,
                     compress=True, use_mmap=True)
    db.load_graph(graph)
    yield graph, db, builds
    db.close()


def test_churn_matches_shadow_and_fresh_structures(churned):
    graph, db, builds = churned
    shadow = Graph(sorted(graph.edges()))
    stream = churn_stream(graph, 6000, seed=7, probe_len=400, storm_len=96)
    flushed_total = 0
    for us, vs, writes in _cycles(stream):
        # The stale window: queued codes are sound supersets, and the
        # patched snapshot must not refute any live edge either.
        _assert_no_live_edge_refuted(db, shadow)
        flushed = set(db._stale)
        got = db.has_edge_batch(us, vs)
        truth = np.fromiter((shadow.has_edge(int(u), int(v))
                             for u, v in zip(us, vs)), dtype=bool,
                            count=len(us))
        assert np.array_equal(got, truth)
        assert not db._stale
        for v in flushed:
            _assert_complete_code(db, v)
        flushed_total += len(flushed)
        _assert_snapshot_fresh(db)
        _assert_vindex_fresh(db)
        for kind, u, v in writes:
            if kind == OP_INSERT:
                assert db.add_edge(u, v)
                shadow.add_edge(u, v)
            elif kind == OP_DELETE:
                assert db.remove_edge(u, v)
                shadow.remove_edge(u, v)
    assert flushed_total > 0
    # One full build per fixture (the first batch, plus the check
    # builds above); every storm after it was row-patched.
    assert len(builds) == 1 + len(_cycles(stream))


def _core_edge(db, graph):
    """An edge ``(u, v)`` whose core endpoint ``u`` records ``v``."""
    for u in sorted(graph.vertices()):
        if db.vend.is_decodable(u):
            continue
        for v in graph.sorted_neighbors(u):
            if not db.vend.ne_test(v, db.vend.code_of(u)):
                return u, v
    raise AssertionError("no core vertex recording a neighbor")


@pytest.fixture
def db(tmp_path):
    graph = powerlaw_graph(200, avg_degree=24, seed=43)
    database = VendGraphDB(tmp_path / "db.log", k=4, compress=True,
                           use_mmap=True)
    database.load_graph(graph)
    yield graph, database
    database.close()


def test_delete_then_reinsert_before_read_keeps_the_edge(db):
    graph, database = db
    u, v = _core_edge(database, graph)
    assert database.remove_edge(u, v)
    assert u in database._stale
    assert database.add_edge(u, v)
    assert database.has_edge(u, v)
    assert database.has_edge_batch([u, v], [v, u]).all()
    _assert_complete_code(database, u)


def test_flush_keeps_queue_when_storage_read_fails(db, monkeypatch):
    graph, database = db
    u, v = _core_edge(database, graph)
    assert database.remove_edge(u, v)
    shadow = Graph(sorted(graph.edges()))
    shadow.remove_edge(u, v)
    real = database.store.get_neighbors_many
    calls = []

    def failing_once(vertices, receipt=None):
        calls.append(list(vertices))
        if len(calls) == 1:
            raise OSError("injected read failure")
        return real(vertices, receipt=receipt)

    monkeypatch.setattr(database.store, "get_neighbors_many", failing_once)
    with pytest.raises(OSError, match="injected"):
        database.has_edge_batch([u], [v])
    assert u in database._stale
    _assert_no_live_edge_refuted(database, shadow)
    assert not database.has_edge_batch([u, v], [v, u]).any()
    assert len(calls) == 2 and not database._stale
    _assert_complete_code(database, u)


def test_remove_vertex_reencodes_in_one_batch(db, monkeypatch):
    graph, database = db
    u, _ = _core_edge(database, graph)
    # Also leave a queued delete behind, so both share the one flush.
    x, y = next((a, b) for a, b in sorted(graph.edges())
                if u not in (a, b) and not database.vend.is_decodable(a)
                and not database.vend.ne_test(b, database.vend.code_of(a)))
    assert database.remove_edge(x, y)
    calls = []
    real = database.vend.reencode
    monkeypatch.setattr(database.vend, "reencode",
                        lambda adjacency: (calls.append(dict(adjacency)),
                                           real(adjacency)))
    assert database.remove_vertex(u)
    assert len(calls) == 1 and x in calls[0]
    shadow = Graph(sorted(graph.edges()))
    shadow.remove_edge(x, y)
    shadow.remove_vertex(u)
    _assert_no_live_edge_refuted(database, shadow)
    for w in calls[0]:
        _assert_complete_code(database, w)
