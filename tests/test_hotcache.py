"""Hot-set decode cache: accounting, admission, verdict parity.

The cache's contract (DESIGN.md §16) is *stats transparency*: turning
it on may change wall time but never verdicts, logical read counters,
or byte totals.  These tests pin the vectorized membership view
against ``membership_sweep`` bit for bit, the byte accounting against
``ndarray.nbytes`` exactly, and the on/off parity across every
registered solution and engine shape.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.apps.database import VendGraphDB
from repro.core import available_solutions, create_solution
from repro.graph import powerlaw_graph
from repro.storage.graphstore import membership_sweep
from repro.storage.hotcache import CountMinSketch, HotSetCache
from repro.storage.kvstore import DiskKVStore


def _entry(rng, n_neighbors):
    """A packed sorted-uint32 adjacency blob as the store would cache it."""
    ids = np.sort(rng.choice(2**20, size=n_neighbors, replace=False))
    return ids.astype(np.uint32).view(np.uint8).copy()


def _admit_blob(cache, key, blob, stored_size):
    """Offer one decoded blob through the batch admission path."""
    return cache.admit(np.array([key], dtype=np.int64), blob,
                       np.array([0]), np.array([blob.nbytes]),
                       np.array([stored_size])) > 0


class TestCountMinSketch:
    def test_estimates_upper_bound_true_counts(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 200, 5000)
        sketch = CountMinSketch()
        sketch.add(keys)
        uniq, counts = np.unique(keys, return_counts=True)
        assert (sketch.estimate(uniq) >= counts).all()

    def test_decay_halves_counts(self):
        sketch = CountMinSketch(decay_window=100)
        keys = np.full(99, 7, dtype=np.int64)
        sketch.add(keys)
        before = int(sketch.estimate(np.array([7]))[0])
        sketch.add(np.array([7, 7]))  # crosses the window
        after = int(sketch.estimate(np.array([7]))[0])
        assert after <= before // 2 + 1

    def test_hash_seed_independent(self):
        """Sketch buckets must not involve Python ``hash()``."""
        keys = [0, 1, 7, 123456, 2**31, 2**40]
        code = (
            "import numpy as np;"
            "from repro.storage.hotcache import CountMinSketch;"
            "s = CountMinSketch();"
            f"k = np.array({keys!r}, dtype=np.int64);"
            "s.add(np.repeat(k, 3));"
            "print(s.estimate(k).tolist())"
        )
        outs = set()
        for seed in ("0", "1", "31337"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
            )
            outs.add(out.stdout.strip())
        assert len(outs) == 1
        assert eval(outs.pop()) == [3] * len(keys)


class TestByteAccounting:
    def test_size_tracks_exact_nbytes(self):
        rng = np.random.default_rng(1)
        cache = HotSetCache(1 << 20)
        blobs = [_entry(rng, n) for n in (3, 17, 120)]
        for i, blob in enumerate(blobs):
            assert _admit_blob(cache, i, blob, stored_size=len(blob) + 9)
        assert cache.size_bytes == sum(b.nbytes for b in blobs)
        assert len(cache) == 3
        cache.evict(1)
        assert cache.size_bytes == blobs[0].nbytes + blobs[2].nbytes

    def test_oversized_and_empty_rejected(self):
        cache = HotSetCache(16)
        assert not _admit_blob(cache, 1, np.zeros(64, dtype=np.uint8), 64)
        assert not _admit_blob(cache, 2, np.zeros(0, dtype=np.uint8), 0)
        assert cache.size_bytes == 0

    def test_stored_size_is_what_get_reports(self):
        cache = HotSetCache(1 << 16)
        blob = _entry(np.random.default_rng(2), 8)
        _admit_blob(cache, 5, blob, stored_size=777)
        value, stored = cache.get(5)
        assert value == blob.tobytes()
        assert stored == 777


class TestAdmission:
    def test_full_cache_gates_on_eviction_floor(self):
        """A cold key cannot displace a hot set it has never out-hit."""
        rng = np.random.default_rng(3)
        blob = _entry(rng, 16)  # 64 bytes
        cache = HotSetCache(blob.nbytes * 4)
        hot_keys = np.array([1, 2, 3, 4], dtype=np.int64)
        for _ in range(50):
            cache.observe(hot_keys)
        for k in hot_keys.tolist():
            assert _admit_blob(cache, k, blob.copy(), blob.nbytes)
        gen = cache.generation
        # One-touch stranger: estimate 1 never beats the floor.
        cache.observe(np.array([99], dtype=np.int64))
        n = cache.admit(np.array([99]), blob.copy(),
                        np.array([0]), np.array([blob.nbytes]),
                        np.array([blob.nbytes]))
        assert n == 0
        assert cache.generation == gen
        assert sorted(k for k in hot_keys.tolist()) == sorted(
            [1, 2, 3, 4])

    def test_hot_newcomer_displaces_cold_resident(self):
        """A newcomer that does not fit evicts the coldest resident and
        leaves the cache within its budget."""
        rng = np.random.default_rng(7)
        blob = _entry(rng, 16)  # 64 bytes
        cache = HotSetCache(blob.nbytes * 4 + blob.nbytes // 2)
        for k in range(1, 5):
            assert _admit_blob(cache, k, blob.copy(), blob.nbytes)
        for _ in range(50):
            cache.observe(np.array([99], dtype=np.int64))
        n = cache.admit(np.array([99]), blob.copy(),
                        np.array([0]), np.array([blob.nbytes]),
                        np.array([blob.nbytes]))
        assert n == 1
        assert cache.get(99) is not None
        assert len(cache) == 4
        assert cache.size_bytes <= cache.capacity_bytes
        assert cache.stats.evictions > 0

    def test_readmission_of_cached_key_is_a_noop(self):
        cache = HotSetCache(1 << 16)
        blob = _entry(np.random.default_rng(4), 8)
        assert _admit_blob(cache, 1, blob.copy(), blob.nbytes)
        size = cache.size_bytes
        assert not _admit_blob(cache, 1, blob.copy(), blob.nbytes)
        assert cache.size_bytes == size

    def test_generation_bump_is_deferred_until_mass_threshold(self):
        """A trickle of tail admissions must not invalidate the view
        every batch — that is the whole point of the deferred rebuild."""
        rng = np.random.default_rng(5)
        cache = HotSetCache(1 << 22)
        big = _entry(rng, 4096)  # 16 KiB resident entry
        _admit_blob(cache, 0, big, big.nbytes)
        assert cache.membership_view() is not None
        gen = cache.generation
        tiny = _entry(rng, 2)
        _admit_blob(cache, 1, tiny, tiny.nbytes)
        # 8 bytes against 16 KiB: far below size >> 4, no bump...
        assert cache.generation == gen
        # ...so the pending key is served cold (a view miss), not stale.
        res = cache.probe_verdicts(np.array([1], dtype=np.int64),
                                   np.array([0], dtype=np.int64))
        hit, _, _, _ = res
        assert not hit[0]
        # A mass-crossing admission folds everything in at once.
        big2 = _entry(rng, 4096)
        _admit_blob(cache, 2, big2, big2.nbytes)
        assert cache.generation > gen
        keys = cache.membership_view()[0]
        assert keys.tolist() == [0, 1, 2]


class TestInvalidation:
    def test_evict_and_invalidate_all_bump_generation(self):
        cache = HotSetCache(1 << 16)
        blob = _entry(np.random.default_rng(6), 8)
        _admit_blob(cache, 1, blob.copy(), blob.nbytes)
        _admit_blob(cache, 2, blob.copy(), blob.nbytes)
        gen = cache.generation
        assert cache.evict(1)
        assert cache.generation == gen + 1
        assert cache.stats.invalidations == 1
        cache.invalidate_all()
        assert cache.stats.invalidations == 2
        assert len(cache) == 0 and cache.size_bytes == 0
        assert cache.membership_view() is None


def _sweep_reference(entries, us, vs):
    """Ground truth for probe_verdicts: the cold-path sweep over the
    cached entries (``key -> packed blob``)."""
    keys = np.array(sorted(entries), dtype=np.int64)
    blobs = [entries[k] for k in keys.tolist()]
    counts = np.array([blob.nbytes // 4 for blob in blobs], dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, us), len(keys) - 1)
    hit = keys[pos] == us
    verdicts = np.zeros(len(us), dtype=bool)
    if hit.any():
        verdicts[hit] = membership_sweep(np.concatenate(blobs), counts,
                                         pos[hit], vs[hit])
    return hit, verdicts


class TestMembershipView:
    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("key_offset", [0, (1 << 22) + 7])
    def test_probe_verdicts_match_membership_sweep(self, key_offset,
                                                   batched):
        """Bitwise parity with the cold sweep, for dense keys and for
        keys above 2**22, with the entries admitted in one ``admit``
        call over a shared decode buffer (``batched``) or one call
        per entry."""
        rng = np.random.default_rng(8)
        cache = HotSetCache(1 << 22)
        entries = {}
        for k in range(40):
            entries[key_offset + k] = _entry(rng, int(rng.integers(1, 60)))
        if batched:
            keys = np.array(list(entries), dtype=np.int64)
            blobs = list(entries.values())
            sizes = np.array([b.nbytes for b in blobs], dtype=np.int64)
            starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            assert cache.admit(keys, np.concatenate(blobs), starts, sizes,
                               np.full(len(keys), 64)) == len(keys)
        else:
            for key, blob in entries.items():
                assert _admit_blob(cache, key, blob, 64)
        assert len(cache) == len(entries)
        us = key_offset + rng.integers(-5, 50, 4000).astype(np.int64)
        # Mix in-list hits, misses, and out-of-range vs (negative and
        # beyond the uint32 universe — must all be clean Falses).
        vs = rng.integers(-3, 2**20, 4000).astype(np.int64)
        vs[::97] = 2**33
        hit, verdicts, n_unique, stored = cache.probe_verdicts(us, vs)
        ref_hit, ref_verdicts = _sweep_reference(entries, us, vs)
        assert np.array_equal(hit, ref_hit)
        assert np.array_equal(verdicts, ref_verdicts)
        assert n_unique == len(np.unique(us[hit]))
        assert stored == 64 * n_unique

    def test_empty_adjacency_entries_are_clean_misses(self):
        """A cached vertex with no neighbors answers False, not KeyError."""
        cache = HotSetCache(1 << 16)
        rng = np.random.default_rng(9)
        # admit rejects zero-byte blobs; a 1-neighbor entry plus a
        # probe for a different v exercises the same "nothing matches"
        # path the sweep takes.
        _admit_blob(cache, 3, _entry(rng, 1), 4)
        hit, verdicts, n_unique, _ = cache.probe_verdicts(
            np.array([3, 4], dtype=np.int64), np.array([2**31, 0],
                                                       dtype=np.int64))
        assert hit.tolist() == [True, False]
        assert not verdicts[0]
        assert n_unique == 1

    def test_view_cached_until_generation_moves(self):
        cache = HotSetCache(1 << 16)
        blob = _entry(np.random.default_rng(10), 8)
        _admit_blob(cache, 1, blob, blob.nbytes)
        v1 = cache.membership_view()
        assert cache.membership_view() is v1
        cache.evict(1)
        assert cache.membership_view() is None


def _verdict_bits(db, us, vs):
    return np.asarray(db.has_edge_batch(us, vs), dtype=bool)


def _run_config(tmp_path, graph, solution, us, vs, tag, *, hot, shards,
                use_mmap=True):
    """Two warmed probe passes through one engine config; returns
    ``(pass1, pass2, disk_reads, bytes_read)``."""
    from repro.apps.edge_query import EdgeQueryEngine, ParallelEdgeQueryEngine
    from repro.storage import GraphStore, ShardedGraphStore

    if shards == 1:
        store = GraphStore(tmp_path / f"{tag}.log", compress=True,
                           use_mmap=use_mmap, hot_cache_bytes=hot)
        engine = EdgeQueryEngine(store, solution)
    else:
        store = ShardedGraphStore(tmp_path / f"{tag}.log", num_shards=shards,
                                  compress=True, use_mmap=use_mmap,
                                  hot_cache_bytes=hot)
        engine = ParallelEdgeQueryEngine(store, solution)
    try:
        store.bulk_load(graph)
        first = np.asarray(engine.has_edge_batch(us, vs), dtype=bool)
        second = np.asarray(engine.has_edge_batch(us, vs), dtype=bool)
        return first, second, store.stats.disk_reads, store.stats.bytes_read
    finally:
        if hasattr(engine, "close"):
            engine.close()
        store.close()


class TestHotColdParityGrid:
    """Hot-on vs hot-off must be bitwise identical for every solution."""

    @pytest.fixture(scope="class")
    def graph(self):
        return powerlaw_graph(300, avg_degree=8, seed=42)

    @pytest.fixture(scope="class")
    def probes(self, graph):
        rng = np.random.default_rng(43)
        verts = np.sort(np.fromiter(graph.vertices(), dtype=np.int64))
        us = verts[rng.integers(0, len(verts), 4000)]
        vs = verts[rng.integers(0, len(verts), 4000)]
        return us, vs

    @pytest.mark.parametrize("method", sorted(available_solutions()))
    @pytest.mark.parametrize("shards,use_mmap",
                             [(1, True), (3, True), (1, False)],
                             ids=["1", "3", "1-pread"])
    def test_verdicts_and_counters_identical(self, tmp_path, graph, probes,
                                             method, shards, use_mmap):
        us, vs = probes
        solution = create_solution(method, k=4)
        solution.build(graph)
        cold = _run_config(tmp_path, graph, solution, us, vs, "cold",
                           hot=0, shards=shards, use_mmap=use_mmap)
        hot = _run_config(tmp_path, graph, solution, us, vs, "hot",
                          hot=1 << 20, shards=shards, use_mmap=use_mmap)
        assert np.array_equal(cold[0], hot[0])
        assert np.array_equal(cold[1], hot[1])
        assert cold[2] == hot[2]
        assert cold[3] == hot[3]

    def test_mutation_invalidates_hot_entry(self, tmp_path, graph):
        with VendGraphDB(tmp_path / "mut.log", shards=2, compress=True,
                         use_mmap=True, hot_cache_bytes=1 << 20) as db:
            db.load_graph(graph)
            u, w = sorted(graph.edges())[0]  # a real edge: the probe
            # must reach storage (the filter cannot reject a positive),
            # so u's decoded adjacency gets admitted.
            v = next(x for x in sorted(graph.vertices()) if x != u
                     and not graph.has_edge(u, x))
            warm_us = np.array([u], dtype=np.int64)
            warm_vs = np.array([w], dtype=np.int64)
            for _ in range(3):  # warm the entry into the hot cache
                assert _verdict_bits(db, warm_us, warm_vs)[0]
            assert db.add_edge(u, v)
            assert _verdict_bits(db, np.array([u], dtype=np.int64),
                                 np.array([v], dtype=np.int64))[0]
            invalidations = sum(c.stats.invalidations
                                for c in db.hot_caches())
            assert invalidations >= 1

    def test_one_miss_per_distinct_cold_key_per_call(self, tmp_path, graph):
        """``misses`` books each distinct cold source vertex once per
        probe call, however often the batch repeats it; ``hits`` books
        each distinct cached one once."""
        from repro.storage import GraphStore

        with GraphStore(tmp_path / "misses.log", compress=True,
                        use_mmap=True, hot_cache_bytes=1 << 20) as store:
            store.bulk_load(graph)
            hot = store.hot_cache
            a, b, c, d = sorted(graph.vertices())[:4]
            us = np.array([a, a, b, c, c, c], dtype=np.int64)
            store.probe_edges(us, np.zeros(len(us), dtype=np.int64))
            assert (hot.stats.hits, hot.stats.misses) == (0, 3)
            # All three were admitted into an empty cache: now they hit.
            store.probe_edges(us, np.zeros(len(us), dtype=np.int64))
            assert (hot.stats.hits, hot.stats.misses) == (3, 3)
            mixed = np.array([a, d, d, d], dtype=np.int64)
            store.probe_edges(mixed, np.zeros(len(mixed), dtype=np.int64))
            assert (hot.stats.hits, hot.stats.misses) == (4, 4)


class TestCacheCombination:
    """The block cache and the hot cache cannot both be on."""

    def test_block_cache_with_hot_cache_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="block cache off"):
            DiskKVStore(tmp_path / "kv.log", cache_bytes=1 << 16,
                        hot_cache_bytes=1 << 16)
        with pytest.raises(ValueError, match="block cache off"):
            VendGraphDB(tmp_path / "db.log", shards=2, compress=True,
                        use_mmap=True, cache_bytes=1 << 20,
                        hot_cache_bytes=1 << 20)

    def test_cli_refuses_the_combination(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["stats", "--hot-cache-bytes", "1048576"])
        assert exc.value.code == 2
        assert "--cache-bytes 0" in capsys.readouterr().err
