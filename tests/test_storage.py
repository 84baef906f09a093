"""Tests for the disk KV store, cache, and graph store."""

import logging
import os
import re

import numpy as np
import pytest

from repro.graph import DiGraph, Graph, erdos_renyi_graph
from repro.storage import (
    CorruptRecordError,
    DiskKVStore,
    GraphStore,
    InMemoryKVStore,
    LRUCache,
)
from repro.storage.kvstore import _FRAME, LOG_MAGIC


class _HugeValue(bytes):
    """A bytes stand-in reporting a 4 GiB length without allocating it."""

    def __len__(self):
        return 0xFFFFFFFF


class TestLRUCache:
    def test_basic_put_get(self):
        cache = LRUCache(100)
        cache.put("a", b"xyz")
        assert cache.get("a") == b"xyz"
        assert cache.get("b") is None
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_order(self):
        cache = LRUCache(6)
        cache.put("a", b"xx")
        cache.put("b", b"xx")
        cache.put("c", b"xx")
        cache.get("a")  # refresh a
        cache.put("d", b"xx")  # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_oversized_value_not_cached(self):
        cache = LRUCache(4)
        cache.put("a", b"toolong")
        assert cache.get("a") is None
        assert cache.size_bytes == 0

    def test_overwrite_updates_size(self):
        cache = LRUCache(10)
        cache.put("a", b"1234")
        cache.put("a", b"12")
        assert cache.size_bytes == 2

    def test_evict_and_clear(self):
        cache = LRUCache(10)
        cache.put("a", b"12")
        cache.evict("a")
        assert cache.get("a") is None
        cache.put("b", b"12")
        cache.clear()
        assert len(cache) == 0 and cache.size_bytes == 0

    def test_hit_rate(self):
        cache = LRUCache(10)
        assert cache.hit_rate() == 0.0
        cache.put("a", b"1")
        cache.get("a")
        cache.get("b")
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_eviction_counter(self):
        cache = LRUCache(6)
        cache.put("a", b"xx")
        cache.put("b", b"xx")
        cache.put("c", b"xx")
        assert cache.evictions == 0
        cache.put("d", b"xxxx")  # displaces a and b
        assert cache.evictions == 2
        cache.evict("c")  # explicit eviction is NOT counted
        assert cache.evictions == 2
        assert cache.stats()["evictions"] == 2

    def test_ndarray_billed_by_nbytes_not_len(self):
        """Regression: ``len()`` counts *elements*, so a uint32 array
        used to be billed at a quarter of its footprint — 4 such
        entries "fit" in a budget sized for 1, and an array whose
        element count beat the capacity slipped the oversize check."""
        cache = LRUCache(16)
        arr = np.arange(4, dtype=np.uint32)  # len()=4 but 16 bytes
        cache.put("a", arr)
        assert cache.size_bytes == 16
        cache.put("b", np.zeros(1, dtype=np.uint32))  # must evict "a"
        assert cache.get("a") is None
        assert cache.size_bytes == 4
        # 5 elements > capacity 16 bytes? No: 20 bytes — uncacheable.
        cache.put("c", np.zeros(5, dtype=np.uint32))
        assert cache.get("c") is None
        # Overwrite accounting uses the same byte sizing.
        cache.put("b", np.zeros(2, dtype=np.uint32))
        assert cache.size_bytes == 8

    def test_oversized_overwrite_drops_stale_entry(self):
        """A put too large to cache must not leave the old value
        servable under the same key (it would be stale)."""
        cache = LRUCache(4)
        cache.put("a", b"old")
        assert cache.get("a") == b"old"
        cache.put("a", b"toolong")
        assert cache.get("a") is None
        assert cache.size_bytes == 0
        assert cache.evictions == 1

    def test_invalidation_counter(self):
        cache = LRUCache(100)
        cache.put("a", b"x")
        cache.put("b", b"x")
        assert cache.evict("a")
        assert not cache.evict("a")
        assert cache.invalidations == 1
        cache.put("c", b"x")
        cache.clear()
        assert cache.invalidations == 3
        assert cache.stats()["invalidations"] == 3
        assert cache.evictions == 0


class TestDiskKVStore:
    def test_put_get_roundtrip(self, tmp_path):
        with DiskKVStore(tmp_path / "db.log") as store:
            store.put(1, b"hello")
            store.put(2, b"world")
            assert store.get(1) == b"hello"
            assert store.get(2) == b"world"
            assert store.get(99) is None
            assert len(store) == 2
            assert 1 in store and 99 not in store

    def test_overwrite_returns_latest(self, tmp_path):
        with DiskKVStore(tmp_path / "db.log") as store:
            store.put(1, b"old")
            store.put(1, b"new")
            assert store.get(1) == b"new"
            assert len(store) == 1

    def test_delete(self, tmp_path):
        with DiskKVStore(tmp_path / "db.log") as store:
            store.put(1, b"x")
            assert store.delete(1)
            assert store.get(1) is None
            assert not store.delete(1)

    def test_recovery_replays_log(self, tmp_path):
        path = tmp_path / "db.log"
        with DiskKVStore(path) as store:
            store.put(1, b"one")
            store.put(2, b"two")
            store.put(1, b"one-v2")
            store.delete(2)
        with DiskKVStore(path) as store:
            assert store.get(1) == b"one-v2"
            assert store.get(2) is None
            assert len(store) == 1

    def test_read_counters(self, tmp_path):
        with DiskKVStore(tmp_path / "db.log") as store:
            store.put(1, b"abcd")
            store.get(1)
            store.get(1)
            assert store.stats.disk_reads == 2
            assert store.stats.bytes_read == 8
            assert store.stats.disk_writes == 1

    def test_cache_absorbs_reads(self, tmp_path):
        with DiskKVStore(tmp_path / "db.log", cache_bytes=1024) as store:
            store.put(1, b"abcd")
            store.get(1)  # served from cache (put populated it)
            store.get(1)
            assert store.stats.disk_reads == 0
            assert store.stats.cache_hits == 2

    def test_stats_reset_and_snapshot(self, tmp_path):
        with DiskKVStore(tmp_path / "db.log") as store:
            store.put(1, b"x")
            snap = store.stats.snapshot()
            assert snap["disk_writes"] == 1
            store.stats.reset()
            assert store.stats.disk_writes == 0


class TestInMemoryKVStore:
    def test_same_interface(self):
        store = InMemoryKVStore()
        store.put(1, b"v")
        assert store.get(1) == b"v"
        assert store.stats.disk_reads == 1
        assert store.delete(1)
        assert not store.delete(1)
        assert store.get(1) is None


class TestGraphStore:
    def test_bulk_load_and_read(self, tmp_path):
        g = Graph([(1, 2), (1, 3), (2, 3)])
        with GraphStore(tmp_path / "g.log") as store:
            store.bulk_load(g)
            assert store.get_neighbors(1) == [2, 3]
            assert store.num_vertices == 3
            assert sorted(store.vertices()) == [1, 2, 3]

    def test_in_memory_backend(self):
        g = Graph([(1, 2)])
        store = GraphStore()
        store.bulk_load(g)
        assert store.get_neighbors(2) == [1]

    def test_has_edge_costs_one_read(self, tmp_path):
        g = Graph([(1, 2), (1, 3)])
        with GraphStore(tmp_path / "g.log") as store:
            store.bulk_load(g)
            store.stats.reset()
            assert store.has_edge(1, 2)
            assert not store.has_edge(1, 99)
            assert store.stats.disk_reads == 2

    def test_missing_vertex_raises(self):
        store = GraphStore()
        with pytest.raises(KeyError):
            store.get_neighbors(42)

    def test_insert_edge_updates_both_sides(self):
        store = GraphStore()
        store.bulk_load(Graph([(1, 2)]))
        assert store.insert_edge(1, 3)
        assert store.get_neighbors(1) == [2, 3]
        assert store.get_neighbors(3) == [1]
        assert not store.insert_edge(1, 3)

    def test_insert_self_loop_rejected(self):
        store = GraphStore()
        with pytest.raises(ValueError):
            store.insert_edge(1, 1)

    def test_delete_edge(self):
        store = GraphStore()
        store.bulk_load(Graph([(1, 2), (1, 3)]))
        assert store.delete_edge(1, 2)
        assert store.get_neighbors(1) == [3]
        assert store.get_neighbors(2) == []
        assert not store.delete_edge(1, 2)

    def test_delete_vertex(self):
        store = GraphStore()
        store.bulk_load(Graph([(1, 2), (1, 3), (2, 3)]))
        assert store.delete_vertex(1)
        assert not store.has_vertex(1)
        assert store.get_neighbors(2) == [3]
        assert not store.delete_vertex(1)

    def test_delete_vertex_writes_each_neighbor_once(self):
        # A degree-d vertex must cost exactly d neighbor rewrites plus
        # one key deletion — not the 2d + 1 writes a delete_edge loop
        # pays (each delete_edge also rewrote v's own shrinking list).
        d = 7
        hub = 0
        store = GraphStore()
        store.bulk_load(Graph([(hub, leaf) for leaf in range(1, d + 1)]))
        writes_before = store.stats.disk_writes
        assert store.delete_vertex(hub)
        assert store.stats.disk_writes - writes_before == d + 1
        for leaf in range(1, d + 1):
            assert store.get_neighbors(leaf) == []

    def test_directed_graph_stored_undirected(self):
        g = DiGraph([(1, 2), (3, 1)])
        store = GraphStore()
        store.bulk_load(g)
        assert store.get_neighbors(1) == [2, 3]

    def test_roundtrip_large(self, tmp_path):
        g = erdos_renyi_graph(200, 800, seed=4)
        with GraphStore(tmp_path / "g.log") as store:
            store.bulk_load(g)
            for v in list(g.vertices())[:50]:
                assert store.get_neighbors(v) == g.sorted_neighbors(v)


class TestCompaction:
    def test_compact_reclaims_space(self, tmp_path):
        path = tmp_path / "db.log"
        with DiskKVStore(path) as store:
            for round_no in range(5):
                for key in range(20):
                    store.put(key, bytes([round_no]) * 50)
            for key in range(10):
                store.delete(key)
            saved = store.compact()
            assert saved > 0
            # Live data survives compaction.
            for key in range(10, 20):
                assert store.get(key) == bytes([4]) * 50
            for key in range(10):
                assert store.get(key) is None

    def test_compacted_store_recovers(self, tmp_path):
        path = tmp_path / "db.log"
        with DiskKVStore(path) as store:
            store.put(1, b"a")
            store.put(1, b"b")
            store.put(2, b"c")
            store.compact()
            store.put(3, b"d")  # writes after compaction append normally
        with DiskKVStore(path) as store:
            assert store.get(1) == b"b"
            assert store.get(2) == b"c"
            assert store.get(3) == b"d"

    def test_compact_empty_store(self, tmp_path):
        with DiskKVStore(tmp_path / "e.log") as store:
            assert store.compact() == 0

    def test_compact_clears_cache(self, tmp_path):
        with DiskKVStore(tmp_path / "c.log", cache_bytes=1024) as store:
            store.put(1, b"x" * 10)
            store.compact()
            store.stats.reset()
            assert store.get(1) == b"x" * 10
            assert store.stats.disk_reads == 1  # cache was invalidated


class TestValueSizeLimit:
    """The v1 tombstone sentinel must never be writable as a length."""

    def test_disk_put_rejects_sentinel_sized_value(self, tmp_path):
        with DiskKVStore(tmp_path / "db.log") as store:
            before = store.path.stat().st_size
            with pytest.raises(ValueError, match="tombstone sentinel"):
                store.put(1, _HugeValue())
            store.flush()
            assert store.path.stat().st_size == before
            assert 1 not in store

    def test_inmemory_put_rejects_sentinel_sized_value(self):
        store = InMemoryKVStore()
        with pytest.raises(ValueError, match="tombstone sentinel"):
            store.put(1, _HugeValue())
        assert 1 not in store


class TestInMemoryCacheParity:
    def test_cache_stats_match_disk_backend(self, tmp_path):
        """The same op sequence must produce the same cache/disk
        counters on both backends (the stats-parity contract)."""
        disk = DiskKVStore(tmp_path / "p.log", cache_bytes=1024)
        mem = InMemoryKVStore(cache_bytes=1024)
        for store in (disk, mem):
            store.put(1, b"abcd")
            store.put(2, b"efgh")
            store.get(1)       # hit: put populated the cache
            store.get(3)       # miss + absent
            store.get_many([1, 2, 2])
        for field in ("cache_hits", "cache_misses", "disk_reads"):
            assert getattr(disk.stats, field) == getattr(mem.stats, field), field
        disk.close()

    def test_inmemory_cache_absorbs_repeat_reads(self):
        store = InMemoryKVStore(cache_bytes=1024)
        store.put(1, b"abcd")
        store.get(1)
        store.get(1)
        assert store.stats.cache_hits == 2
        assert store.stats.disk_reads == 0

    def test_inmemory_delete_invalidates_cache(self):
        store = InMemoryKVStore(cache_bytes=1024)
        store.put(1, b"abcd")
        assert store.delete(1)
        assert store.get(1) is None


class TestCrashRecovery:
    """Torn-write recovery: replay truncates to the last intact record."""

    def _build_log(self, path):
        """Three committed records; returns their cumulative file sizes."""
        sizes = []
        with DiskKVStore(path) as store:
            for key, value in ((1, b"alpha"), (2, b"bravo-bravo"),
                               (3, b"the-final-record")):
                store.put(key, value)
                store.flush()
                sizes.append(path.stat().st_size)
        return sizes

    def test_truncation_at_every_byte_of_final_record(self, tmp_path):
        src = tmp_path / "src.log"
        sizes = self._build_log(src)
        data = src.read_bytes()
        assert len(data) == sizes[-1]
        for cut in range(sizes[1], sizes[2]):
            path = tmp_path / f"cut{cut}.log"
            path.write_bytes(data[:cut])
            with DiskKVStore(path) as store:
                assert store.get(1) == b"alpha"
                assert store.get(2) == b"bravo-bravo"
                assert 3 not in store and store.get(3) is None
                # The log was physically truncated to the last boundary,
                # so a new append lands on a clean tail.
                store.put(4, b"post-recovery")
            assert path.stat().st_size > sizes[1]
            with DiskKVStore(path) as store:
                assert store.get(2) == b"bravo-bravo"
                assert store.get(4) == b"post-recovery"

    def test_fully_committed_log_replays_unchanged(self, tmp_path):
        src = tmp_path / "src.log"
        sizes = self._build_log(src)
        with DiskKVStore(src) as store:
            assert store.get(3) == b"the-final-record"
        assert src.stat().st_size == sizes[-1]

    def test_recovery_logs_a_warning(self, tmp_path, caplog):
        src = tmp_path / "src.log"
        self._build_log(src)
        data = src.read_bytes()
        src.write_bytes(data[:-3])
        with caplog.at_level(logging.WARNING, logger="repro.storage.kvstore"):
            with DiskKVStore(src) as store:
                assert 3 not in store
        assert any("truncating torn tail" in rec.message
                   for rec in caplog.records)

    def test_corrupt_tail_checksum_detected(self, tmp_path):
        """A bit flip in the final record (torn page, bit rot) must not
        surface as a short/garbage value after reopen."""
        src = tmp_path / "src.log"
        sizes = self._build_log(src)
        data = bytearray(src.read_bytes())
        data[-4] ^= 0xFF  # corrupt the final record's payload
        src.write_bytes(bytes(data))
        with DiskKVStore(src) as store:
            assert store.get(2) == b"bravo-bravo"
            assert 3 not in store
        assert src.stat().st_size == sizes[1]

    def test_read_time_checksum_verification(self, tmp_path):
        path = tmp_path / "db.log"
        store = DiskKVStore(path)
        store.put(1, b"x" * 32)
        store.flush()
        with open(path, "r+b") as raw:  # corrupt behind the store's back
            raw.seek(len(LOG_MAGIC) + _FRAME.size + 5)
            raw.write(b"\xee")
        with pytest.raises(CorruptRecordError, match="checksum"):
            store.get(1)
        assert store.stats.checksum_failures == 1
        store.close()

    def test_verification_can_be_disabled(self, tmp_path):
        path = tmp_path / "db.log"
        store = DiskKVStore(path, verify_reads=False)
        store.put(1, b"x" * 32)
        store.flush()
        with open(path, "r+b") as raw:
            raw.seek(len(LOG_MAGIC) + _FRAME.size + 5)
            raw.write(b"\xee")
        assert store.get(1) != b"x" * 32  # garbage, but no exception
        store.close()

    def test_tombstone_is_explicit_record_type(self, tmp_path):
        path = tmp_path / "db.log"
        with DiskKVStore(path) as store:
            store.put(7, b"gone-soon")
            store.delete(7)
        data = path.read_bytes()
        rtype, key, size, _crc = _FRAME.unpack_from(data, len(data) - _FRAME.size)
        assert (rtype, key, size) == (0x02, 7, 0)
        with DiskKVStore(path) as store:
            assert 7 not in store


class TestLogMagic:
    """A log is recognized by its magic; nothing else is replayed."""

    def test_torn_magic_resets_to_checksummed_log(self, tmp_path, caplog):
        """A crash during log creation can leave a prefix of the magic;
        the reopened store must write checksummed frames after a fresh
        magic, not adopt the file as some other format."""
        path = tmp_path / "torn.log"
        path.write_bytes(LOG_MAGIC[:3])
        with caplog.at_level(logging.WARNING, logger="repro.storage.kvstore"):
            with DiskKVStore(path) as store:
                assert len(store) == 0
                store.put(1, b"abc")
        assert "torn log magic" in caplog.text
        data = path.read_bytes()
        assert data[:len(LOG_MAGIC)] == LOG_MAGIC
        rtype, key, size, _crc = _FRAME.unpack_from(data, len(LOG_MAGIC))
        assert (rtype, key, size) == (0x01, 1, 3)
        with DiskKVStore(path) as store:
            assert store.get(1) == b"abc"

    @pytest.mark.parametrize("content", [b"RKX", b"not a key-value log"])
    def test_file_without_magic_refused_untouched(self, tmp_path, content):
        path = tmp_path / "foreign.log"
        path.write_bytes(content)
        with pytest.raises(CorruptRecordError, match=re.escape(str(path))):
            DiskKVStore(path)
        assert path.read_bytes() == content


class TestAtomicCompaction:
    def _loaded_store(self, path):
        store = DiskKVStore(path)
        for key in range(8):
            store.put(key, bytes([key]) * 32)
            store.put(key, bytes([key]) * 16)  # garbage for GC
        store.flush()
        return store

    def test_interrupted_replace_leaves_original_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "db.log"
        store = self._loaded_store(path)
        before = path.read_bytes()

        def boom(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr("repro.storage.kvstore.os.replace", boom)
        with pytest.raises(OSError, match="before rename"):
            store.compact()
        monkeypatch.undo()
        # Original log untouched, no temp left, store still serves reads.
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        assert store.get(3) == bytes([3]) * 16
        store.close()
        with DiskKVStore(path) as reopened:
            assert reopened.get(3) == bytes([3]) * 16

    def test_interrupted_fsync_leaves_original_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "db.log"
        store = self._loaded_store(path)
        before = path.read_bytes()
        real_fsync = os.fsync

        def boom(fd):
            raise OSError("simulated crash before fsync completes")

        monkeypatch.setattr("repro.storage.kvstore.os.fsync", boom)
        with pytest.raises(OSError, match="before fsync"):
            store.compact()
        monkeypatch.setattr("repro.storage.kvstore.os.fsync", real_fsync)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        assert store.get(3) == bytes([3]) * 16
        saved = store.compact()  # and compaction still works afterwards
        assert saved > 0
        assert store.get(3) == bytes([3]) * 16
        store.close()

    def test_successful_compact_is_checksummed(self, tmp_path):
        path = tmp_path / "db.log"
        store = self._loaded_store(path)
        store.compact()
        store.close()
        with DiskKVStore(path) as reopened:
            for key in range(8):
                assert reopened.get(key) == bytes([key]) * 16


class TestLRUCacheThreadSafety:
    def test_two_thread_hammer_keeps_books_consistent(self):
        """Concurrent put/get/evict from two threads must never corrupt
        the size accounting or raise — the cache is the one hot-path
        structure shard-pool threads share."""
        import threading

        cache = LRUCache(1 << 12)
        errors = []

        def hammer(tid):
            try:
                for i in range(4000):
                    key = (tid, i % 37)
                    cache.put(key, bytes(29))
                    cache.get(key)
                    cache.get((1 - tid, i % 37))
                    if i % 11 == 0:
                        cache.evict(key)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert cache.size_bytes == sum(
            len(cache.get(k)) for k in list(cache._data))
        assert cache.size_bytes <= cache.capacity_bytes


class TestBatchedReads:
    """get_many / get_many_packed: counter parity and packed contract."""

    def _loaded(self, path, count=64, cache_bytes=0):
        store = DiskKVStore(path, cache_bytes=cache_bytes)
        for key in range(count):
            store.put(key, bytes([key % 251]) * (17 + key % 13))
        store.flush()
        return store

    def test_get_many_counts_one_read_per_key(self, tmp_path):
        """Span coalescing is physical-layer only: the logical counters
        must book exactly one disk read per distinct uncached key, as
        if each record had its own syscall."""
        store = self._loaded(tmp_path / "db.log", cache_bytes=1 << 16)
        store._cache.clear()  # puts pre-filled the cache
        store.stats.reset()
        keys = [3, 9, 27, 9, 44, 3]  # duplicates dedup
        store.get_many(keys)
        assert store.stats.disk_reads == 4
        assert store.stats.cache_misses == 4
        assert store.stats.cache_hits == 0
        store.get_many(keys)  # second pass: all cache
        assert store.stats.disk_reads == 4
        assert store.stats.cache_hits == 4
        store.close()

    def test_packed_counts_match_get_many(self, tmp_path):
        one = self._loaded(tmp_path / "a.log")
        two = self._loaded(tmp_path / "b.log")
        keys = list(range(0, 64, 3))
        one.stats.reset(); two.stats.reset()
        one.get_many(keys)
        two.get_many_packed(keys)
        assert one.stats.disk_reads == two.stats.disk_reads
        assert one.stats.bytes_read == two.stats.bytes_read
        one.close(); two.close()

    def test_packed_returns_input_order(self, tmp_path):
        store = self._loaded(tmp_path / "db.log")
        keys = [40, 2, 2, 17, 5]
        want = store.get_many(keys)
        data, lengths = store.get_many_packed(keys)
        offset = 0
        for key, length in zip(keys, lengths.tolist()):
            assert bytes(data[offset:offset + length]) == want[key]
            offset += length
        assert offset == len(data)
        store.close()

    def test_packed_vectorized_tier_matches_python_tier(self, tmp_path):
        """The cold pass pre-verifies armed records unbooked and serves
        through the numpy tier; a warm pass must return the same bytes
        and book the same counters."""
        store = self._loaded(tmp_path / "db.log")
        keys = list(range(64))
        cold = store.get_many_packed(keys)
        # Pre-verification disarmed every crc and rebuilt the mirror.
        assert store._vindex is not None
        assert not store._vindex[3].any()  # varmed all clear
        disk_reads_cold = store.stats.disk_reads
        store.stats.reset()
        warm = store.get_many_packed(keys)
        assert bytes(cold[0]) == bytes(warm[0])
        assert cold[1].tolist() == warm[1].tolist()
        # One logical read per key on both passes: verification I/O is
        # maintenance and never double-books.
        assert disk_reads_cold == 64
        assert store.stats.disk_reads == 64
        store.close()

    def test_packed_missing_keys_raise_with_list(self, tmp_path):
        store = self._loaded(tmp_path / "db.log")
        with pytest.raises(KeyError) as err:
            store.get_many_packed([1, 999, 2, 1000])
        assert sorted(err.value.args[0]) == [999, 1000]
        store.get_many_packed(list(range(64)))  # warm the numpy tier
        with pytest.raises(KeyError) as err:
            store.get_many_packed([1, 999])
        assert sorted(err.value.args[0]) == [999]
        store.close()

    def test_packed_detects_corruption_on_first_read(self, tmp_path):
        path = tmp_path / "db.log"
        store = self._loaded(path, count=4)
        with open(path, "r+b") as raw:  # flip a payload byte
            raw.seek(len(LOG_MAGIC) + _FRAME.size + 2)
            raw.write(b"\xee")
        with pytest.raises(CorruptRecordError, match="checksum"):
            store.get_many_packed([0, 1, 2, 3])
        assert store.stats.checksum_failures == 1
        store.close()

    def test_checksums_verify_once_per_open(self, tmp_path):
        """The verify-once trade, pinned: after a clean first read the
        crc is cleared, so later corruption behind a live store goes
        unseen until reopen — which re-arms every checksum."""
        path = tmp_path / "db.log"
        store = self._loaded(path, count=4)
        assert store.get(1) is not None  # verified now
        payload_offset = store._index[1][0]
        with open(path, "r+b") as raw:
            raw.seek(payload_offset + 2)
            raw.write(b"\xee")
        store.get(1)  # crc cleared: no re-verification, no raise
        store.close()
        # Reopen re-checks everything: replay spots the bad record and
        # truncates back to the last intact prefix.
        with DiskKVStore(path) as reopened:
            assert reopened.get(0) is not None
            assert 1 not in reopened

    def test_packed_serves_cache_hits(self, tmp_path):
        store = self._loaded(tmp_path / "db.log", cache_bytes=1 << 16)
        keys = list(range(0, 20))
        store.get_many(keys)  # fill the cache
        store.stats.reset()
        data, lengths = store.get_many_packed(keys)
        assert store.stats.disk_reads == 0
        assert store.stats.cache_hits == len(keys)
        want = store.get_many(keys)
        offset = 0
        for key, length in zip(keys, lengths.tolist()):
            assert bytes(data[offset:offset + length]) == want[key]
            offset += length
        store.close()

    def test_inmemory_packed_matches_disk_contract(self):
        store = InMemoryKVStore()
        for key in range(8):
            store.put(key, bytes([key]) * (4 + key))
        data, lengths = store.get_many_packed([5, 0, 5])
        assert lengths.tolist() == [9, 4, 9]
        assert bytes(data[:9]) == bytes([5]) * 9
        with pytest.raises(KeyError):
            store.get_many_packed([1, 99])
