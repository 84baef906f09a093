"""Compressed (v3) storage tier: round-trips, mixed logs, mmap views.

Covers the PR 6 storage work end to end at the KV layer:

- StreamVByte v3 records round-trip through every read path (scalar
  ``get``, ``get_many``, the packed tiers) and agree with a raw store;
- v2 and v3 records replay side by side from one log (mixed logs);
- ``compact`` converts between raw and compressed layouts per the
  store's current setting and invalidates any mmap;
- torn v3 records are truncated on replay exactly like torn v2 ones;
- the compression gauge/counters book what actually happened;
- incompressible values fall back to raw records transparently.
"""

import os

import numpy as np
import pytest

from repro.storage.kvstore import DiskKVStore


def _blob(values) -> bytes:
    return np.asarray(sorted(values), dtype="<u4").tobytes()


def _adjacency(n_keys: int, seed: int = 0) -> dict[int, bytes]:
    rng = np.random.default_rng(seed)
    out = {}
    for key in range(n_keys):
        degree = int(rng.integers(1, 40))
        out[key] = _blob(np.unique(rng.integers(0, 50_000, degree)))
    return out


def _packed_all(store, keys):
    data, lengths = store.get_many_packed(np.asarray(keys, dtype=np.int64))
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return {k: data[o:o + n].tobytes()
            for k, o, n in zip(keys, offsets, lengths)}


class TestCompressedRoundTrip:
    def test_all_read_paths_agree_with_raw(self, tmp_path):
        data = _adjacency(120)
        raw = DiskKVStore(tmp_path / "raw.log")
        comp = DiskKVStore(tmp_path / "comp.log", compress=True)
        for k, v in data.items():
            raw.put(k, v)
            comp.put(k, v)
        keys = sorted(data)
        for k in keys[:20]:
            assert comp.get(k) == raw.get(k) == data[k]
        many = comp.get_many(keys)
        assert all(many[k] == data[k] for k in keys)
        assert _packed_all(comp, keys) == data
        assert comp.stats.compressed_puts > 0
        assert os.path.getsize(comp.path) < os.path.getsize(raw.path)
        raw.close()
        comp.close()

    def test_compressed_log_replays(self, tmp_path):
        data = _adjacency(60, seed=1)
        store = DiskKVStore(tmp_path / "kv.log", compress=True)
        for k, v in data.items():
            store.put(k, v)
        store.close()
        reopened = DiskKVStore(tmp_path / "kv.log", compress=True)
        assert _packed_all(reopened, sorted(data)) == data
        assert reopened.stats.compression_ratio > 1.0
        reopened.close()

    def test_mixed_v2_v3_log(self, tmp_path):
        """Raw records written first, compressed appended after reopen —
        one log, both formats, every reader serves both."""
        data = _adjacency(80, seed=2)
        keys = sorted(data)
        half = len(keys) // 2
        store = DiskKVStore(tmp_path / "kv.log")
        for k in keys[:half]:
            store.put(k, data[k])
        store.close()
        store = DiskKVStore(tmp_path / "kv.log", compress=True)
        for k in keys[half:]:
            store.put(k, data[k])
        assert _packed_all(store, keys) == data
        store.close()
        # A non-compressing reader must still decode the v3 records.
        plain = DiskKVStore(tmp_path / "kv.log")
        assert _packed_all(plain, keys) == data
        plain.close()

    def test_incompressible_values_stay_raw(self, tmp_path):
        store = DiskKVStore(tmp_path / "kv.log", compress=True)
        rng = np.random.default_rng(3)
        # Full-range deltas need >4 bytes/lane encoded; raw wins.
        wide = _blob(np.unique(rng.integers(0, 2**32, 30, dtype=np.uint64)
                               .astype(np.uint32)))
        store.put(1, wide)
        short = b"xy"  # not a whole number of lanes
        store.put(2, short)
        assert store.stats.compressed_puts == 0
        assert store.get(1) == wide and store.get(2) == short
        store.close()


class TestCompactionAndGauges:
    def test_compact_converts_raw_to_compressed(self, tmp_path):
        data = _adjacency(60, seed=4)
        store = DiskKVStore(tmp_path / "kv.log")
        for k, v in data.items():
            store.put(k, v)
        store.close()
        store = DiskKVStore(tmp_path / "kv.log", compress=True)
        before = os.path.getsize(store.path)
        store.compact()
        assert os.path.getsize(store.path) < before
        assert store.stats.compression_ratio > 1.0
        assert _packed_all(store, sorted(data)) == data
        store.close()

    def test_compact_converts_compressed_to_raw(self, tmp_path):
        data = _adjacency(40, seed=5)
        store = DiskKVStore(tmp_path / "kv.log", compress=True)
        for k, v in data.items():
            store.put(k, v)
        store.close()
        store = DiskKVStore(tmp_path / "kv.log", compress=False)
        store.compact()
        assert store.stats.compression_ratio == 1.0
        assert _packed_all(store, sorted(data)) == data
        store.close()

    def test_gauge_tracks_overwrites_and_deletes(self, tmp_path):
        store = DiskKVStore(tmp_path / "kv.log", compress=True)
        store.put(1, _blob(range(100, 140)))
        ratio_one = store.stats.compression_ratio
        assert ratio_one > 1.0
        store.put(1, _blob(range(200, 280)))  # overwrite re-books
        store.put(2, _blob(range(50, 60)))
        store.delete(2)
        assert store.stats.compression_ratio > 1.0
        store.delete(1)
        assert store.stats.compression_ratio == 1.0  # empty store
        store.close()

    def test_counters_book_compressed_puts_only(self, tmp_path):
        store = DiskKVStore(tmp_path / "kv.log", compress=True)
        store.put(1, _blob(range(10, 40)))
        store.put(2, b"zz")  # raw fallback
        assert store.stats.compressed_puts == 1
        assert store.stats.blob_bytes_raw == 30 * 4
        assert 0 < store.stats.blob_bytes_stored < 30 * 4
        store.close()


class TestTornV3Replay:
    @pytest.mark.parametrize("cut_back", [1, 3, 7])
    def test_torn_compressed_record_truncated(self, tmp_path, cut_back):
        data = _adjacency(20, seed=6)
        store = DiskKVStore(tmp_path / "kv.log", compress=True)
        for k, v in data.items():
            store.put(k, v)
        store.put(999, _blob(range(1000, 1060)))
        store.close()
        size = os.path.getsize(tmp_path / "kv.log")
        with open(tmp_path / "kv.log", "r+b") as handle:
            handle.truncate(size - cut_back)
        recovered = DiskKVStore(tmp_path / "kv.log", compress=True)
        assert recovered.get(999) is None  # torn tail dropped
        assert _packed_all(recovered, sorted(data)) == data
        # The replay truncated the log back to the last whole record.
        assert os.path.getsize(recovered.path) < size - cut_back + 1
        recovered.close()


class TestMmapTier:
    def test_mmap_serves_packed_reads(self, tmp_path):
        data = _adjacency(100, seed=7)
        store = DiskKVStore(tmp_path / "kv.log", compress=True,
                            use_mmap=True)
        for k, v in data.items():
            store.put(k, v)
        keys = sorted(data)
        assert _packed_all(store, keys) == data  # arms + validates
        assert _packed_all(store, keys) == data  # mmap fast path
        assert store._mmap is not None
        store.close()
        assert store._mmap is None

    def test_mmap_invalidated_by_compact(self, tmp_path):
        data = _adjacency(50, seed=8)
        store = DiskKVStore(tmp_path / "kv.log", compress=True,
                            use_mmap=True)
        for k, v in data.items():
            store.put(k, v)
        keys = sorted(data)
        _packed_all(store, keys)
        _packed_all(store, keys)
        mapped = store._mmap
        assert mapped is not None
        store.put(7, _blob(range(5)))  # dead bytes for compact to drop
        store.compact()
        assert store._mmap is not mapped  # old inode unmapped
        data[7] = _blob(range(5))
        assert _packed_all(store, keys) == data
        store.close()

    def test_mmap_grows_with_appends(self, tmp_path):
        store = DiskKVStore(tmp_path / "kv.log", use_mmap=True)
        store.put(1, _blob(range(10)))
        _packed_all(store, [1])
        _packed_all(store, [1])
        store.put(2, _blob(range(20, 40)))
        result = _packed_all(store, [1, 2])
        assert result[2] == _blob(range(20, 40))
        store.close()

    def test_reads_identical_with_and_without_mmap(self, tmp_path):
        data = _adjacency(70, seed=9)
        for k_open in (False, True):
            store = DiskKVStore(tmp_path / f"kv{int(k_open)}.log",
                                compress=True, use_mmap=k_open)
            for k, v in data.items():
                store.put(k, v)
            keys = sorted(data)
            _packed_all(store, keys)
            assert _packed_all(store, keys) == data
            store.close()
