"""File-backed key-value store (the RocksDB stand-in).

Design: an append-only data log plus an in-memory key → (offset, size,
crc) index, the classic log-structured layout.  Every ``get`` that
misses the block cache performs a real ``seek`` + ``read`` against the
file and is counted in :class:`StorageStats` — those counters are what
the paper's Fig. 9 experiment is about (VEND exists to avoid exactly
these reads).

Crash safety (DESIGN.md §8).  Logs use the **v2 record format**: an
8-byte file magic followed by self-checking frames::

    [type:1][key:int64][length:uint32][crc32:uint32][payload]

``crc32`` covers the frame header (minus itself) plus the payload, so
a torn write — a record whose tail never reached the disk before a
crash — fails either the structural bounds check or the checksum.
Replay truncates the log back to the last intact record boundary and
logs a recovery warning instead of indexing bytes that don't exist.
Tombstones are an explicit record type, not a length sentinel.

A file shorter than the magic whose bytes are a prefix of it is a new
log torn by a crash before its magic was durable; it is reset to an
empty log with a recovery warning.  Any other file that does not
start with the magic is refused and left untouched.
:meth:`DiskKVStore.compact` rewrites the log atomically (temp file +
fsync + ``os.replace``).

Compression (DESIGN.md §12, the **v3 records**).  With
``compress=True`` a ``put`` whose value parses as a non-decreasing
``uint32`` adjacency blob is stored StreamVByte-delta-compressed under
one of three new record types inside the same v2 frame (so v2 and v3
records interleave freely in one log and old stores replay new logs'
prefixes): ``0x03`` single-value, ``0x04`` one-group, ``0x05``
multi-group — the type encodes the blob layout, the frame's length the
payload size, and together they determine the value count with no
per-record header bytes.  Values that don't qualify (or don't shrink)
stay raw ``0x01`` puts.  All read paths decode transparently; the
``compression_ratio`` gauge tracks live raw bytes over live stored
bytes.

mmap (``use_mmap=True``).  The packed read tier serves gathers from an
``np.frombuffer`` view of an ``mmap`` of the log — straight off the
page cache, no read syscalls, no intermediate buffer.  The map is
remapped lazily when the log grows and dropped on compaction (the old
inode dies) — exported views keep the old map alive until garbage
collected, so in-flight batches stay safe while new reads see the new
log.  Whenever the map is unavailable (fault-injection wrapper,
mid-compaction, platforms without mmap) reads fall back to
positional-read span gathers.

``InMemoryKVStore`` implements the same interface (including the
block cache and its statistics) for fast unit tests.
"""

from __future__ import annotations

import logging
import mmap
import operator
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from ..obs import ReadReceipt, StorageStats, default_tracer
from ..simd.streamvbyte import (
    blob_count,
    blob_layout,
    decode_blob_checked,
    decode_blobs_packed,
    encode_blob,
)
from .cache import LRUCache
from .hotcache import HotSetCache

__all__ = [
    "StorageStats",
    "DiskKVStore",
    "InMemoryKVStore",
    "CorruptRecordError",
    "LOG_MAGIC",
    "MAX_VALUE_BYTES",
    "assemble_packed",
    "pack_in_order",
]

logger = logging.getLogger(__name__)

#: 8-byte magic that opens every v2 log file.
LOG_MAGIC = b"RKVLOG2\x00"

# Reserved value length: the tombstone sentinel of the retired v1
# log format.  No value may have it.
_V1_TOMBSTONE = 0xFFFFFFFF

_FRAME = struct.Struct("<BqII")  # type, key, length, crc32
_CRC_PREFIX = struct.Struct("<BqI")  # the frame fields the crc covers
_REC_PUT = 0x01
_REC_TOMBSTONE = 0x02
# v3 compressed-put record types: same frame, StreamVByte blob payload.
# ``rtype - _BLOB_TYPE_BASE`` is the streamvbyte blob layout
# (BLOB_SINGLE/BLOB_GROUP/BLOB_MULTI).
_REC_PUT_SVB1 = 0x03
_REC_PUT_SVBG = 0x04
_REC_PUT_SVBM = 0x05
_BLOB_TYPE_BASE = 0x02
_BLOB_RECORD_TYPES = frozenset((_REC_PUT_SVB1, _REC_PUT_SVBG, _REC_PUT_SVBM))

#: Largest storable value: below the reserved sentinel length, so it
#: also fits the frame's uint32 length field.
MAX_VALUE_BYTES = _V1_TOMBSTONE - 1

#: Multi-get read coalescing: two offset-adjacent records whose gap is
#: at most this many bytes are fetched with one ``pread`` spanning both.
#: A page-sized gap deliberately over-reads records that sit between two
#: requested ones — sequential bytes from the page cache are far cheaper
#: than the fixed cost of an extra read, the same trade RocksDB MultiGet
#: makes with its readahead window.
_SPAN_GAP_BYTES = 4096
#: Upper bound on one coalesced span, so a huge multi-get cannot demand
#: an unbounded single allocation.
_SPAN_MAX_BYTES = 1 << 20


class CorruptRecordError(RuntimeError):
    """A stored record failed its checksum or size validation."""


def _record_crc(rtype: int, key: int, payload: bytes) -> int:
    """CRC32 over the frame header (minus the crc field) + payload."""
    return zlib.crc32(payload, zlib.crc32(_CRC_PREFIX.pack(rtype, key, len(payload))))


def _encode_frame(rtype: int, key: int, payload: bytes = b"") -> bytes:
    crc = _record_crc(rtype, key, payload)
    return _FRAME.pack(rtype, key, len(payload), crc) + payload


def _check_value_size(size: int) -> None:
    """Reject values whose length reaches the reserved sentinel."""
    if size > MAX_VALUE_BYTES:
        raise ValueError(
            f"value of {size} bytes exceeds the {MAX_VALUE_BYTES}-byte "
            f"maximum (length 0x{_V1_TOMBSTONE:X} is the tombstone sentinel)"
        )


def _fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync so a rename survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def assemble_packed(src: np.ndarray, offs: np.ndarray, szs: np.ndarray,
                    rtypes: np.ndarray, rawszs: np.ndarray,
                    out: np.ndarray, slots: np.ndarray) -> None:
    """Scatter stored records — raw or compressed — into decoded form.

    ``src`` is any uint8 buffer (a span gather or an mmap view)
    holding record ``i``'s stored payload at ``offs[i]`` with stored
    size ``szs[i]``; its decoded bytes land at
    ``out[slots[i]:slots[i] + rawszs[i]]``.  Raw records are one
    whole-batch gather; compressed records are one
    :func:`~repro.simd.streamvbyte.decode_blobs_packed` pass — one
    masked 32-bit load per value, counts taken from ``rawszs // 4`` —
    read in place, so ``src`` is never copied.  Shared by the packed
    read tiers.
    """
    raw = rtypes == _REC_PUT
    if raw.any():
        all_raw = bool(raw.all())
        r_offs = offs if all_raw else offs[raw]
        r_szs = szs if all_raw else szs[raw]
        r_slots = slots if all_raw else slots[raw]
        total = int(r_szs.sum())
        base = np.zeros(len(r_szs), dtype=np.int64)
        np.cumsum(r_szs[:-1], out=base[1:])
        # Gather index: byte j of record i lives at offs[i] + j, i.e.
        # (offs[i] - base[i]) + (base[i] + j) — one repeat + one arange.
        idx = np.repeat(r_offs - base, r_szs)
        idx += np.arange(total, dtype=np.int64)
        if len(r_slots) and int(r_slots[0]) == 0 and np.array_equal(
                r_slots, base):
            # Records land back to back in request order (the packed
            # tiers' common case): gather straight into the output.
            np.take(src, idx, out=out[:total])
        else:
            dest = np.repeat(r_slots - base, r_szs)
            dest += np.arange(total, dtype=np.int64)
            out[dest] = src[idx]
    comp = ~raw
    if comp.any():
        all_comp = bool(comp.all())
        c_raw = rawszs if all_comp else rawszs[comp]
        c_slots = slots if all_comp else slots[comp]
        values = decode_blobs_packed(src,
                                     offs if all_comp else offs[comp],
                                     szs if all_comp else szs[comp],
                                     c_raw // 4,
                                     (rtypes if all_comp else rtypes[comp])
                                     - _BLOB_TYPE_BASE)
        total = int(c_raw.sum())
        base = np.zeros(len(c_raw), dtype=np.int64)
        np.cumsum(c_raw[:-1], out=base[1:])
        decoded = values.astype("<u4", copy=False).view(np.uint8)
        if len(c_slots) and int(c_slots[0]) == 0 and np.array_equal(
                c_slots, base):
            # Blobs land back to back in request order: one flat copy.
            out[:total] = decoded
        else:
            dest = np.repeat(c_slots - base, c_raw)
            dest += np.arange(total, dtype=np.int64)
            out[dest] = decoded


def pack_in_order(keys, values: dict[int, bytes | None],
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(data, lengths)`` of ``values[key]`` for every key, in order.

    The packed-read contract over a :meth:`DiskKVStore.get_many`-style
    result dict: one contiguous ``uint8`` array plus per-key byte
    counts.  Raises ``KeyError`` carrying the keys with no value.
    """
    blobs = [values[int(key)] for key in keys]
    missing = [int(key) for key, blob in zip(keys, blobs) if blob is None]
    if missing:
        raise KeyError(missing)
    lengths = np.fromiter(map(len, blobs), dtype=np.int64, count=len(blobs))
    return np.frombuffer(b"".join(blobs), dtype=np.uint8), lengths


class DiskKVStore:
    """Append-only log store with integer keys and bytes values.

    Parameters
    ----------
    path:
        Backing file.  Created if absent; an existing log is replayed to
        rebuild the index.  Torn or corrupt tails are truncated back to
        the last intact record (crash recovery).
    cache_bytes:
        Block-cache capacity; 0 disables caching entirely so every read
        hits the file (useful when benchmarks must observe raw I/O).
    verify_reads:
        When True (default), every physical read of a v2 record is
        re-checksummed and a mismatch raises :class:`CorruptRecordError`
        (RocksDB verifies block checksums on read the same way).
    compress:
        When True, eligible values (non-decreasing uint32 blobs that
        actually shrink) are stored as v3 StreamVByte records.  Reads
        decode transparently either way, and a store opened with
        ``compress=False`` still reads any v3 records already in its
        log.
    use_mmap:
        When True, the packed read tier gathers from an mmap view of
        the log (falling back to positional reads when mapping fails).
    hot_cache_bytes:
        Budget for the decoded-blob hot cache
        (:class:`~repro.storage.hotcache.HotSetCache`); 0 disables it.
        The hot cache is **stats-transparent**: a hot hit books the
        same logical ``disk_reads``/``bytes_read`` the stored record's
        cold read would (exactly like the mmap tier books reads it
        served from the page cache), so every counter and verdict is
        bitwise identical with the cache on or off — its effect shows
        up only as wall-clock speed and in its own ``repro_cache``
        series.  Entries are invalidated exactly on ``put``/``delete``
        of their key and wholesale on ``compact``.  It cannot be
        combined with a block cache (``ValueError``): a hot serve books
        a disk read where the block cache would book a cache hit, so
        the pair could not stay stats-transparent.
    """

    def __init__(self, path: str | Path, cache_bytes: int = 0,
                 verify_reads: bool = True, compress: bool = False,
                 use_mmap: bool = False, hot_cache_bytes: int = 0):
        if cache_bytes > 0 and hot_cache_bytes > 0:
            raise ValueError(
                "the hot cache needs the block cache off: pass "
                "cache_bytes=0 with hot_cache_bytes > 0")
        self.path = Path(path)
        self.stats = StorageStats()
        self.verify_reads = verify_reads
        self._compress = bool(compress)
        self._use_mmap = bool(use_mmap)
        self._mmap: mmap.mmap | None = None
        self._mmap_np: np.ndarray | None = None
        # Live-set compression accounting backing the
        # ``compression_ratio`` gauge: decoded vs stored bytes of every
        # currently-indexed record.
        self._live_raw = 0
        self._live_stored = 0
        # key -> (payload offset, stored size, frame crc32 or None once
        # verified, record type, decoded size).  Stored and decoded
        # sizes coincide for raw records.
        self._index: dict[int, tuple[int, int, int | None, int, int]] = {}
        # Sorted-array mirror of ``_index`` for vectorized multi-get:
        # (keys, offsets, sizes, crc-armed, record types, raw sizes) as
        # numpy arrays.  An overwrite or a checksum disarm rewrites its
        # key's row in place; a new key, a tombstone or compaction drops
        # it for a lazy rebuild (``None`` = stale).
        self._vindex: tuple[np.ndarray, np.ndarray, np.ndarray,
                            np.ndarray, np.ndarray, np.ndarray] | None = None
        self._cache = LRUCache(cache_bytes) if cache_bytes > 0 else None
        self._hot = (HotSetCache(hot_cache_bytes)
                     if hot_cache_bytes > 0 else None)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a+b")
        self._file.seek(0, os.SEEK_END)
        if self._file.tell() == 0:
            self._file.write(LOG_MAGIC)
            self._file.flush()
        else:
            self._replay()
            self._recount_live_bytes()
        # One read descriptor held open for the store's whole life:
        # every record read is an ``os.pread`` against it, which (a)
        # never reopens or seeks per block, and (b) carries its own
        # offset, so concurrent readers (shard-pool threads) cannot
        # corrupt each other's file position.  Appends keep using the
        # buffered ``self._file``; ``_pending_flush`` marks buffered
        # bytes the next read must flush before they become visible.
        self._read_fd = os.open(self.path, os.O_RDONLY)
        self._pending_flush = False

    # -- public API --------------------------------------------------------

    @property
    def hot_cache(self) -> HotSetCache | None:
        """The decoded-blob hot cache, or None when disabled."""
        return self._hot

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: int) -> bool:
        return key in self._index

    def keys(self):
        return self._index.keys()

    def _make_record(self, value: bytes) -> tuple[int, bytes]:
        """``(record type, stored payload)`` for ``value`` as configured.

        Compression applies only when the value is a non-empty
        multiple-of-4-bytes buffer whose uint32 lanes are non-decreasing
        (a sorted adjacency blob) **and** the encoding is strictly
        smaller — everything else stays a raw put, so arbitrary values
        and adversarial blobs never regress.
        """
        if self._compress and len(value) >= 4 and len(value) % 4 == 0:
            lanes = np.frombuffer(value, dtype="<u4")
            if lanes.size == 1 or bool((lanes[1:] >= lanes[:-1]).all()):
                payload = encode_blob(lanes)
                if len(payload) < len(value):
                    rtype = _BLOB_TYPE_BASE + blob_layout(lanes.size)
                    return rtype, payload
        return _REC_PUT, value

    def encode_put_record(self, key: int, value: bytes) -> bytes:
        """The exact bytes :meth:`put` would append for ``(key, value)``.

        Exposed so the fault injector can simulate a torn write by
        appending only a prefix of a real record (compressed records
        included, since tearing happens after encoding).
        """
        _check_value_size(len(value))
        rtype, payload = self._make_record(value)
        return _encode_frame(rtype, key, payload)

    def _update_compression_gauge(self) -> None:
        stored = self._live_stored
        self.stats.set_gauge(
            "compression_ratio", self._live_raw / stored if stored else 1.0)

    def _recount_live_bytes(self) -> None:
        """Rebuild the live raw/stored byte totals from the index."""
        self._live_raw = sum(loc[4] for loc in self._index.values())
        self._live_stored = sum(loc[1] for loc in self._index.values())
        self._update_compression_gauge()

    def put(self, key: int, value: bytes) -> None:
        """Write ``value`` under ``key`` (append + index update)."""
        _check_value_size(len(value))
        rtype, payload = self._make_record(value)
        record = _encode_frame(rtype, key, payload)
        self._file.seek(0, os.SEEK_END)
        offset = self._file.tell()
        try:
            self._file.write(record)
        except BaseException:
            # A partial append is a self-inflicted torn tail; roll the
            # file back so later appends don't bury garbage mid-log.
            try:
                self._file.truncate(offset)
            except OSError:
                pass
            raise
        crc = _record_crc(rtype, key, payload)
        old = self._index.get(key)
        if old is not None:
            self._live_raw -= old[4]
            self._live_stored -= old[1]
        loc = (offset + _FRAME.size, len(payload), crc, rtype, len(value))
        self._index[key] = loc
        self._live_raw += len(value)
        self._live_stored += len(payload)
        if old is None:
            self._vindex = None
        else:
            self._set_vindex_row(key, loc)
        self._pending_flush = True
        self.stats.inc("disk_writes")
        self.stats.inc("bytes_written", len(record))
        if rtype != _REC_PUT:
            self.stats.inc("compressed_puts")
            self.stats.inc("blob_bytes_raw", len(value))
            self.stats.inc("blob_bytes_stored", len(payload))
        self._update_compression_gauge()
        if self._cache is not None:
            self._cache.put(key, value)
        if self._hot is not None:
            # Exact invalidation: the cached decode no longer matches
            # the live record.  Re-admission happens on the next read.
            self._hot.evict(key)

    def _validate_record(self, key: int, offset: int, size: int,
                         crc: int | None, rtype: int, raw_size: int,
                         value: bytes) -> None:
        """Size + checksum validation shared by every read path."""
        if len(value) != size:
            self.stats.inc("checksum_failures")
            raise CorruptRecordError(
                f"key {key}: record at offset {offset} is {len(value)} bytes, "
                f"expected {size} (log truncated underneath a live index?)"
            )
        if self.verify_reads and crc is not None:
            if _record_crc(rtype, key, value) != crc:
                self.stats.inc("checksum_failures")
                raise CorruptRecordError(
                    f"key {key}: checksum mismatch at offset {offset}"
                )
            # Verify-once-per-open: the log is append-only, so this
            # (offset, size) can never be rewritten underneath us —
            # clearing the in-memory crc makes warm re-reads skip the
            # checksum, the same trade RocksDB makes by verifying
            # blocks on cache fill rather than on every hit.  A fresh
            # open rebuilds the index and re-arms every crc.
            loc = (offset, size, None, rtype, raw_size)
            self._index[key] = loc
            self._set_vindex_row(key, loc)

    def _set_vindex_row(self, key: int,
                        loc: tuple[int, int, int | None, int, int]) -> None:
        """Rewrite the ``_vindex`` row of ``key``, already indexed, to
        ``loc``.  Mutations run under the sharded store's exclusive
        lock, and a disarm only ever clears a crc that has just been
        checked, so the in-place write is safe for concurrent readers.
        """
        vi = self._vindex
        if vi is None:
            return
        keys, offs, szs, armed, rtypes, rawszs = vi
        pos = int(np.searchsorted(keys, key))
        offs[pos], szs[pos], rtypes[pos], rawszs[pos] = (
            loc[0], loc[1], loc[3], loc[4])
        armed[pos] = loc[2] is not None

    def _verify_keys(self, keys) -> None:
        """First-touch checksum for freshly written records, unbooked.

        Verification I/O is maintenance, not service: the caller books
        the one logical read per key on the fast path it then takes, so
        booking here would double-count.  ``_validate_record`` disarms
        each crc, keeping this a once-per-open cost per record.
        """
        if self._pending_flush:
            self._file.flush()
            self._pending_flush = False
        for key in keys.tolist():
            offset, size, crc, rtype, raw_size = self._index[key]
            if crc is None:
                continue
            value = os.pread(self._read_fd, size, offset)
            self._validate_record(key, offset, size, crc, rtype,
                                  raw_size, value)

    def _read_record(self, key: int, offset: int, size: int,
                     crc: int | None, rtype: int, raw_size: int,
                     count: bool = True,
                     receipt: ReadReceipt | None = None) -> bytes:
        """Read and validate one record, returning its **decoded** value."""
        if self._pending_flush:
            self._file.flush()
            self._pending_flush = False
        value = os.pread(self._read_fd, size, offset)
        if count:
            self.stats.inc("disk_reads")
            self.stats.inc("bytes_read", len(value))
            if receipt is not None:
                receipt.count_disk_read(len(value))
        self._validate_record(key, offset, size, crc, rtype, raw_size, value)
        if rtype != _REC_PUT:
            return decode_blob_checked(rtype - _BLOB_TYPE_BASE, value,
                                       raw_size // 4).tobytes()
        return value

    def get(self, key: int,
            receipt: ReadReceipt | None = None) -> bytes | None:
        """Read the value for ``key`` or None; counts a disk read on miss.

        ``receipt`` receives the cache-vs-disk provenance of exactly
        this lookup, so callers can attribute I/O without diffing the
        shared counters.
        """
        if self._cache is not None:
            with default_tracer().span("cache"):
                cached = self._cache.get(key)
            if cached is not None:
                self.stats.inc("cache_hits")
                if receipt is not None:
                    receipt.count_cache_hit()
                return cached
            self.stats.inc("cache_misses")
        if self._hot is not None:
            hot = self._hot.get(key)
            if hot is not None:
                value, stored = hot
                # Stats-transparent: book the logical read the stored
                # record would have cost (mmap-tier precedent).
                self.stats.inc("disk_reads")
                self.stats.inc("bytes_read", stored)
                if receipt is not None:
                    receipt.count_disk_read(stored)
                return value
        loc = self._index.get(key)
        if loc is None:
            return None
        value = self._read_record(key, *loc, receipt=receipt)
        if self._cache is not None:
            self._cache.put(key, value)
        return value

    def get_many(self, keys,
                 receipt: ReadReceipt | None = None) -> dict[int, bytes | None]:
        """Batched read: one cache pass, then file reads in offset order.

        Keys are deduplicated (a repeated key costs one lookup), the
        cache is consulted exactly once per distinct key, and the
        outstanding misses are read with ``os.pread`` against the one
        read descriptor the store holds open, sorted by file offset so
        the access pattern is one forward sweep instead of random
        seeks.  Offset-adjacent records (the common case after a
        ``bulk_load`` or a ``compact``, which write the log
        sequentially) are **coalesced**: one ``pread`` covers a whole
        run of records separated only by frame headers, and each
        payload is sliced out and validated individually — the RocksDB
        MultiGet readahead idea.  ``StorageStats`` counts exactly the
        logical activity — one cache hit/miss per distinct key, one
        disk read per uncached stored key — booked in bulk (one
        ``inc`` per counter per call, not per key), which keeps the
        counters off the batched hot path and identical whether a
        record arrived via its own syscall or a coalesced span.
        """
        result: dict[int, bytes | None] = {}
        pending: list[tuple[int, int, int | None, int, int, int]] = []
        cache_hits = cache_misses = 0
        for key in keys:
            key = int(key)
            if key in result:
                continue
            if self._cache is not None:
                cached = self._cache.get(key)
                if cached is not None:
                    cache_hits += 1
                    result[key] = cached
                    continue
                cache_misses += 1
            loc = self._index.get(key)
            if loc is None:
                result[key] = None
                continue
            result[key] = None  # placeholder keeps dedup exact
            pending.append((*loc, key))
        if cache_hits:
            self.stats.inc("cache_hits", cache_hits)
        if cache_misses:
            self.stats.inc("cache_misses", cache_misses)
        if receipt is not None:
            receipt.count_cache_hits(cache_hits)
        pending.sort(key=operator.itemgetter(0))
        if self._pending_flush and pending:
            self._file.flush()
            self._pending_flush = False
        disk_reads = bytes_read = 0
        compressed: list[tuple[int, bytes, int, int]] = []
        try:
            for span in self._coalesce(pending):
                start = span[0][0]
                length = span[-1][0] + span[-1][1] - start
                buffer = os.pread(self._read_fd, length, start)
                for offset, size, crc, rtype, raw_size, key in span:
                    value = buffer[offset - start:offset - start + size]
                    disk_reads += 1
                    bytes_read += len(value)
                    self._validate_record(key, offset, size, crc, rtype,
                                          raw_size, value)
                    if rtype != _REC_PUT:
                        # Defer to one whole-batch decode pass below —
                        # per-record decode_blob calls dominate a large
                        # compressed multi-get otherwise.
                        compressed.append((key, value, rtype, raw_size))
                        continue
                    if self._cache is not None:
                        self._cache.put(key, value)
                    result[key] = value
        finally:
            # Book the physical reads even when a corrupt record aborts
            # the sweep part-way: the I/O happened either way.
            if disk_reads:
                self.stats.inc("disk_reads", disk_reads)
                self.stats.inc("bytes_read", bytes_read)
                if receipt is not None:
                    receipt.count_disk_reads(disk_reads, bytes_read)
        if compressed:
            sizes = np.asarray([len(v) for _, v, _, _ in compressed],
                               dtype=np.int64)
            offsets = np.zeros(len(compressed), dtype=np.int64)
            np.cumsum(sizes[:-1], out=offsets[1:])
            src = np.frombuffer(
                b"".join(v for _, v, _, _ in compressed), dtype=np.uint8)
            counts = np.asarray([raw // 4 for _, _, _, raw in compressed],
                                dtype=np.int64)
            layouts = np.asarray(
                [rtype - _BLOB_TYPE_BASE for _, _, rtype, _ in compressed],
                dtype=np.int64)
            decoded = decode_blobs_packed(src, offsets, sizes, counts,
                                          layouts).astype("<u4", copy=False)
            value_start = 0
            for (key, _v, _rt, raw_size), count in zip(
                    compressed, counts.tolist()):
                value = decoded[value_start:value_start + count].tobytes()
                value_start += count
                if self._cache is not None:
                    self._cache.put(key, value)
                result[key] = value
        return result

    def get_many_packed(self, keys,
                        receipt: ReadReceipt | None = None,
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated payloads for ``keys``, assembled with numpy.

        Returns ``(data, lengths)``: one contiguous ``uint8`` array of
        every payload in **input key order**, plus the per-key payload
        byte counts.  Raises ``KeyError`` carrying the list of missing
        keys.  Callers pass already-deduplicated keys (the batched
        probe does); repeated keys would each pay a read.

        This is the batched-probe hot path.  :meth:`get_many` spends
        most of its time in per-record Python — one slice, one dict
        store, one bytes object per record — which at 10⁵ records per
        batch dwarfs the actual I/O.  Here the index lookup is one
        ``searchsorted`` against the sorted ``_vindex`` mirror, and
        payload extraction, decode and reordering into key order are a
        handful of whole-batch numpy gathers with zero per-record
        Python.  Records still carrying their first-touch checksum
        (freshly appended this open) are verified in a small unbooked
        pre-pass first, so a trickle of writes cannot slow whole probe
        batches.  Stats and receipt booking are identical to
        :meth:`get_many` over the same keys — one disk read per stored
        key — so engines using either path book the same totals.

        With a block cache the call is :meth:`get_many` packed in key
        order by :func:`pack_in_order`, which keeps that method's cache
        fills and one cache hit/miss per key.
        """
        if self._cache is not None:
            return pack_in_order(keys, self.get_many(keys, receipt=receipt))
        vi = self._vindex
        if vi is None:
            vi = self._vindex = self._build_vindex()
        karr = np.asarray(keys, dtype=np.int64)
        vkeys, voffs, vszs, varmed, vrtypes, vrawszs = vi
        if len(vkeys) == 0:
            if len(karr):
                raise KeyError(sorted(set(karr.tolist())))
            empty = np.zeros(0, dtype=np.int64)
            return np.zeros(0, dtype=np.uint8), empty
        pos = np.minimum(np.searchsorted(vkeys, karr), len(vkeys) - 1)
        found = vkeys[pos] == karr
        if not found.all():
            raise KeyError(sorted(set(karr[~found].tolist())))
        if self.verify_reads and bool(varmed[pos].any()):
            # Disarms rewrite rows in place: ``pos`` stays valid.
            self._verify_keys(karr[varmed[pos]])
        return self._packed_vectorized(karr, voffs[pos], vszs[pos],
                                       vrtypes[pos], vrawszs[pos], receipt)

    def book_hot_serves(self, count: int, stored_bytes: int,
                        receipt: ReadReceipt | None = None) -> None:
        """Book logical reads for probes served from the hot cache's
        membership view.

        The caller (``graphstore.probe_edges``) answered ``count``
        distinct records' worth of probes without touching this store;
        booking the reads those records would have cost keeps the
        storage counters bitwise identical with the cache off — the
        same stats-transparency contract the mmap tier keeps.
        """
        self.stats.inc("disk_reads", count)
        self.stats.inc("bytes_read", stored_bytes)
        if receipt is not None:
            receipt.count_disk_reads(count, stored_bytes)

    def _build_vindex(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray, np.ndarray, np.ndarray]:
        """Materialize the sorted numpy mirror of ``_index``."""
        if not self._index:
            empty = np.zeros(0, dtype=np.int64)
            return (empty, empty, empty, np.zeros(0, dtype=bool),
                    empty, empty)
        keys = np.fromiter(self._index.keys(), dtype=np.int64,
                           count=len(self._index))
        cols = list(zip(*self._index.values()))
        offs = np.asarray(cols[0], dtype=np.int64)
        szs = np.asarray(cols[1], dtype=np.int64)
        armed = np.asarray([crc is not None for crc in cols[2]],
                           dtype=bool)
        rtypes = np.asarray(cols[3], dtype=np.int64)
        rawszs = np.asarray(cols[4], dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        return (keys[order], offs[order], szs[order], armed[order],
                rtypes[order], rawszs[order])

    @staticmethod
    def _spans_of(offs: np.ndarray, ends: np.ndarray
                  ) -> list[tuple[int, int]]:
        """Coalesced-read spans over offset-sorted records.

        Returns ``[lo, hi)`` ranges into ``offs``/``ends``: a new span
        starts where the gap to the previous record exceeds
        ``_SPAN_GAP_BYTES``, and any run longer than ``_SPAN_MAX_BYTES``
        is split greedily.
        """
        new_span = np.zeros(len(offs), dtype=bool)
        new_span[0] = True
        if len(offs) > 1:
            new_span[1:] = (offs[1:] - ends[:-1]) > _SPAN_GAP_BYTES
        bounds = np.flatnonzero(new_span).tolist()
        bounds.append(len(offs))
        spans: list[tuple[int, int]] = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            while int(ends[hi - 1] - offs[lo]) > _SPAN_MAX_BYTES:
                cut = int(np.searchsorted(
                    ends[lo:hi], int(offs[lo]) + _SPAN_MAX_BYTES,
                    side="right")) + lo
                cut = max(cut, lo + 1)
                spans.append((lo, cut))
                lo = cut
            spans.append((lo, hi))
        return spans

    def _packed_vectorized(self, keys_u: np.ndarray, offs_u: np.ndarray,
                           szs_u: np.ndarray, rtypes_u: np.ndarray,
                           rawszs_u: np.ndarray,
                           receipt: ReadReceipt | None,
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Zero-per-record-Python tier of :meth:`get_many_packed`.

        Preconditions (checked by the caller): no block cache, every
        record's location resolved via ``_vindex``, and nothing left to
        checksum (``verify_reads`` off or every record verified this
        open).  With an mmap view the whole call is numpy against the
        page cache; otherwise only the span-read loop remains in Python
        — a handful of positional reads per batch into one
        preallocated buffer.

        With a hot cache, the assembled records are offered to it for
        admission afterwards; serving happens above this store, in the
        cache's membership view (``graphstore.probe_edges``).
        """
        n = len(offs_u)
        lengths = rawszs_u
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        out = np.empty(int(lengths.sum()), dtype=np.uint8)
        if n == 0:
            return out, lengths
        if self._pending_flush:
            self._file.flush()
            self._pending_flush = False
        view = self._mmap_view(int((offs_u + szs_u).max()))
        if view is not None:
            # Page-cache path: no read syscalls, no staging buffer —
            # raw records are one gather from the mapped log into the
            # output, compressed ones one bulk decode pass.  Booking
            # stays the logical per-record accounting the pread path
            # produces, so engines see identical stats either way.
            total_stored = int(szs_u.sum())
            self.stats.inc("disk_reads", n)
            self.stats.inc("bytes_read", total_stored)
            if receipt is not None:
                receipt.count_disk_reads(n, total_stored)
            assemble_packed(view, offs_u, szs_u, rtypes_u, rawszs_u,
                            out, starts)
        else:
            if n > 1 and bool((offs_u[1:] >= offs_u[:-1]).all()):
                # Sorted-key requests against a sequentially written log
                # (post bulk_load/compact) arrive offset-sorted already;
                # one comparison pass beats an argsort every batch.
                order = None
                offs, szs = offs_u, szs_u
            else:
                order = np.argsort(offs_u, kind="stable")
                offs = offs_u[order]
                szs = szs_u[order]
            ends = offs + szs
            spans = self._spans_of(offs, ends)
            src, src_offs = self._gather_spans(offs, szs, ends, spans,
                                               receipt)
            if order is None:
                assemble_packed(src, src_offs, szs, rtypes_u, rawszs_u,
                                out, starts)
            else:
                assemble_packed(src, src_offs, szs, rtypes_u[order],
                                rawszs_u[order], out, starts[order])
        if self._hot is not None:
            self._hot.admit(keys_u, out, starts, rawszs_u, szs_u)
        return out, lengths

    def _gather_spans(self, offs: np.ndarray, szs: np.ndarray,
                      ends: np.ndarray, spans: list[tuple[int, int]],
                      receipt: ReadReceipt | None,
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Read coalesced spans into one preallocated buffer.

        Returns ``(src, src_offs)``: ``src`` holds every span back to
        back and ``src_offs[i]`` is record ``i``'s payload position
        inside it.  Each span is read **directly into its slice** of
        ``src`` with ``os.preadv`` — no per-span bytes objects, no
        ``b"".join`` concatenation pass.  Physical reads are booked per
        completed span even if a later span fails short (the I/O
        happened either way).
        """
        total = sum(int(ends[hi - 1] - offs[lo]) for lo, hi in spans)
        src = np.empty(total, dtype=np.uint8)
        src_offs = np.empty(len(offs), dtype=np.int64)
        disk_reads = bytes_read = 0
        pos = 0
        try:
            for lo, hi in spans:
                base = int(offs[lo])
                length = int(ends[hi - 1]) - base
                got = os.preadv(self._read_fd, [src[pos:pos + length]], base)
                if got != length:
                    self.stats.inc("checksum_failures")
                    raise CorruptRecordError(
                        f"record at offset {base + got} extends past the "
                        f"log end (truncated underneath a live index?)"
                    )
                src_offs[lo:hi] = offs[lo:hi] + (pos - base)
                disk_reads += hi - lo
                bytes_read += int(szs[lo:hi].sum())
                pos += length
        finally:
            if disk_reads:
                self.stats.inc("disk_reads", disk_reads)
                self.stats.inc("bytes_read", bytes_read)
                if receipt is not None:
                    receipt.count_disk_reads(disk_reads, bytes_read)
        return src, src_offs

    # -- mmap --------------------------------------------------------------

    def _mmap_view(self, end: int) -> np.ndarray | None:
        """uint8 view of the mapped log covering byte ``end``, or None.

        Remaps lazily when the log has grown past the current map.
        Returns None whenever mapping is off or fails (empty file,
        exotic filesystems, fd trouble) — callers then use positional
        reads.  The view indexes the log at absolute file offsets.
        """
        if not self._use_mmap:
            return None
        if self._mmap is None or len(self._mmap) < end:
            self._drop_mmap()
            try:
                size = os.fstat(self._read_fd).st_size
                if size < max(end, 1):
                    return None
                mapped = mmap.mmap(self._read_fd, size,
                                   access=mmap.ACCESS_READ)
            except (OSError, ValueError):
                return None
            self._mmap = mapped
            self._mmap_np = np.frombuffer(mapped, dtype=np.uint8)
        return self._mmap_np

    def _drop_mmap(self) -> None:
        """Invalidate the current map (log replaced, shrunk, or closing).

        If a previously returned view is still alive the close raises
        ``BufferError`` — the map is then abandoned to the garbage
        collector instead, so in-flight batches keep reading the old
        (still-mapped) bytes safely while new reads remap.
        """
        mapped = self._mmap
        self._mmap = None
        self._mmap_np = None
        if mapped is not None:
            try:
                mapped.close()
            except BufferError:
                pass

    @staticmethod
    def _coalesce(pending):
        """Group offset-sorted records into contiguous read spans.

        Records whose payloads are separated by at most
        ``_SPAN_GAP_BYTES`` (i.e. only a frame header apart) share one
        span; spans are capped at ``_SPAN_MAX_BYTES``.  Live records
        never overlap, so a span's length is simply last-end minus
        first-start.
        """
        span: list[tuple[int, int, int | None, int]] = []
        end = 0
        for item in pending:
            offset, size = item[0], item[1]
            if span and (offset - end > _SPAN_GAP_BYTES
                         or offset + size - span[0][0] > _SPAN_MAX_BYTES):
                yield span
                span = []
            span.append(item)
            end = offset + size
        if span:
            yield span

    def delete(self, key: int) -> bool:
        """Remove ``key``; appends a tombstone so recovery stays correct."""
        if key not in self._index:
            return False
        record = _encode_frame(_REC_TOMBSTONE, key)
        self._file.seek(0, os.SEEK_END)
        self._file.write(record)
        self._pending_flush = True
        self.stats.inc("disk_writes")
        self.stats.inc("bytes_written", len(record))
        old = self._index.pop(key)
        self._live_raw -= old[4]
        self._live_stored -= old[1]
        self._update_compression_gauge()
        self._vindex = None
        if self._cache is not None:
            self._cache.evict(key)
        if self._hot is not None:
            self._hot.evict(key)
        return True

    def flush(self, sync: bool = False) -> None:
        """Push buffered writes to the OS; ``sync=True`` also fsyncs."""
        self._file.flush()
        self._pending_flush = False
        if sync:
            os.fsync(self._file.fileno())

    def compact(self) -> int:
        """Rewrite only the live records, dropping overwritten versions
        and tombstones (the log-structured GC).  Returns bytes saved.

        The rewrite is atomic and durable: live records stream into a
        temp file (always v2-format, so compaction upgrades legacy
        logs), which is fsynced and then swapped in with
        ``os.replace``.  An interruption at any point leaves the
        original log intact and the store usable.

        Records are decoded and re-encoded under the **current**
        compression setting, so compacting also converts a log between
        raw and compressed storage in either direction.  Any live mmap
        is invalidated (the old inode is gone); exported views keep
        the old map alive until collected.
        """
        self._file.flush()
        before = self.path.stat().st_size
        compact_path = self.path.with_suffix(self.path.suffix + ".compact")
        new_index: dict[int, tuple[int, int, int | None, int, int]] = {}
        try:
            with open(compact_path, "wb") as out:
                out.write(LOG_MAGIC)
                for key in sorted(self._index):
                    value = self._read_record(key, *self._index[key],
                                              count=False)
                    rtype, payload = self._make_record(value)
                    new_crc = _record_crc(rtype, key, payload)
                    new_index[key] = (out.tell() + _FRAME.size,
                                      len(payload), new_crc, rtype,
                                      len(value))
                    out.write(_FRAME.pack(rtype, key, len(payload), new_crc))
                    out.write(payload)
                out.flush()
                os.fsync(out.fileno())
        except BaseException:
            compact_path.unlink(missing_ok=True)
            raise
        self._file.close()
        try:
            os.replace(compact_path, self.path)
        except BaseException:
            compact_path.unlink(missing_ok=True)
            self._file = open(self.path, "a+b")
            raise
        _fsync_dir(self.path.parent)
        self._file = open(self.path, "a+b")
        # The old read fd (and any mmap of it) still points at the
        # replaced, now-deleted inode; swap in fresh ones on the
        # compacted log.
        self._drop_mmap()
        os.close(self._read_fd)
        self._read_fd = os.open(self.path, os.O_RDONLY)
        self._pending_flush = False
        self._index = new_index
        self._vindex = None
        self._recount_live_bytes()
        if self._cache is not None:
            self._cache.clear()
        if self._hot is not None:
            # Every offset moved; cached decodes stay byte-correct but
            # the stored sizes they book may not, so drop wholesale.
            self._hot.invalidate_all()
        return before - self.path.stat().st_size

    def close(self) -> None:
        self._drop_mmap()
        if not self._file.closed:
            self._file.flush()
            self._file.close()
        if self._read_fd is not None:
            os.close(self._read_fd)
            self._read_fd = None

    def __enter__(self) -> "DiskKVStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- recovery ------------------------------------------------------------

    def _replay(self) -> None:
        """Rebuild the index by scanning the log from the start.

        Every frame gets structural + checksum validation; a torn or
        corrupt tail is truncated back to the last intact record
        boundary.  A torn magic resets the log; a file without the
        magic raises :class:`CorruptRecordError` and is not modified.
        """
        self._file.seek(0, os.SEEK_END)
        total = self._file.tell()
        self._file.seek(0)
        prefix = self._file.read(len(LOG_MAGIC))
        if prefix != LOG_MAGIC:
            if not LOG_MAGIC.startswith(prefix):
                self._file.close()
                raise CorruptRecordError(
                    f"{self.path} is not a log: it does not start with "
                    f"the log magic {LOG_MAGIC!r}")
            # A crash tore the magic of a new log before any record.
            self._truncate_tail(0, "torn log magic")
            self._file.write(LOG_MAGIC)
            self._file.flush()
            return
        pos = len(LOG_MAGIC)
        while pos < total:
            header = self._file.read(_FRAME.size)
            if len(header) < _FRAME.size:
                self._truncate_tail(pos, "short v2 frame header")
                return
            rtype, key, size, crc = _FRAME.unpack(header)
            if rtype != _REC_PUT and rtype != _REC_TOMBSTONE \
                    and rtype not in _BLOB_RECORD_TYPES:
                self._truncate_tail(pos, f"unknown record type 0x{rtype:02X}")
                return
            offset = pos + _FRAME.size
            if offset + size > total:
                self._truncate_tail(pos, "v2 record extends past EOF")
                return
            payload = self._file.read(size)
            if _record_crc(rtype, key, payload) != crc:
                self._truncate_tail(pos, f"checksum mismatch for key {key}")
                return
            if rtype == _REC_TOMBSTONE:
                self._index.pop(key, None)
            elif rtype == _REC_PUT:
                self._index[key] = (offset, size, crc, rtype, size)
            else:
                # v3 compressed put: the decoded size comes from the
                # blob structure, which doubles as a malformed-payload
                # check beyond the crc (defense in depth for torn
                # tails whose checksum happens to collide).
                try:
                    count = blob_count(rtype - _BLOB_TYPE_BASE, payload)
                except ValueError as exc:
                    self._truncate_tail(pos, f"malformed v3 blob: {exc}")
                    return
                self._index[key] = (offset, size, crc, rtype, 4 * count)
            pos = offset + size

    def _truncate_tail(self, pos: int, reason: str) -> None:
        logger.warning(
            "recovering %s: %s; truncating torn tail at byte %d",
            self.path, reason, pos,
        )
        self._file.truncate(pos)
        self._file.flush()


class InMemoryKVStore:
    """Dict-backed store with the same interface and stats semantics.

    Each ``get`` still counts as a "disk read" so application-level
    access accounting behaves identically in tests, and ``cache_bytes``
    fronts reads with the same :class:`LRUCache` path as the disk
    store, so cache-statistics tests have backend parity.
    """

    def __init__(self, cache_bytes: int = 0):
        self.stats = StorageStats()
        self._data: dict[int, bytes] = {}
        self._cache = LRUCache(cache_bytes) if cache_bytes > 0 else None
        # A dict store's values are already decoded in memory, so there
        # is nothing to hot-cache.
        self.hot_cache = None

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: int) -> bool:
        return key in self._data

    def keys(self):
        return self._data.keys()

    def put(self, key: int, value: bytes) -> None:
        _check_value_size(len(value))
        self._data[key] = value
        self.stats.inc("disk_writes")
        self.stats.inc("bytes_written", len(value))
        if self._cache is not None:
            self._cache.put(key, value)

    def get(self, key: int,
            receipt: ReadReceipt | None = None) -> bytes | None:
        if self._cache is not None:
            with default_tracer().span("cache"):
                cached = self._cache.get(key)
            if cached is not None:
                self.stats.inc("cache_hits")
                if receipt is not None:
                    receipt.count_cache_hit()
                return cached
            self.stats.inc("cache_misses")
        value = self._data.get(key)
        if value is not None:
            self.stats.inc("disk_reads")
            self.stats.inc("bytes_read", len(value))
            if receipt is not None:
                receipt.count_disk_read(len(value))
            if self._cache is not None:
                self._cache.put(key, value)
        return value

    def get_many(self, keys,
                 receipt: ReadReceipt | None = None) -> dict[int, bytes | None]:
        """Batched read with the same dedup semantics as the disk store."""
        result: dict[int, bytes | None] = {}
        for key in keys:
            key = int(key)
            if key not in result:
                result[key] = self.get(key, receipt=receipt)
        return result

    def get_many_packed(self, keys,
                        receipt: ReadReceipt | None = None,
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated payloads in key order (disk-store parity).

        Same contract and booking as
        :meth:`DiskKVStore.get_many_packed` with a block cache; raises
        ``KeyError`` carrying the missing-key list.
        """
        return pack_in_order(keys, self.get_many(keys, receipt=receipt))

    def delete(self, key: int) -> bool:
        if key in self._data:
            del self._data[key]
            self.stats.inc("disk_writes")
            if self._cache is not None:
                self._cache.evict(key)
            return True
        return False

    def flush(self, sync: bool = False) -> None:  # interface parity
        pass

    def close(self) -> None:  # interface parity
        pass

    def __enter__(self) -> "InMemoryKVStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
