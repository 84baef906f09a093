"""Shard-local decoded-blob hot cache (DESIGN.md §16).

PR 6 compressed the log and moved decode onto the hot path: every
batched probe re-runs StreamVByte decode for each distinct left
endpoint, even when a Zipfian workload asks for the same few thousand
vertices in every batch.  :class:`HotSetCache` keeps those vertices'
**decoded** adjacency arrays in memory so a hot probe skips both the
read and the decode.

It differs from the :class:`~repro.storage.cache.LRUCache` block cache
in three load-bearing ways:

- **Values are decoded ndarrays**, billed by exact ``ndarray.nbytes``
  (the block cache stores whatever bytes ``put`` saw, pre-decode).
- **The hit path is vectorized.**  A probe against the cache is one
  ``searchsorted`` into a lazily rebuilt *snapshot* — sorted key array
  plus one contiguous byte buffer — and hits are assembled with the
  same :func:`~repro.storage.kvstore.assemble_packed` scatter the
  packed read tiers use.  No per-record Python on the hit path, which
  is the whole point at 10⁵ probes per batch.
- **Admission is frequency-gated, not recency-driven.**  An embedded
  :class:`CountMinSketch` samples the *raw* (pre-dedup) probe stream;
  a missed key is admitted only while the cache has free budget or
  when its estimated frequency beats the eviction floor (the smallest
  estimate among current residents, TinyLFU-style).  A uniform sweep
  therefore fills the cache once and then stops churning — no
  per-batch thrash, no snapshot rebuilds — while a Zipfian hot set
  converges within a few batches and then serves hits from a *stable*
  snapshot.

Invalidation protocol (generation-keyed, DESIGN.md §16):

- **Mutation**: the owning KV store calls :meth:`evict` from ``put``/
  ``delete`` — exact per-key invalidation under the store's existing
  lock discipline, and :meth:`invalidate_all` from ``compact`` (every
  offset moved).  Each bumps :attr:`generation`, which marks the
  current snapshot stale; the next probe rebuilds.
- **Reshard**: new-generation segments get fresh KV stores and
  therefore fresh caches; the budget is inherited with the rest of the
  segment config (``_INHERIT`` in ``sharding.py``).

Booking is **stats-transparent**: a hot hit books the same logical
``disk_reads``/``bytes_read`` a real read of the stored record would
(exactly like the mmap tier books logical reads it served from the
page cache), so verdicts *and* storage/query counters are bitwise
identical with the cache on or off.  The cache's own effectiveness is
visible in its :class:`~repro.obs.CacheStats` series
(``repro_cache{cache="hot<N>"}``).

Thread safety: all mutating entry points hold one ``RLock`` (a leaf
lock — nothing else is ever acquired under it).  A published snapshot
tuple is immutable; concurrent readers may keep using a superseded
snapshot only while no *invalidating* mutation ran, which the callers
guarantee (segment mutations hold the sharded store's write lock).
"""

from __future__ import annotations

import threading

import numpy as np

from ..devtools.witness import wrap_lock
from ..obs import CacheStats, default_registry

__all__ = ["CountMinSketch", "HotSetCache"]

#: Per-probe cap on sketch updates: the access stream is sampled, not
#: exhaustively counted, so observation stays O(1)-ish per batch (the
#: Tětek–Thorup point: popularity estimation needs samples, not a census).
_OBSERVE_CAP = 2048
#: Per-probe cap on admissions, bounding warm-up churn per batch.
_ADMIT_CAP = 1024
#: Deferred-rebuild ratio: newly admitted entries are served cold (they
#: miss the published snapshot, which stays valid) until their byte
#: mass reaches 1/16 of the cache, and only then does the generation
#: bump.  Rebuild points form a geometric series, so snapshot and
#: membership-view construction amortizes to O(log) rebuilds over a
#: warm-up instead of one per batch — and to *zero* at steady state,
#: when the trickle of Zipf-tail admissions never crosses the ratio.
_STALE_RATIO_SHIFT = 4
#: Build the O(1) key->position table only while the largest cached
#: key stays below this (dense vertex IDs); beyond it fall back to
#: searchsorted.  2**22 caps the table at 16 MiB of int32.
_LUT_CAP = 1 << 22
#: Ceiling on the membership bitmap's footprint.  Below it, verdicts
#: are one gather + shift per probe (entries x vertex-universe bit
#: matrix); above it — sparse IDs or a huge resident set — the view
#: falls back to the searchsorted-over-shifted-ranges path.
_BITMAP_CAP_BYTES = 64 << 20
#: Adjacency entries are packed uint32 vertex IDs; the membership view
#: shifts each cached list into a disjoint ``key_index * 2**32`` value
#: range so one global searchsorted answers every probe (the same
#: disjoint-range trick as ``graphstore.membership_sweep``).
_ID_LIMIT = 2**32


class CountMinSketch:
    """Seeded count-min sketch over int64 keys, numpy end to end.

    ``depth`` rows of ``width`` counters; :meth:`add` hashes a whole
    key array per row (splitmix64-style mixing, ``PYTHONHASHSEED``-
    independent) and bumps counters with one ``np.add.at`` per row.
    Estimates are the row-wise minimum, biased high as usual.  Counts
    halve once :attr:`observed` crosses ``decay_window`` so drifted-
    away hot sets stop looking hot.
    """

    def __init__(self, width: int = 4096, depth: int = 4,
                 decay_window: int = 1 << 18):
        if width < 16 or depth < 1:
            raise ValueError("sketch needs width >= 16 and depth >= 1")
        self.width = int(width)
        self.depth = int(depth)
        self.decay_window = int(decay_window)
        self.observed = 0
        self._table = np.zeros((depth, width), dtype=np.int64)
        # Distinct odd multipliers per row (deterministic, seed-free).
        self._salts = (np.uint64(0x9E3779B97F4A7C15)
                       * (2 * np.arange(depth, dtype=np.uint64) + 1))

    def _rows(self, keys: np.ndarray) -> np.ndarray:
        """(depth, n) bucket indices for ``keys`` (uint64 mixing)."""
        x = keys.astype(np.uint64)[None, :] * self._salts[:, None]
        x ^= x >> np.uint64(33)
        x *= np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(29)
        return (x % np.uint64(self.width)).astype(np.int64)

    def add(self, keys: np.ndarray) -> None:
        if len(keys) == 0:
            return
        rows = self._rows(keys)
        for d in range(self.depth):
            np.add.at(self._table[d], rows[d], 1)
        self.observed += len(keys)
        if self.observed >= self.decay_window:
            self._table >>= 1
            self.observed //= 2

    def estimate(self, keys: np.ndarray) -> np.ndarray:
        """Estimated counts for ``keys`` (int64, biased high)."""
        if len(keys) == 0:
            return np.zeros(0, dtype=np.int64)
        rows = self._rows(keys)
        est = self._table[0][rows[0]]
        for d in range(1, self.depth):
            est = np.minimum(est, self._table[d][rows[d]])
        return est


class HotSetCache:
    """Decoded-adjacency hot cache with a vectorized hit path.

    Entries are ``key -> (decoded uint8 ndarray, stored size)``; the
    stored size is what a real read of the record would have booked,
    so hits can reproduce the cold path's logical accounting exactly.
    """

    def __init__(self, capacity_bytes: int, scope: str | None = None):
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_bytes = int(capacity_bytes)
        self._lock = wrap_lock(threading.RLock(), "HotSetCache._lock")
        # key -> (decoded value, stored size).  All entry state below is
        # guarded-by: self._lock
        self._data: dict[int, tuple[np.ndarray, int]] = {}  # guarded-by: self._lock
        self._size = 0  # guarded-by: self._lock
        self._generation = 0  # guarded-by: self._lock
        # (generation, keys, starts, rawszs, storedszs, buf) or None.
        self._snapshot = None  # guarded-by: self._lock
        # (generation, (keys, combined, counts, storedszs)) or None.
        self._member_view = None  # guarded-by: self._lock
        # Bytes admitted since the last generation bump (deferred
        # rebuild accounting; see _admit).
        self._stale_bytes = 0  # guarded-by: self._lock
        self._floor = 0  # guarded-by: self._lock
        self.sketch = CountMinSketch()
        self._observe_calls = 0  # guarded-by: self._lock
        # Hot caches share the block-cache metric family but take a
        # "hotN" scope label, so `repro stats --filter` and dashboards
        # can split decode-cache traffic from block-cache traffic.
        if scope is None:
            scope = default_registry().scope("hot")
        self._stats = CacheStats(scope=scope)

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    @property
    def size_bytes(self) -> int:
        return self._size

    @property
    def generation(self) -> int:
        """Bumps on every invalidating or structural change."""
        return self._generation

    @property
    def stats(self) -> CacheStats:
        return self._stats

    def hit_rate(self) -> float:
        total = self._stats.hits + self._stats.misses
        return self._stats.hits / total if total else 0.0

    def _sync_gauges(self) -> None:
        self._stats.set_gauge("entries", len(self._data))
        self._stats.set_gauge("size_bytes", self._size)

    # -- access sampling ---------------------------------------------------

    def observe(self, us: np.ndarray) -> None:
        """Sample the raw (pre-dedup) probe stream into the sketch.

        Frequency lives in the *raw* stream — after dedup every key
        appears once per batch and a hot set is indistinguishable from
        a uniform one until many batches pass.  A strided sample keeps
        the cost bounded regardless of batch size.
        """
        n = len(us)
        if n == 0:
            return
        with self._lock:
            if n > _OBSERVE_CAP:
                step = (n + _OBSERVE_CAP - 1) // _OBSERVE_CAP
                # Rotate the sample phase across calls so repeated
                # identical batches still cover every position over
                # time — a fixed phase would sample the same keys
                # forever and starve the rest of sketch mass.
                sample = us[self._observe_calls % step:: step]
            else:
                sample = us
            sample = np.asarray(sample, dtype=np.int64)
            self._observe_calls += 1
            self.sketch.add(sample)

    # -- hit path ----------------------------------------------------------

    def snapshot(self):
        """The vectorized probe view, rebuilt only when stale.

        Returns ``(keys, starts, rawszs, storedszs, buf)`` — sorted
        int64 keys, each entry's offset into ``buf``, decoded sizes,
        stored sizes — or None when the cache is empty.  The tuple is
        immutable; mutations publish a new one.
        """
        with self._lock:
            snap = self._snapshot
            if snap is not None and snap[0] == self._generation:
                return snap[1]
            if not self._data:
                self._snapshot = None
                return None
            keys = np.fromiter(self._data.keys(), dtype=np.int64,
                               count=len(self._data))
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            values = list(self._data.values())
            rawszs = np.asarray([v[0].nbytes for v in values],
                                dtype=np.int64)[order]
            storedszs = np.asarray([v[1] for v in values],
                                   dtype=np.int64)[order]
            starts = np.zeros(len(keys), dtype=np.int64)
            np.cumsum(rawszs[:-1], out=starts[1:])
            buf = np.empty(int(rawszs.sum()), dtype=np.uint8)
            data = self._data
            for key, start, size in zip(keys.tolist(), starts.tolist(),
                                        rawszs.tolist()):
                buf[start:start + size] = data[key][0]
            view = (keys, starts, rawszs, storedszs, buf)
            self._snapshot = (self._generation, view)
            return view

    def probe(self, keys: np.ndarray):
        """Vectorized membership: ``(hit_mask, positions, snapshot)``.

        ``positions[i]`` indexes the snapshot arrays for every ``i``
        with ``hit_mask[i]``; the caller gathers payload bytes from the
        snapshot buffer (typically via ``assemble_packed``).  Returns
        None when the cache is empty.  Hit/miss counters are booked
        here, one per probed key.
        """
        snap = self.snapshot()
        if snap is None:
            self._stats.inc("misses", len(keys))
            return None
        skeys = snap[0]
        pos = np.searchsorted(skeys, keys)
        pos = np.minimum(pos, len(skeys) - 1)
        hit = skeys[pos] == keys
        n_hits = int(hit.sum())
        if n_hits:
            self._stats.inc("hits", n_hits)
        if len(keys) - n_hits:
            self._stats.inc("misses", len(keys) - n_hits)
        return hit, pos, snap

    def fill_hits(self, keys: np.ndarray, rawszs: np.ndarray,
                  out: np.ndarray, starts: np.ndarray):
        """Serve cache hits straight into a packed output buffer.

        ``out[starts[i]:starts[i] + rawszs[i]]`` is key ``i``'s slot;
        every hit's decoded bytes are gathered there from the snapshot
        buffer in one vectorized scatter.  Returns ``(hit_mask,
        stored_bytes)`` — the mask of served slots plus the stored
        (logical-booking) byte total of the hits — or None when the
        cache is empty.
        """
        res = self.probe(keys)
        if res is None:
            return None
        hit, pos, (_skeys, sstarts, srawszs, sstoredszs, sbuf) = res
        if not hit.any():
            return hit, 0
        hp = pos[hit]
        sz = srawszs[hp]
        if not np.array_equal(sz, rawszs[hit]):
            # A cached decode disagrees with the live index about its
            # size — the invalidation protocol makes this unreachable,
            # but serving it would be silent corruption.  Drop
            # everything and report a clean miss instead.
            self.invalidate_all()
            return np.zeros(len(keys), dtype=bool), 0
        total = int(sz.sum())
        base = np.zeros(len(sz), dtype=np.int64)
        np.cumsum(sz[:-1], out=base[1:])
        span = np.arange(total, dtype=np.int64)
        out[np.repeat(starts[hit] - base, sz) + span] = \
            sbuf[np.repeat(sstarts[hp] - base, sz) + span]
        return hit, int(sstoredszs[hp].sum())

    def membership_view(self):
        """Verdict-ready view of the cache, rebuilt only when stale.

        Interprets every cached decode as a sorted packed-``uint32``
        adjacency list (the only record shape VEND stores) and returns
        ``(keys, combined, storedszs, lut, bits, words)``: sorted int64
        cache keys, the concatenated neighbor values shifted into
        disjoint per-key ranges (``+ key_index * 2**32``), each entry's
        stored size for logical booking, and two optional accelerators
        built when IDs are dense enough —

        - ``lut``: a ``key -> position`` int32 table (-1 for absent)
          turning the key lookup into one gather instead of a binary
          search (largest key below ``_LUT_CAP``);
        - ``bits``/``words``: a flattened ``entries x words`` uint64
          bit matrix over the neighbor-ID universe (footprint below
          ``_BITMAP_CAP_BYTES``), turning each membership test into
          one gather + shift instead of a binary search over
          ``combined`` — the difference between O(log) cache-missing
          hops and a single access per probe at 10^5 probes per batch.

        :meth:`probe_verdicts` answers whole probe batches against the
        view with zero ``searchsorted`` calls when both accelerators
        exist — no byte copies, no per-batch reconstruction.  None
        when the cache is empty.
        """
        with self._lock:
            mv = self._member_view
            if mv is not None and mv[0] == self._generation:
                return mv[1]
            snap = self.snapshot()
            if snap is None:
                self._member_view = None
                return None
            keys, _starts, rawszs, storedszs, buf = snap
            counts = rawszs // 4
            base = np.arange(len(keys), dtype=np.int64) * _ID_LIMIT
            neighbors = buf.view(np.uint32).astype(np.int64)
            combined = neighbors + np.repeat(base, counts)
            lut = None
            if keys.size and int(keys[-1]) < _LUT_CAP:
                lut = np.full(int(keys[-1]) + 1, -1, dtype=np.int32)
                lut[keys] = np.arange(len(keys), dtype=np.int32)
            bits = None
            words = 0
            if neighbors.size:
                words = (int(neighbors.max()) >> 6) + 1
                if len(keys) * words * 8 <= _BITMAP_CAP_BYTES:
                    # Bit index of neighbor v in entry e is e*words*64
                    # + v; rows ascend and each adjacency list is
                    # sorted, so the word stream is non-decreasing and
                    # one reduceat ORs each word's bits together.
                    idx = (np.repeat(np.arange(len(keys), dtype=np.int64)
                                     * (words << 6), counts) + neighbors)
                    wrd = idx >> 6
                    val = np.uint64(1) << (idx & 63).astype(np.uint64)
                    seg = np.concatenate(
                        ([0], np.flatnonzero(np.diff(wrd)) + 1))
                    bits = np.zeros(len(keys) * words, dtype=np.uint64)
                    bits[wrd[seg]] = np.bitwise_or.reduceat(val, seg)
                else:
                    words = 0
            view = (keys, combined, storedszs, lut, bits, words)
            self._member_view = (self._generation, view)
            return view

    def probe_verdicts(self, us: np.ndarray, vs: np.ndarray):
        """Answer edge-membership probes straight from cached decodes.

        Probe ``j`` asks whether ``vs[j]`` is in the adjacency list of
        ``us[j]``.  Returns None when the cache is empty; otherwise
        ``(hit, verdicts, n_unique, stored_bytes)`` where ``hit`` marks
        probes whose source vertex is cached, ``verdicts[j]`` is the
        membership answer (meaningful only where ``hit[j]``),
        ``n_unique`` counts the distinct cached vertices probed and
        ``stored_bytes`` their stored-size total — what a cold read of
        those records would have booked.  Verdict semantics are
        bitwise identical to ``graphstore.membership_sweep`` (including
        the out-of-range ``vs`` mask).  Books one hit per distinct
        cached vertex served; misses are left for the cold path that
        fetches them.
        """
        view = self.membership_view()
        if view is None:
            return None
        keys, combined, storedszs, lut, bits, words = view
        if lut is not None:
            inside = (us >= 0) & (us < len(lut))
            pos = lut[np.where(inside, us, 0)].astype(np.int64)
            hit = inside & (pos >= 0)
        else:
            pos = np.minimum(np.searchsorted(keys, us), len(keys) - 1)
            hit = keys[pos] == us
        n_hits = int(hit.sum())
        verdicts = np.zeros(len(us), dtype=bool)
        if n_hits == 0:
            return hit, verdicts, 0, 0
        seen = np.zeros(len(keys), dtype=bool)
        seen[pos[hit]] = True
        served = np.flatnonzero(seen)
        if bits is not None:
            vok = (vs >= 0) & (vs < (words << 6))
            safe_vs = np.where(vok, vs, 0)
            flat = np.where(hit, pos * words + (safe_vs >> 6), 0)
            shift = (safe_vs & 63).astype(np.uint64)
            verdicts = ((bits[flat] >> shift) & np.uint64(1)).astype(bool)
            verdicts &= vok & hit
        elif combined.size:
            valid = (vs >= 0) & (vs < _ID_LIMIT)
            probes = vs + pos * _ID_LIMIT
            at = np.minimum(np.searchsorted(combined, probes),
                            len(combined) - 1)
            verdicts = (combined[at] == probes) & valid & hit
        self._stats.inc("hits", len(served))
        return hit, verdicts, len(served), int(storedszs[served].sum())

    def get(self, key: int):
        """Scalar lookup: ``(decoded bytes, stored size)`` or None."""
        with self._lock:
            entry = self._data.get(key)
        if entry is None:
            self._stats.inc("misses")
            return None
        self._stats.inc("hits")
        return entry[0].tobytes(), entry[1]

    # -- admission / eviction ----------------------------------------------

    def admit_one(self, key: int, value: np.ndarray, stored_size: int,
                  force: bool = False) -> bool:
        """Admit one decoded blob, subject to the frequency gate."""
        return self._admit([int(key)], [np.asarray(value, dtype=np.uint8)],
                           [int(stored_size)], force=force) > 0

    def admit(self, keys: np.ndarray, data: np.ndarray,
              starts: np.ndarray, rawszs: np.ndarray,
              storedszs: np.ndarray) -> int:
        """Batch admission of cold-read results; returns admitted count.

        ``data`` is the cold path's decoded output buffer; entry ``i``
        occupies ``data[starts[i]:starts[i]+rawszs[i]]``.  Candidates
        are ranked by sketch estimate; at most ``_ADMIT_CAP`` are
        copied per call, and once the cache is full a candidate must
        beat the eviction floor — so steady-state misses against a
        full cache (a uniform sweep, a Zipf tail) are rejected in one
        vectorized pass with zero copies and zero generation bumps.
        """
        n = len(keys)
        if n == 0 or self.capacity_bytes == 0:
            return 0
        keys = np.asarray(keys, dtype=np.int64)
        est = self.sketch.estimate(keys)
        with self._lock:
            full = self._size >= self.capacity_bytes
            floor = self._floor
            resident = self._data
            # Keys already resident (typically pending entries the view
            # has not folded in yet) must not occupy candidate slots —
            # they would win the frequency ranking every batch and
            # starve genuinely new keys of the _ADMIT_CAP budget.
            novel = np.fromiter((k not in resident for k in keys.tolist()),
                                dtype=bool, count=n)
        if full:
            eligible = np.flatnonzero(novel & (est > floor))
        else:
            eligible = np.flatnonzero(novel)
        if len(eligible) == 0:
            return 0
        if len(eligible) > _ADMIT_CAP:
            top = np.argpartition(est[eligible], -_ADMIT_CAP)[-_ADMIT_CAP:]
            eligible = eligible[top]
        picked = [int(i) for i in eligible
                  if 0 < rawszs[i] <= self.capacity_bytes]
        if not picked:
            return 0
        values = [data[int(starts[i]):int(starts[i]) + int(rawszs[i])].copy()
                  for i in picked]
        return self._admit([int(keys[i]) for i in picked], values,
                           [int(storedszs[i]) for i in picked])

    def _admit(self, keys: list[int], values: list[np.ndarray],
               storedszs: list[int], force: bool = False) -> int:
        """Insert decoded blobs; generation bumps are *deferred*.

        Already-cached keys are skipped (the mutation protocol evicts
        before any record can change, so a re-admission is always the
        same bytes — typically a pending key the cold path refetched).
        Fresh entries accrue into ``_stale_bytes``; the generation — and
        with it the snapshot/membership view — is only invalidated once
        the pending mass crosses ``size >> _STALE_RATIO_SHIFT``, which
        turns per-batch rebuild churn into a geometric series.
        """
        admitted = 0
        with self._lock:
            for key, value, stored in zip(keys, values, storedszs):
                nbytes = int(value.nbytes)
                if nbytes > self.capacity_bytes or nbytes == 0:
                    continue
                if key in self._data:
                    continue
                if (not force and self._size + nbytes > self.capacity_bytes
                        and self._size >= self.capacity_bytes):
                    break
                value.flags.writeable = False
                self._data[key] = (value, stored)
                self._size += nbytes
                self._stale_bytes += nbytes
                admitted += 1
            if admitted:
                if (self._stale_bytes << _STALE_RATIO_SHIFT) >= self._size:
                    self._generation += 1
                    self._stale_bytes = 0
                if self._size > self.capacity_bytes:
                    self._evict_coldest_locked()
                self._sync_gauges()
        return admitted

    def _evict_coldest_locked(self) -> None:
        """Shed lowest-estimated-frequency entries until under budget.

        Also records the smallest surviving estimate as the admission
        floor — the TinyLFU-style gate that stops steady-state churn.
        Callers already hold ``_lock``; the re-entrant acquire here is
        free and keeps the guarded-state contract locally checkable.
        """
        with self._lock:
            keys = np.fromiter(self._data.keys(), dtype=np.int64,
                               count=len(self._data))
            est = self.sketch.estimate(keys)
            order = np.argsort(est, kind="stable")
            evicted = 0
            for i in order.tolist():
                if self._size <= self.capacity_bytes:
                    break
                key = int(keys[i])
                entry = self._data.pop(key)
                self._size -= entry[0].nbytes
                evicted += 1
            if evicted:
                self._stats.inc("evictions", evicted)
                self._generation += 1
                self._stale_bytes = 0
            if self._data:
                survivors = np.fromiter(self._data.keys(), dtype=np.int64,
                                        count=len(self._data))
                self._floor = int(self.sketch.estimate(survivors).min())
            else:
                self._floor = 0

    # -- invalidation ------------------------------------------------------

    def evict(self, key: int) -> bool:
        """Exact invalidation (the owner's put/delete hook)."""
        with self._lock:
            entry = self._data.pop(key, None)
            if entry is None:
                return False
            self._size -= entry[0].nbytes
            self._generation += 1
            self._stale_bytes = 0
            self._stats.inc("invalidations")
            self._sync_gauges()
            return True

    def invalidate_all(self) -> None:
        """Wholesale invalidation (compaction, log replacement)."""
        with self._lock:
            self._stats.inc("invalidations", len(self._data))
            self._data.clear()
            self._size = 0
            self._stale_bytes = 0
            self._floor = 0
            self._generation += 1
            self._snapshot = None
            self._member_view = None
            self._sync_gauges()
