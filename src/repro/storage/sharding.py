"""Hash-partitioned storage: the shard layer under the parallel engine.

Production graph stores scale reads by partitioning: ε-Cost Sharding
(Vigna 2025) shows a static filter structure can be hash-split into
independent shards at near-zero per-shard cost, and the paper's own
NDF is embarrassingly parallel across query pairs — ``F(f(u), f(v))``
has no cross-pair dependencies.  This module supplies the pieces that
make that concrete here:

- :class:`ShardRouter` — a **stable** hash of vertex id → shard.  The
  same mixer (splitmix64's finalizer) runs scalar and vectorized, is
  identical across processes and Python versions (no ``PYTHONHASHSEED``
  dependence), and co-locates everything keyed by a vertex: its code
  row, its adjacency record, and its cache entry all live with the
  owning shard.
- :class:`ShardedGraphStore` — S independent
  :class:`~repro.storage.graphstore.GraphStore` segments, each backed
  by its own log file and shard-local LRU cache, behind the exact
  ``GraphStore`` interface.  Edge ``(u, v)`` is stored as two
  half-edges routed to the segments owning ``u`` and ``v``; batched
  probes partition the pair array by the owner of the *left* endpoint,
  which is the only endpoint whose adjacency list is read.
- **Replication** (``replicas=R``) wraps every segment in a
  :class:`~repro.storage.replication.ReplicatedShard`: writes reach a
  primary plus R replicas, reads fail over when the primary degrades,
  and ``reset_degraded()`` repairs and reinstates.
- **Online resharding** — a two-generation routing table.
  :meth:`ShardedGraphStore.begin_reshard` opens a second generation of
  segments; :meth:`migrate_step` walks vertices into the new layout in
  small exclusively-locked chunks while reads keep flowing (the old
  generation stays write-complete, migrated vertices are served from
  their new placement); :meth:`finish_reshard` flushes the new
  generation durably (``sync=True``) and atomically flips the router.
  It is the one reshard path: ``begin_reshard(S′, path=…)`` relocates
  the new generation to another base path, and every new segment
  inherits the store's configuration.

Per-segment isolation is what makes thread-pool execution safe and
attribution exact: pool tasks touch disjoint segment files, disjoint
caches, and disjoint ``StorageStats`` scopes, so no shared mutable
counter is ever incremented from two threads at once.  Fault injection
passes through per shard — wrap any subset of segments via
``kv_factory`` and only those segments degrade.

**Mutation guard.**  Multi-segment mutations (``insert_edge``,
``delete_edge``, ``delete_vertex``), migration steps, and the
generation flip take an exclusive lock; read entry points (and the
parallel engine, for the whole span of a batch via
:meth:`read_guard`) take it shared.  A concurrent batch therefore
never observes a vertex half-deleted across segments or a router
mid-flip — the invariant the threaded regression tests hammer.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..devtools.witness import get_witness
from ..graph import DiGraph, Graph
from ..obs import ReadReceipt, StatsView
from .graphstore import GraphStore
from .replication import ReplicatedShard

__all__ = ["ShardRouter", "ShardedGraphStore", "ReshardStats"]

_MASK64 = (1 << 64) - 1
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15

def _mix64(x: int) -> int:
    """splitmix64 finalizer: the scalar reference mixer.

    Pure integer arithmetic — deterministic across processes, seeds,
    and platforms, unlike ``hash()`` under ``PYTHONHASHSEED``.
    """
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _C1) & _MASK64
    x = ((x ^ (x >> 27)) * _C2) & _MASK64
    return x ^ (x >> 31)


def _partition(shards: np.ndarray, num_shards: int) -> list[np.ndarray]:
    """Index arrays grouping positions by shard id, input-stable."""
    if num_shards == 1:
        return [np.arange(len(shards), dtype=np.int64)]
    order = np.argsort(shards, kind="stable")
    counts = np.bincount(shards, minlength=num_shards)
    return np.split(order, np.cumsum(counts)[:-1])


class ShardRouter:
    """Stable vertex → shard assignment via splitmix64.

    One router instance is shared by the codes, the storage segments,
    and the cache layer, so a vertex's whole working set is
    partition-local (the Hybrid Graph Representation argument for
    keeping the hot membership structure with its partition).
    """

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards

    def shard_of(self, v: int) -> int:
        """Owning shard of vertex ``v`` (scalar path)."""
        return _mix64(int(v) & _MASK64) % self.num_shards

    def shard_of_array(self, ids) -> np.ndarray:
        """Vectorized :meth:`shard_of` over an id array."""
        x = np.asarray(ids, dtype=np.int64).astype(np.uint64)
        x = x + np.uint64(_GOLDEN)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_C1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_C2)
        x = x ^ (x >> np.uint64(31))
        return (x % np.uint64(self.num_shards)).astype(np.int64)

    def partition(self, ids) -> list[np.ndarray]:
        """Index arrays grouping ``ids`` by owning shard, input-stable.

        ``partition(us)[s]`` are the positions in ``us`` owned by shard
        ``s``, in their original order — the merge step only needs
        ``answers[idx] = shard_answers`` to restore input order.
        """
        return _partition(self.shard_of_array(ids), self.num_shards)


class _MigrationRouter:
    """Two-generation routing table used while a reshard is live.

    Segment indices form one combined space: ``[0, S)`` are the old
    generation's segments, ``[S, S + S′)`` the new generation's.  A
    vertex already copied (in ``migrated``) routes to its **new**
    placement — reads exercise the new segments as the copy advances,
    and read-your-writes holds because writes to migrated vertices land
    in both generations.  Uncopied vertices route to their old
    placement, which stays write-complete until the flip.
    """

    def __init__(self, old: ShardRouter, new: ShardRouter,
                 migrated: set[int]):
        self.old = old
        self.new = new
        self.migrated = migrated
        self.num_shards = old.num_shards + new.num_shards

    def shard_of(self, v: int) -> int:
        if int(v) in self.migrated:
            return self.old.num_shards + self.new.shard_of(v)
        return self.old.shard_of(v)

    def shard_of_array(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        shards = self.old.shard_of_array(ids)
        if self.migrated:
            moved = np.fromiter((int(v) in self.migrated for v in ids),
                                dtype=bool, count=len(ids))
            if moved.any():
                shards = shards.copy()
                shards[moved] = (self.old.num_shards
                                 + self.new.shard_of_array(ids[moved]))
        return shards

    def partition(self, ids) -> list[np.ndarray]:
        return _partition(self.shard_of_array(ids), self.num_shards)


class _RWLock:
    """Writer-preferring reader/writer lock, re-entrant on both sides.

    Readers are the query entry points (and the parallel engine's
    whole-batch guard, which nests over the store's own internal
    shared holds); writers are multi-segment mutations, migration
    steps, and the generation flip.  The thread holding the exclusive
    side may re-enter the shared side (``delete_vertex`` reads the
    owner's adjacency mid-mutation) — that re-entry is a no-op.  A
    thread already holding the shared side re-enters it without
    re-checking the writer queue, so writer preference can never
    deadlock a nested read.  Pool threads probing segments do not
    touch the lock at all; the coordinator holds it for them.
    """

    def __init__(self, name: str | None = None):
        self._cond = threading.Condition()
        self._readers = 0  # guarded-by: self._cond
        self._writer: int | None = None  # guarded-by: self._cond
        self._writer_depth = 0  # guarded-by: self._cond
        self._writers_waiting = 0  # guarded-by: self._cond
        self._local = threading.local()
        self._name = name
        witness = get_witness()
        # Resolved once at construction: disabled runs never pay for
        # the hook, and tests that flip the witness recreate stores.
        self._witness = witness if (name and witness.enabled) else None

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                return  # re-entry under our own exclusive hold
            depth = getattr(self._local, "read_depth", 0)
            if depth == 0:
                while self._writer is not None or self._writers_waiting:
                    self._cond.wait()
                self._readers += 1
                if self._witness is not None:
                    self._witness.notify_acquire(self._name, self)
            self._local.read_depth = depth + 1

    def release_read(self) -> None:
        with self._cond:
            if self._writer == threading.get_ident():
                return
            depth = self._local.read_depth - 1
            self._local.read_depth = depth
            if depth == 0:
                if self._witness is not None:
                    self._witness.notify_release(self._name, self)
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1
            if self._witness is not None:
                self._witness.notify_acquire(self._name, self)

    def release_write(self) -> None:
        with self._cond:
            self._writer_depth -= 1
            if self._writer_depth == 0:
                if self._witness is not None:
                    self._witness.notify_release(self._name, self)
                self._writer = None
                self._cond.notify_all()

    @contextmanager
    def read(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class ReshardStats(StatsView):
    """Migration-progress gauges for one store's online reshard."""

    _PREFIX = "repro_reshard"
    _SCOPE = "store"
    _COUNTERS = ("migrations", "vertices_migrated")
    _GAUGES = ("active", "progress", "vertices_pending")
    _HELP = {
        "migrations": "Generation flips completed by this store",
        "vertices_migrated": "Vertices copied into a new generation",
        "active": "1 while a two-generation migration is live",
        "progress": "Fraction of the migration worklist already copied",
        "vertices_pending": "Vertices still awaiting migration",
    }


class _Migration:
    """Book-keeping for one live reshard: target layout + worklist."""

    def __init__(self, router: ShardRouter, segments: list,
                 pending: set[int]):
        self.router = router
        self.segments = segments
        self.pending = pending          # not yet copied
        self.migrated: set[int] = set()  # copied; dual-written from now on
        self.total = max(len(pending), 1)


class _SummedStorageStats:
    """Read-only aggregate over the per-segment ``StorageStats`` views."""

    _FIELDS = ("disk_reads", "disk_writes", "bytes_read", "bytes_written",
               "cache_hits", "cache_misses", "checksum_failures",
               "compressed_puts", "blob_bytes_raw", "blob_bytes_stored")

    def __init__(self, segments: list[GraphStore]):
        object.__setattr__(self, "_segments", segments)

    def __getattr__(self, name: str):
        if name in self._FIELDS:
            return sum(getattr(seg.stats, name) for seg in self._segments)
        raise AttributeError(f"StorageStats has no field {name!r}")

    @property
    def compression_ratio(self) -> float:
        """Live raw bytes over live stored bytes across every segment."""
        raw = stored = 0
        for seg in self._segments:
            kv = seg._kv
            raw += getattr(kv, "_live_raw", 0)
            stored += getattr(kv, "_live_stored", 0)
        return raw / stored if stored else 1.0

    def snapshot(self) -> dict[str, int | float]:
        out = {name: getattr(self, name) for name in self._FIELDS}
        out["compression_ratio"] = self.compression_ratio
        return out

    def diff(self, before: dict[str, int | float]) -> dict[str, int | float]:
        return {name: value - before.get(name, 0)
                for name, value in self.snapshot().items()}

    def reset(self) -> None:
        for seg in self._segments:
            seg.stats.reset()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"SummedStorageStats({fields})"


class ShardedGraphStore:
    """S hash-partitioned ``GraphStore`` segments behind one interface.

    Parameters
    ----------
    path:
        Base path for the segment logs (``<path>.shard<N>``; replicas
        add ``.r<J>``, later generations ``<path>.g<G>.shard<N>``), or
        None for in-memory segments (tests).  A regular file at
        ``path`` itself is a log of the retired single-file layout and
        is refused with ``ValueError``, left untouched: rename it to
        ``<path>.shard0`` to open it as a one-segment store.
    num_shards:
        Segment count (1 is a one-segment store).
    cache_bytes:
        **Total** block-cache budget, split evenly across the
        shard-local caches so memory use matches a same-budget
        one-segment store.  Each replica copy carries its shard's budget.
    kv_factory:
        Optional ``(segment_path, shard) -> kv store`` hook.  This is
        the per-shard fault-injection passthrough: wrap any segment in
        a :class:`~repro.storage.faults.FaultInjectingKVStore` and only
        that shard's reads degrade.  With replicas, the factory is
        called once per copy (primary first, then each replica path).
    compress / use_mmap:
        Forwarded to every disk-backed segment (StreamVByte blob
        records / mmap read path).  Ignored when ``kv_factory`` builds
        the stores or segments are in-memory.
    replicas:
        Replica copies per shard.  ``replicas=R`` wraps every segment
        in a :class:`~repro.storage.replication.ReplicatedShard`
        (primary + R replicas, synchronous writes, read failover).
    hot_cache_bytes:
        **Total** decoded-blob hot-cache budget, split evenly across
        the shard-local caches like ``cache_bytes``.  Ignored when
        ``kv_factory`` builds the stores or segments are in-memory.
    """

    def __init__(self, path: str | Path | None = None, num_shards: int = 1,
                 cache_bytes: int = 0, kv_factory=None,
                 compress: bool = False, use_mmap: bool = False,
                 replicas: int = 0, hot_cache_bytes: int = 0):
        if replicas < 0:
            raise ValueError("replicas must be >= 0")
        if path is not None and Path(path).is_file():
            raise ValueError(
                f"{path} is a single-file adjacency log; rename it to "
                f"{self.segment_path(path, 0)} to open it as a "
                f"one-segment store")
        self._lock = _RWLock(name="ShardedGraphStore._lock")
        self._router = ShardRouter(num_shards)  # guarded-by: self._lock
        self._path = path  # guarded-by: self._lock
        self._cache_bytes = cache_bytes
        self._hot_cache_bytes = hot_cache_bytes
        self._kv_factory = kv_factory
        self._compress = compress
        self._use_mmap = use_mmap
        self._replicas = replicas
        self._generation = 0  # guarded-by: self._lock
        self._migration: _Migration | None = None  # guarded-by: self._lock
        self._path_next: str | Path | None = None  # guarded-by: self._lock
        self.reshard_stats = ReshardStats()
        self._segments = [self._build_segment(shard, num_shards,  # guarded-by: self._lock
                                              generation=0)
                          for shard in range(num_shards)]

    def _build_segment(self, shard: int, num_shards: int,
                       generation: int,
                       path=None) -> "GraphStore | ReplicatedShard":
        """One shard: a plain ``GraphStore`` or a replicated set."""
        if path is None:
            path = self._path
        per_shard_cache = (self._cache_bytes // num_shards
                           if num_shards else 0)
        # Like the block cache, the hot-cache budget is a store-wide
        # total split evenly.
        per_shard_hot = (self._hot_cache_bytes // num_shards
                         if num_shards else 0)

        def make(seg_path):
            if self._kv_factory is not None:
                return GraphStore(kv=self._kv_factory(seg_path, shard))
            return GraphStore(seg_path, cache_bytes=per_shard_cache,
                              compress=self._compress,
                              use_mmap=self._use_mmap,
                              hot_cache_bytes=per_shard_hot)

        primary = make(self.segment_path(path, shard,
                                         generation=generation))
        if not self._replicas:
            return primary
        copies = [primary]
        copies += [make(self.segment_path(path, shard, replica=j,
                                          generation=generation))
                   for j in range(self._replicas)]
        return ReplicatedShard(copies, shard=shard)

    @staticmethod
    def segment_path(path: str | Path | None, shard: int,
                     replica: int | None = None,
                     generation: int = 0) -> Path | None:
        """On-disk segment file for ``shard`` (None stays in-memory).

        Generation 0 primaries keep the historical ``<path>.shard<N>``
        name so existing deployments reopen unchanged; replicas append
        ``.r<J>`` and later generations prefix ``.g<G>``.
        """
        if path is None:
            return None
        gen = f".g{generation}" if generation else ""
        rep = f".r{replica}" if replica is not None else ""
        return Path(f"{path}{gen}.shard{shard}{rep}")

    # -- topology ----------------------------------------------------------

    @property
    def router(self):
        """The live routing table.

        A plain :class:`ShardRouter` in steady state; during an online
        reshard, a two-generation :class:`_MigrationRouter` over the
        combined (old + new) segment index space.
        """
        migration = self._migration
        if migration is None:
            return self._router
        return _MigrationRouter(self._router, migration.router,
                                migration.migrated)

    @property
    def num_shards(self) -> int:
        """Current-generation shard count (stable during migration)."""
        return self._router.num_shards

    @property
    def num_replicas(self) -> int:
        return self._replicas

    @property
    def generation(self) -> int:
        """Bumps when the segment topology changes (reshard begin/flip).

        Engines watch this to refresh their per-shard bookkeeping; a
        batch that holds :meth:`read_guard` sees one stable generation
        end to end.
        """
        return self._generation

    @property
    def segments(self) -> list:
        """The per-shard stores (read-mostly; exposed for stats/tests).

        During an online reshard this is the **combined** list — old
        generation first, then the new generation's segments — matching
        the index space of :attr:`router`.
        """
        migration = self._migration
        if migration is None:
            return self._segments
        return self._segments + migration.segments

    @property
    def reshard_active(self) -> bool:
        return self._migration is not None

    def read_guard(self):
        """Shared-side context manager for multi-step read sequences.

        The parallel engine holds this across a whole batch (partition
        → fan-out → merge) so no mutation or generation flip can land
        mid-batch.  Mutations take the exclusive side internally.
        """
        return self._lock.read()

    def segment_of(self, v: int) -> "GraphStore | ReplicatedShard":
        """The segment serving **reads** of ``v`` (placement-aware)."""
        migration = self._migration
        if migration is not None and int(v) in migration.migrated:
            return migration.segments[migration.router.shard_of(v)]
        return self._segments[self._router.shard_of(v)]

    @property
    def stats(self) -> _SummedStorageStats:
        """Aggregated physical I/O across every segment."""
        return _SummedStorageStats(self.segments)

    def hot_caches(self) -> list:
        """Per-segment decoded-blob hot caches (empty when disabled).

        Replicated segments have none (their copies are plain block
        stores).  Benchmarks read their hit rates through this.
        """
        out = []
        for seg in self.segments:
            hot = getattr(seg, "hot_cache", None)
            if hot is not None:
                out.append(hot)
        return out

    @property
    def degraded(self) -> bool:
        """True when any segment's backing store saw IO faults."""
        return any(seg.degraded for seg in self.segments)

    def reset_degraded(self) -> None:
        """Clear every segment's fault latch after recovery.

        Plain segments drop their injector's ``degraded`` flag;
        replicated segments additionally repair stale copies and
        reinstate their home primary (the failover/reinstate path).
        """
        # Repair runs *under* the exclusive lock on purpose: resyncing
        # a stale replica while writers were admitted would let a copy
        # be marked clean with writes it never saw, and a later
        # failover would then serve unsound (false-"absent") answers.
        # Recovery is rare; correctness of one-sided errors is not
        # negotiable.  See DESIGN.md §14.
        with self._lock.write():
            for seg in self.segments:
                seg.reset_degraded()

    @property
    def num_vertices(self) -> int:
        with self._lock.read():
            return sum(seg.num_vertices for seg in self._segments)

    def vertices(self):
        with self._lock.read():
            # Snapshot under the guard: the old generation is complete
            # during migration, so its segments alone enumerate the set.
            out: list[int] = []
            for seg in self._segments:
                out.extend(seg.vertices())
        return iter(out)

    # -- load / read -------------------------------------------------------

    def bulk_load(self, graph: Graph | DiGraph) -> None:
        """Partition every adjacency list to its owning segment."""
        directed = isinstance(graph, DiGraph)
        for v in graph.vertices():
            if directed:
                neighbors = sorted(graph.out_neighbors(v) | graph.in_neighbors(v))
            else:
                neighbors = graph.sorted_neighbors(v)
            self.put_neighbors(v, neighbors)
        self.flush()

    def get_neighbors(self, v: int,
                      receipt: ReadReceipt | None = None) -> list[int]:
        with self._lock.read():
            return self.segment_of(v).get_neighbors(v, receipt=receipt)

    def get_neighbors_array(self, v: int,
                            receipt: ReadReceipt | None = None) -> np.ndarray:
        with self._lock.read():
            return self.segment_of(v).get_neighbors_array(v, receipt=receipt)

    def get_neighbors_many(self, vertices,
                           receipt: ReadReceipt | None = None,
                           ) -> dict[int, np.ndarray]:
        """Multi-get partitioned by owner: one pass per touched segment."""
        vertices = [int(v) for v in vertices]
        if not vertices:
            return {}
        with self._lock.read():
            segments = self.segments
            by_shard: dict[int, list[int]] = {}
            router = self.router
            for v in vertices:
                by_shard.setdefault(router.shard_of(v), []).append(v)
            out: dict[int, np.ndarray] = {}
            missing: list[int] = []
            for shard, owned in by_shard.items():
                try:
                    out.update(segments[shard].get_neighbors_many(
                        owned, receipt=receipt))
                except KeyError:
                    # Re-collect so the aggregate error names *all* missing
                    # vertices across segments, matching GraphStore.
                    missing.extend(v for v in owned
                                   if not segments[shard].has_vertex(v))
            if missing:
                raise KeyError(f"vertices {sorted(missing)} are not stored")
            return {v: out[v] for v in dict.fromkeys(vertices)}

    def has_vertex(self, v: int) -> bool:
        with self._lock.read():
            return self.segment_of(v).has_vertex(v)

    def has_edge(self, u: int, v: int,
                 receipt: ReadReceipt | None = None) -> bool:
        """One disk access against the segment owning ``u``."""
        with self._lock.read():
            return self.segment_of(u).has_edge(u, v, receipt=receipt)

    def probe_shard(self, shard: int, us, vs,
                    receipt: ReadReceipt | None = None) -> np.ndarray:
        """Blob-native batched probe against one segment.

        Callers must route: every ``us[i]`` must be owned by ``shard``.
        This is the unit of work the parallel engine hands to a pool
        thread — the segment's multi-get, cache, and stats are all
        shard-local, so concurrent probes of different shards share no
        mutable state but the (locked) metrics registry.  The engine's
        coordinator holds :meth:`read_guard` for the whole batch, so
        pool tasks deliberately do **not** re-acquire the lock here.
        """
        return self.segments[shard].probe_edges(us, vs, receipt=receipt)

    def has_edge_many(self, us, vs,
                      receipt: ReadReceipt | None = None) -> np.ndarray:
        """Vectorized edge queries, partitioned by owning shard.

        Serial loop over the segments (the thread fan-out lives in the
        engine, not the store); verdicts come back in input order.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape:
            raise ValueError("endpoint arrays must be aligned")
        answers = np.zeros(len(us), dtype=bool)
        if len(us) == 0:
            return answers
        with self._lock.read():
            for shard, idx in enumerate(self.router.partition(us)):
                if len(idx):
                    answers[idx] = self.probe_shard(shard, us[idx], vs[idx],
                                                    receipt=receipt)
        return answers

    # -- updates -----------------------------------------------------------

    def _apply_write(self, v: int, op: str, *args):
        """Apply one single-vertex write to every generation owning it.

        The old generation always takes the write (it stays complete
        until the flip); a migrated vertex is dual-written so its new
        placement also has the latest state (read-your-writes for reads
        already routed there).  An unmigrated vertex joins the pending
        worklist — covering vertices created after ``begin_reshard``.
        Callers hold the exclusive lock.
        """
        result = getattr(self._segments[self._router.shard_of(v)],
                         op)(v, *args)
        migration = self._migration
        if migration is not None:
            if v in migration.migrated:
                target = migration.segments[migration.router.shard_of(v)]
                getattr(target, op)(v, *args)
            elif op == "remove_vertex_record":
                migration.pending.discard(v)
            else:
                migration.pending.add(v)
        return result

    def put_neighbors(self, v: int, neighbors: list[int]) -> None:
        with self._lock.write():
            self._apply_write(int(v), "put_neighbors", neighbors)

    def insert_edge(self, u: int, v: int) -> bool:
        """Add ``(u, v)``: one half-edge per owning segment."""
        if u == v:
            raise ValueError("self loops are not allowed")
        with self._lock.write():
            changed = self._apply_write(int(u), "insert_half_edge", v)
            changed = self._apply_write(int(v), "insert_half_edge",
                                        u) or changed
            return changed

    def delete_edge(self, u: int, v: int) -> bool:
        with self._lock.write():
            changed = self._apply_write(int(u), "remove_half_edge", v)
            changed = self._apply_write(int(v), "remove_half_edge",
                                        u) or changed
            return changed

    def delete_vertex(self, v: int) -> bool:
        """Remove ``v`` everywhere: neighbors may live on any segment.

        Runs under the exclusive side of the mutation guard, so an
        in-flight batch never observes the vertex half-deleted
        (scrubbed from some neighbors' lists but not others).
        """
        with self._lock.write():
            v = int(v)
            owner = self.segment_of(v)
            if not owner.has_vertex(v):
                return False
            for u in owner.get_neighbors(v):
                self._apply_write(int(u), "remove_half_edge", v)
            return bool(self._apply_write(v, "remove_vertex_record"))

    # -- resharding --------------------------------------------------------

    def begin_reshard(self, num_shards: int,
                      path: str | Path | None = None) -> None:
        """Open a new generation of segments and start a live migration.

        Reads and writes keep flowing: the old generation remains
        write-complete, and a background (or interleaved) driver calls
        :meth:`migrate_step` until :meth:`finish_reshard` flips.  The
        new generation inherits this store's configuration.  In-place
        (``path=None``) the new segments live under a ``.g<G>`` prefix
        of the store's own base path; an explicit ``path`` relocates
        them under plain gen-0 names, so the flipped store can later be
        reopened as ``ShardedGraphStore(path, num_shards)`` directly.
        An in-memory store stays in memory unless ``path`` is given.
        """
        with self._lock.write():
            if self._migration is not None:
                raise RuntimeError("a reshard is already in progress")
            generation = self._generation + 1
            # Explicit relocation gets gen-0 file names at the new base;
            # in-place migration needs the .g<G> prefix to avoid
            # colliding with the live generation's files.
            name_generation = 0 if path is not None else generation
            self._path_next = path
            router = ShardRouter(num_shards)
            segments = [self._build_segment(shard, num_shards,
                                            generation=name_generation,
                                            path=path)
                        for shard in range(num_shards)]
            pending: set[int] = set()
            for seg in self._segments:
                pending.update(int(v) for v in seg.vertices())
            self._migration = _Migration(router, segments, pending)
            self._generation = generation
            self.reshard_stats.set_gauge("active", 1)
            self.reshard_stats.set_gauge("vertices_pending", len(pending))
            self.reshard_stats.set_gauge("progress", 0.0)

    def _migrate_one(self, migration: _Migration, v: int) -> None:
        """Copy ``v``'s old-generation record to its new placement.

        A vertex deleted since it was enqueued is skipped.  Callers
        hold the exclusive lock.
        """
        seg = self._segments[self._router.shard_of(v)]
        if seg.has_vertex(v):
            target = migration.segments[migration.router.shard_of(v)]
            target.put_neighbors(v, seg.get_neighbors(v))
            migration.migrated.add(v)

    def migrate_step(self, max_vertices: int = 256) -> int:
        """Copy up to ``max_vertices`` pending vertices into the new
        generation; returns how many moved (0 = worklist drained).

        Each step holds the exclusive lock only for its chunk, so
        queries interleave between steps — the "online" in online
        resharding.  A copied vertex immediately serves reads from its
        new placement and is dual-written from then on.
        """
        with self._lock.write():
            migration = self._migration
            if migration is None:
                raise RuntimeError("no reshard in progress")
            moved = 0
            while migration.pending and moved < max_vertices:
                self._migrate_one(migration, migration.pending.pop())
                moved += 1
            self.reshard_stats.inc("vertices_migrated", moved)
            done = len(migration.migrated)
            self.reshard_stats.set_gauge("vertices_pending",
                                         len(migration.pending))
            self.reshard_stats.set_gauge(
                "progress", min(1.0, done / migration.total))
            return moved

    def finish_reshard(self) -> None:
        """Drain the worklist, flush the new generation durably, and
        atomically flip the routing table to it.

        The flip happens under the exclusive lock **after** a
        ``flush(sync=True)`` of every new segment — the generation
        change can never land before the migrated rows are durable.
        The old generation's segments are closed once no reader can
        reach them.

        The bulk of the fsync work happens *before* the flip span: each
        new segment is pre-flushed durably in its own short exclusive
        window (readers interleave between segments), so the final
        exclusive span only re-syncs whatever straggler writes landed
        after its segment's pre-flush.
        """
        while self.migrate_step():
            pass
        # Durable pre-flush, one segment per exclusive window.  The
        # lock is dropped between segments so read latency stays
        # bounded by a single fsync, not the whole generation's.
        pre = self._migration
        if pre is not None:
            for seg in list(pre.segments):
                with self._lock.write():
                    if self._migration is not pre:
                        break  # a concurrent finisher already flipped
                    seg.flush(sync=True)  # lint: disable=R012 (pre-flush holds the lock for one segment's fsync only; the span exists to keep the segment consistent while it syncs)
        with self._lock.write():
            migration = self._migration
            if migration is None:
                raise RuntimeError("no reshard in progress")
            # Writers may have enqueued fresh vertices since the drain.
            while migration.pending:
                self._migrate_one(migration, migration.pending.pop())
            for seg in migration.segments:
                # Only straggler writes since the pre-flush are still
                # buffered, so this fsync is near-empty.
                seg.flush(sync=True)  # lint: disable=R012 (flip must not land before the last stragglers are durable; the pre-flush above already drained the heavy fsync outside this span)
            retired = self._segments
            self._segments = migration.segments
            self._router = migration.router
            self._migration = None
            self._generation += 1
            if self._path_next is not None:
                self._path = self._path_next
            self._path_next = None
            self.reshard_stats.inc("migrations")
            self.reshard_stats.set_gauge("active", 0)
            self.reshard_stats.set_gauge("vertices_pending", 0)
            self.reshard_stats.set_gauge("progress", 1.0)
            for seg in retired:
                seg.close()

    # -- lifecycle ---------------------------------------------------------

    def flush(self, sync: bool = False) -> None:
        """Flush every segment through the public ``GraphStore.flush``.

        ``sync=True`` makes the flush durable (fsync) — the mode the
        reshard flip uses before retiring a generation.
        """
        for seg in self.segments:
            seg.flush(sync)

    def close(self) -> None:
        for seg in self.segments:
            seg.close()

    def __enter__(self) -> "ShardedGraphStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
