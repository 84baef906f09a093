"""``VendGraphDB`` — the integrated storage + VEND facade.

The paper's deployment picture (Fig. 1, Appendix E.1's Neo4j case
study) is a graph database whose edge-query path consults the
in-memory VEND codes before touching disk.  This facade packages that
wiring: one object owning the disk-resident adjacency store and the
VEND index, keeping them transactionally in step through every update,
answering edge queries through the filter, and transparently
rebuilding the index when the ID universe outgrows ``I'``.

The maintenance fetch is the *store itself*, so the disk accesses that
vector reconstruction occasionally needs (Section V-D) are real reads,
visible in the same counters as query traffic.

Deletes defer that reconstruction.  ``remove_edge`` only queues the
core endpoints whose codes still record the removed neighbor; such a
code records a superset of the live edges, so it stays sound.  The next
read gives every queued vertex a complete re-encode from the lists
storage holds then, through one multi-get and one batched block
selection.
"""

from __future__ import annotations

from pathlib import Path

from ..core import HybPlusVend, HybridVend, IdCapacityError
from ..core.hybrid import HybridVend as _HybridBase
from ..graph import Graph
from ..obs import DatabaseStats, ReadReceipt
from ..storage import ShardedGraphStore, StorageStats
from .edge_query import ParallelEdgeQueryEngine, QueryStats

__all__ = ["VendGraphDB"]

_METHODS = {"hybrid": HybridVend, "hyb+": HybPlusVend}


class VendGraphDB:
    """A disk-backed graph with VEND-filtered edge queries.

    Parameters
    ----------
    path:
        Base path of the segment logs (``<path>.shard<N>``), or None for
        in-memory segments (tests).  A regular file at ``path`` itself
        is refused (see :class:`~repro.storage.ShardedGraphStore`).
    k, method:
        VEND configuration (``"hybrid"`` or ``"hyb+"``).
    cache_bytes:
        Block-cache size for the store — the total budget, split across
        the shard-local caches.
    hot_cache_bytes:
        Decoded-blob hot-cache budget (total, split per shard like
        ``cache_bytes``).  Stats-transparent — verdicts and counters
        are bitwise identical hot-on/off.  Requires a disk-backed
        path, where it also requires ``cache_bytes=0`` (``ValueError``
        otherwise); ignored for in-memory stores.
    shards, workers:
        Storage is always a hash-partitioned
        :class:`~repro.storage.ShardedGraphStore` of ``shards`` segments
        (default 1), queried through the thread-pool
        :class:`ParallelEdgeQueryEngine` with ``workers`` threads
        (default: one per shard).
    compress, use_mmap:
        Storage-tier switches, forwarded to every segment: ``compress``
        stores adjacency blobs as StreamVByte v3 records, ``use_mmap``
        serves the packed read tier from an mmap of the log.
    executor:
        Only ``"thread"`` is accepted: the parallel engine fans batch
        work out to a thread pool.  The keyword is kept for callers
        that still pass it.
    replicas:
        Replica copies per shard.  Writes reach every copy
        synchronously; reads fail over when a copy's backing store
        degrades, and :meth:`reset_degraded` repairs and reinstates.

    ::

        db = VendGraphDB(shards=4)      # 4 segments, 4 worker threads
        db.load_graph(graph)
        db.has_edge_batch(us, vs)       # shard-parallel pipeline
        db.reshard(8)                   # online: queries keep flowing
    """

    def __init__(self, path: str | Path | None = None, k: int = 8,
                 method: str = "hyb+", cache_bytes: int = 0,
                 id_bits: int | None = None, shards: int = 1,
                 workers: int | None = None, compress: bool = False,
                 use_mmap: bool = False, executor: str = "thread",
                 replicas: int = 0, hot_cache_bytes: int = 0):
        if method not in _METHODS:
            raise ValueError(f"method must be one of {sorted(_METHODS)}")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if replicas < 0:
            raise ValueError("replicas must be >= 0")
        if executor != "thread":
            raise ValueError(
                f"executor must be 'thread', got {executor!r}")
        self.vend: _HybridBase = _METHODS[method](k=k, id_bits=id_bits)
        self.store = ShardedGraphStore(path, num_shards=shards,
                                       cache_bytes=cache_bytes,
                                       compress=compress, use_mmap=use_mmap,
                                       replicas=replicas,
                                       hot_cache_bytes=hot_cache_bytes)
        self._engine = ParallelEdgeQueryEngine(self.store, self.vend,
                                               workers=workers)
        self.db_stats = DatabaseStats()
        self._built = False
        # Core vertices whose codes await a complete re-encode.
        self._stale: set[int] = set()

    @property
    def num_shards(self) -> int:
        """Storage segment count."""
        return self.store.num_shards

    @property
    def replicas(self) -> int:
        """Replica copies per shard (0 = unreplicated)."""
        return self.store.num_replicas

    def _fetch_for_maintenance(self, v: int) -> list[int]:
        """Adjacency fetch booked to maintenance, not any query engine.

        Index reconstruction (Section V-D) reads real adjacency lists;
        routing those reads through a maintenance-scoped receipt keeps
        them out of every engine's ``cache_served``/``disk_served``.
        """
        receipt = ReadReceipt()
        neighbors = self.store.get_neighbors(v, receipt=receipt)
        self._book_maintenance(receipt)
        return neighbors

    def _book_maintenance(self, receipt: ReadReceipt) -> None:
        self.db_stats.inc("maintenance_reads", receipt.served)
        self.db_stats.inc("maintenance_disk_reads", receipt.disk_reads)

    def _flush_stale(self) -> None:
        """Re-encode every queued vertex from its *current* stored list.

        The flush never replays a delete, so an edge deleted and then
        re-inserted before this runs is still encoded.  Queued vertices
        that no longer exist are skipped.  If the multi-get raises, the
        queue is kept (the queued codes are still sound supersets) and
        the error surfaces from the read that triggered the flush.
        """
        if not self._stale:
            return
        live = [v for v in sorted(self._stale) if self.store.has_vertex(v)]
        receipt = ReadReceipt()
        adjacency = self.store.get_neighbors_many(live, receipt=receipt)
        self._book_maintenance(receipt)
        self.vend.reencode({v: neighbors.tolist()
                            for v, neighbors in adjacency.items()})
        self._stale.clear()

    # -- loading -----------------------------------------------------------------

    def load_graph(self, graph: Graph) -> None:
        """Bulk-load a graph into storage and build the index."""
        self.store.bulk_load(graph)
        self.vend.build(graph)
        self._stale.clear()
        self._built = True

    def rebuild_index(self) -> None:
        """Re-encode every vertex from the *stored* adjacency lists.

        One multi-get pass per shard reads every list (one maintenance
        read per vertex).  The encoded graph is the union of both
        half-edge lists, so an edge whose other half never reached
        storage (a crash between the two half writes) is still encoded
        and can never be refuted.
        """
        vertices = list(self.store.vertices())
        receipt = ReadReceipt()
        adjacency = self.store.get_neighbors_many(vertices, receipt=receipt)
        self._book_maintenance(receipt)
        graph = Graph.from_adjacency(
            ((v, neighbors.tolist()) for v, neighbors in adjacency.items()),
            vertices=vertices)
        del adjacency  # the fetched blobs are not needed while encoding
        self.vend.build(graph)
        self._stale.clear()
        self.db_stats.inc("index_rebuilds")
        self._built = True

    # -- reads ------------------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        """Edge query: VEND filter first, storage only when undecided."""
        self._flush_stale()
        return self._engine.has_edge(u, v)

    def has_edge_batch(self, pairs_u, pairs_v=None):
        """Vectorized edge queries through the batched engine pipeline."""
        self._flush_stale()
        return self._engine.has_edge_batch(pairs_u, pairs_v)

    def neighbors(self, v: int) -> list[int]:
        """The stored adjacency list of ``v`` (a disk access)."""
        return self.store.get_neighbors(v)

    def has_vertex(self, v: int) -> bool:
        return self.store.has_vertex(v)

    @property
    def num_vertices(self) -> int:
        return self.store.num_vertices

    # -- writes ------------------------------------------------------------------

    def add_vertex(self, v: int) -> None:
        """Register a vertex in storage and the index."""
        self._require_built()
        if not self.store.has_vertex(v):
            self.store.put_neighbors(v, [])
        try:
            self.vend.insert_vertex(v)
        except IdCapacityError:
            self.rebuild_index()

    def add_edge(self, u: int, v: int) -> bool:
        """Insert an edge; storage first, then the index adjusts.

        Returns False when the edge already existed.
        """
        self._require_built()
        for endpoint in (u, v):
            self.add_vertex(endpoint)
        if not self.store.insert_edge(u, v):
            return False
        self.vend.insert_edge(u, v, self._fetch_for_maintenance)
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete an edge; returns False when it did not exist.

        Core endpoints that still record the edge are queued for a
        complete re-encode at the next read.
        """
        self._require_built()
        if not self.store.delete_edge(u, v):
            return False
        self._stale.update(self.vend.unrecord_edge(u, v))
        return True

    def remove_vertex(self, v: int) -> bool:
        """Delete a vertex and its incident edges everywhere.

        The index reads ``v``'s list before storage forgets it; the core
        neighbors that still record ``v`` join the queue, which is then
        flushed against the lists storage holds after the delete.
        """
        self._require_built()
        if not self.store.has_vertex(v):
            return False
        neighbors = self._fetch_for_maintenance(v)
        self._stale.update(self.vend.unrecord_vertex(v, neighbors))
        self.store.delete_vertex(v)
        self._flush_stale()
        return True

    # -- topology ----------------------------------------------------------------

    def reshard(self, num_shards: int, path: str | Path | None = None,
                batch: int = 512) -> None:
        """Reshard storage **online** to ``num_shards`` segments.

        Queries and updates keep flowing the whole time: the store
        opens a new generation, this call walks vertices across in
        ``batch``-sized exclusively-locked chunks (concurrent batches
        interleave between chunks), and the final flip lands only
        after a durable flush of the new layout.  The VEND index is
        untouched — the router decides placement, never encoding.
        Any layout reshards, the default one-segment store included.
        """
        self.store.begin_reshard(num_shards, path=path)
        while self.store.migrate_step(batch):
            pass
        self.store.finish_reshard()

    def reset_degraded(self) -> None:
        """Operational recovery: clear the storage layer's fault latches.

        Replicated shards additionally repair stale copies from the
        serving copy and reinstate their home primary.  After this
        returns, :attr:`degraded` is False unless a backing store is
        *still* failing.
        """
        self.store.reset_degraded()

    # -- stats / lifecycle ----------------------------------------------------------

    @property
    def query_stats(self) -> QueryStats:
        """Edge-query traffic (filtered vs executed)."""
        return self._engine.stats

    @property
    def shard_query_stats(self) -> list[QueryStats]:
        """Per-shard query ledgers, one per segment.

        Each entry is labeled ``shard="<i>"`` and sums with its peers
        to exactly the :attr:`query_stats` totals.
        """
        return self._engine.shard_ledgers()

    @property
    def index_rebuilds(self) -> int:
        """Full index rebuilds performed (reopen or ID capacity growth)."""
        return self.db_stats.index_rebuilds

    @property
    def maintenance_reads(self) -> int:
        """Adjacency fetches booked to index maintenance, not queries."""
        return self.db_stats.maintenance_reads

    @property
    def storage_stats(self) -> StorageStats:
        """Physical I/O counters of the backing store."""
        return self.store.stats

    @property
    def degraded(self) -> bool:
        """True when the storage layer reported IO faults (faults.py)."""
        return self.store.degraded

    def hot_caches(self) -> list:
        """Per-segment decoded-blob hot caches (empty when disabled).

        Benchmarks and traces read hit rates and resident bytes
        through this.
        """
        return self.store.hot_caches()

    def index_memory_bytes(self) -> int:
        return self.vend.memory_bytes()

    def close(self) -> None:
        self._engine.close()
        self.store.close()

    def __enter__(self) -> "VendGraphDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError(
                "load_graph() or rebuild_index() must run before updates"
            )
