"""Adjacency-list storage over the KV store.

``GraphStore`` persists each vertex's sorted neighbor list as a packed
``uint32`` array under the vertex ID, mirroring how the paper keeps
adjacency lists in RocksDB.  Edge queries and updates go through it, so
its disk counters measure exactly the I/O that VEND is meant to avoid.
"""

from __future__ import annotations

import bisect
from pathlib import Path

import numpy as np

from ..graph import DiGraph, Graph
from ..obs import ReadReceipt, StorageStats, default_tracer
from .kvstore import DiskKVStore, InMemoryKVStore

__all__ = ["GraphStore", "membership_sweep"]


def _pack(neighbors: list[int]) -> bytes:
    return np.asarray(neighbors, dtype=np.uint32).tobytes()


def _unpack(blob: bytes) -> list[int]:
    return np.frombuffer(blob, dtype=np.uint32).tolist()


#: Vertex IDs are stored as uint32; probes outside this range miss.
_ID_LIMIT = 2**32


def membership_sweep(data: np.ndarray, counts: np.ndarray,
                     group: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """One searchsorted answering many per-list membership probes.

    ``data`` is the uint8 concatenation of sorted uint32 adjacency
    lists with ``counts[i]`` values each; probe ``j`` asks whether
    ``vs[j]`` is in list ``group[j]``.  Every list is shifted into a
    disjoint value range so a single global ``searchsorted`` answers
    all probes at once.  Used by the batched probe path.
    """
    if data.size == 0:
        return np.zeros(len(vs), dtype=bool)
    base = np.arange(len(counts), dtype=np.int64) * _ID_LIMIT
    combined = (data.view(np.uint32).astype(np.int64)
                + np.repeat(base, counts))
    valid = (vs >= 0) & (vs < _ID_LIMIT)
    probes = vs + base[group]
    pos = np.searchsorted(combined, probes)
    pos = np.minimum(pos, len(combined) - 1)
    return (combined[pos] == probes) & valid


def _probe(blob: bytes, v: int) -> bool:
    """Sorted-membership test directly on a packed adjacency blob.

    ``np.frombuffer`` is a zero-copy view, so the blob is never
    materialized as a Python list; one ``searchsorted`` answers the
    membership query.
    """
    if not 0 <= v < _ID_LIMIT:
        return False
    neighbors = np.frombuffer(blob, dtype=np.uint32)
    idx = int(neighbors.searchsorted(np.uint32(v)))
    return idx < len(neighbors) and int(neighbors[idx]) == v


class GraphStore:
    """Disk-resident adjacency lists with edge-level operations.

    Parameters
    ----------
    path:
        Backing file for the KV log, or None for an in-memory store
        (tests).  ``cache_bytes`` configures the block cache.
    kv:
        A pre-built KV store (e.g. a
        :class:`~repro.storage.faults.FaultInjectingKVStore` wrapping a
        disk store).  Overrides ``path``/``cache_bytes`` when given.
    compress / use_mmap / hot_cache_bytes:
        Forwarded to :class:`~repro.storage.kvstore.DiskKVStore`
        (StreamVByte blob records / mmap read path / decoded-blob hot
        cache budget).  Ignored for in-memory and pre-built stores.
    """

    def __init__(self, path: str | Path | None = None, cache_bytes: int = 0,
                 kv=None, compress: bool = False, use_mmap: bool = False,
                 hot_cache_bytes: int = 0):
        if kv is not None:
            self._kv = kv
        elif path is None:
            self._kv = InMemoryKVStore(cache_bytes=cache_bytes)
        else:
            self._kv = DiskKVStore(path, cache_bytes=cache_bytes,
                                   compress=compress, use_mmap=use_mmap,
                                   hot_cache_bytes=hot_cache_bytes)

    @property
    def stats(self) -> StorageStats:
        return self._kv.stats

    @property
    def hot_cache(self):
        """The backing store's decoded-blob hot cache, or None."""
        return getattr(self._kv, "hot_cache", None)

    @property
    def degraded(self) -> bool:
        """True when the backing store saw IO faults (see faults.py)."""
        return bool(getattr(self._kv, "degraded", False))

    @property
    def num_vertices(self) -> int:
        return len(self._kv)

    def vertices(self):
        return self._kv.keys()

    # -- load / read -------------------------------------------------------

    def bulk_load(self, graph: Graph | DiGraph) -> None:
        """Persist every adjacency list of ``graph``.

        Directed graphs are stored undirected (in ∪ out neighbors), as
        the paper does: "each graph is taken as undirected and the
        adjacent list of each vertex contains both in and out
        neighbors".
        """
        if isinstance(graph, DiGraph):
            for v in graph.vertices():
                merged = sorted(graph.out_neighbors(v) | graph.in_neighbors(v))
                self._kv.put(v, _pack(merged))
        else:
            for v in graph.vertices():
                self._kv.put(v, _pack(graph.sorted_neighbors(v)))
        self._kv.flush()

    def get_neighbors(self, v: int,
                      receipt: ReadReceipt | None = None) -> list[int]:
        """Fetch the sorted adjacency list of ``v`` (a disk access)."""
        with default_tracer().span("storage_get"):
            blob = self._kv.get(v, receipt=receipt)
        if blob is None:
            raise KeyError(f"vertex {v} is not stored")
        return _unpack(blob)

    def get_neighbors_array(self, v: int,
                            receipt: ReadReceipt | None = None) -> np.ndarray:
        """Sorted adjacency of ``v`` as a zero-copy ``uint32`` array."""
        with default_tracer().span("storage_get"):
            blob = self._kv.get(v, receipt=receipt)
        if blob is None:
            raise KeyError(f"vertex {v} is not stored")
        return np.frombuffer(blob, dtype=np.uint32)

    def get_neighbors_many(self, vertices,
                           receipt: ReadReceipt | None = None,
                           ) -> dict[int, np.ndarray]:
        """Multi-get: one deduplicated, offset-ordered storage pass.

        Returns ``{vertex: sorted uint32 adjacency array}``; raises
        ``KeyError`` naming the missing vertices, mirroring
        :meth:`get_neighbors`.
        """
        with default_tracer().span("storage_multi_get"):
            blobs = self._kv.get_many(vertices, receipt=receipt)
        missing = [v for v, blob in blobs.items() if blob is None]
        if missing:
            raise KeyError(f"vertices {sorted(missing)} are not stored")
        return {v: np.frombuffer(blob, dtype=np.uint32)
                for v, blob in blobs.items()}

    def has_vertex(self, v: int) -> bool:
        return v in self._kv

    def has_edge(self, u: int, v: int,
                 receipt: ReadReceipt | None = None) -> bool:
        """Edge query against storage: one disk access on ``u``'s list."""
        with default_tracer().span("storage_get"):
            blob = self._kv.get(u, receipt=receipt)
        if blob is None:
            raise KeyError(f"vertex {u} is not stored")
        return _probe(blob, v)

    def probe_edges(self, us, vs,
                    receipt: ReadReceipt | None = None) -> np.ndarray:
        """Vectorized edge queries: ``out[j]`` is whether ``(us[j],
        vs[j])`` is an edge.

        Probes whose source vertex sits in the hot cache are answered
        from its membership view.  The rest are grouped by left
        endpoint and each distinct adjacency blob is fetched once
        through the KV store's ``get_many_packed``: the blobs come back
        as one contiguous byte array plus a length vector, and one
        :func:`membership_sweep` answers every probe — a handful of
        whole-batch numpy kernels between the (coalesced) reads and
        the verdicts, no per-record bytes objects.  This is the
        per-shard hot path of the parallel query engine; pool threads
        spend their time in GIL-releasing C loops rather than Python
        list plumbing.  Raises ``KeyError`` naming source vertices that
        are not stored.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape:
            raise ValueError("endpoint arrays must be aligned")
        if len(us) == 0:
            return np.zeros(0, dtype=bool)
        hot = getattr(self._kv, "hot_cache", None)
        if hot is not None:
            # The frequency sketch must see the *raw* pre-dedup stream:
            # after np.unique every vertex appears once per batch and a
            # Zipfian hot set is indistinguishable from uniform noise.
            hot.observe(us)
            served = hot.probe_verdicts(us, vs)
            if served is not None:
                # Membership fast path: probes whose source vertex is
                # cached are answered straight from the decoded
                # entries — no dedup, no byte gather, no per-batch
                # sweep reconstruction.  Only the cold remainder walks
                # the full fetch path below (which also handles
                # admission and the missing-vertex KeyError).
                hit, verdicts, n_unique, stored = served
                if n_unique:
                    self._kv.book_hot_serves(n_unique, stored,
                                             receipt=receipt)
                if hit.all():
                    return verdicts
                miss = ~hit
                verdicts[miss] = self._probe_cold(us[miss], vs[miss],
                                                  receipt)
                return verdicts
        return self._probe_cold(us, vs, receipt)

    def _probe_cold(self, us: np.ndarray, vs: np.ndarray,
                    receipt: ReadReceipt | None) -> np.ndarray:
        """The fetch-and-sweep half of :meth:`probe_edges`."""
        unique_us, group = np.unique(us, return_inverse=True)
        with default_tracer().span("storage_multi_get"):
            try:
                data, byte_lengths = self._kv.get_many_packed(
                    unique_us, receipt=receipt)
            except KeyError as exc:
                raise KeyError(
                    f"vertices {sorted(exc.args[0])} are not stored"
                ) from None
        return membership_sweep(data, byte_lengths // 4, group, vs)

    # -- updates -------------------------------------------------------------

    def put_neighbors(self, v: int, neighbors: list[int]) -> None:
        """Overwrite the adjacency list of ``v`` (callers pass sorted)."""
        self._kv.put(v, _pack(neighbors))

    def insert_half_edge(self, a: int, b: int) -> bool:
        """Add ``b`` to ``a``'s adjacency list (one endpoint's half).

        The half-edge primitives exist so a sharded store can route
        each endpoint's read-modify-write to the segment that owns it:
        edge ``(u, v)`` may live in two different segment files.
        """
        blob = self._kv.get(a)
        neighbors = _unpack(blob) if blob is not None else []
        idx = bisect.bisect_left(neighbors, b)
        if idx >= len(neighbors) or neighbors[idx] != b:
            neighbors.insert(idx, b)
            self._kv.put(a, _pack(neighbors))
            return True
        return False

    def remove_half_edge(self, a: int, b: int) -> bool:
        """Remove ``b`` from ``a``'s adjacency list (one endpoint's half)."""
        blob = self._kv.get(a)
        if blob is None:
            return False
        neighbors = _unpack(blob)
        idx = bisect.bisect_left(neighbors, b)
        if idx < len(neighbors) and neighbors[idx] == b:
            neighbors.pop(idx)
            self._kv.put(a, _pack(neighbors))
            return True
        return False

    def remove_vertex_record(self, v: int) -> bool:
        """Drop ``v``'s own adjacency record (no neighbor scrubbing)."""
        return self._kv.delete(v)

    def insert_edge(self, u: int, v: int) -> bool:
        """Add edge ``(u, v)``; read-modify-write on both endpoints."""
        if u == v:
            raise ValueError("self loops are not allowed")
        changed = self.insert_half_edge(u, v)
        changed = self.insert_half_edge(v, u) or changed
        return changed

    def delete_edge(self, u: int, v: int) -> bool:
        """Remove edge ``(u, v)``; returns False when absent."""
        changed = self.remove_half_edge(u, v)
        changed = self.remove_half_edge(v, u) or changed
        return changed

    def delete_vertex(self, v: int) -> bool:
        """Remove ``v`` and its incident edges from every neighbor list.

        Each neighbor's list is rewritten exactly once and ``v``'s own
        record is deleted once — ``d + 1`` writes for a degree-``d``
        vertex, not the ``2d + 1`` a ``delete_edge`` loop would pay
        (that loop would also rewrite ``v``'s shrinking list ``d``
        times just before deleting it).
        """
        blob = self._kv.get(v)
        if blob is None:
            return False
        for u in _unpack(blob):
            self.remove_half_edge(u, v)
        self._kv.delete(v)
        return True

    # -- lifecycle -----------------------------------------------------------

    def flush(self, sync: bool = False) -> None:
        """Flush buffered writes; ``sync=True`` fsyncs for durability.

        The public flush boundary — callers (the sharded store, the
        reshard generation flip) must not reach into ``_kv``.
        """
        self._kv.flush(sync)

    def reset_degraded(self) -> None:
        """Clear the backing store's fault latch after recovery.

        No-op for stores without one (plain disk/in-memory KV)."""
        reset = getattr(self._kv, "reset_degraded", None)
        if reset is not None:
            reset()

    def close(self) -> None:
        self._kv.close()

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
