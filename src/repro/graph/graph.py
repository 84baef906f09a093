"""Core graph data structures.

The paper (Definition 1) assumes an undirected, unweighted simple graph:
no self loops and at most one edge per vertex pair.  Vertex IDs are
non-negative integers; the generators in :mod:`repro.graph.generators`
produce IDs in ``1..n`` because several VEND internals (the periodic
modular hash used by block selection) reason about the ID universe
``[1, max_vertex_id]``.

``Graph`` stores adjacency as sets for O(1) edge tests plus a lazily
maintained sorted-array view (``sorted_neighbors``) because every VEND
encoder consumes neighbor lists in ascending ID order.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator

__all__ = ["Graph", "DiGraph"]


class Graph:
    """An undirected simple graph with sorted-neighbor views.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs.  Self loops are rejected,
        duplicate edges are ignored (simple-graph semantics).
    """

    def __init__(self, edges: Iterable[tuple[int, int]] | None = None):
        self._adj: dict[int, set[int]] = {}
        self._sorted: dict[int, list[int]] = {}
        self._num_edges = 0
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    @classmethod
    def from_adjacency(cls, adjacency: Iterable[tuple[int, Iterable[int]]],
                       vertices: Iterable[int] = ()) -> "Graph":
        """Bulk constructor from ``(vertex, neighbors)`` pairs.

        ``vertices`` are added first, in order, so an isolated vertex
        needs no pair.  An edge listed by either endpoint is an edge
        (the lists need not be symmetric), and a neighbor that is not a
        vertex yet becomes one.  Self loops are rejected.
        """
        graph = cls()
        adj = graph._adj
        for v in vertices:
            graph.add_vertex(v)
        # The sets share one int object per vertex ID (those of
        # ``vertices`` where given) instead of one per listed neighbor.
        intern = {v: v for v in adj}.setdefault
        for v, neighbors in adjacency:
            graph.add_vertex(v)
            adj[intern(v, v)] = {intern(u, u) for u in neighbors}
        for v, neighbors in list(adj.items()):
            if v in neighbors:
                raise ValueError(f"self loops are not allowed (vertex {v})")
            for u in neighbors:
                peer = adj.get(u)
                if peer is None:
                    graph.add_vertex(u)
                    adj[u] = {v}
                elif v not in peer:
                    peer.add(v)
        graph._num_edges = sum(map(len, adj.values())) // 2
        return graph

    # -- basic accessors -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices currently in the graph."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges currently in the graph."""
        return self._num_edges

    @property
    def max_vertex_id(self) -> int:
        """Largest vertex ID present, or 0 for an empty graph."""
        return max(self._adj, default=0)

    def vertices(self) -> Iterator[int]:
        """Iterate over vertex IDs (insertion order)."""
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges once each, as ``(u, v)`` with ``u < v``."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> set[int]:
        """The neighbor set ``N_G(v)`` (a live set — do not mutate)."""
        return self._adj[v]

    def sorted_neighbors(self, v: int) -> list[int]:
        """Neighbors of ``v`` in ascending ID order (cached)."""
        cached = self._sorted.get(v)
        if cached is None:
            cached = sorted(self._adj[v])
            self._sorted[v] = cached
        return cached

    def average_degree(self) -> float:
        """Average degree ``2|E| / |V|`` (0 for the empty graph)."""
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    def degree_histogram(self) -> dict[int, int]:
        """Map from degree value to the number of vertices with it."""
        hist: dict[int, int] = {}
        for nbrs in self._adj.values():
            d = len(nbrs)
            hist[d] = hist.get(d, 0) + 1
        return hist

    # -- mutation ---------------------------------------------------------

    def add_vertex(self, v: int) -> None:
        """Ensure ``v`` exists (no-op if already present)."""
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"vertex ID must be a non-negative int, got {v!r}")
        self._adj.setdefault(v, set())

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)``; returns False if it already existed."""
        if u == v:
            raise ValueError(f"self loops are not allowed (vertex {u})")
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._insert_sorted(u, v)
        self._insert_sorted(v, u)
        self._num_edges += 1
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete edge ``(u, v)``; returns False if it did not exist."""
        nbrs = self._adj.get(u)
        if nbrs is None or v not in nbrs:
            return False
        nbrs.discard(v)
        self._adj[v].discard(u)
        self._remove_sorted(u, v)
        self._remove_sorted(v, u)
        self._num_edges -= 1
        return True

    def remove_vertex(self, v: int) -> bool:
        """Delete ``v`` and all incident edges; False if absent."""
        nbrs = self._adj.pop(v, None)
        if nbrs is None:
            return False
        self._sorted.pop(v, None)
        for u in nbrs:
            self._adj[u].discard(v)
            self._remove_sorted(u, v)
        self._num_edges -= len(nbrs)
        return True

    def copy(self) -> "Graph":
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        return g

    # -- internal ----------------------------------------------------------

    def _insert_sorted(self, v: int, nbr: int) -> None:
        cached = self._sorted.get(v)
        if cached is not None:
            bisect.insort(cached, nbr)

    def _remove_sorted(self, v: int, nbr: int) -> None:
        cached = self._sorted.get(v)
        if cached is not None:
            idx = bisect.bisect_left(cached, nbr)
            if idx < len(cached) and cached[idx] == nbr:
                cached.pop(idx)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"


class DiGraph:
    """A directed simple graph, used by the directed-extension case study.

    The paper's Appendix E.3 extends VEND to directed graphs by treating
    the adjacency list of a vertex as the union of in- and out-neighbors
    for encoding, while queries carry direction.  ``DiGraph`` therefore
    exposes ``out_neighbors`` / ``in_neighbors`` plus an ``as_undirected``
    projection used to build codes.
    """

    def __init__(self, edges: Iterable[tuple[int, int]] | None = None):
        self._out: dict[int, set[int]] = {}
        self._in: dict[int, set[int]] = {}
        self._num_edges = 0
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    @property
    def num_vertices(self) -> int:
        return len(self._out)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def max_vertex_id(self) -> int:
        return max(self._out, default=0)

    def vertices(self) -> Iterator[int]:
        return iter(self._out)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in self._out.items():
            for v in nbrs:
                yield (u, v)

    def add_vertex(self, v: int) -> None:
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"vertex ID must be a non-negative int, got {v!r}")
        self._out.setdefault(v, set())
        self._in.setdefault(v, set())

    def add_edge(self, u: int, v: int) -> bool:
        if u == v:
            raise ValueError(f"self loops are not allowed (vertex {u})")
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._out[u]:
            return False
        self._out[u].add(v)
        self._in[v].add(u)
        self._num_edges += 1
        return True

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self._out.get(u)
        return nbrs is not None and v in nbrs

    def out_neighbors(self, v: int) -> set[int]:
        return self._out[v]

    def in_neighbors(self, v: int) -> set[int]:
        return self._in[v]

    def as_undirected(self) -> Graph:
        """Project to an undirected graph (union of in/out adjacency)."""
        g = Graph()
        for v in self._out:
            g.add_vertex(v)
        for u, v in self.edges():
            g.add_edge(u, v)
        return g

    def __repr__(self) -> str:
        return f"DiGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
