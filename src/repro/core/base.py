"""Common VEND interfaces, registry, and shared helpers.

Every solution (range, hash, bit-hash, hybrid, hyb+) and every Bloom
comparator implements :class:`NonedgeFilter`: a ``is_nonedge(u, v)``
predicate that may return True **only** for pairs with no edge (the
soundness contract of Definition 4), plus maintenance hooks.

``NeighborFetch`` is how maintenance reaches graph storage: hybrid
deletion on non-decodable vectors must re-read ``N_G(v)`` from disk,
and the fetch counter lets benchmarks report that cost.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Protocol

import numpy as np

from ..graph import Graph

__all__ = [
    "NonedgeFilter",
    "VendSolution",
    "NeighborFetch",
    "GraphNeighborFetch",
    "register_solution",
    "create_solution",
    "available_solutions",
    "endpoint_arrays",
    "nonedge_batch_mask",
]


def endpoint_arrays(pairs_u, pairs_v=None) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a pair batch to two aligned ``int64`` endpoint arrays.

    Accepts either two aligned endpoint sequences, or (when ``pairs_v``
    is None) a single sequence of ``(u, v)`` tuples / an ``(n, 2)``
    array.
    """
    if pairs_v is None:
        pairs = np.asarray(pairs_u, dtype=np.int64)
        if pairs.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pair batch must be a sequence of (u, v) pairs")
        return pairs[:, 0], pairs[:, 1]
    us = np.asarray(pairs_u, dtype=np.int64)
    vs = np.asarray(pairs_v, dtype=np.int64)
    if us.shape != vs.shape or us.ndim != 1:
        raise ValueError("endpoint arrays must be aligned 1-D sequences")
    return us, vs


def nonedge_batch_mask(filt: "NonedgeFilter", pairs_u, pairs_v=None) -> np.ndarray:
    """Batch-evaluate any :class:`NonedgeFilter` over a pair batch.

    Uses the filter's vectorized ``is_nonedge_batch`` when it has one
    (every :class:`VendSolution` does); otherwise falls back to the
    scalar predicate so Bloom comparators keep working unchanged.
    """
    us, vs = endpoint_arrays(pairs_u, pairs_v)
    batch = getattr(filt, "is_nonedge_batch", None)
    if batch is not None:
        return np.asarray(batch(us, vs), dtype=bool)
    return np.fromiter(
        (filt.is_nonedge(int(u), int(v))
         for u, v in zip(us.tolist(), vs.tolist())),
        dtype=bool, count=len(us),
    )

NeighborFetch = Callable[[int], list[int]]


class GraphNeighborFetch:
    """Neighbor fetch backed by an in-memory graph, with a counter.

    Maintenance code calls this when it must recover a full neighbor
    set; ``fetches`` counts those storage round-trips.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.fetches = 0

    def __call__(self, v: int) -> list[int]:
        self.fetches += 1
        return self.graph.sorted_neighbors(v)


class NonedgeFilter(Protocol):
    """Anything that can veto edge queries (VEND solutions, Bloom filters)."""

    def is_nonedge(self, u: int, v: int) -> bool:
        """True only if ``(u, v)`` is certainly not an edge."""
        ...


class VendSolution(ABC):
    """Base class for VEND solutions.

    Subclasses set :attr:`name`, build codes in :meth:`build`, and
    answer :meth:`is_nonedge` in ``O(k)``.  Solutions that support
    dynamic graphs also implement the ``insert_edge`` / ``delete_edge``
    / ``insert_vertex`` / ``delete_vertex`` hooks; the base versions
    raise ``NotImplementedError`` so static baselines stay honest.
    """

    #: Registry key, e.g. ``"hybrid"``.
    name: str = "abstract"

    #: Whether the insert/delete hooks are implemented.  Registered
    #: solutions must declare this (or define the hooks) explicitly —
    #: the R002 lint rule does not count this base default — and the
    #: soundness auditor uses it to pick hook-driven maintenance vs.
    #: rebuild-on-mutation.
    supports_maintenance: bool = False

    def __init__(self, k: int, int_bits: int = 32):
        if k < 1:
            raise ValueError("dimension number k must be >= 1")
        if int_bits not in (8, 16, 32, 64):
            raise ValueError("int_bits must be one of 8, 16, 32, 64")
        self.k = k
        self.int_bits = int_bits
        #: Cached vectorized snapshot; rebuilt lazily after invalidation.
        self._batch_index: object | None = None

    @property
    def total_bits(self) -> int:
        """Bits per vertex code: ``k * I`` (Section V-C1)."""
        return self.k * self.int_bits

    @abstractmethod
    def build(self, graph: Graph) -> None:
        """Encode every vertex of ``graph`` from scratch."""

    @abstractmethod
    def is_nonedge(self, u: int, v: int) -> bool:
        """The NDF: True only when ``(u, v)`` is certainly an NEpair."""

    @abstractmethod
    def memory_bytes(self) -> int:
        """Bytes held by the in-memory encoding."""

    def is_nonedge_batch(self, pairs_u, pairs_v=None) -> np.ndarray:
        """Answer a batch of pair determinations as a bool array.

        Accepts aligned endpoint arrays (``pairs_u``, ``pairs_v``) or a
        single sequence of ``(u, v)`` tuples.  Solutions override this
        with an array-native implementation; the base version is the
        scalar fallback with identical semantics.
        """
        us, vs = endpoint_arrays(pairs_u, pairs_v)
        return np.fromiter(
            (self.is_nonedge(int(u), int(v))
             for u, v in zip(us.tolist(), vs.tolist())),
            dtype=bool, count=len(us),
        )

    def batch_snapshot(self):
        """The batch snapshot ``is_nonedge_batch`` reads, made current.

        Builds the snapshot when it was dropped and publishes a patched
        copy when maintenance left rows to refill; returns ``None``
        when the solution has none (the scalar fallback above, or an
        unbuilt solution).  No query runs, so an engine can warm the
        snapshot on one thread before fanning a batch out.
        """
        return None

    def _invalidate_batch(self) -> None:
        """Drop the cached batch snapshot (call after any mutation)."""
        self._batch_index = None

    # -- maintenance (optional) ------------------------------------------------

    def insert_edge(self, u: int, v: int, fetch: NeighborFetch) -> None:
        raise NotImplementedError(f"{self.name} does not support edge insertion")

    def delete_edge(self, u: int, v: int, fetch: NeighborFetch) -> None:
        raise NotImplementedError(f"{self.name} does not support edge deletion")

    def insert_vertex(self, v: int) -> None:
        raise NotImplementedError(f"{self.name} does not support vertex insertion")

    def delete_vertex(self, v: int, fetch: NeighborFetch) -> None:
        raise NotImplementedError(f"{self.name} does not support vertex deletion")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.k}, I={self.int_bits})"


_REGISTRY: dict[str, type[VendSolution]] = {}


def register_solution(cls: type[VendSolution]) -> type[VendSolution]:
    """Class decorator adding a solution to the factory registry."""
    key = cls.name
    if key in _REGISTRY:
        raise ValueError(f"solution {key!r} already registered")
    _REGISTRY[key] = cls
    return cls


def create_solution(name: str, k: int, **kwargs) -> VendSolution:
    """Instantiate a registered solution by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown solution {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(k=k, **kwargs)


def available_solutions() -> list[str]:
    """Names of all registered VEND solutions."""
    return sorted(_REGISTRY)
