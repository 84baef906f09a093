"""The partial VEND solution ``(f^α, F^α)`` — Section IV-A/B.

Peel the graph at threshold ``k``: every vertex removed in round ``i``
has fewer than ``k`` residual neighbors, so its vector stores a
comparative round flag ``τ_i`` in dimension 0 and *all* of those
neighbors in the remaining ``k - 1`` dimensions.  Every NEpair touching
a peeled vertex is then decided exactly:

- both peeled, ``τ(v1) <= τ(v2)``: ``v2`` was still alive when ``v1``
  was removed, so ``v2 ∈ f^α(v1)`` iff they are adjacent;
- only ``v1`` peeled: core vertices are alive at every removal, so the
  same test applies;
- both in the core: undetermined (``F^α = 0``).

The flags ``τ_i`` are realized as negative integers ``i - 2^40`` —
ascending in ``i`` and disjoint from vertex IDs, as the paper suggests.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph, peel
from .base import VendSolution, endpoint_arrays, register_solution
from .batch import PartialBatch

__all__ = ["PartialVend", "FLAG_OFFSET"]

#: τ_i = i - FLAG_OFFSET keeps flags negative and ordered by round.
FLAG_OFFSET = 2**40


@register_solution
class PartialVend(VendSolution):
    """Optimal encoding of the peeled vertices; core pairs undecided.

    Not a full solution on its own, but the building block every full
    version reuses and a useful lower bound in experiments.
    """

    name = "partial"

    #: Static baseline: mutations are handled by rebuilding (no hooks).
    supports_maintenance = False

    def __init__(self, k: int, int_bits: int = 32):
        super().__init__(k, int_bits)
        self._vectors: dict[int, list[int]] = {}
        self._members: dict[int, frozenset[int]] = {}
        self._core: set[int] = set()

    def build(self, graph: Graph) -> None:
        """Peel at threshold ``k`` and encode every removed vertex."""
        self._invalidate_batch()
        self._vectors.clear()
        self._members.clear()
        result = peel(graph, self.k)
        self._core = set(result.core_vertices)
        for v, round_no in result.round_of.items():
            neighbors = result.residual_neighbors[v]
            self._vectors[v] = [round_no - FLAG_OFFSET, *neighbors]
            self._members[v] = frozenset(neighbors)

    # -- queries -------------------------------------------------------------

    def is_encoded(self, v: int) -> bool:
        """True when ``v`` was peeled (is in ``V_k^α``)."""
        return v in self._vectors

    def vector(self, v: int) -> list[int]:
        """The raw ``f^α(v)`` vector (flag + residual neighbors)."""
        return self._vectors[v]

    def is_nonedge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        fu = self._vectors.get(u)
        fv = self._vectors.get(v)
        if fu is not None and fv is not None:
            if fu[0] <= fv[0]:
                return v not in self._members[u]
            return u not in self._members[v]
        if fu is not None:
            return v not in self._members[u]
        if fv is not None:
            return u not in self._members[v]
        return False  # both in the core: undetermined

    def batch_snapshot(self) -> PartialBatch:
        if self._batch_index is None:
            self._batch_index = PartialBatch(self)
        return self._batch_index

    def is_nonedge_batch(self, pairs_u, pairs_v=None) -> np.ndarray:
        """Vectorized ``F^α`` over a pair batch (matches the scalar NDF)."""
        us, vs = endpoint_arrays(pairs_u, pairs_v)
        snapshot = self.batch_snapshot()
        _, result = snapshot.query(us, vs, snapshot.rows(us), snapshot.rows(vs))
        return result

    def covers(self, u: int, v: int) -> bool:
        """True when ``F^α`` decides this pair exactly (either peeled)."""
        return u in self._vectors or v in self._vectors

    def memory_bytes(self) -> int:
        """Vectors are conceptually k dims of I bits each."""
        total_vertices = len(self._vectors) + len(self._core)
        return total_vertices * self.total_bits // 8

    @property
    def core_vertices(self) -> set[int]:
        return self._core
