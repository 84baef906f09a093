"""Range-based VEND ``(f^R, F^R)`` — Section IV-C.

Peeled vertices keep their exact ``f^α`` encoding.  Each core vertex
stores one *neighbor block*: ``k`` consecutive items of its extended
sorted core-neighbor sequence ``{-∞, v_1, …, v_x, ∞}``.  Any vertex
inside the block's range that is not a block member is a certain
NEneighbor.  The improved strategy picks the block whose range covers
the most NEneighbors; the basic strategy (kept for the ablation) always
takes the ``k`` smallest neighbor IDs.
"""

from __future__ import annotations

import math

import numpy as np

from ..graph import Graph, peel
from .base import VendSolution, endpoint_arrays, register_solution
from .batch import RangeBatch
from .partial import PartialVend

__all__ = ["RangeVend"]

_NEG_INF = -math.inf
_POS_INF = math.inf


@register_solution
class RangeVend(VendSolution):
    """Partial encoding plus a best-coverage block per core vertex.

    Parameters
    ----------
    strategy:
        ``"best"`` (paper's improved selection, default) or ``"basic"``
        (the smallest ``k`` neighbor IDs).
    """

    name = "range"

    #: Static baseline: mutations are handled by rebuilding (no hooks).
    supports_maintenance = False

    def __init__(self, k: int, int_bits: int = 32, strategy: str = "best"):
        super().__init__(k, int_bits)
        if strategy not in ("best", "basic"):
            raise ValueError("strategy must be 'best' or 'basic'")
        self.strategy = strategy
        self._partial = PartialVend(k, int_bits)
        # Core-vertex encodings: v -> (range_lo, range_hi, member_set)
        self._blocks: dict[int, tuple[float, float, frozenset[int]]] = {}
        self._max_id = 0

    def build(self, graph: Graph) -> None:
        self._invalidate_batch()
        self._blocks.clear()
        self._max_id = graph.max_vertex_id
        self._partial.build(graph)
        result = peel(graph, self.k)
        for v in result.core_vertices:
            neighbors = result.core_adjacency[v]
            if self.strategy == "basic":
                self._blocks[v] = self._basic_block(neighbors)
            else:
                self._blocks[v] = self._best_block(neighbors)

    # -- block selection ------------------------------------------------------

    def _basic_block(self, neighbors: list[int]) -> tuple[float, float, frozenset[int]]:
        """Smallest ``k`` neighbor IDs with range ``[v_1, v_k]`` (Def. 7)."""
        members = neighbors[: self.k]
        return (members[0], members[-1], frozenset(members))

    def _best_block(self, neighbors: list[int]) -> tuple[float, float, frozenset[int]]:
        """Size-k block of the extended sequence with max NE coverage."""
        extended: list[float] = [_NEG_INF, *neighbors, _POS_INF]
        best: tuple[float, float, frozenset[int]] | None = None
        best_coverage = -1
        for start in range(len(extended) - self.k + 1):
            block = extended[start:start + self.k]
            lo = 1 if block[0] == _NEG_INF else block[0]
            hi = self._max_id if block[-1] == _POS_INF else block[-1]
            finite = [x for x in block if x not in (_NEG_INF, _POS_INF)]
            coverage = (hi - lo + 1) - len(finite)
            if coverage > best_coverage:
                best_coverage = coverage
                best = (lo, hi, frozenset(int(x) for x in finite))
        assert best is not None  # extended sequence always has >= 1 block
        return best

    # -- NDF ---------------------------------------------------------------------

    def is_nonedge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        if self._partial.covers(u, v):
            return self._partial.is_nonedge(u, v)
        block_u = self._blocks.get(u)
        block_v = self._blocks.get(v)
        if block_u is None or block_v is None:
            return False  # unknown vertex: cannot certify anything
        lo_u, hi_u, members_u = block_u
        lo_v, hi_v, members_v = block_v
        if lo_v <= u <= hi_v and u not in members_v:
            return True
        if lo_u <= v <= hi_u and v not in members_u:
            return True
        return False

    def batch_snapshot(self) -> RangeBatch:
        if self._batch_index is None:
            self._batch_index = RangeBatch(self)
        return self._batch_index

    def is_nonedge_batch(self, pairs_u, pairs_v=None) -> np.ndarray:
        """Vectorized ``F^R`` over a pair batch (matches the scalar NDF)."""
        us, vs = endpoint_arrays(pairs_u, pairs_v)
        return self.batch_snapshot().query(us, vs)

    def memory_bytes(self) -> int:
        total = len(self._blocks) * self.total_bits // 8
        return total + self._partial.memory_bytes()
