"""Hash-based VEND ``(f^hash, F^hash)`` and the bit-hash variant — Section IV-D.

Peeled vertices keep their exact ``f^α`` encoding.  Each core vertex
hashes its core-neighbor IDs into a slot:

- **hash version** — one 0/1 flag per dimension (``k`` slots,
  ``v' mod k``); wasteful but matches the paper's first formulation;
- **bit-hash version** — the whole ``k·I``-bit vector is one bitset
  (``v' mod (k·I)``), which the paper notes is a special case of the
  Local Bloom Filter with a single hash function.

A pair of core vertices is an NEpair when *both* miss the hash in the
other's slot.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph, peel
from .base import VendSolution, endpoint_arrays, register_solution
from .batch import ModHashBatch
from .partial import PartialVend

__all__ = ["HashVend", "BitHashVend"]


class _ModHashVend(VendSolution):
    """Shared machinery: peel + per-core-vertex modular hash bitset."""

    #: Static baselines: mutations are handled by rebuilding (no hooks).
    supports_maintenance = False

    #: Subclasses define the slot size in bits.
    def _slot_bits(self) -> int:
        raise NotImplementedError

    def __init__(self, k: int, int_bits: int = 32):
        super().__init__(k, int_bits)
        self._partial = PartialVend(k, int_bits)
        self._slots: dict[int, int] = {}

    def build(self, graph: Graph) -> None:
        self._invalidate_batch()
        self._slots.clear()
        self._partial.build(graph)
        result = peel(graph, self.k)
        m = self._slot_bits()
        for v in result.core_vertices:
            slot = 0
            for u in result.core_adjacency[v]:
                slot |= 1 << (u % m)
            self._slots[v] = slot

    def is_nonedge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        if self._partial.covers(u, v):
            return self._partial.is_nonedge(u, v)
        slot_u = self._slots.get(u)
        slot_v = self._slots.get(v)
        if slot_u is None or slot_v is None:
            return False  # unknown vertex: cannot certify anything
        m = self._slot_bits()
        miss_u = not (slot_u >> (v % m)) & 1
        miss_v = not (slot_v >> (u % m)) & 1
        return miss_u and miss_v

    def batch_snapshot(self) -> ModHashBatch:
        if self._batch_index is None:
            self._batch_index = ModHashBatch(self)
        return self._batch_index

    def is_nonedge_batch(self, pairs_u, pairs_v=None) -> np.ndarray:
        """Vectorized modular-hash NDF (matches the scalar predicate)."""
        us, vs = endpoint_arrays(pairs_u, pairs_v)
        return self.batch_snapshot().query(us, vs)

    def memory_bytes(self) -> int:
        total = len(self._slots) * self.total_bits // 8
        return total + self._partial.memory_bytes()


@register_solution
class HashVend(_ModHashVend):
    """One binary flag per dimension: slot size ``k`` (``f^hash``)."""

    name = "hash"

    def _slot_bits(self) -> int:
        return self.k


@register_solution
class BitHashVend(_ModHashVend):
    """The full vector as one bitset: slot size ``k·I`` (``f^bit``)."""

    name = "bit-hash"

    def _slot_bits(self) -> int:
        return self.k * self.int_bits
