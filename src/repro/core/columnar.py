"""Columnar batch evaluation of the hybrid NDF.

Analytical pipelines (triangle counting, matching, bulk scoring) issue
millions of determinations; calling ``is_nonedge`` one pair at a time
pays Python dispatch per query.  ``ColumnarIndex`` snapshots a built
hybrid/hyb+ index into numpy columns — flags, exactness, block
geometry, padded member matrices, and the raw code bits as uint64
words — and evaluates whole pair batches with array operations: the
data-parallel execution the paper's SIMD section is about, applied at
the query level.

The snapshot is never mutated in place.  After maintenance that only
rewrites existing codes, :meth:`ColumnarIndex.patched` publishes a copy
with just the touched rows refilled; a build or a change of the vertex
set needs a full rebuild.
"""

from __future__ import annotations

import numpy as np

from .base import endpoint_arrays
from .blocks import BLOCK_LEFT, BLOCK_MIDDLE, BLOCK_RIGHT
from .hybrid import HybridVend

__all__ = ["ColumnarIndex"]

#: Sentinel member value: IDs are < 2^32, so the all-ones uint32 can
#: only collide with a (pathological) max-universe vertex, and a
#: collision merely loses a detection — never soundness.
_NO_MEMBER = np.uint32(0xFFFFFFFF)


class ColumnarIndex:
    """Vectorized, copy-on-write snapshot of a hybrid-family index."""

    #: Per-row columns: copied by :meth:`patched`, rewritten a row at a
    #: time by :meth:`_fill_row`.  ``_position`` is shared, since a patch
    #: never adds or removes a vertex.
    _ROW_COLUMNS = ("_flags", "_exact", "_kinds", "_lo", "_hi", "_members",
                    "_slot_offset", "_slot_size", "_words")

    def __init__(self, solution: HybridVend):
        if solution.id_bits == 0:
            raise ValueError("snapshot requires a built index")
        self.k = solution.k
        vertices = sorted(solution._codes)
        n = len(vertices)
        max_id = max(vertices) if vertices else 0
        self._position = np.full(max_id + 2, -1, dtype=np.int64)
        self._position[vertices] = np.arange(n)
        width = max(1, solution.k_star)

        self._flags = np.zeros(n, dtype=np.uint8)
        self._exact = np.zeros(n, dtype=bool)
        self._kinds = np.zeros(n, dtype=np.uint8)
        self._lo = np.zeros(n, dtype=np.int64)
        self._hi = np.zeros(n, dtype=np.int64)
        # Transposed member matrix: one contiguous row per member slot,
        # probed slot-by-slot so a batch never materializes an
        # (n_pairs, width) gather.
        self._members = np.full((width, n), _NO_MEMBER, dtype=np.uint32)
        self._slot_offset = np.zeros(n, dtype=np.int64)
        self._slot_size = np.ones(n, dtype=np.int64)
        words = (solution.total_bits + 63) // 64
        self._words = np.zeros((n, words), dtype=np.uint64)

        for row, v in enumerate(vertices):
            self._fill_row(solution, row, v)

    def _fill_row(self, solution: HybridVend, row: int, v: int) -> None:
        """Write ``f(v)`` into ``row``, which must hold the initial
        values (zeros, an all-sentinel member column, slot size 1)."""
        code = solution._codes[v]
        raw = int(code.value)
        for w in range(self._words.shape[1]):
            self._words[row, w] = (raw >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
        self._exact[row] = bool(code.get_bit(solution._EXACT_BIT))
        if code.get_bit(0) == 0:
            ids = solution.decoded_ids(v)
            self._members[:len(ids), row] = ids
            return
        self._flags[row] = 1
        kind, members, slot_offset, m = solution.core_layout(code)
        self._kinds[row] = kind
        self._members[:len(members), row] = members
        if members:
            self._lo[row] = members[0]
            self._hi[row] = members[-1]
        self._slot_offset[row] = slot_offset
        self._slot_size[row] = m

    def patched(self, solution: HybridVend, vertices) -> "ColumnarIndex":
        """A copy of this snapshot with the rows of ``vertices`` rebuilt
        from ``solution``'s current codes.

        Copy-on-write: this object is left untouched, so a reader still
        holding it keeps a consistent (older) view.  Every vertex must
        already have a row; adding or removing vertices needs a full
        build.  The copy is made with ``type(self)`` rather than the
        module-level class name, which instrumentation may replace.
        """
        clone = object.__new__(type(self))
        clone.k = self.k
        clone._position = self._position
        for name in self._ROW_COLUMNS:
            setattr(clone, name, getattr(self, name).copy())
        rows = self._position[np.asarray(vertices, dtype=np.int64)]
        # Back to the initial values _fill_row expects (it always
        # rewrites the words and the exactness bit).
        for column in (clone._flags, clone._kinds, clone._lo, clone._hi,
                       clone._slot_offset):
            column[rows] = 0
        clone._slot_size[rows] = 1
        clone._members[:, rows] = _NO_MEMBER
        for row, v in zip(rows.tolist(), vertices):
            clone._fill_row(solution, row, v)
        return clone

    @property
    def num_codes(self) -> int:
        return len(self._flags)

    # -- vectorized primitives ----------------------------------------------------

    def _rows_of(self, ids: np.ndarray) -> np.ndarray:
        """Dense row index per vertex ID (-1 for unknown IDs)."""
        clipped = np.clip(ids, 0, len(self._position) - 1)
        rows = self._position[clipped]
        rows[(ids < 0) | (ids >= len(self._position))] = -1
        return rows

    def _ne_test(self, probes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Vectorized Definition-8 NE-test: probes[i] vs code rows[i]."""
        safe = np.maximum(rows, 0)
        # Probe the member slots one contiguous row at a time: k_star
        # cheap uint32 gathers instead of one (n_pairs, width) uint64
        # materialization.  Out-of-range probes clip onto the sentinel,
        # which only ever yields the conservative "not certain" answer.
        probes32 = np.clip(probes, 0, int(_NO_MEMBER)).astype(np.uint32)
        is_member = np.zeros(len(probes), dtype=bool)
        for slot in self._members:
            is_member |= slot.take(safe) == probes32
        flags = self._flags[safe]
        kinds = self._kinds[safe]
        lo, hi = self._lo[safe], self._hi[safe]
        in_range = np.zeros(len(probes), dtype=bool)
        core = flags == 1
        in_range |= core & (kinds == BLOCK_LEFT) & (probes <= hi)
        in_range |= core & (kinds == BLOCK_RIGHT) & (probes >= lo)
        in_range |= core & (kinds == BLOCK_MIDDLE) & (probes >= lo) & (probes <= hi)
        # Hash-slot bit lookup for the out-of-range core probes.
        bit_index = self._slot_offset[safe] + probes % self._slot_size[safe]
        word = self._words[safe, bit_index // 64]
        bit = (word >> (bit_index % 64).astype(np.uint64)) & np.uint64(1)
        hash_miss = bit == 0
        return np.where(
            flags == 0,
            ~is_member,                       # decodable: explicit list
            np.where(in_range, ~is_member, hash_miss),
        )

    # -- public API --------------------------------------------------------------

    def query_batch(self, pairs_u, pairs_v) -> np.ndarray:
        """``F^hyb`` over aligned arrays of endpoints.

        Returns a bool array: True = certainly no edge.  Unknown
        vertices and self-pairs answer False, matching the scalar path.
        """
        us = np.asarray(pairs_u, dtype=np.int64)
        vs = np.asarray(pairs_v, dtype=np.int64)
        if us.shape != vs.shape:
            raise ValueError("endpoint arrays must be aligned")
        rows_u = self._rows_of(us)
        rows_v = self._rows_of(vs)
        valid = (rows_u >= 0) & (rows_v >= 0) & (us != vs)
        pass_v_in_u = self._ne_test(vs, rows_u)  # v against f(u)
        pass_u_in_v = self._ne_test(us, rows_v)  # u against f(v)
        flags_u = self._flags[np.maximum(rows_u, 0)]
        flags_v = self._flags[np.maximum(rows_v, 0)]
        exact_u = self._exact[np.maximum(rows_u, 0)]
        exact_v = self._exact[np.maximum(rows_v, 0)]

        both = pass_v_in_u & pass_u_in_v
        # Mixed flags: the decodable side's α-exact one-sided test.
        mixed = flags_u != flags_v
        u_dec = mixed & (flags_u == 0)
        v_dec = mixed & (flags_v == 0)
        mixed_result = np.where(
            u_dec & exact_u, pass_v_in_u,
            np.where(v_dec & exact_v, pass_u_in_v, both),
        )
        # Core/core: exact one-sided OR, else conjunction.
        core_core = (flags_u == 1) & (flags_v == 1)
        core_result = (
            (exact_u & pass_v_in_u) | (exact_v & pass_u_in_v) | both
        )
        result = np.where(
            mixed, mixed_result, np.where(core_core, core_result, both)
        )
        return result & valid

    def query_pairs(self, pairs: list[tuple[int, int]]) -> np.ndarray:
        """Convenience wrapper over a list of ``(u, v)`` tuples."""
        if not pairs:
            return np.zeros(0, dtype=bool)
        array = np.asarray(pairs, dtype=np.int64)
        return self.query_batch(array[:, 0], array[:, 1])

    # -- NonedgeFilter interface --------------------------------------------------
    # A snapshot can serve directly as an EdgeQueryEngine filter: the
    # batched pipeline then skips even the owning solution's dispatch.

    def is_nonedge(self, u: int, v: int) -> bool:
        """Scalar NDF over the snapshot (NonedgeFilter conformance)."""
        return bool(self.query_batch(
            np.asarray([u], dtype=np.int64), np.asarray([v], dtype=np.int64)
        )[0])

    def is_nonedge_batch(self, pairs_u, pairs_v=None) -> np.ndarray:
        """Batch NDF over the snapshot (NonedgeFilter conformance)."""
        us, vs = endpoint_arrays(pairs_u, pairs_v)
        return self.query_batch(us, vs)

    def memory_bytes(self) -> int:
        """Bytes held by the snapshot's arrays."""
        return self._position.nbytes + sum(
            getattr(self, name).nbytes for name in self._ROW_COLUMNS)
