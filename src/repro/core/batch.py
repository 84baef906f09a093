"""Vectorized batch snapshots for the non-hybrid VEND solutions.

The hybrid family already has :class:`~repro.core.columnar.ColumnarIndex`;
this module gives the remaining registered solutions (partial, range,
hash, bit-hash) the same treatment so ``is_nonedge_batch`` is
array-native across the whole registry.  Each snapshot freezes a built
solution's per-vertex state into dense numpy columns:

- a position array mapping vertex IDs to dense rows (``-1`` = unknown);
- a sentinel-padded member matrix for explicit-membership tests;
- solution-specific columns (peel-round flags, block ranges, hash-slot
  bit words).

Snapshots are read-only; the owning solution caches one lazily and
drops it on :meth:`~repro.core.base.VendSolution._invalidate_batch`
(every ``build`` call).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MemberTable",
    "PartialBatch",
    "RangeBatch",
    "ModHashBatch",
    "warm_batch_snapshot",
    "shard_slices",
]


def warm_batch_snapshot(filt) -> None:
    """Force a filter's lazy batch snapshot to build on *this* thread.

    Every solution rebuilds its snapshot lazily in its unguarded
    ``batch_snapshot`` accessor (``if self._batch_index is None:
    self._batch_index = ...``), and the hybrid family publishes a
    row-patched copy the same way after maintenance that marked dirty
    rows.  That is fine single-threaded, but the shard-parallel engine
    evaluates NDF slices on pool threads — two threads hitting a cold
    or dirty snapshot would build or patch it twice and publish a
    half-initialized object to each other.  The engine therefore warms
    the snapshot once on the coordinator thread before any fan-out;
    after maintenance the next batch re-warms (rebuilds or patches) it
    the same way.

    The snapshot itself stays **shared across shards** rather than
    being split per shard: ``F(f(u), f(v))`` reads *both* endpoints'
    codes, and ``v`` routinely lives on a different shard than ``u``,
    so per-shard code columns would force cross-shard chatter on every
    pair.  A snapshot is never written after it is published (a patch
    is a copy), so sharing it across pool threads is both correct and
    contention-free.

    Only the accessor runs — no query — so warming costs nothing once
    the snapshot is current.  Filters without the accessor (a bare
    snapshot, a scalar-only filter) have nothing to warm.
    """
    snapshot = getattr(filt, "batch_snapshot", None)
    if snapshot is not None:
        snapshot()


def shard_slices(router, us: np.ndarray, vs: np.ndarray):
    """Split an aligned pair batch into per-shard work units.

    Pairs are owned by the shard of their **left** endpoint — the only
    endpoint whose adjacency list storage will read — so each slice is
    self-contained: NDF filtering plus a shard-local multi-get answers
    it without touching another segment.  Yields
    ``(shard, idx, us[idx], vs[idx])`` with ``idx`` in original input
    order; the caller merges with ``answers[idx] = slice_answers``.

    Because the slices partition the *left* endpoints, deduplicating
    ``us`` per shard equals deduplicating globally — the same vertex
    can never appear in two slices — which is what keeps the parallel
    engine's ``cache_served``/``disk_served`` totals bitwise equal to
    the serial pipeline's.
    """
    for shard, idx in enumerate(router.partition(us)):
        if len(idx):
            yield shard, idx, us[idx], vs[idx]

#: Sentinel member value: IDs are < 2^32, so the all-ones uint32 can
#: only collide with a (pathological) max-universe vertex, and a
#: collision merely loses a detection — never soundness.
_NO_MEMBER = np.uint32(0xFFFFFFFF)


def make_position(vertices: list[int]) -> np.ndarray:
    """Dense ID → row map: ``position[v]`` is the row of ``v`` or -1."""
    max_id = max(vertices) if vertices else 0
    position = np.full(max_id + 2, -1, dtype=np.int64)
    if vertices:
        position[np.asarray(vertices, dtype=np.int64)] = np.arange(len(vertices))
    return position


def rows_from_position(position: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Row index per vertex ID, -1 for IDs outside the encoded universe."""
    clipped = np.clip(ids, 0, len(position) - 1)
    rows = position[clipped]
    rows[(ids < 0) | (ids >= len(position))] = -1
    return rows


class MemberTable:
    """Explicit-membership tests over a padded per-row member matrix."""

    def __init__(self, members_by_vertex: dict[int, list[int]]):
        self.vertices = sorted(members_by_vertex)
        n = len(self.vertices)
        self._position = make_position(self.vertices)
        width = max((len(members_by_vertex[v]) for v in self.vertices),
                    default=0)
        # Transposed (width, n) layout: one contiguous row per member
        # slot, probed slot-by-slot in `contains` so a batch never
        # materializes an (n_pairs, width) gather.
        self._members = np.full((width, n), _NO_MEMBER, dtype=np.uint32)
        for row, v in enumerate(self.vertices):
            members = members_by_vertex[v]
            if members:
                self._members[:len(members), row] = np.asarray(
                    members, dtype=np.uint32
                )

    def __len__(self) -> int:
        return len(self.vertices)

    def rows(self, ids: np.ndarray) -> np.ndarray:
        return rows_from_position(self._position, ids)

    def contains(self, rows: np.ndarray, probes: np.ndarray) -> np.ndarray:
        """``probes[i] in members[rows[i]]`` (False for row -1)."""
        if len(self) == 0 or self._members.shape[0] == 0:
            return np.zeros(len(rows), dtype=bool)
        safe = np.maximum(rows, 0)
        # Out-of-range probes clip onto the sentinel: at worst a missed
        # detection for the max-universe ID, never a false "certain".
        probes32 = np.clip(probes, 0, int(_NO_MEMBER)).astype(np.uint32)
        hit = np.zeros(len(rows), dtype=bool)
        for slot in self._members:
            hit |= slot.take(safe) == probes32
        return hit & (rows >= 0)

    def nbytes(self) -> int:
        return self._position.nbytes + self._members.nbytes


class PartialBatch:
    """Vectorized ``F^α``: peel-round flags + residual-member matrix."""

    def __init__(self, partial) -> None:
        vectors = partial._vectors
        self._table = MemberTable(
            {v: sorted(partial._members[v]) for v in vectors}
        )
        self._flags = np.asarray(
            [vectors[v][0] for v in self._table.vertices], dtype=np.int64
        )

    def rows(self, ids: np.ndarray) -> np.ndarray:
        return self._table.rows(ids)

    def query(self, us: np.ndarray, vs: np.ndarray,
              rows_u: np.ndarray, rows_v: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """``(covered, result)`` masks aligned with the pair batch.

        ``covered`` marks pairs ``F^α`` decides exactly (either endpoint
        peeled); ``result`` is the determination for those pairs.
        """
        u_peeled = rows_u >= 0
        v_peeled = rows_v >= 0
        covered = u_peeled | v_peeled
        n = len(us)
        if self._flags.size == 0:
            return covered, np.zeros(n, dtype=bool)
        v_in_u = self._table.contains(rows_u, vs)
        u_in_v = self._table.contains(rows_v, us)
        tau_u = self._flags[np.maximum(rows_u, 0)]
        tau_v = self._flags[np.maximum(rows_v, 0)]
        both = u_peeled & v_peeled
        by_round = np.where(tau_u <= tau_v, ~v_in_u, ~u_in_v)
        result = np.where(
            both, by_round, np.where(u_peeled, ~v_in_u, ~u_in_v)
        )
        return covered, result & covered & (us != vs)


class RangeBatch:
    """Vectorized ``F^R``: partial layer + per-core-vertex block ranges."""

    def __init__(self, solution) -> None:
        self._partial = PartialBatch(solution._partial)
        blocks = solution._blocks
        self._table = MemberTable(
            {v: sorted(blocks[v][2]) for v in blocks}
        )
        vertices = self._table.vertices
        self._lo = np.asarray([int(blocks[v][0]) for v in vertices],
                              dtype=np.int64)
        self._hi = np.asarray([int(blocks[v][1]) for v in vertices],
                              dtype=np.int64)

    def query(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        pu, pv = self._partial.rows(us), self._partial.rows(vs)
        covered, partial_result = self._partial.query(us, vs, pu, pv)
        rows_u, rows_v = self._table.rows(us), self._table.rows(vs)
        core_pair = (rows_u >= 0) & (rows_v >= 0) & ~covered
        if self._lo.size:
            safe_u = np.maximum(rows_u, 0)
            safe_v = np.maximum(rows_v, 0)
            u_certain = (
                (self._lo[safe_v] <= us) & (us <= self._hi[safe_v])
                & ~self._table.contains(rows_v, us)
            )
            v_certain = (
                (self._lo[safe_u] <= vs) & (vs <= self._hi[safe_u])
                & ~self._table.contains(rows_u, vs)
            )
            core_result = (u_certain | v_certain) & core_pair
        else:
            core_result = np.zeros(len(us), dtype=bool)
        result = np.where(covered, partial_result, core_result)
        return result & (us != vs)


class ModHashBatch:
    """Vectorized ``F^hash``/``F^bit``: partial layer + slot bit matrix."""

    def __init__(self, solution) -> None:
        self._partial = PartialBatch(solution._partial)
        self._m = solution._slot_bits()
        slots = solution._slots
        vertices = sorted(slots)
        self._position = make_position(vertices)
        words = (self._m + 63) // 64
        self._words = np.zeros((len(vertices), words), dtype=np.uint64)
        for row, v in enumerate(vertices):
            slot = slots[v]
            for w in range(words):
                self._words[row, w] = (slot >> (64 * w)) & 0xFFFFFFFFFFFFFFFF

    def _misses(self, rows: np.ndarray, probes: np.ndarray) -> np.ndarray:
        """``probes[i] % m`` not set in the slot of ``rows[i]``."""
        safe = np.maximum(rows, 0)
        bit = probes % self._m
        word = self._words[safe, bit // 64]
        hit = (word >> (bit % 64).astype(np.uint64)) & np.uint64(1)
        return hit == 0

    def query(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        pu, pv = self._partial.rows(us), self._partial.rows(vs)
        covered, partial_result = self._partial.query(us, vs, pu, pv)
        rows_u = rows_from_position(self._position, us)
        rows_v = rows_from_position(self._position, vs)
        core_pair = (rows_u >= 0) & (rows_v >= 0) & ~covered
        if len(self._words):
            core_result = (
                self._misses(rows_u, vs) & self._misses(rows_v, us)
                & core_pair
            )
        else:
            core_result = np.zeros(len(us), dtype=bool)
        result = np.where(covered, partial_result, core_result)
        return result & (us != vs)
