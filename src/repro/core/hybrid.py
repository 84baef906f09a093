"""The formal hybrid VEND solution ``(f^hyb, F^hyb)`` — Section V.

Every vertex owns one ``k·I``-bit code (`BitVector`).  Bit 0 is the
flag of Section V-B:

**Decodable codes** (``flag = 0``, the peeled vertices ``V^α_{k*+1}``)
store an explicit count and up to ``k*`` neighbor IDs of ``I'`` bits
each — the residual neighbor set, recoverable exactly.

**Non-decodable codes** (``flag = 1``, core vertices) store a 2-bit
block type, the block size ``|B|``, the block's IDs, and use every
remaining bit as a modular hash slot (``v' mod m``) over the rest of
the neighbors.  Block selection maximizes NT-size via
:func:`repro.core.blocks.select_block`.

``F^hyb`` follows Theorem 1: equal flags need both NE-tests to pass;
for mixed flags the decodable side's exact test alone decides.

Three documented deviations from the paper's sketch (see DESIGN.md):

1. Decodable codes carry an explicit ``ceil(log2(k*+1))``-bit count
   field so the encoded set is recoverable without sentinels.
2. Every code carries an *exactness* bit (bit 1) asserting "all of
   this vertex's current flag-1 neighbors are recorded here".  It is
   true after a static build and after complete rebuilds, and makes a
   single passing NE-test conclusive: the mixed-flag one-sided rule of
   Theorem 1 for decodable codes (where the bit is the α-complete
   flag), and — beyond the paper — an OR-test for core/core pairs that
   strictly outperforms Theorem 1's conjunction.
3. Maintenance preserves soundness of those one-sided tests: when a
   full decodable vertex converts to non-decodable, a neighbor whose
   vector does not record it would silently permit a false positive
   under the paper's formulation.  We demote the exactness bit of the
   affected vectors at conversion time (O(k*), no storage access) and
   fall back to the always-sound two-sided conjunction, which relies
   only on the maintained "every edge is recorded in at least one
   endpoint's vector" invariant.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph, peel
from ..obs import MaintenanceStats
from .base import NeighborFetch, VendSolution, endpoint_arrays, register_solution
from .bitvector import BitVector
from .blocks import (
    BLOCK_LEFT,
    BLOCK_MIDDLE,
    BLOCK_RIGHT,
    count_hash_misses,
    select_blocks,
)

__all__ = ["HybridVend", "IdCapacityError", "MaintenanceStats"]


def hash_slot(neighbors: list[int], members: list[int], m: int) -> int:
    """The ``m``-bit hash slot over the neighbors outside the block:
    bit ``v' mod m`` is set for each."""
    member_set = set(members)
    slot = 0
    for residue in {vid % m for vid in neighbors if vid not in member_set}:
        slot |= 1 << residue
    return slot


class IdCapacityError(RuntimeError):
    """A vertex ID no longer fits in ``I'`` bits; rebuild the index.

    The paper amortizes this over graph-doubling (Section V-D3): when
    raised, call :meth:`HybridVend.build` against the current graph.
    """


@register_solution
class HybridVend(VendSolution):
    """Hybrid range+hash VEND with full dynamic maintenance.

    Parameters
    ----------
    k, int_bits:
        Dimension count and bits per dimension (code = ``k·I`` bits).
    id_bits:
        Bits per stored vertex ID (``I'``).  Default: just enough for
        the build-time ID universe, leaving maximal hash-slot space.
    selection_budget:
        Shortlist size for block selection: per block size, exact
        NT-size is computed for this many widest-coverage windows
        (None = the paper's exhaustive sliding-window selection).
    """

    name = "hybrid"

    #: Full dynamic maintenance via the insert/delete hooks below.
    supports_maintenance = True

    #: Bit 1 is the *exactness* bit in both layouts: decodable codes
    #: use it as the α-complete flag, core codes as the record-all-
    #: flag-1-neighbors flag (see module docstring).
    _EXACT_BIT = 1

    def __init__(self, k: int, int_bits: int = 32, id_bits: int | None = None,
                 selection_budget: int | None = 8):
        super().__init__(k, int_bits)
        self._requested_id_bits = id_bits
        self.selection_budget = selection_budget
        self.stats = MaintenanceStats(method=self.name)
        self._codes: dict[int, BitVector] = {}
        # Vertices whose codes changed since the batch snapshot was
        # published; the next batch refills just their rows.
        self._dirty_rows: set[int] = set()
        self._max_id = 0
        # Layout fields; finalized by _configure_layout at build time.
        self.id_bits = 0
        self.count_bits = 0
        self.k_star = 0
        self._core_header = 0
        self._dec_header = 0

    # ------------------------------------------------------------------ layout

    def _configure_layout(self, max_id: int) -> None:
        needed = max(1, int(max_id).bit_length())
        id_bits = self._requested_id_bits or needed
        if id_bits < needed:
            raise ValueError(
                f"id_bits={id_bits} cannot address vertex IDs up to {max_id}"
            )
        if id_bits > self.int_bits:
            raise ValueError(f"id_bits must be <= int_bits ({self.int_bits})")
        raw_capacity = (self.total_bits - 1) // id_bits
        if raw_capacity < 1:
            raise ValueError(
                f"k={self.k} gives a {self.total_bits}-bit code that cannot "
                f"hold one {id_bits}-bit ID"
            )
        count_bits = max(1, raw_capacity.bit_length())
        core_header = 4 + count_bits  # flag + exact + type + |B| field
        k_star = (self.total_bits - core_header - 1) // id_bits
        if k_star < 1:
            raise ValueError(
                f"k={self.k}, id_bits={id_bits}: no room for even one "
                "block entry plus a hash bit"
            )
        self.id_bits = id_bits
        self.count_bits = count_bits
        self.k_star = k_star
        self._core_header = core_header
        self._dec_header = 2 + count_bits  # flag + α-complete + count
        self._max_id = max_id

    def _slot_bits(self, block_size: int) -> int:
        return self.total_bits - self._core_header - block_size * self.id_bits

    # ------------------------------------------------------------------- build

    def build(self, graph: Graph) -> None:
        """Encode all vertices: peel at ``k*+1``, then encode the core."""
        self._invalidate_batch()
        self._configure_layout(max(graph.max_vertex_id, 1))
        self._codes.clear()
        self.stats.reset()
        result = peel(graph, self.k_star + 1)
        for v, neighbors in result.residual_neighbors.items():
            self._codes[v] = self._encode_decodable(neighbors)
        core = list(result.core_vertices)
        codes = self._encode_cores([result.core_adjacency[v] for v in core])
        self._codes.update(zip(core, codes))

    # -- encoders ---------------------------------------------------------------

    def _encode_decodable(self, ids: list[int], alpha: bool = True) -> BitVector:
        """Flag 0 + α bit + count + explicit sorted IDs (≤ ``k*`` of them)."""
        if len(ids) > self.k_star:
            raise ValueError(
                f"{len(ids)} IDs exceed decodable capacity {self.k_star}"
            )
        code = BitVector(self.total_bits)
        code.set_bit(self._EXACT_BIT, 1 if alpha else 0)
        code.write_field(2, self.count_bits, len(ids))
        offset = self._dec_header
        for vid in sorted(ids):
            code.write_field(offset, self.id_bits, vid)
            offset += self.id_bits
        return code

    def _encode_core(self, neighbors: list[int],
                     exact: bool = True) -> BitVector:
        """Flag 1 + best block + hash slot over the remaining neighbors.

        ``exact`` asserts that every current flag-1 neighbor is in
        ``neighbors`` (true for static builds and complete rebuilds),
        enabling the conclusive one-sided core test.
        """
        if not neighbors:
            raise ValueError("core encoding needs at least one neighbor")
        return self._encode_cores([sorted(neighbors)], exact)[0]

    def _encode_cores(self, lists: list[list[int]],
                      exact: bool = True) -> list[BitVector]:
        """Core codes of sorted neighbor lists, every block selected in
        one batched call."""
        choices = self._select_blocks(lists, self.k_star)
        return [self._materialize_core(neighbors, choice, exact)
                for neighbors, choice in zip(lists, choices)]

    def _select_blocks(self, lists: list[list[int]], max_size: int):
        """Block selection hook for build and maintenance alike (the
        ablation overrides this)."""
        return select_blocks(
            lists, self._max_id, self._selection_slot_bits,
            max_size=max_size, budget=self.selection_budget,
        )

    def _selection_slot_bits(self, block_size: int) -> int:
        """Slot size block selection scores a block size with."""
        return self._slot_bits(block_size)

    def _materialize_core(self, neighbors: list[int], choice,
                          exact: bool) -> BitVector:
        """Write a chosen block + hash slot into a fresh core code."""
        code = BitVector(self.total_bits)
        code.set_bit(0, 1)
        code.set_bit(self._EXACT_BIT, 1 if exact else 0)
        code.write_field(2, 2, choice.kind)
        code.write_field(4, self.count_bits, choice.size)
        offset = self._core_header
        members = choice.members(neighbors)
        for vid in members:
            code.write_field(offset, self.id_bits, vid)
            offset += self.id_bits
        m = self._slot_bits(choice.size)
        code.write_field(offset, m, hash_slot(neighbors, members, m))
        return code

    def _build_code(self, ids: list[int], complete: bool) -> BitVector:
        """Re-encode a neighbor set.

        ``complete`` asserts that *all* current neighbors are present,
        which is what permits a (fully trusted) decodable code; filtered
        sets must stay non-decodable regardless of size.
        """
        ids = sorted(set(ids))
        if complete and len(ids) <= self.k_star:
            return self._encode_decodable(ids)
        return self._encode_core(ids, exact=complete)

    # -- decoding helpers ---------------------------------------------------------

    def is_decodable(self, v: int) -> bool:
        """True when ``f^hyb(v)`` is a flag-0 (fully recoverable) code."""
        return self._codes[v].get_bit(0) == 0

    def decoded_ids(self, v: int) -> list[int]:
        """Recover the ID list of a decodable code."""
        code = self._codes[v]
        if code.get_bit(0):
            raise ValueError(f"f^hyb({v}) is non-decodable")
        return self._read_ids(code, self._dec_header,
                              code.read_field(2, self.count_bits))

    def _read_ids(self, code: BitVector, offset: int, count: int) -> list[int]:
        ids = []
        for _ in range(count):
            ids.append(code.read_field(offset, self.id_bits))
            offset += self.id_bits
        return ids

    # ------------------------------------------------------------------ NE-test

    def ne_test(self, vprime: int, code: BitVector) -> bool:
        """Does ``vprime`` pass the NE-test of ``code`` (Definition 8)?"""
        if code.get_bit(0) == 0:
            count = code.read_field(2, self.count_bits)
            return vprime not in self._read_ids(code, self._dec_header, count)
        kind = code.read_field(2, 2)
        size = code.read_field(4, self.count_bits)
        members = self._read_ids(code, self._core_header, size)
        slot_offset = self._core_header + size * self.id_bits
        m = self.total_bits - slot_offset
        if size > 0:
            lo, hi = members[0], members[-1]
            if kind == BLOCK_LEFT:
                in_range = vprime <= hi
            elif kind == BLOCK_RIGHT:
                in_range = vprime >= lo
            elif kind == BLOCK_MIDDLE:
                in_range = lo <= vprime <= hi
            else:  # a sized BLOCK_EMPTY cannot be produced; stay safe
                in_range = False
            if in_range:
                return vprime not in members
        return code.get_bit(slot_offset + (vprime % m)) == 0

    def core_layout(self, code: BitVector) -> tuple[int, list[int], int, int]:
        """Uniform view of a flag-1 code: ``(kind, sorted members,
        slot bit offset, slot size)`` — used by the columnar snapshot."""
        if code.get_bit(0) == 0:
            raise ValueError("core_layout needs a non-decodable code")
        kind = code.read_field(2, 2)
        size = code.read_field(4, self.count_bits)
        members = self._read_ids(code, self._core_header, size)
        slot_offset = self._core_header + size * self.id_bits
        return kind, members, slot_offset, self.total_bits - slot_offset

    def is_nonedge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        cu = self._codes.get(u)
        cv = self._codes.get(v)
        if cu is None or cv is None:
            return False
        flag_u, flag_v = cu.get_bit(0), cv.get_bit(0)
        if flag_u != flag_v:
            if flag_u == 0:
                dec_vertex, dec_code, core_vertex, core_code = u, cu, v, cv
            else:
                dec_vertex, dec_code, core_vertex, core_code = v, cv, u, cu
            if dec_code.get_bit(self._EXACT_BIT):
                # α-complete: the exact one-sided test of Theorem 1.
                return self.ne_test(core_vertex, dec_code)
            return (self.ne_test(core_vertex, dec_code)
                    and self.ne_test(dec_vertex, core_code))
        if flag_u == 1:
            # Both core.  An exact core code records every flag-1
            # neighbor, so a single passing NE-test is conclusive —
            # strictly more detections than Theorem 1's conjunction,
            # which remains the fallback once exactness is demoted.
            if cu.get_bit(self._EXACT_BIT) and self.ne_test(v, cu):
                return True
            if cv.get_bit(self._EXACT_BIT) and self.ne_test(u, cv):
                return True
        return self.ne_test(v, cu) and self.ne_test(u, cv)

    def batch_snapshot(self):
        """The columnar snapshot, built or patched now (``None`` unbuilt).

        The snapshot is built lazily after ``build`` or a change of the
        vertex set drops it.  When maintenance only rewrote existing
        codes, the next call publishes a patched copy with just those
        rows refilled.  Direct code mutation outside the hooks requires
        an explicit ``_invalidate_batch``.
        """
        if self.id_bits == 0 or not self._codes:
            return None
        index = self._batch_index
        if index is None:
            from .columnar import ColumnarIndex  # deferred: avoids cycle
            index = self._batch_index = ColumnarIndex(self)
        elif self._dirty_rows:
            dirty, self._dirty_rows = self._dirty_rows, set()
            index = self._batch_index = index.patched(self, sorted(dirty))
        return index

    def is_nonedge_batch(self, pairs_u, pairs_v=None) -> np.ndarray:
        """Vectorized ``F^hyb`` over :meth:`batch_snapshot`."""
        us, vs = endpoint_arrays(pairs_u, pairs_v)
        index = self.batch_snapshot()
        if index is None:
            return np.zeros(len(us), dtype=bool)  # unbuilt: nothing certified
        return index.query_batch(us, vs)

    def _invalidate_batch(self, *vertices: int) -> None:
        """Called bare, drop the batch snapshot (a build, or a vertex
        added or removed).  Given the vertices whose codes changed, mark
        only their rows for the next batch to refill."""
        if vertices and self._batch_index is not None:
            self._dirty_rows.update(vertices)
        else:
            super()._invalidate_batch()
            self._dirty_rows.clear()

    # ---------------------------------------------------------------- NT-size

    def nt_size(self, code: BitVector) -> int:
        """Number of universe vertices passing the code's NE-test."""
        if code.get_bit(0) == 0:
            count = code.read_field(2, self.count_bits)
            return self._max_id - count
        kind = code.read_field(2, 2)
        size = code.read_field(4, self.count_bits)
        slot_offset = self._core_header + size * self.id_bits
        m = self.total_bits - slot_offset
        slot = code.read_field(slot_offset, m)
        zero_mask = np.array([(slot >> i) & 1 == 0 for i in range(m)],
                             dtype=bool)
        if size == 0:
            return count_hash_misses(zero_mask, self._max_id)
        members = self._read_ids(code, self._core_header, size)
        if kind == BLOCK_LEFT:
            lo, hi = 1, members[-1]
        elif kind == BLOCK_RIGHT:
            lo, hi = members[0], self._max_id
        else:
            lo, hi = members[0], members[-1]
        out = count_hash_misses(zero_mask, self._max_id, lo, hi)
        return (hi - lo + 1 - size) + out

    # -------------------------------------------------------------- maintenance

    def insert_vertex(self, v: int) -> None:
        """Allocate an all-zero (empty decodable, α-complete) code."""
        if v.bit_length() > self.id_bits:
            raise IdCapacityError(
                f"vertex {v} needs {v.bit_length()} ID bits but I'={self.id_bits}; "
                "rebuild the encoding against the current graph"
            )
        if v not in self._codes:
            self._invalidate_batch()
            self._codes[v] = self._encode_decodable([])
            self._max_id = max(self._max_id, v)

    def insert_edge(self, u: int, v: int, fetch: NeighborFetch) -> None:
        """Adjust codes so ``F^hyb(u, v)`` can no longer report NEpair."""
        self.insert_vertex(u)
        self.insert_vertex(v)
        if not self.is_nonedge(u, v):
            self.stats.inc("inserts_noop")
            return
        self._invalidate_batch(u, v)
        cu, cv = self._codes[u], self._codes[v]
        u_dec, v_dec = cu.get_bit(0) == 0, cv.get_bit(0) == 0
        # Fast path: an unfilled decodable vector absorbs the new ID.
        for owner, other, code, dec in ((u, v, cu, u_dec), (v, u, cv, v_dec)):
            if dec and code.read_field(2, self.count_bits) < self.k_star:
                ids = self.decoded_ids(owner)
                alpha = bool(code.get_bit(self._EXACT_BIT))
                self._codes[owner] = self._encode_decodable(
                    ids + [other], alpha=alpha
                )
                self.stats.inc("inserts_fast")
                return
        if u_dec and v_dec:  # both full decodable: rebuild the better one
            ids_u = self.decoded_ids(u)
            ids_v = self.decoded_ids(v)
            cand_u = self._build_code(ids_u + [v], complete=False)
            cand_v = self._build_code(ids_v + [u], complete=False)
            if self.nt_size(cand_u) >= self.nt_size(cand_v):
                self._convert_to_core(u, cand_u, ids_u, partner=v)
            else:
                self._convert_to_core(v, cand_v, ids_v, partner=u)
        elif u_dec or v_dec:  # one full decodable, one core: avoid storage
            owner, other = (u, v) if u_dec else (v, u)
            ids = self.decoded_ids(owner)
            cand = self._build_code(ids + [other], complete=False)
            self._convert_to_core(owner, cand, ids, partner=other)
        else:  # both non-decodable: filtered reconstruction (Section V-D1)
            cand_u = self._build_code(
                self._filtered_neighbors(u, fetch) + [v], complete=False
            )
            cand_v = self._build_code(
                self._filtered_neighbors(v, fetch) + [u], complete=False
            )
            if self.nt_size(cand_u) >= self.nt_size(cand_v):
                self._codes[u] = cand_u
            else:
                self._codes[v] = cand_v
        self.stats.inc("inserts_rebuild")
        self._demote_lingering_claims(u, v)

    def delete_edge(self, u: int, v: int, fetch: NeighborFetch) -> None:
        """Re-open the chance to detect the now-deleted pair: the
        storage-free :meth:`unrecord_edge`, then a complete re-encode of
        the core endpoints it returns."""
        stale = self.unrecord_edge(u, v)
        self.reencode({w: [x for x in fetch(w) if x not in (u, v)]
                       for w in stale})

    def unrecord_edge(self, u: int, v: int) -> list[int]:
        """Storage-free half of :meth:`delete_edge`.

        A decodable endpoint drops the other endpoint from its explicit
        list at once.  Returns the core endpoints whose codes still
        record the deleted neighbor.  Those codes now record a superset
        of the live edges, so every verdict stays sound until
        :meth:`reencode` gives them a complete re-encode.
        """
        stale: list[int] = []
        rewritten = [owner for owner, gone in ((u, v), (v, u))
                     if self._scrub(owner, gone, stale)]
        if rewritten:
            self._invalidate_batch(*rewritten)
        touched = len(rewritten) + len(stale)
        if touched:
            self.stats.inc("deletes_rebuild", touched)
        else:
            self.stats.inc("deletes_noop")
        return stale

    def delete_vertex(self, v: int, fetch: NeighborFetch) -> None:
        """Clear ``f^hyb(v)`` and scrub ``v`` from affected neighbors:
        the storage-free :meth:`unrecord_vertex`, then one batched
        re-encode of the core neighbors it returns."""
        if v not in self._codes:
            return
        stale = self.unrecord_vertex(v, fetch(v))
        self.reencode({u: [w for w in fetch(u) if w != v] for u in stale})

    def unrecord_vertex(self, v: int, neighbors) -> list[int]:
        """Storage-free half of :meth:`delete_vertex`: drop ``f^hyb(v)``,
        drop ``v`` from its decodable neighbors' lists, and return the
        core neighbors whose codes still record ``v`` (sound supersets
        until :meth:`reencode`, as in :meth:`unrecord_edge`)."""
        if v not in self._codes:
            return []
        self._invalidate_batch()
        stale: list[int] = []
        touched = sum(self._scrub(u, v, stale) for u in neighbors)
        touched += len(stale)
        if touched:
            self.stats.inc("vertex_rebuilds", touched)
        del self._codes[v]
        return stale

    def reencode(self, adjacency) -> None:
        """Complete re-encode of many vertices from their neighbor sets.

        ``adjacency`` maps each vertex to its *complete* current
        neighbor set, which is what permits a (fully trusted) decodable
        code; every core block is selected in one batched call.
        """
        if not adjacency:
            return
        core, lists = [], []
        for v, ids in adjacency.items():
            ids = sorted(set(ids))
            if len(ids) <= self.k_star:
                self._codes[v] = self._encode_decodable(ids)
            else:
                core.append(v)
                lists.append(ids)
        if lists:
            self._codes.update(zip(core, self._encode_cores(lists)))
        self._invalidate_batch(*adjacency)

    # -- maintenance internals ----------------------------------------------------

    def _scrub(self, owner: int, gone: int, stale: list[int]) -> bool:
        """Remove ``gone`` from ``f(owner)`` as far as that needs no
        storage.  A decodable code is rewritten, and True returned (the
        caller invalidates its row); a core code that still records
        ``gone`` is appended to ``stale``."""
        code = self._codes.get(owner)
        if code is None:
            return False
        if code.get_bit(0) == 0:
            ids = self.decoded_ids(owner)
            if gone not in ids:
                return False
            ids.remove(gone)
            alpha = bool(code.get_bit(self._EXACT_BIT))
            self._codes[owner] = self._encode_decodable(ids, alpha=alpha)
            return True
        if not self.ne_test(gone, code):
            stale.append(owner)
        return False

    def _convert_to_core(self, owner: int, new_code: BitVector,
                         old_ids: list[int], partner: int) -> None:
        """Flip ``owner`` from decodable to non-decodable.

        ``owner`` is now a flag-1 vertex, so any neighbor whose *exact*
        vector does not record ``owner`` loses the exactness its
        one-sided test relies on (decodable α bit and core exact bit
        alike) and is demoted to the conjunction fallback.  Every such
        neighbor appears in ``old_ids + [partner]``: vectors of
        neighbors peeled before ``owner`` always recorded it.
        """
        self._codes[owner] = new_code
        for w in (*old_ids, partner):
            code_w = self._codes.get(w)
            if code_w is None or not code_w.get_bit(self._EXACT_BIT):
                continue
            if code_w.get_bit(0) == 0:
                recorded = owner in self.decoded_ids(w)
            else:
                recorded = not self.ne_test(owner, code_w)
            if not recorded:
                code_w.set_bit(self._EXACT_BIT, 0)
                self._invalidate_batch(w)
                self.stats.inc("alpha_demotions")

    def _demote_lingering_claims(self, u: int, v: int) -> None:
        """Final insertion step: while any one-sided exact test still
        claims the (now existing) edge is an NEpair, demote that
        vector's exactness.  The conjunction fallback is then correct
        because the rebuilt side records the edge."""
        while self.is_nonedge(u, v):
            for owner, other in ((u, v), (v, u)):
                code = self._codes[owner]
                if code.get_bit(self._EXACT_BIT) and self.ne_test(other, code):
                    code.set_bit(self._EXACT_BIT, 0)
                    self.stats.inc("alpha_demotions")
                    break
            else:
                raise RuntimeError(
                    f"insert_edge({u}, {v}) left the pair claimed as an "
                    "NEpair with no demotable exactness bit"
                )

    def _filtered_neighbors(self, v: int, fetch: NeighborFetch) -> list[int]:
        """Neighbors whose own codes fail to exclude ``v`` (Section V-D1):
        only these must be re-encoded into ``f^hyb(v)`` for soundness."""
        kept = []
        for w in fetch(v):
            code_w = self._codes.get(w)
            if code_w is None or self.ne_test(v, code_w):
                kept.append(w)
        return kept

    # ------------------------------------------------------------------- misc

    def memory_bytes(self) -> int:
        return len(self._codes) * (self.total_bits // 8)

    @property
    def num_codes(self) -> int:
        return len(self._codes)

    def code_of(self, v: int) -> BitVector:
        """The raw code of ``v`` (primarily for tests/inspection)."""
        return self._codes[v]
