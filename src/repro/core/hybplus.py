"""The hyb+ VEND solution ``(f^hyb+, F^hyb+)`` — Section VI.

hyb+ keeps the hybrid's decodable codes and hash slots but re-encodes
each core vertex's neighbor block as an **array-implemented SS-tree**
compressed with **Stream VByte + differential coding**:

``[flag=1 | type | |B| | head | tail | control bytes | data bytes | hash slot]``

``head``/``tail`` are ``P_B[0]``/``P_B[1]`` stored raw (they bound the
block's range); the interior keys are grouped per SS-tree node, each
group delta-coded and Stream-VByte packed.  An NE-test membership probe
therefore walks ``O(log_s |B|)`` nodes, decoding each with one shuffle
(+ shift/add for the deltas) and testing membership/branching with
lane compares — Algorithm 4.

Compression usually *grows* the hash slot relative to the hybrid's
fixed ``I'``-bit entries, which is where hyb+'s score edge comes from.
Because the compressed size is value-dependent, the encoder verifies
the fit after selection and retries with a smaller block cap when a
pathological block would squeeze out the hash slot entirely.
"""

from __future__ import annotations

from .. import simd
from .base import register_solution
from .bitvector import BitVector
from .blocks import BLOCK_LEFT, BLOCK_MIDDLE, BLOCK_RIGHT, count_hash_misses
from .hybrid import HybridVend, hash_slot
from .sstree import SSTree

import numpy as np

__all__ = ["HybPlusVend"]


@register_solution
class HybPlusVend(HybridVend):
    """Hybrid VEND with SS-tree + Stream VByte core encoding.

    Parameters
    ----------
    scalar:
        SIMD lane count ``s`` (keys per SS-tree node).  4 matches the
        paper's SSE configuration; the ablation sweeps 2–16.
    """

    name = "hyb+"

    def __init__(self, k: int, int_bits: int = 32, id_bits: int | None = None,
                 selection_budget: int | None = 8, scalar: int = 4):
        super().__init__(k, int_bits, id_bits, selection_budget)
        if scalar < 2:
            raise ValueError("scalar value s must be >= 2")
        self.scalar = scalar

    # ------------------------------------------------------------- layout math

    def _groups_of(self, interior: int) -> list[int]:
        """Per-node active key counts for a block interior of given size."""
        if interior <= 0:
            return []
        num_nodes = -(-interior // self.scalar)
        counts = [self.scalar] * (num_nodes - 1)
        counts.append(interior - self.scalar * (num_nodes - 1))
        return counts

    def _estimated_slot_bits(self, block_size: int) -> int:
        """Optimistic slot estimate used during block selection.

        Assumes ~2 data bytes per interior key (typical after delta
        coding); the encoder verifies the true fit afterwards.
        """
        if block_size == 0:
            return self.total_bits - self._core_header
        interior = max(0, block_size - 2)
        control_bytes = sum(-(-a // simd.GROUP_SIZE) for a in self._groups_of(interior))
        bound_bits = self.id_bits if block_size == 1 else 2 * self.id_bits
        payload = bound_bits + 8 * (control_bytes + 2 * interior)
        return self.total_bits - self._core_header - payload

    # ---------------------------------------------------------------- encoding

    def _selection_slot_bits(self, block_size: int) -> int:
        """Selection scores with the optimistic estimate; the encoder
        checks the true fit afterwards."""
        return self._estimated_slot_bits(block_size)

    def _encode_cores(self, lists: list[list[int]],
                      exact: bool = True) -> list[BitVector]:
        """Select every block in one call, then lay each out as a
        compressed SS-tree."""
        codes = []
        for neighbors, choice in zip(lists,
                                     self._select_blocks(lists, self.k_star)):
            code = self._try_encode(neighbors, choice, exact)
            while code is None:
                # The compressed block did not leave a hash bit: shrink
                # this vertex's cap and retry (size 0 always fits, so
                # this terminates).
                choice = self._select_blocks([neighbors], choice.size - 1)[0]
                code = self._try_encode(neighbors, choice, exact)
            codes.append(code)
        return codes

    def _try_encode(self, neighbors: list[int], choice,
                    exact: bool = True) -> BitVector | None:
        members = choice.members(neighbors)
        interior = max(0, len(members) - 2)
        controls = bytearray()
        data = bytearray()
        if interior:
            tree = SSTree(members, self.scalar)
            for keys in tree.node_keys:
                ctrl, chunk = simd.encode(keys, delta=True)
                controls += ctrl
                data += chunk
        if not members:
            bound_bits = 0
        elif len(members) == 1:
            bound_bits = self.id_bits
        else:
            bound_bits = 2 * self.id_bits
        payload_bits = bound_bits + 8 * (len(controls) + len(data))
        slot_offset = self._core_header + payload_bits
        m = self.total_bits - slot_offset
        if m < 1:
            return None
        code = BitVector(self.total_bits)
        code.set_bit(0, 1)
        code.set_bit(self._EXACT_BIT, 1 if exact else 0)
        code.write_field(2, 2, choice.kind)
        code.write_field(4, self.count_bits, len(members))
        offset = self._core_header
        if members:
            code.write_field(offset, self.id_bits, members[0])
            offset += self.id_bits
            if len(members) >= 2:
                code.write_field(offset, self.id_bits, members[-1])
                offset += self.id_bits
        for byte in bytes(controls) + bytes(data):
            code.write_field(offset, 8, byte)
            offset += 8
        code.write_field(slot_offset, m, hash_slot(neighbors, members, m))
        return code

    # ----------------------------------------------------------------- NE-test

    def _parse_core(self, code: BitVector):
        """Decode the self-describing core layout: returns
        ``(kind, size, head, tail, controls, actives, data_offset,
        slot_offset, m)`` — controls as a list of per-node control-byte
        lists aligned with per-node active counts."""
        kind = code.read_field(2, 2)
        size = code.read_field(4, self.count_bits)
        offset = self._core_header
        head = tail = None
        if size >= 1:
            head = code.read_field(offset, self.id_bits)
            offset += self.id_bits
            tail = head
            if size >= 2:
                tail = code.read_field(offset, self.id_bits)
                offset += self.id_bits
        actives = self._groups_of(max(0, size - 2))
        node_controls: list[list[int]] = []
        for active in actives:
            groups = -(-active // simd.GROUP_SIZE)
            node_controls.append(
                [code.read_field(offset + 8 * g, 8) for g in range(groups)]
            )
            offset += 8 * groups
        data_offset = offset
        data_bits = 0
        for controls, active in zip(node_controls, actives):
            remaining = active
            for ctrl in controls:
                lanes = min(simd.GROUP_SIZE, remaining)
                data_bits += 8 * simd.data_length(ctrl, lanes)
                remaining -= lanes
        slot_offset = data_offset + data_bits
        m = self.total_bits - slot_offset
        return (kind, size, head, tail, node_controls, actives,
                data_offset, slot_offset, m)

    def _decode_node(self, code: BitVector, node_controls, actives,
                     data_offset: int, node_index: int) -> np.ndarray:
        """Decode one SS-tree node's keys with the SIMD group decoder."""
        bit = data_offset
        for i in range(node_index):
            remaining = actives[i]
            for ctrl in node_controls[i]:
                lanes = min(simd.GROUP_SIZE, remaining)
                bit += 8 * simd.data_length(ctrl, lanes)
                remaining -= lanes
        keys: list[int] = []
        remaining = actives[node_index]
        for ctrl in node_controls[node_index]:
            lanes = min(simd.GROUP_SIZE, remaining)
            nbytes = simd.data_length(ctrl, lanes)
            raw = bytes(
                code.read_field(bit + 8 * b, 8) for b in range(nbytes)
            )
            register = simd.decode_group_simd(ctrl, raw, 0, delta=True)
            keys.extend(int(x) for x in register[:lanes])
            bit += 8 * nbytes
            remaining -= lanes
        return simd.lanes(keys, width=max(len(keys), 1))

    def _tree_contains(self, code: BitVector, vprime: int, node_controls,
                       actives, data_offset: int) -> bool:
        """Algorithm 4's descent over the array-implemented SS-tree."""
        num_nodes = len(actives)
        node_id: int | None = 1
        while node_id is not None and node_id <= num_nodes:
            register = self._decode_node(
                code, node_controls, actives, data_offset, node_id - 1
            )
            active = actives[node_id - 1]
            if simd.simd_any(simd.simd_compare_eq(register[:active], vprime)):
                return True
            branch = simd.simd_count_lt(register, vprime, active) + 1
            child = (node_id - 1) * (self.scalar + 1) + branch + 1
            node_id = child if child <= num_nodes else None
        return False

    def core_layout(self, code: BitVector) -> tuple[int, list[int], int, int]:
        """Uniform core view: decodes head/tail plus every SS-tree node."""
        (kind, size, head, tail, node_controls, actives,
         data_offset, slot_offset, m) = self._parse_core(code)
        members: list[int] = []
        if size >= 1:
            members.append(head)
        if size >= 2:
            members.append(tail)
        for index in range(len(actives)):
            register = self._decode_node(
                code, node_controls, actives, data_offset, index
            )
            members.extend(int(x) for x in register[:actives[index]])
        return kind, sorted(members), slot_offset, m

    def ne_test(self, vprime: int, code: BitVector) -> bool:
        if code.get_bit(0) == 0:
            return super().ne_test(vprime, code)
        (kind, size, head, tail, node_controls, actives,
         data_offset, slot_offset, m) = self._parse_core(code)
        if size > 0:
            if kind == BLOCK_LEFT:
                in_range = vprime <= tail
            elif kind == BLOCK_RIGHT:
                in_range = vprime >= head
            elif kind == BLOCK_MIDDLE:
                in_range = head <= vprime <= tail
            else:
                in_range = False
            if in_range:
                if vprime == head or vprime == tail:
                    return False
                return not self._tree_contains(
                    code, vprime, node_controls, actives, data_offset
                )
        return code.get_bit(slot_offset + (vprime % m)) == 0

    # ----------------------------------------------------------------- NT-size

    def nt_size(self, code: BitVector) -> int:
        if code.get_bit(0) == 0:
            return super().nt_size(code)
        (kind, size, head, tail, _controls, _actives,
         _data_offset, slot_offset, m) = self._parse_core(code)
        slot = code.read_field(slot_offset, m)
        zero_mask = np.array([(slot >> i) & 1 == 0 for i in range(m)],
                             dtype=bool)
        if size == 0:
            return count_hash_misses(zero_mask, self._max_id)
        if kind == BLOCK_LEFT:
            lo, hi = 1, tail
        elif kind == BLOCK_RIGHT:
            lo, hi = head, self._max_id
        else:
            lo, hi = head, tail
        out = count_hash_misses(zero_mask, self._max_id, lo, hi)
        return (hi - lo + 1 - size) + out
