"""Reference oracle for the adjacency-blob codec: the shuffle-window codec.

This is the blob encoder and bulk decoder ``repro.simd.streamvbyte``
shipped before the masked-word rewrite: the encoder scatters each byte
lane with its own masked pass, and the decoder gathers a 16-byte
``pshufb`` window per control byte through the shuffle LUT, zeroes the
fill lanes and selects the active lanes with a boolean mask.  The
rewritten codec must write the same bytes and decode the same values
for every input; the tests compare the two directly.
"""

from __future__ import annotations

import numpy as np

from repro.simd.register import SHUFFLE_ZERO
from repro.simd.streamvbyte import (
    BLOB_MULTI,
    BLOB_SINGLE,
    GROUP_SIZE,
    leb128_encode,
)


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per-control-byte lane lengths and ``pshufb`` gather masks."""
    lengths = np.zeros((256, GROUP_SIZE), dtype=np.int64)
    shuffle = np.full((256, 16), SHUFFLE_ZERO, dtype=np.uint8)
    for control in range(256):
        pos = 0
        for lane in range(GROUP_SIZE):
            size = ((control >> (2 * lane)) & 0b11) + 1
            lengths[control, lane] = size
            for byte in range(size):
                shuffle[control, lane * 4 + byte] = pos
                pos += 1
    return lengths, shuffle


_LANE_LENGTHS, _SHUFFLE_MASKS = _build_tables()
_SHUFFLE_KEEP = _SHUFFLE_MASKS != SHUFFLE_ZERO
_SHUFFLE_SAFE = np.where(_SHUFFLE_KEEP, _SHUFFLE_MASKS, 0).astype(np.uint8)


def _leb128_lengths(counts: np.ndarray) -> np.ndarray:
    return (
        1
        + (counts >= 1 << 7).astype(np.int64)
        + (counts >= 1 << 14).astype(np.int64)
        + (counts >= 1 << 21).astype(np.int64)
        + (counts >= 1 << 28).astype(np.int64)
    )


def oracle_encode_blob(values) -> bytes:
    """Encode a non-decreasing uint32 sequence, one scatter per lane."""
    arr = np.asarray(values, dtype=np.int64)
    deltas = arr.copy()
    deltas[1:] -= arr[:-1]
    count = int(arr.size)
    if count == 1:
        value = int(arr[0])
        return value.to_bytes(max(1, (value.bit_length() + 7) // 8),
                              "little")
    byte_lens = (
        1
        + (deltas > 0xFF).astype(np.int64)
        + (deltas > 0xFFFF).astype(np.int64)
        + (deltas > 0xFFFFFF).astype(np.int64)
    )
    codes = np.zeros(((count + 3) // 4) * 4, dtype=np.int64)
    codes[:count] = byte_lens - 1
    controls = (
        codes[0::4] | codes[1::4] << 2 | codes[2::4] << 4 | codes[3::4] << 6
    ).astype(np.uint8)
    data = np.zeros(int(byte_lens.sum()), dtype=np.uint8)
    starts = np.zeros(count, dtype=np.int64)
    np.cumsum(byte_lens[:-1], out=starts[1:])
    for shift in range(4):
        lane = byte_lens > shift
        data[starts[lane] + shift] = (deltas[lane] >> (8 * shift)) & 0xFF
    if count <= GROUP_SIZE:
        return controls.tobytes() + data.tobytes()
    return leb128_encode(count) + controls.tobytes() + data.tobytes()


def oracle_decode_blobs_packed(src: np.ndarray, offsets: np.ndarray,
                               sizes: np.ndarray, counts: np.ndarray,
                               layouts: np.ndarray) -> np.ndarray:
    """Bulk decode through one 16-byte shuffle window per group."""
    src = np.asarray(src, dtype=np.uint8)
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    layouts = np.asarray(layouts, dtype=np.int64)
    out = np.empty(int(counts.sum()), dtype=np.uint32)
    value_start = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=value_start[1:])

    single = layouts == BLOB_SINGLE
    if single.any():
        s_off = offsets[single]
        s_size = sizes[single]
        vals = np.zeros(s_off.size, dtype=np.int64)
        for shift in range(4):
            m = s_size > shift
            vals[m] |= src[s_off[m] + shift].astype(np.int64) << (8 * shift)
        out[value_start[single]] = vals.astype(np.uint32)

    grouped = ~single
    if grouped.any():
        g_off = offsets[grouped]
        g_count = counts[grouped]
        g_layout = layouts[grouped]
        groups = (g_count + 3) // 4
        header = np.where(g_layout == BLOB_MULTI, _leb128_lengths(g_count), 0)
        ctrl_start = g_off + header
        data_start = ctrl_start + groups
        total_groups = int(groups.sum())
        blob_of = np.repeat(np.arange(g_off.size, dtype=np.int64), groups)
        group_base = np.zeros(g_off.size, dtype=np.int64)
        np.cumsum(groups[:-1], out=group_base[1:])
        within = np.arange(total_groups, dtype=np.int64) - np.repeat(
            group_base, groups)
        controls = src[ctrl_start[blob_of] + within]
        lane_lens = _LANE_LENGTHS[controls]
        active = np.minimum(g_count[blob_of] - 4 * within, 4)
        lane_mask = np.arange(GROUP_SIZE)[None, :] < active[:, None]
        consumed = (lane_lens * lane_mask).sum(axis=1)
        data_cum = np.cumsum(consumed) - consumed
        data_off = data_cum - np.repeat(data_cum[group_base], groups)
        group_data = data_start[blob_of] + data_off
        gather_idx = group_data[:, None] + _SHUFFLE_SAFE[controls]
        gather_idx = np.minimum(gather_idx, src.size - 1)
        gathered = src[gather_idx]
        gathered *= _SHUFFLE_KEEP[controls]
        lanes32 = (
            np.ascontiguousarray(gathered)
            .view("<u4")
            .reshape(total_groups, GROUP_SIZE)
        )
        deltas = lanes32[lane_mask]
        summed = np.cumsum(deltas, dtype=np.int64)
        first = np.zeros(g_off.size, dtype=np.int64)
        np.cumsum(g_count[:-1], out=first[1:])
        blob_excl = summed[first] - deltas[first]
        vals = summed - np.repeat(blob_excl, g_count)
        targets = np.repeat(value_start[grouped], g_count) + (
            np.arange(int(g_count.sum()), dtype=np.int64)
            - np.repeat(first, g_count)
        )
        out[targets] = vals.astype(np.uint32)
    return out
