"""Stream VByte codec (Lemire, Kurz & Rupp 2018) with delta coding.

hyb+ compresses each SS-tree node's ``s`` sorted keys with Stream
VByte: a *control byte* holds four 2-bit length codes (1–4 bytes per
integer) and the *data bytes* hold the integers back to back
(Section VI-B1).  Because one control byte describes exactly four
lanes, decoding a whole node is a single byte-shuffle: the control byte
indexes a 256-entry lookup table of ``pshufb`` masks that scatter the
variable-length bytes into four fixed 32-bit lanes.  Differential
coding (``{x1, x2-x1, x3-x2, x4-x3}``) shrinks the data bytes further
and is undone with an in-register shift+add prefix sum.

Both a scalar decoder and the SIMD (LUT + shuffle) decoder are
provided; the ablation benchmark compares them.

Adjacency-blob codec (DESIGN.md §12).  The storage tier compresses
each vertex's sorted ``uint32`` adjacency list with the same Stream
VByte primitives, but under a *blob* layout tuned for the power-law
degree distribution (half the vertices have degree <= 1, so fixed
per-blob headers dominate naive framing):

- ``BLOB_SINGLE`` — one value; the payload is just its minimal
  little-endian bytes (1-4), no control byte: the byte length *is* the
  payload length.
- ``BLOB_GROUP`` — 2..4 values; ``[control][data]`` with no count
  field: lane-length prefix sums are strictly increasing, so the
  payload size determines the value count uniquely.
- ``BLOB_MULTI`` — 5+ values; ``[LEB128 count][controls][data]``.
  The final partial group stores only its active lanes' bytes (no
  padding).

Unlike :func:`encode` (which restarts deltas at every group, one
SS-tree node at a time), blobs delta-code **continuously across the
whole list**: the first value is stored as a delta from zero and every
later value as the gap to its predecessor — the per-group restart
would re-widen one delta in four.

Blob decoding needs no shuffle window.  A value's byte length comes
from its control byte, so the value itself is one little-endian 32-bit
load at its data offset, masked to that length.
:func:`decode_blobs_packed` does this for thousands of blobs at once
(one word gather, one global ``cumsum``); :func:`decode_blob_checked`
is the one-record form, which also checks the blob's structure.
"""

from __future__ import annotations

import numpy as np

from .register import SHUFFLE_ZERO, simd_prefix_sum, simd_shuffle_bytes

__all__ = [
    "GROUP_SIZE",
    "encode_group",
    "encode",
    "decode",
    "decode_group_simd",
    "decode_group_scalar",
    "data_length",
    "BLOB_SINGLE",
    "BLOB_GROUP",
    "BLOB_MULTI",
    "blob_layout",
    "encode_blob",
    "blob_count",
    "decode_blob",
    "decode_blob_checked",
    "decode_blobs_packed",
    "leb128_encode",
    "leb128_decode",
]

#: Values per control byte — fixed at 4 by the 2-bits-per-length format.
GROUP_SIZE = 4


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Precompute per-control-byte lane lengths and shuffle masks."""
    lengths = np.zeros((256, GROUP_SIZE), dtype=np.uint8)
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
#: Per control byte, the data bytes its first 1..4 lanes span.
_LANE_ENDS = [tuple(np.cumsum(row).tolist()) for row in _LANE_LENGTHS]
#: ``_LANE_LENGTHS`` with each row packed into one word, so a bulk
#: lookup is a 1-d ``take`` of 4-byte items.
_LANE_LENGTH_WORDS = _LANE_LENGTHS.view(np.uint32).ravel()


def _byte_length(value: int) -> int:
    """Bytes needed for a uint32 (at least 1, so zero still encodes)."""
    if value < 0 or value >> 32:
        raise ValueError(f"{value} does not fit in an unsigned 32-bit lane")
    return max(1, (value.bit_length() + 7) // 8)


def data_length(control_byte: int, active: int = GROUP_SIZE) -> int:
    """Data bytes consumed by the first ``active`` lanes of a group."""
    if not 0 <= active <= GROUP_SIZE:
        raise ValueError("active must be in 0..4")
    return int(_LANE_LENGTHS[control_byte, :active].sum())


def encode_group(values: list[int], delta: bool = False) -> tuple[int, bytes]:
    """Encode up to 4 integers into ``(control_byte, data_bytes)``.

    With ``delta=True`` the first value is stored raw and the rest as
    differences from their predecessor (values must be ascending).
    """
    if not 1 <= len(values) <= GROUP_SIZE:
        raise ValueError("a Stream VByte group holds 1..4 values")
    stored = list(values)
    if delta:
        for i in range(len(stored) - 1, 0, -1):
            if stored[i] < stored[i - 1]:
                raise ValueError("delta coding needs ascending values")
            stored[i] -= stored[i - 1]
    control = 0
    data = bytearray()
    for lane, value in enumerate(stored):
        size = _byte_length(value)
        control |= (size - 1) << (2 * lane)
        data += value.to_bytes(size, "little")
    return control, bytes(data)


def encode(values: list[int], delta: bool = False) -> tuple[bytes, bytes]:
    """Encode a full sequence as ``(control_bytes, data_bytes)``.

    Values are split into groups of 4; delta coding restarts at every
    group boundary (each SS-tree node is decoded independently).
    """
    controls = bytearray()
    data = bytearray()
    for start in range(0, len(values), GROUP_SIZE):
        control, chunk = encode_group(values[start:start + GROUP_SIZE], delta)
        controls.append(control)
        data += chunk
    return bytes(controls), bytes(data)


def decode_group_simd(control_byte: int, data: bytes, offset: int = 0,
                      delta: bool = False) -> np.ndarray:
    """Decode one group with the shuffle LUT (all 4 lanes at once).

    Returns a 4-lane uint32 register; lanes beyond the group's real
    value count decode as zero-padded garbage the caller must mask.
    """
    window = np.zeros(16, dtype=np.uint8)
    chunk = data[offset:offset + 16]
    window[:len(chunk)] = np.frombuffer(chunk, dtype=np.uint8)
    gathered = simd_shuffle_bytes(window, _SHUFFLE_MASKS[control_byte])
    register = gathered.view("<u4").copy()
    if delta:
        register = simd_prefix_sum(register)
    return register


def decode_group_scalar(control_byte: int, data: bytes, offset: int = 0,
                        delta: bool = False,
                        active: int = GROUP_SIZE) -> list[int]:
    """Reference scalar decoder (one lane at a time) for the ablation."""
    values: list[int] = []
    pos = offset
    for lane in range(active):
        size = int(_LANE_LENGTHS[control_byte, lane])
        values.append(int.from_bytes(data[pos:pos + size], "little"))
        pos += size
    if delta:
        for i in range(1, len(values)):
            values[i] += values[i - 1]
    return values


def decode(controls: bytes, data: bytes, count: int,
           delta: bool = False, simd: bool = True) -> list[int]:
    """Decode ``count`` integers previously produced by :func:`encode`."""
    values: list[int] = []
    offset = 0
    for group_index, control in enumerate(controls):
        remaining = count - group_index * GROUP_SIZE
        active = min(GROUP_SIZE, remaining)
        if active <= 0:
            break
        if simd:
            register = decode_group_simd(control, data, offset, delta)
            values.extend(int(x) for x in register[:active])
        else:
            values.extend(
                decode_group_scalar(control, data, offset, delta, active)
            )
        offset += data_length(control, active)
    return values


# ---------------------------------------------------------------------------
# Adjacency-blob codec (storage v3 records — see module docstring).
# ---------------------------------------------------------------------------

#: Blob layouts.  The storage layer maps each to its own record type, so
#: the layout never needs an in-payload tag byte.
BLOB_SINGLE = 1
BLOB_GROUP = 2
BLOB_MULTI = 3


def blob_layout(count: int) -> int:
    """Layout used for a blob of ``count`` values (``count >= 1``)."""
    if count < 1:
        raise ValueError("a blob holds at least one value")
    if count == 1:
        return BLOB_SINGLE
    if count <= GROUP_SIZE:
        return BLOB_GROUP
    return BLOB_MULTI


def leb128_encode(value: int) -> bytes:
    """Unsigned LEB128 (7 data bits per byte, high bit = continuation)."""
    if value < 0:
        raise ValueError("LEB128 encodes unsigned integers")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def leb128_decode(buf, pos: int = 0) -> tuple[int, int]:
    """Decode one LEB128 integer; returns ``(value, bytes_consumed)``."""
    value = 0
    for i in range(5):  # 5 bytes cover the 32-bit counts blobs can hold
        if pos + i >= len(buf):
            raise ValueError("truncated LEB128 varint")
        byte = buf[pos + i]
        value |= (byte & 0x7F) << (7 * i)
        if not byte & 0x80:
            return value, i + 1
    raise ValueError("LEB128 varint longer than 5 bytes")


#: Smallest count needing 2, 3, 4 and 5 LEB128 bytes.
_LEB128_LIMITS = np.array([1 << 7, 1 << 14, 1 << 21, 1 << 28], dtype=np.intp)


def _leb128_lengths(counts: np.ndarray) -> np.ndarray:
    """Vectorized LEB128 byte lengths for positive ``counts``."""
    return np.searchsorted(_LEB128_LIMITS, counts, side="right") + 1


#: Delta widths: a delta above ``_WIDTH_LIMITS[i]`` needs ``i + 2``
#: bytes, so ``searchsorted`` yields each delta's 2-bit length code.
_WIDTH_LIMITS = np.array([0xFF, 0xFFFF, 0xFFFFFF], dtype=np.uint32)
#: ``_LANE_KEEP[code]`` selects the ``code + 1`` low bytes of a word.
_LANE_KEEP = np.arange(GROUP_SIZE)[None, :] <= np.arange(GROUP_SIZE)[:, None]
#: Bit offset of each lane's length code inside its control byte.
_LANE_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)


def _words(src: np.ndarray) -> np.ndarray:
    """Stride-1 little-endian ``uint32`` view: ``words[i]`` is the word
    loaded from ``src[i:i+4]``.  ``src`` is contiguous and >= 4 bytes."""
    return np.ndarray((src.size - 3,), dtype="<u4", buffer=src,
                      strides=(1,))


def _keep_low_bytes(words: np.ndarray, lengths: np.ndarray) -> None:
    """Mask each loaded word to its value's low ``lengths`` bytes, in
    place, by shifting the bytes of the next values out the top."""
    spare = ((GROUP_SIZE - lengths) << 3).astype(np.uint32)
    words <<= spare
    words >>= spare


def encode_blob(values) -> bytes:
    """Encode a non-decreasing uint32 sequence under its blob layout.

    Deltas run continuously across the whole sequence (first value is a
    delta from zero); the final partial group stores no padding bytes.
    The data bytes are one boolean select over the ``(count, 4)``
    little-endian byte view of the deltas.  Raises ``ValueError`` for
    empty input, values outside uint32, or a decreasing sequence.
    """
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("encode_blob needs a non-empty 1-d sequence")
    count = arr.size
    if count == 1:
        value = int(arr[0])
        return value.to_bytes(_byte_length(value), "little")
    if arr[0] < 0 or np.maximum.reduce(arr) >> 32:
        raise ValueError("blob values must fit in unsigned 32-bit lanes")
    wide = np.empty(count, dtype=np.int64)
    wide[0] = arr[0]
    np.subtract(arr[1:], arr[:-1], out=wide[1:])
    if np.minimum.reduce(wide) < 0:
        raise ValueError("delta coding needs a non-decreasing sequence")
    deltas = wide.astype("<u4")
    codes = np.searchsorted(_WIDTH_LIMITS, deltas)
    padded = np.zeros(-(-count // GROUP_SIZE) * GROUP_SIZE, dtype=np.uint8)
    padded[:count] = codes
    controls = np.add.reduce(padded.reshape(-1, GROUP_SIZE) << _LANE_SHIFTS,
                             axis=1, dtype=np.uint8)
    data = deltas.view(np.uint8).reshape(count, GROUP_SIZE)[_LANE_KEEP[codes]]
    body = controls.tobytes() + data.tobytes()
    if count <= GROUP_SIZE:
        return body
    return leb128_encode(count) + body


def _lane_lengths(layout: int, payload,
                  count: int) -> tuple[int, np.ndarray, np.ndarray]:
    """``(data_start, lengths, ends)`` of a grouped blob of ``count`` values.

    ``data_start`` is the payload offset of the first data byte,
    ``lengths`` each value's byte length and ``ends`` their inclusive
    prefix sum.  Raises ``ValueError`` unless the layout holds
    ``count`` values and the size that layout implies equals the
    payload length — the structural check of log replay.
    """
    size = len(payload)
    if layout == BLOB_GROUP:
        if not 2 <= count <= GROUP_SIZE:
            raise ValueError("group blob must hold 2..4 values")
        header = 0
    elif layout == BLOB_MULTI:
        stored, header = leb128_decode(payload)
        if stored <= GROUP_SIZE:
            raise ValueError("multi-group blob must hold 5+ values")
        if stored != count:
            raise ValueError(
                f"multi-group blob holds {stored} values, expected {count}")
    else:
        raise ValueError(f"unknown blob layout {layout}")
    groups = -(-count // GROUP_SIZE)
    data_start = header + groups
    if data_start > size:
        raise ValueError("blob truncated in control bytes")
    controls = np.frombuffer(payload, dtype=np.uint8, count=groups,
                             offset=header)
    lengths = _LANE_LENGTHS[controls].ravel()[:count]
    ends = np.add.accumulate(lengths, dtype=np.intp)
    if data_start + ends[-1] != size:
        raise ValueError(f"blob payload is {size} bytes, layout implies "
                         f"{data_start + int(ends[-1])}")
    return data_start, lengths, ends


def blob_count(layout: int, payload: bytes) -> int:
    """Value count of an encoded blob, validating its structure.

    Used by log replay, which has only the payload, to reject malformed
    (torn) v3 payloads and to size the decoded record.
    """
    size = len(payload)
    if layout == BLOB_SINGLE:
        if not 1 <= size <= 4:
            raise ValueError("single-value blob payload must be 1..4 bytes")
        return 1
    if layout == BLOB_GROUP:
        if size < 2:
            raise ValueError("group blob needs a control byte and data")
        # Lane-length prefix sums are strictly increasing, so at most
        # one count in 2..4 fits the payload size.
        ends = _LANE_ENDS[payload[0]]
        if size - 1 not in ends[1:]:
            raise ValueError("group blob size matches no lane count in 2..4")
        return ends.index(size - 1) + 1
    if layout != BLOB_MULTI:
        raise ValueError(f"unknown blob layout {layout}")
    count, _ = leb128_decode(payload)
    _lane_lengths(layout, payload, count)
    return count


def decode_blob_checked(layout: int, payload: bytes,
                        count: int) -> np.ndarray:
    """Decode one blob of ``count`` values back to ``uint32``.

    The one-record read path: ``count`` comes from the storage index.
    A single value is one ``int.from_bytes``; a grouped blob is one
    masked word load per value from a 3-byte-padded copy plus a prefix
    sum.  The structure is checked as :func:`blob_count` checks it —
    a payload whose implied size or stored count disagrees raises
    ``ValueError``.
    """
    if layout == BLOB_SINGLE:
        if count != 1 or not 1 <= len(payload) <= 4:
            raise ValueError(
                f"single-value blob of {len(payload)} bytes cannot hold "
                f"{count} values")
        return np.array([int.from_bytes(payload, "little")], dtype=np.uint32)
    data_start, lengths, ends = _lane_lengths(layout, payload, count)
    padded = np.frombuffer(bytes(payload) + b"\0\0\0", dtype=np.uint8)
    ends -= lengths
    ends += data_start
    values = _words(padded)[ends]
    _keep_low_bytes(values, lengths)
    return np.add.accumulate(values, dtype=np.uint32, out=values)


def decode_blob(layout: int, payload: bytes) -> np.ndarray:
    """Decode one blob back to its uint32 values."""
    return decode_blob_checked(layout, payload, blob_count(layout, payload))


def decode_blobs_packed(src: np.ndarray, offsets: np.ndarray,
                        sizes: np.ndarray, counts: np.ndarray,
                        layouts: np.ndarray) -> np.ndarray:
    """Bulk-decode many blobs packed in one uint8 buffer.

    ``src`` holds every payload; blob ``i`` occupies
    ``src[offsets[i]:offsets[i]+sizes[i]]`` with ``counts[i]`` values
    under ``layouts[i]``.  Returns all values concatenated in blob
    order as one uint32 array, with no per-blob Python loop:

    1. each value's byte length comes from its control byte (a single
       value's from its payload size);
    2. a prefix sum of the lengths, restarted at each blob's data
       start, gives every value's data offset;
    3. each value is **one** little-endian 32-bit load at that offset
       through a stride-1 word view of ``src``, masked to its length —
       words that would overhang the buffer end are loaded from the
       last whole word and shifted down instead;
    4. one global wrap-around ``uint32`` prefix sum undoes the delta
       coding, with each blob's first delta pre-corrected so the sum
       restarts from zero at every blob.

    Callers must pass counts from :func:`blob_count` (or the storage
    index); structure is *not* revalidated here.
    """
    src = np.ascontiguousarray(src, dtype=np.uint8)
    offsets = np.asarray(offsets, dtype=np.intp)
    sizes = np.asarray(sizes, dtype=np.intp)
    counts = np.asarray(counts, dtype=np.intp)
    layouts = np.asarray(layouts, dtype=np.intp)
    n = counts.size
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.uint32)
    if src.size < 4:
        src = np.concatenate([src, np.zeros(4 - src.size, dtype=np.uint8)])

    # Control bytes: a single value is treated as a one-lane group whose
    # "control" (its first data byte) is read but overridden below.
    single = layouts == BLOB_SINGLE
    groups = np.where(single, 1, (counts + 3) >> 2)
    header = np.where(layouts == BLOB_MULTI, _leb128_lengths(counts), 0)
    ctrl_start = offsets + header
    data_start = np.where(single, offsets, ctrl_start + groups)
    group_base = np.zeros(n, dtype=np.intp)
    np.cumsum(groups[:-1], out=group_base[1:])
    total_groups = int(group_base[-1] + groups[-1])
    ctrl_pos = np.repeat(ctrl_start - group_base, groups)
    ctrl_pos += np.arange(total_groups, dtype=np.intp)
    lane_lens = (_LANE_LENGTH_WORDS.take(src.take(ctrl_pos))
                 .view(np.uint8).reshape(total_groups, GROUP_SIZE))
    # Drop the lanes past each blob's last value: only a blob's final
    # group holds fewer than four.
    active = np.full(total_groups, GROUP_SIZE)
    active[group_base + groups - 1] = counts - GROUP_SIZE * (groups - 1)
    lengths = lane_lens[np.arange(GROUP_SIZE) < active[:, None]]
    value_start = np.zeros(n, dtype=np.intp)
    np.cumsum(counts[:-1], out=value_start[1:])
    lengths[value_start[single]] = sizes[single]

    # Data offsets: an inclusive prefix sum of the previous value's
    # length, with each blob's first step jumping from the end of the
    # previous blob's data (its payload end) to its own data start.
    step = np.empty(total, dtype=np.intp)
    step[0] = 0
    step[1:] = lengths[:-1]
    ends = offsets + sizes
    step[value_start] += data_start
    step[value_start[1:]] -= ends[:-1]
    pos = np.cumsum(step, out=step)

    # A word loaded within 3 bytes of the buffer end would overhang it:
    # load the last whole word instead and shift the value down.
    limit = src.size - 4
    tail = (np.flatnonzero(pos > limit) if int(ends.max()) > limit + 1
            else None)
    if tail is not None:
        shift = ((pos[tail] - limit) << 3).astype(np.uint32)
        pos[tail] = limit
    deltas = _words(src).take(pos)
    if tail is not None:
        deltas[tail] >>= shift
    _keep_low_bytes(deltas, lengths)

    # Undo the deltas with one global prefix sum.  uint32 arithmetic
    # wraps mod 2**32; every true value fits, so subtracting the
    # previous blob's delta total from each blob's first delta restarts
    # the running sum at zero there exactly.
    blob_totals = np.add.reduceat(deltas, value_start, dtype=np.uint32)
    deltas[value_start[1:]] -= blob_totals[:-1]
    return np.cumsum(deltas, dtype=np.uint32, out=deltas)
