"""The masked-word blob codec against the shuffle-window oracle.

``tests/blob_oracle.py`` keeps the codec the storage tier shipped
before: a scatter pass per byte lane to encode, a 16-byte ``pshufb``
window per control byte to decode.  Stored logs are written by that
encoder, so the rewritten ``encode_blob`` must write the same bytes,
and both decoders must return the same values for every layout, every
packing of blobs in a buffer and every record position in it.
"""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dataset_names, load
from repro.simd import (
    BLOB_GROUP,
    BLOB_MULTI,
    BLOB_SINGLE,
    blob_count,
    blob_layout,
    decode_blob_checked,
    decode_blobs_packed,
    encode_blob,
)

from .blob_oracle import oracle_decode_blobs_packed, oracle_encode_blob

U32_MAX = 2**32 - 1

#: Deltas of every byte width, so blobs mix 1- to 4-byte lanes.
_gap = st.one_of(
    st.integers(0, 0xFF),
    st.integers(0x100, 0xFFFF),
    st.integers(0x10000, 0xFFFFFF),
    st.integers(0x1000000, U32_MAX),
)

#: Sorted uint32 lists built from mixed-width gaps (the prefix that
#: stays within uint32).
blob_values = st.lists(_gap, min_size=1, max_size=40).map(
    lambda gaps: [v for v in accumulate(gaps) if v <= U32_MAX])


def _pack(blobs, gaps, order):
    """``(src, offsets, sizes, counts, layouts, values)`` with blob
    ``order[j]`` placed j-th in the buffer after ``gaps[j]`` filler
    bytes; the arrays stay in blob order, so offsets are unsorted."""
    payloads = [encode_blob(v) for v in blobs]
    offsets = [0] * len(blobs)
    parts, pos = [], 0
    for j, i in enumerate(order):
        parts.append(b"\xa5" * gaps[j])
        pos += gaps[j]
        offsets[i] = pos
        parts.append(payloads[i])
        pos += len(payloads[i])
    src = np.frombuffer(b"".join(parts), dtype=np.uint8)
    sizes = [len(p) for p in payloads]
    counts = [len(v) for v in blobs]
    layouts = [blob_layout(c) for c in counts]
    return (src, np.asarray(offsets), np.asarray(sizes), np.asarray(counts),
            np.asarray(layouts), np.concatenate(
                [np.asarray(v, dtype=np.uint32) for v in blobs]))


def _assert_bulk_matches(src, offsets, sizes, counts, layouts, values):
    got = decode_blobs_packed(src, offsets, sizes, counts, layouts)
    assert got.dtype == np.uint32
    assert np.array_equal(got, values)
    assert np.array_equal(
        oracle_decode_blobs_packed(src, offsets, sizes, counts, layouts),
        values)


@settings(max_examples=300, deadline=None)
@given(blob_values)
def test_encode_is_byte_identical_to_oracle(values):
    expected = oracle_encode_blob(values)
    assert encode_blob(values) == expected
    assert encode_blob(np.asarray(values, dtype="<u4")) == expected


@settings(max_examples=150, deadline=None)
@given(st.lists(blob_values, min_size=1, max_size=12), st.data())
def test_bulk_decode_matches_oracle(blobs, data):
    """Mixed layouts at unsorted, non-contiguous offsets; the last
    placed blob ends at the last byte of ``src``."""
    order = data.draw(st.permutations(range(len(blobs))))
    gaps = data.draw(st.lists(st.integers(0, 5), min_size=len(blobs),
                              max_size=len(blobs)))
    _assert_bulk_matches(*_pack(blobs, gaps, order))


@pytest.mark.parametrize("values", [
    [0], [0xAB], [0x1234], [0xABCDEF], [U32_MAX],
    [1, 2], [7, 300, 70_000], [0, 1, 2, U32_MAX],
    list(range(5)), [U32_MAX - 9 + i for i in range(9)],
])
def test_record_ending_at_last_byte(values):
    """Every layout as the final record of ``src``: the words of its
    last values overhang the buffer and must be clamped and shifted."""
    filler = [5, 6, 7, 8, 9, 10]
    for lead in range(4):  # every alignment of the record's start
        blobs = [filler[:lead + 1], values] if lead else [values]
        _assert_bulk_matches(*_pack(blobs, [0] * len(blobs),
                                    list(range(len(blobs)))))


@pytest.mark.parametrize("values", [[0], [0x12], [0x1234], [0x123456],
                                    [3, 4], [0, 0]])
def test_src_shorter_than_a_word(values):
    packed = _pack([values], [0], [0])
    assert packed[0].size < 4
    _assert_bulk_matches(*packed)


def test_u32_max_in_every_layout():
    for values in ([U32_MAX], [0, U32_MAX], [U32_MAX] * 4,
                   [0, 0, 0, U32_MAX, U32_MAX], [U32_MAX] * 9):
        payload = encode_blob(values)
        assert payload == oracle_encode_blob(values)
        layout = blob_layout(len(values))
        assert decode_blob_checked(layout, payload,
                                   len(values)).tolist() == values
        _assert_bulk_matches(*_pack([values], [0], [0]))


@pytest.mark.parametrize("count", [127, 128, 16383, 16384])
def test_leb128_count_boundaries(count):
    """The count header grows from 1 to 2 bytes at 128 and to 3 bytes
    at 16384; control and data offsets move with it."""
    rng = np.random.default_rng(count)
    values = np.sort(rng.integers(0, 1 << 26, count)).tolist()
    payload = encode_blob(values)
    assert payload == oracle_encode_blob(values)
    assert blob_count(BLOB_MULTI, payload) == count
    assert decode_blob_checked(BLOB_MULTI, payload,
                               count).tolist() == values
    _assert_bulk_matches(*_pack([[9], values, [1, 2]], [1, 2, 0], [2, 0, 1]))


@settings(max_examples=200, deadline=None)
@given(blob_values)
def test_one_record_decode_matches_bulk(values):
    payload = encode_blob(values)
    layout = blob_layout(len(values))
    one = decode_blob_checked(layout, payload, len(values))
    bulk = decode_blobs_packed(np.frombuffer(payload, dtype=np.uint8),
                               [0], [len(payload)], [len(values)], [layout])
    assert one.dtype == np.uint32
    assert np.array_equal(one, bulk)


@settings(max_examples=200, deadline=None)
@given(blob_values.filter(lambda v: len(v) > 1), st.integers(1, 3))
def test_one_record_decode_rejects_bad_structure(values, extra):
    """Truncated or extended grouped payloads and wrong counts raise."""
    payload = encode_blob(values)
    layout = blob_layout(len(values))
    count = len(values)
    for bad in (payload[:-extra], payload + b"\x00" * extra):
        with pytest.raises(ValueError):
            decode_blob_checked(layout, bad, count)
    for wrong in (count - 1, count + extra):
        with pytest.raises(ValueError):
            decode_blob_checked(layout, payload, wrong)


def test_single_value_record_checks():
    assert decode_blob_checked(BLOB_SINGLE, b"\x01\x02", 1).tolist() == [
        0x0201]
    for payload, count in ((b"", 1), (b"\x00" * 5, 1), (b"\x07", 2),
                           (b"\x07", 0)):
        with pytest.raises(ValueError):
            decode_blob_checked(BLOB_SINGLE, payload, count)
    with pytest.raises(ValueError):
        decode_blob_checked(BLOB_GROUP, encode_blob([1, 2]), 5)
    with pytest.raises(ValueError):
        decode_blob_checked(9, b"\x00\x01", 2)


@pytest.mark.parametrize("name", dataset_names())
def test_dataset_analogue_lists_are_byte_identical(name):
    """Every adjacency list of every analogue at scale 0.2 encodes to
    the oracle's bytes, and the whole graph bulk-decodes back."""
    graph = load(name, scale=0.2)
    lists = [graph.sorted_neighbors(v) for v in sorted(graph.vertices())]
    lists = [values for values in lists if values]
    for values in lists:
        assert encode_blob(values) == oracle_encode_blob(values)
    _assert_bulk_matches(*_pack(lists, [0] * len(lists),
                                list(range(len(lists)))))
