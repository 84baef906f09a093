"""Neighbor-block selection for the hybrid encoding — Section V-C3.

For a core vertex ``v`` the hybrid code stores one *block* ``B`` of
consecutive sorted neighbors plus a hash slot over the rest.  The
encoder picks the block maximizing the *NT-size*: the number of
vertices in the ID universe ``[1, max_id]`` that would pass the NE-test
of the resulting vector.  For a block with range ``[lo, hi]``,

    NT = (hi - lo + 1 - |B|)                 # in-range non-members
       + #{v' outside [lo, hi] : slot bit (v' mod m) == 0}

The free residues of a window are those no neighbor occupies (fixed
per list and block size) plus those whose every neighbor lies inside
the window.  The periodicity of the modular hash (the paper's
``Z``-function, Eq. 3) turns the first group's count outside
``[lo, hi]`` into two lookups in a per-(list, size) prefix table, and
the second group has at most ``|B|`` members, so a candidate costs
``O(|B|)`` instead of the ``O(m)`` residue sweep of the sliding-window
scan (Eq. 5/6).  :func:`select_blocks` scores every (list, size,
window) candidate of many lists in one vectorized pass; the index
build encodes all core vertices through one call, and maintenance
calls it with a single list.

Because candidate evaluation is sound regardless of which block wins
(any block yields a correct code), very high-degree vertices may cap
the number of windows evaluated per size (``budget``) — a documented
engineering knob that trades a little score for build time.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BLOCK_LEFT",
    "BLOCK_MIDDLE",
    "BLOCK_RIGHT",
    "BLOCK_EMPTY",
    "BlockChoice",
    "residue_counts_upto",
    "count_hash_misses",
    "select_block",
    "select_blocks",
]

#: Block-type codes stored in the 2-bit type field (Section V-B):
#: leftmost blocks extend their range to -inf, rightmost to +inf.
BLOCK_LEFT = 0b00
BLOCK_MIDDLE = 0b01
BLOCK_EMPTY = 0b10
BLOCK_RIGHT = 0b11


@dataclass(frozen=True)
class BlockChoice:
    """A selected neighbor block.

    ``start`` indexes the sorted neighbor list; ``size`` is ``|B|``;
    ``nt_size`` is the NT-size the selection maximized.
    """

    kind: int
    start: int
    size: int
    nt_size: int

    def members(self, neighbors: list[int]) -> list[int]:
        """The block's member IDs within ``neighbors``."""
        return neighbors[self.start:self.start + self.size]


_ARANGE_CACHE: dict[int, np.ndarray] = {}


def _arange(m: int) -> np.ndarray:
    cached = _ARANGE_CACHE.get(m)
    if cached is None:
        cached = np.arange(m, dtype=np.int64)
        _ARANGE_CACHE[m] = cached
    return cached


def residue_counts_upto(y: int, m: int) -> np.ndarray:
    """``out[r]`` = #{x in [1, y] : x mod m == r} for r in 0..m-1."""
    if y <= 0:
        return np.zeros(m, dtype=np.int64)
    counts = (y - _arange(m)) // m + 1
    counts[0] = y // m
    np.maximum(counts, 0, out=counts)
    return counts


def count_hash_misses(zero_mask: np.ndarray, max_id: int,
                      lo: int | None = None, hi: int | None = None) -> int:
    """Vertices in ``[1, max_id]`` minus ``[lo, hi]`` whose residue is free.

    ``zero_mask[r]`` is True when slot bit ``r`` is 0.  ``lo``/``hi`` of
    None means "no excluded range" (the empty-block case).
    """
    m = len(zero_mask)
    total = residue_counts_upto(max_id, m)
    if lo is not None and hi is not None:
        inside = residue_counts_upto(hi, m) - residue_counts_upto(lo - 1, m)
        total = total - inside
    return int(total[zero_mask].sum())


#: Neighbor IDs per internal chunk of :func:`select_blocks`.  The
#: selector's temporaries grow with (IDs in the chunk) x (block sizes),
#: so chunking bounds them however many lists one call selects for.
_CHUNK_IDS = 2048


def select_block(neighbors: list[int], max_id: int,
                 slot_for_size: Callable[[int], int], max_size: int,
                 budget: int | None = None) -> BlockChoice:
    """:func:`select_blocks` for one sorted list."""
    return select_blocks([neighbors], max_id, slot_for_size, max_size,
                         budget)[0]


def select_blocks(lists: Sequence[Sequence[int]], max_id: int,
                  slot_for_size: Callable[[int], int], max_size: int,
                  budget: int | None = None) -> list[BlockChoice]:
    """Pick the NT-maximizing block of every list (each sorted, ascending).

    Parameters
    ----------
    slot_for_size:
        Hash-slot bit count left by a block of a given size (layout
        dependent, supplied by the encoder).  Sizes whose slot would be
        empty are skipped.
    max_size:
        Largest block that fits the code (``k*``).
    budget:
        None evaluates every window of every size (the paper's
        exhaustive selection).  A positive value enables the shortlist
        strategy: per size, the exact NT is computed only for the
        ``budget`` windows with the widest range coverage plus the two
        end windows (coverage dominates NT, so the shortlist almost
        always contains the true argmax at a fraction of the cost).

    Every (list, size, window) candidate is scored in one vectorized
    pass: its NT-size is the base count of the size's free residues,
    read from a per-(list, size) prefix table in O(1), plus the at most
    ``|B|`` residues its window frees — O(|B|) per candidate.  Each
    list gets the candidate of largest NT, ties going to the smaller
    size and then the earlier window.
    """
    # A block leaves at least one neighbor to the hash slot.
    largest = min(max_size, max(map(len, lists), default=0) - 1)
    slots = np.array([slot_for_size(size) for size in range(largest + 1)],
                     dtype=np.int64)
    choices: list[BlockChoice] = []
    begin, held = 0, 0
    for end, neighbors in enumerate(lists, 1):
        held += len(neighbors)
        if held >= _CHUNK_IDS or end == len(lists):
            choices.extend(_select_chunk(lists[begin:end], max_id, slots,
                                         budget))
            begin, held = end, 0
    return choices


def _select_chunk(lists, max_id: int, slots: np.ndarray,
                  budget: int | None) -> list[BlockChoice]:
    xs = np.array([len(neighbors) for neighbors in lists], dtype=np.int64)
    if not xs.all():
        raise ValueError("select_block needs a non-empty neighbor list")
    ids = np.concatenate([np.asarray(neighbors, dtype=np.int64)
                          for neighbors in lists])
    list_start = np.cumsum(xs) - xs

    # Rows: every (list, feasible size) pair, sizes ascending per list.
    sizes = np.flatnonzero(slots >= 1)
    row_list = np.repeat(np.arange(len(xs)), len(sizes))
    row_size = np.tile(sizes, len(xs))
    keep = row_size <= xs[row_list] - 1
    row_list, row_size = row_list[keep], row_size[keep]
    if not np.bincount(row_list, minlength=len(xs)).all():
        raise ValueError("no feasible block: every size left an empty slot")
    row_m = slots[row_size]
    row_x = xs[row_list]
    row_base = list_start[row_list]
    num_rows = len(row_list)

    # Every list ID once per row, reduced modulo the row's slot size.
    elem_row = np.repeat(np.arange(num_rows), row_x)
    row_elem = np.cumsum(row_x) - row_x
    elem_pos = _ragged_arange(row_x)
    mods = ids[row_base[elem_row] + elem_pos] % row_m[elem_row]

    # Residues no ID occupies (Z0), as a count and a prefix table, one
    # m-wide segment per row: P(y) = #{x in [1, y] : x mod m in Z0}
    # = (y // m)|Z0| + zpref[y % m].
    row_res = np.cumsum(row_m) - row_m
    key = row_res[elem_row] + mods
    del elem_row
    free = np.bincount(key, minlength=int(row_m.sum())) == 0
    zcount = np.add.reduceat(free, row_res)
    free[row_res] = False
    cum = np.cumsum(free, dtype=np.int64)

    # A window frees residue r when every ID with residue r lies in it;
    # the residue is counted at its first ID, whose ``closes`` is the
    # position of the residue's last ID (any other ID's never passes a
    # window end).
    first = np.full(len(free), len(ids), dtype=np.int64)
    last = np.full(len(free), -1, dtype=np.int64)
    np.minimum.at(first, key, elem_pos)
    np.maximum.at(last, key, elem_pos)
    closes = np.where(first[key] == elem_pos, last[key], len(ids))
    del key, elem_pos, first, last

    # Candidates; the empty block of a size-0 row is the range [1, 0].
    cand_row, cand_start = _candidate_windows(
        ids, row_base, row_size, row_x, max_id, budget)
    size = row_size[cand_row]
    x = row_x[cand_row]
    base = row_base[cand_row] + cand_start
    left = cand_start == 0
    right = cand_start == x - size
    lo = np.where(left, 1, ids[base])
    hi = np.where(size == 0, 0,
                  np.where(right & ~left, max_id, ids[base + size - 1]))

    # The at most |B| residues each window frees, flattened, and their
    # IDs outside the window's range.
    owner = np.repeat(np.arange(len(cand_row)), size)
    elem = row_elem[cand_row[owner]] + cand_start[owner] + _ragged_arange(size)
    freed = closes[elem] <= (cand_start + size - 1)[owner]
    owner, r = owner[freed], mods[elem[freed]]
    m = row_m[cand_row[owner]]
    win_hi, win_lo = hi[owner], lo[owner] - 1
    outside = ((max_id // m) - (win_hi // m) + (win_lo // m)
               + ((r != 0) & (r <= max_id % m))
               - ((r != 0) & (r <= win_hi % m))
               + ((r != 0) & (r <= win_lo % m)))
    freed_count = np.zeros(len(cand_row), dtype=np.int64)
    np.add.at(freed_count, owner, outside)

    # Free residues' IDs outside [lo, hi]: P(max_id) - P(hi) + P(lo - 1).
    at = row_res[cand_row]
    m = row_m[cand_row]
    y = np.stack([np.full(len(cand_row), max_id), hi, lo - 1])
    upto = (y // m) * zcount[cand_row] + cum[at + y % m] - cum[at]
    nt = (hi - lo + 1 - size) + upto[0] - upto[1] + upto[2] + freed_count

    # Per list: largest NT, then smallest size, then earliest window.
    cand_list = row_list[cand_row]
    order = np.lexsort((cand_start, size, -nt, cand_list))
    heads = order[np.flatnonzero(np.diff(cand_list[order], prepend=-1))]
    choices = []
    for lst, start, size_, nt_ in zip(cand_list[heads].tolist(),
                                      cand_start[heads].tolist(),
                                      size[heads].tolist(),
                                      nt[heads].tolist()):
        if size_ == 0:
            kind = BLOCK_EMPTY
        elif start == 0:
            kind = BLOCK_LEFT
        elif start == int(xs[lst]) - size_:
            kind = BLOCK_RIGHT
        else:
            kind = BLOCK_MIDDLE
        choices.append(BlockChoice(kind, start, size_, nt_))
    return choices


def _candidate_windows(ids, row_base, row_size, row_x, max_id: int,
                       budget: int | None) -> tuple[np.ndarray, np.ndarray]:
    """``(row, start)`` of every candidate block.

    A size-0 row has one, the empty block.  A sized row without a
    budget, or with at most ``budget`` windows, has all its windows;
    otherwise its ``budget`` widest-coverage windows and its two end
    windows (a window listed twice scores twice, harmlessly).  The
    shortlist is one ``argpartition`` per group of rows with equal
    window count, which partitions each row exactly as a 1-D call on
    that row alone would, ties included.
    """
    sized = row_size > 0
    windows = np.where(sized, row_x - row_size + 1, 1)
    short = np.zeros(len(sized), dtype=bool) if budget is None \
        else sized & (windows > budget)
    full, full_windows = np.flatnonzero(~short), windows[~short]
    rows = [np.repeat(full, full_windows)]
    starts = [_ragged_arange(full_windows)]
    if short.any():
        order = np.argsort(windows[short], kind="stable")
        group, count = np.flatnonzero(short)[order], windows[short][order]
        size = row_size[group]
        seg = np.cumsum(count) - count
        owner = np.repeat(np.arange(len(group)), count)
        owner_size = size[owner]
        first = row_base[group][owner] + _ragged_arange(count)
        coverage = ids[first + owner_size - 1] - ids[first] + 1 - owner_size
        coverage[seg] = ids[row_base[group] + size - 1] - size
        coverage[seg + count - 1] = (max_id - ids[row_base[group] + count - 1]
                                     + 1 - size)
        bounds = np.flatnonzero(np.diff(count)) + 1
        tops = []
        for lo, hi in zip(np.r_[0, bounds].tolist(),
                          np.r_[bounds, len(group)].tolist()):
            width = int(count[lo])
            block = coverage[seg[lo]:seg[lo] + (hi - lo) * width]
            tops.append(np.argpartition(block.reshape(hi - lo, width),
                                        -budget, axis=1)[:, -budget:])
        picked = np.concatenate(
            [np.concatenate(tops), np.zeros((len(group), 1), dtype=np.int64),
             (count - 1)[:, None]], axis=1)
        rows.append(np.repeat(group, picked.shape[1]))
        starts.append(picked.ravel())
    return np.concatenate(rows), np.concatenate(starts)


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``0..c-1`` for each ``c`` in ``counts``, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts,
                                                    counts)
