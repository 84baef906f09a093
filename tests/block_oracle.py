"""Reference oracle for block selection: the per-list scan.

This is the selector ``repro.core.blocks`` shipped before selection was
batched over many lists: one list at a time, one block size at a time,
an exhaustive sliding-window scan (``budget=None``) or a coverage
shortlist evaluated as a candidates x residues matrix, O(m) per
candidate.  ``select_blocks`` must return the same choice, tie order
included, for every list; the tests compare the two directly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.blocks import (
    BLOCK_EMPTY,
    BLOCK_LEFT,
    BLOCK_MIDDLE,
    BLOCK_RIGHT,
    BlockChoice,
    residue_counts_upto,
)


def _arange(m: int) -> np.ndarray:
    return np.arange(m, dtype=np.int64)


def _window_geometry(arr: np.ndarray, start: int, size: int,
                     max_id: int) -> tuple[int, int, int]:
    """Block type and effective range for a window of the sorted list."""
    x = len(arr)
    if start == 0:
        return BLOCK_LEFT, 1, int(arr[size - 1])
    if start == x - size:
        return BLOCK_RIGHT, int(arr[start]), max_id
    return BLOCK_MIDDLE, int(arr[start]), int(arr[start + size - 1])


def oracle_select_block(neighbors: list[int], max_id: int,
                 slot_for_size: Callable[[int], int], max_size: int,
                 budget: int | None = None) -> BlockChoice:
    """Pick the NT-maximizing block over ``neighbors`` (sorted, ascending).

    Parameters
    ----------
    slot_for_size:
        Hash-slot bit count left by a block of a given size (layout
        dependent, supplied by the encoder).  Sizes whose slot would be
        empty are skipped.
    max_size:
        Largest block that fits the code (``k*``).
    budget:
        None runs the paper's exhaustive sliding-window scan (every
        window of every size).  A positive value enables the shortlist
        strategy: per size, the exact NT is computed only for the
        ``budget`` windows with the widest range coverage (coverage
        dominates NT, so the shortlist almost always contains the true
        argmax at a fraction of the cost).
    """
    if not neighbors:
        raise ValueError("select_block needs a non-empty neighbor list")
    x = len(neighbors)
    best: BlockChoice | None = None

    def consider(choice: BlockChoice) -> None:
        nonlocal best
        if best is None or choice.nt_size > best.nt_size:
            best = choice

    arr = np.asarray(neighbors, dtype=np.int64)
    mods_cache: dict[int, np.ndarray] = {}
    for size in range(0, min(max_size, x - 1) + 1):
        m = slot_for_size(size)
        if m < 1:
            continue
        mods = mods_cache.get(m)
        if mods is None:
            mods = (arr % m).astype(np.int64)
            mods_cache[m] = mods
        counts_total = residue_counts_upto(max_id, m)
        base_occupancy = np.bincount(mods, minlength=m)
        if size == 0:
            zero_mask = base_occupancy == 0
            consider(BlockChoice(
                BLOCK_EMPTY, 0, 0, int(counts_total[zero_mask].sum())
            ))
            continue
        if budget is None:
            _scan_all_windows(arr, mods, base_occupancy, counts_total,
                              m, size, max_id, consider)
        else:
            _scan_shortlist(arr, mods, base_occupancy, counts_total,
                            m, size, max_id, budget, consider)
    if best is None:
        raise ValueError("no feasible block: every size left an empty slot")
    return best


def _scan_all_windows(arr, mods, base_occupancy, counts_total, m, size,
                      max_id, consider) -> None:
    """Exhaustive sliding-window scan (the paper's Eq. 5/6 algorithm):
    residue occupancy updates in O(1) per slide; NT in O(m)."""
    x = len(arr)
    occupancy = base_occupancy.copy()
    for j in range(size):
        occupancy[mods[j]] -= 1
    for start in range(x - size + 1):
        if start > 0:
            occupancy[mods[start - 1]] += 1
            occupancy[mods[start + size - 1]] -= 1
        kind, lo, hi = _window_geometry(arr, start, size, max_id)
        zero_mask = occupancy == 0
        inside = residue_counts_upto(hi, m) - residue_counts_upto(lo - 1, m)
        out = int((counts_total - inside)[zero_mask].sum())
        consider(BlockChoice(kind, start, size, (hi - lo + 1 - size) + out))


def _scan_shortlist(arr, mods, base_occupancy, counts_total, m, size,
                    max_id, budget, consider) -> None:
    """Evaluate exact NT only for the widest-coverage windows.

    All shortlisted candidates are evaluated in one batch of 2-D numpy
    operations (candidates × residues), which is what makes shortlist
    selection an order of magnitude faster than the exhaustive scan.
    """
    x = len(arr)
    num_windows = x - size + 1
    coverage = (arr[size - 1:] - arr[:num_windows]).copy() + 1 - size
    coverage[0] = arr[size - 1] - size            # leftmost: lo extends to 1
    coverage[-1] = max_id - arr[x - size] + 1 - size  # rightmost: hi to max
    if num_windows > budget:
        chosen = set(np.argpartition(coverage, -budget)[-budget:].tolist())
        chosen.update((0, num_windows - 1))
        starts = np.array(sorted(chosen), dtype=np.int64)
    else:
        starts = np.arange(num_windows, dtype=np.int64)
    count = len(starts)
    geometry = [_window_geometry(arr, int(s), size, max_id) for s in starts]
    los = np.array([g[1] for g in geometry], dtype=np.int64)
    his = np.array([g[2] for g in geometry], dtype=np.int64)
    # Occupancy per candidate: base minus its window's member residues.
    occupancy = np.tile(base_occupancy, (count, 1))
    window_cols = mods[starts[:, None] + _arange(size)[None, :]]
    np.subtract.at(
        occupancy,
        (np.repeat(_arange(count), size), window_cols.ravel()),
        1,
    )
    residues = _arange(m)[None, :]
    inside_hi = (his[:, None] - residues) // m + 1
    inside_lo = (los[:, None] - 1 - residues) // m + 1
    inside_hi[:, 0] = his // m
    inside_lo[:, 0] = (los - 1) // m
    np.maximum(inside_hi, 0, out=inside_hi)
    np.maximum(inside_lo, 0, out=inside_lo)
    outside = counts_total[None, :] - (inside_hi - inside_lo)
    out_counts = np.where(occupancy == 0, outside, 0).sum(axis=1)
    nt_values = (his - los + 1 - size) + out_counts
    best = int(np.argmax(nt_values))
    kind = geometry[best][0]
    consider(BlockChoice(kind, int(starts[best]), size, int(nt_values[best])))
