"""The batched block selector against the per-list reference scan.

``select_blocks`` scores every (list, size, window) candidate in one
vectorized pass; ``tests/block_oracle.py`` is the per-list scan it
replaced.  The two must agree choice for choice — kind, start, size and
NT-size, tie order included — and an index built through either must
be byte-identical.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HybPlusVend, HybridVend
from repro.core.blocks import (
    BLOCK_LEFT,
    BlockChoice,
    _CHUNK_IDS,
    select_block,
    select_blocks,
)
from repro.datasets.registry import dataset_names, load
from repro.graph import Graph, erdos_renyi_graph, powerlaw_graph

from .block_oracle import oracle_select_block

MAX_ID = 400


def oracle_all(lists, max_id, slot_for_size, max_size, budget):
    return [oracle_select_block(neighbors, max_id, slot_for_size, max_size,
                                budget) for neighbors in lists]


def outcome(select, *args):
    """A selector's choices, or the ValueError it raised."""
    try:
        return select(*args)
    except ValueError as exc:
        return str(exc)


#: Sorted lists: random sets, and evenly spaced runs whose interior
#: windows all tie on coverage (the shortlist's argpartition tie order).
neighbor_lists = st.one_of(
    st.sets(st.integers(1, MAX_ID), min_size=1, max_size=40).map(sorted),
    st.builds(lambda start, step, n: list(range(start, start + step * n,
                                                step)),
              st.integers(1, 40), st.integers(1, 6), st.integers(1, 40)),
)


@settings(max_examples=300, deadline=None)
@given(
    lists=st.lists(neighbor_lists, min_size=1, max_size=5),
    # Per-size slot widths; values < 1 make a size infeasible, and short
    # slot lists make max_size (k*) exceed many list lengths.
    slots=st.lists(st.integers(-4, 120), min_size=1, max_size=9),
    budget=st.sampled_from([None, 1, 2, 3, 8]),
)
def test_select_blocks_matches_oracle(lists, slots, budget):
    args = (lists, MAX_ID, slots.__getitem__, len(slots) - 1, budget)
    assert outcome(select_blocks, *args) == outcome(oracle_all, *args)


class TestSelectBlocks:
    def test_one_list_call_is_select_block(self):
        neighbors = [3, 9, 17, 40, 41, 55, 90, 120]
        for budget in (None, 2, 8):
            assert select_block(neighbors, 150, lambda t: 64 - 8 * t, 4,
                                budget) == \
                select_blocks([neighbors], 150, lambda t: 64 - 8 * t, 4,
                              budget)[0]

    def test_empty_call(self):
        assert select_blocks([], 100, lambda t: 32, 4) == []

    def test_empty_list_rejected_in_a_batch(self):
        with pytest.raises(ValueError):
            select_blocks([[1, 2, 3], []], 100, lambda t: 32, 2)

    def test_chunked_batch_matches_oracle(self):
        """More IDs than one internal chunk holds, with skewed lengths."""
        rng = np.random.default_rng(7)
        lists, held = [], 0
        while held < 2 * _CHUNK_IDS + 100:
            x = int(rng.choice([2, 5, 30, 120, 300]))
            lists.append(sorted(rng.choice(np.arange(1, 5001), size=x,
                                           replace=False).tolist()))
            held += x

        def slot(t):
            return 184 - 21 * t

        got = select_blocks(lists, 5000, slot, 12, 8)
        assert got == oracle_all(lists, 5000, slot, 12, 8)


# -- the index build -----------------------------------------------------------


def oracle_driven(cls):
    """``cls`` with block selection done by the per-list oracle."""

    class Oracle(cls):
        def _select_blocks(self, lists, max_size):
            return oracle_all(lists, self._max_id, self._selection_slot_bits,
                              max_size, self.selection_budget)

    return Oracle


def codes(vend):
    return {v: vend.code_of(v).to_bytes() for v in sorted(vend._codes)}


def sparse_id_graph() -> Graph:
    """Neighbor IDs 70001 apart: deltas need 3 Stream VByte bytes, so
    hyb+'s 2-byte size estimate overflows and the refit retry runs."""
    base = erdos_renyi_graph(80, 900, seed=7)
    return Graph((u * 70001, v * 70001) for u, v in base.edges())


@pytest.mark.parametrize("cls", [HybridVend, HybPlusVend])
@pytest.mark.parametrize("k", [4, 6, 8])
def test_build_matches_oracle_on_analogues(cls, k):
    for name in dataset_names():
        graph = load(name, 0.05)
        fast, slow = cls(k=k), oracle_driven(cls)(k=k)
        fast.build(graph)
        slow.build(graph)
        assert codes(fast) == codes(slow), (name, cls.name, k)


def test_hybplus_refit_retry_matches_oracle():
    graph = sparse_id_graph()
    fast = HybPlusVend(k=8)
    slow = oracle_driven(HybPlusVend)(k=8)
    retries = []

    class Counting(HybPlusVend):
        def _try_encode(self, neighbors, choice, exact=True):
            code = super()._try_encode(neighbors, choice, exact)
            retries.append(code is None)
            return code

    Counting(k=8).build(graph)
    assert any(retries), "the graph no longer exercises the refit retry"
    fast.build(graph)
    slow.build(graph)
    assert codes(fast) == codes(slow)


# -- the selection hook ----------------------------------------------------------


def leftmost(cls):
    """The ablation's naive selector, recording each call's list count."""

    class Leftmost(cls):
        calls: list[int]

        def _select_blocks(self, lists, max_size):
            self.calls.append(len(lists))
            choices = []
            for neighbors in lists:
                size = min(max_size, len(neighbors) - 1)
                while size > 0 and self._selection_slot_bits(size) < 1:
                    size -= 1
                choices.append(BlockChoice(BLOCK_LEFT, 0, size, 0))
            return choices

    return Leftmost


@pytest.mark.parametrize("cls", [HybridVend, HybPlusVend])
def test_selection_override_serves_build_and_maintenance(cls):
    graph = powerlaw_graph(300, avg_degree=16, seed=167)
    vend = leftmost(cls)(k=2)
    vend.calls = []
    vend.build(graph)
    core = [v for v in graph.vertices() if not vend.is_decodable(v)]
    assert len(core) > 1
    assert vend.calls[0] == len(core)  # one batched call at build
    for v in core:
        assert vend.core_layout(vend.code_of(v))[0] == BLOCK_LEFT

    rng = random.Random(168)
    while True:
        u, v = rng.sample(core, 2)
        if not graph.has_edge(u, v) and vend.is_nonedge(u, v):
            break
    vend.calls = []
    graph.add_edge(u, v)
    vend.insert_edge(u, v, graph.sorted_neighbors)
    assert vend.calls and set(vend.calls) == {1}  # one list per rebuild
    for w in (u, v):
        assert vend.core_layout(vend.code_of(w))[0] == BLOCK_LEFT
    assert not vend.is_nonedge(u, v)
