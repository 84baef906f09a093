"""Seeded inputs: the graph, the probe pools, the write streams, and the
ground truth every verdict is checked against.

Everything here is input preparation and is never timed.  The graph is
the fixed ``uk`` analogue (its own dataset seed, like a Table I graph);
``--seed`` drives every stream drawn over it, so the same seed gives
byte-identical inputs.
"""

from __future__ import annotations

import numpy as np

from repro.datasets import load
from repro.workloads import (OP_DELETE, OP_INSERT, OP_PROBE, churn_stream,
                             uniform_stream, zipfian_stream)
from repro.workloads.streams import _zipf_indices

from . import config

_SHIFT = np.int64(1 << 32)


def pair_keys(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Directed pair ``(u, v)`` as one int64 key."""
    return np.asarray(us, dtype=np.int64) * _SHIFT + np.asarray(vs, dtype=np.int64)


class GraphInputs:
    """The realized graph plus a CSR copy for vectorized sampling."""

    def __init__(self):
        self.graph = load(config.DATASET, scale=config.SCALE)
        self.verts = np.asarray(sorted(self.graph.vertices()), dtype=np.int64)
        lists = [self.graph.sorted_neighbors(int(v)) for v in self.verts]
        self.degree = np.asarray([len(a) for a in lists], dtype=np.int64)
        self.indptr = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum(self.degree, out=self.indptr[1:])
        self.indices = np.concatenate(
            [np.asarray(a, dtype=np.int64) for a in lists])
        # Both directions of every edge, sorted: membership is one
        # searchsorted per probe.
        self.edge_keys = np.sort(pair_keys(self.verts.repeat(self.degree),
                                           self.indices))

    @property
    def num_vertices(self) -> int:
        return len(self.verts)

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    @property
    def decoded_bytes(self) -> int:
        """Decoded adjacency size: every stored uint32 neighbor entry."""
        return int(self.indices.size) * 4

    def shadow(self) -> "Shadow":
        return Shadow(self.edge_keys)

    def commpair(self, n: int, rng: np.random.Generator,
                 skew: float) -> tuple[np.ndarray, np.ndarray]:
        """``n`` CommPair probes: two distinct neighbours of a pivot.

        Pivots are drawn bounded-Zipf(``skew``) over a seeded
        permutation of the vertices with degree >= 2 (``skew=0`` is
        uniform), so which pivots are hot is uncorrelated with IDs and
        degrees.
        """
        cand = np.flatnonzero(self.degree >= 2)
        perm = rng.permutation(len(cand))
        pivots = cand[perm[_zipf_indices(n, len(cand), skew, rng)]]
        deg = self.degree[pivots]
        i = rng.integers(0, deg)
        j = (i + 1 + rng.integers(0, deg - 1)) % deg
        base = self.indptr[pivots]
        return self.indices[base + i], self.indices[base + j]


class Shadow:
    """Ground-truth edge set: the loaded graph plus replayed writes."""

    def __init__(self, edge_keys: np.ndarray):
        self._static = edge_keys
        self._inserted: set[int] = set()
        self._deleted: set[int] = set()
        self.num_edges = len(edge_keys) // 2

    def contains(self, us, vs) -> np.ndarray:
        q = pair_keys(us, vs)
        static = self._static
        pos = np.minimum(np.searchsorted(static, q), len(static) - 1)
        out = static[pos] == q
        if self._deleted:
            out &= ~np.isin(q, np.fromiter(self._deleted, dtype=np.int64))
        if self._inserted:
            out |= np.isin(q, np.fromiter(self._inserted, dtype=np.int64))
        return out

    def apply(self, kind: int, u: int, v: int) -> bool:
        """Replay one write; returns whether it changes the edge set
        (what ``add_edge``/``remove_edge`` must return)."""
        key = int(u) * (1 << 32) + int(v)
        pos = min(int(np.searchsorted(self._static, key)),
                  len(self._static) - 1)
        present = (key in self._inserted
                   or (int(self._static[pos]) == key
                       and key not in self._deleted))
        if kind == OP_INSERT and present or kind == OP_DELETE and not present:
            return False
        for a, b in ((u, v), (v, u)):
            key = int(a) * (1 << 32) + int(b)
            if kind == OP_INSERT:
                if key in self._deleted:
                    self._deleted.discard(key)
                else:
                    self._inserted.add(key)
            elif key in self._inserted:
                self._inserted.discard(key)
            else:
                self._deleted.add(key)
        self.num_edges += 1 if kind == OP_INSERT else -1
        return True


class ProbePool:
    """Fixed-size probe batches with precomputed verdicts, cycled."""

    def __init__(self, us: np.ndarray, vs: np.ndarray, truth: np.ndarray,
                 batch: int):
        self.batch = batch
        self.num_batches = len(us) // batch
        n = self.num_batches * batch
        self.us, self.vs, self.truth = us[:n], vs[:n], truth[:n]
        self.nonedges = (~self.truth).reshape(-1, batch).sum(axis=1)

    def get(self, i: int):
        """Batch ``i`` (cycling): ``(us, vs, truth, true non-edges)``."""
        b = i % self.num_batches
        s = slice(b * self.batch, (b + 1) * self.batch)
        return self.us[s], self.vs[s], self.truth[s], int(self.nonedges[b])


def probe_pool(gi: GraphInputs, workload: str, seed: int,
               batches: int, stream: int = 0) -> ProbePool:
    """The read pool of ``workload``; ``stream`` separates the warm-up
    pool from the measured one under the same seed."""
    n = batches * config.BATCH
    sub_seed = seed * 16 + stream
    if workload == "randpair":
        drawn = uniform_stream(gi.graph, n, seed=sub_seed)
        us, vs = drawn.us, drawn.vs
    elif workload == "churn":
        # Churn's probe distribution (what churn_stream emits between
        # storms), for warming the cache before writes.
        drawn = zipfian_stream(gi.graph, n, skew=config.CHURN_SKEW,
                               seed=sub_seed)
        us, vs = drawn.us, drawn.vs
    else:
        skew = config.COMMPAIR_SKEW if workload == "commpair_hot" else 0.0
        us, vs = gi.commpair(n, np.random.default_rng([seed, stream]), skew)
    truth = gi.shadow().contains(us, vs)
    return ProbePool(us, vs, truth, config.BATCH)


def serve_requests(gi: GraphInputs, seed: int, count: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` requests of uniform-pivot CommPair pairs, as
    ``(us, vs, truth)`` arrays of shape ``(count, pairs_per_request)``."""
    rng = np.random.default_rng([seed, 7])
    k = config.SERVE_PAIRS_PER_REQUEST
    us, vs = gi.commpair(count * k, rng, skew=0.0)
    truth = gi.shadow().contains(us, vs)
    return us.reshape(count, k), vs.reshape(count, k), truth.reshape(count, k)


def write_blocks(gi: GraphInputs, seed: int, blocks: int
                 ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The write sample: ``TAIL_WRITES`` writes generated against the
    loaded graph, alternating inserts of fresh non-edges and deletes of
    live edges, as ``blocks`` blocks of ``(kinds, us, vs)``."""
    count = config.TAIL_WRITES
    stream = churn_stream(gi.graph, count + 1, seed=seed * 7919 + 3,
                          probe_len=1, storm_len=count)
    return [(stream.kinds[1:][i], stream.us[1:][i], stream.vs[1:][i])
            for i in np.array_split(np.arange(count), blocks)]


class ChurnCycle:
    """One churn cycle: a probe run (batched) then a write storm."""

    __slots__ = ("probes", "writes")

    def __init__(self, probes: list[tuple], writes: list[tuple]):
        self.probes = probes   # [(us, vs, truth, true non-edges)]
        self.writes = writes   # [(kind, u, v, expected return)]


def churn_cycles(gi: GraphInputs, seed: int, cycles: int) -> list[ChurnCycle]:
    """``churn_stream`` cut into cycles with every verdict precomputed
    by replaying the stream's writes into a shadow edge set."""
    probe_len = config.CHURN_PROBE_BATCHES * config.BATCH
    storm = config.CHURN_STORM_LEN
    stream = churn_stream(gi.graph, cycles * (probe_len + storm), seed=seed,
                          skew=config.CHURN_SKEW, probe_len=probe_len,
                          storm_len=storm)
    shadow = gi.shadow()
    out: list[ChurnCycle] = []
    probes: list[tuple] = []
    writes: list[tuple] = []
    for kind, start, end in stream.segments():
        if kind == OP_PROBE:
            if writes:
                out.append(ChurnCycle(probes, writes))
                probes, writes = [], []
            for s in range(start, end, config.BATCH):
                e = min(s + config.BATCH, end)
                us, vs = stream.us[s:e], stream.vs[s:e]
                truth = shadow.contains(us, vs)
                probes.append((us, vs, truth, int((~truth).sum())))
        else:
            for i in range(start, end):
                u, v = int(stream.us[i]), int(stream.vs[i])
                writes.append((kind, u, v, shadow.apply(kind, u, v)))
    if probes or writes:
        out.append(ChurnCycle(probes, writes))
    return out
