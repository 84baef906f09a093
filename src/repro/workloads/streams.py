"""Seeded streaming workloads: the traffic the hot cache must survive.

The Section VII-B pair samplers (:mod:`~repro.workloads.pairs`) answer
"which pairs", one batch at a time.  A *stream* answers the harder
question a cache faces: which pairs, **in what order,
mixed with which writes, drifting how fast**.  Every generator here
returns a :class:`WorkloadStream` — three parallel numpy arrays
``(kinds, us, vs)`` — and is deterministic in ``seed`` alone: numpy
``default_rng`` end to end, vertices taken in sorted order, no Python
``hash()`` anywhere, so the same seed yields the byte-identical stream
under any ``PYTHONHASHSEED`` and on any run.

The roster maps one-to-one onto cache failure modes:

- :func:`uniform_stream` — no hot set at all; an admission policy that
  churns on this is broken (the TinyLFU floor exists for exactly this).
- :func:`zipfian_stream` — the headline: a tunable-``skew`` hot set,
  optional ``burst_len`` temporal clustering and ``rotate_every``
  drift (the hot set slides along a seeded rank permutation, so a
  frequency estimate that never decays goes stale).
- :func:`edge_stream` — adversarial probes of **real edges only**:
  every probe is a positive, the NDF filters nothing, and the full
  probe volume lands on storage decode.
- :func:`churn_stream` — probe runs alternating with write storms
  (inserts of fresh non-edges, deletes of live edges, tracked against
  a shadow edge set so every write is valid when it executes); each
  storm invalidates cached blobs and forces re-warm.
- :func:`mixed_stream` — fine-grained interleaving of Zipfian probes
  and writes at a controlled ``write_ratio``; no long probe runs to
  batch, the worst case for batch-oriented serving.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph import Graph

__all__ = [
    "OP_PROBE",
    "OP_INSERT",
    "OP_DELETE",
    "WorkloadStream",
    "uniform_stream",
    "zipfian_stream",
    "edge_stream",
    "churn_stream",
    "mixed_stream",
    "make_stream",
    "STREAM_KINDS",
]

OP_PROBE = 0
OP_INSERT = 1
OP_DELETE = 2

_OP_NAMES = {OP_PROBE: "probe", OP_INSERT: "insert", OP_DELETE: "delete"}


@dataclass(frozen=True)
class WorkloadStream:
    """An ordered op stream: ``kinds[i]`` applied to ``(us[i], vs[i])``.

    Immutable-by-convention; generators hand out freshly built arrays.
    ``meta`` records the generator's parameters for reports.
    """

    name: str
    kinds: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.kinds)

    def op_counts(self) -> dict[str, int]:
        """``{"probe": n, "insert": n, "delete": n}`` totals."""
        counts = np.bincount(self.kinds, minlength=3)
        return {_OP_NAMES[k]: int(counts[k]) for k in _OP_NAMES}

    def segments(self):
        """Yield ``(kind, start, end)`` runs of consecutive same-kind ops.

        The runner batches each probe run into vectorized
        ``has_edge_batch`` calls; runs are the unit of batching.
        """
        kinds = self.kinds
        n = len(kinds)
        if n == 0:
            return
        bounds = np.flatnonzero(np.diff(kinds)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [n]))
        for start, end in zip(starts.tolist(), ends.tolist()):
            yield int(kinds[start]), start, end

    def checksum(self) -> str:
        """Content digest for cross-run determinism assertions."""
        import hashlib
        h = hashlib.sha256()
        h.update(self.kinds.astype(np.uint8).tobytes())
        h.update(self.us.astype(np.int64).tobytes())
        h.update(self.vs.astype(np.int64).tobytes())
        return h.hexdigest()


def _stored_vertices(graph: Graph) -> np.ndarray:
    verts = np.asarray(sorted(graph.vertices()), dtype=np.int64)
    if len(verts) < 2:
        raise ValueError("need at least two vertices for a workload")
    return verts


def _zipf_indices(n: int, universe: int, skew: float,
                  rng: np.random.Generator) -> np.ndarray:
    """``n`` bounded-Zipf(skew) draws over ``range(universe)``.

    Inverse-CDF sampling: cumulative rank weights, one ``searchsorted``
    per batch.  ``skew=0`` degenerates to uniform.
    """
    if skew <= 0.0:
        return rng.integers(0, universe, n)
    weights = np.arange(1, universe + 1, dtype=np.float64) ** -skew
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(n), side="left")


def uniform_stream(graph: Graph, n: int, seed: int = 0) -> WorkloadStream:
    """``n`` uniform probes over stored vertex pairs (no hot set)."""
    verts = _stored_vertices(graph)
    rng = np.random.default_rng(seed)
    us = verts[rng.integers(0, len(verts), n)]
    vs = verts[rng.integers(0, len(verts), n)]
    return WorkloadStream("uniform", np.zeros(n, dtype=np.uint8), us, vs,
                          {"seed": seed, "n": n})


def zipfian_stream(graph: Graph, n: int, skew: float = 1.0, seed: int = 0,
                   burst_len: int = 1,
                   rotate_every: int = 0) -> WorkloadStream:
    """``n`` probes whose left endpoints follow bounded Zipf(``skew``).

    Ranks are assigned by a seeded permutation of the sorted vertex
    array, so "which vertices are hot" is itself deterministic in the
    seed and uncorrelated with vertex IDs or degrees.

    burst_len:
        Temporal clustering: keys are drawn for every ``burst_len``-th
        slot and repeated to fill the burst, so a hot key's accesses
        arrive back-to-back instead of spread through the stream.
    rotate_every:
        Hot-set drift: after every ``rotate_every`` ops the rank
        permutation rolls by one ``burst_len``-independent step, so
        rank 0 moves to a new vertex — a time-varying graph workload
        in the sense of the admission sketch's decay window.
    """
    if burst_len < 1:
        raise ValueError("burst_len must be >= 1")
    verts = _stored_vertices(graph)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(verts))
    draws = -(-n // burst_len)  # ceil
    idx = np.repeat(_zipf_indices(draws, len(verts), skew, rng),
                    burst_len)[:n]
    if rotate_every > 0:
        # Rank r at op t maps to perm[(r + t // rotate_every) % V]:
        # the whole hot set slides one slot per rotation period.
        shift = (np.arange(n, dtype=np.int64) // rotate_every) % len(verts)
        idx = (idx + shift) % len(verts)
    us = verts[perm[idx]]
    vs = verts[rng.integers(0, len(verts), n)]
    return WorkloadStream(
        "zipfian", np.zeros(n, dtype=np.uint8), us, vs,
        {"seed": seed, "n": n, "skew": skew, "burst_len": burst_len,
         "rotate_every": rotate_every})


def edge_stream(graph: Graph, n: int, seed: int = 0,
                skew: float = 0.0) -> WorkloadStream:
    """``n`` probes of **existing** edges only (the all-positive adversary).

    Every verdict is True, the NDF filters nothing, and the entire
    stream pays a storage lookup — the worst case the paper's filter
    cannot help with and the hot cache exists to absorb.  ``skew``
    optionally concentrates traffic on a Zipf-weighted subset of edges.
    """
    edges = np.asarray(sorted(graph.edges()), dtype=np.int64)
    if len(edges) == 0:
        raise ValueError("graph has no edges to probe")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(edges))
    idx = perm[_zipf_indices(n, len(edges), skew, rng)]
    flip = rng.random(n) < 0.5
    us = np.where(flip, edges[idx, 1], edges[idx, 0])
    vs = np.where(flip, edges[idx, 0], edges[idx, 1])
    return WorkloadStream("edges", np.zeros(n, dtype=np.uint8), us, vs,
                          {"seed": seed, "n": n, "skew": skew})


class _ShadowEdges:
    """Tracks the live edge set so generated writes are always valid.

    Inserts draw fresh non-edges, deletes draw currently live edges —
    checked against this shadow copy, which replays the stream's own
    writes, so the emitted ops hold regardless of execution order
    relative to other streams.
    """

    def __init__(self, graph: Graph, rng: np.random.Generator):
        self._verts = _stored_vertices(graph)
        self._rng = rng
        self._live = [tuple(sorted(e)) for e in sorted(graph.edges())]
        self._index = {e: i for i, e in enumerate(self._live)}

    def draw_insert(self) -> tuple[int, int]:
        verts, rng = self._verts, self._rng
        while True:
            u = int(verts[rng.integers(0, len(verts))])
            v = int(verts[rng.integers(0, len(verts))])
            if u == v:
                continue
            edge = (u, v) if u < v else (v, u)
            if edge in self._index:
                continue
            self._index[edge] = len(self._live)
            self._live.append(edge)
            return edge

    def draw_delete(self) -> tuple[int, int] | None:
        if not self._live:
            return None
        pos = int(self._rng.integers(0, len(self._live)))
        edge = self._live[pos]
        last = self._live[-1]
        self._live[pos] = last
        self._index[last] = pos
        self._live.pop()
        del self._index[edge]
        return edge


def churn_stream(graph: Graph, n: int, seed: int = 0, skew: float = 1.0,
                 probe_len: int = 2048,
                 storm_len: int = 256) -> WorkloadStream:
    """Probe runs alternating with write storms (the churn adversary).

    The stream cycles ``probe_len`` Zipfian probes then a ``storm_len``
    burst of writes (alternating inserts of fresh non-edges and
    deletes of live edges).  Each storm invalidates hot-cache entries
    for the touched vertices and queues index maintenance that the
    next probe run must pay for.
    """
    if probe_len < 1 or storm_len < 1:
        raise ValueError("probe_len and storm_len must be >= 1")
    verts = _stored_vertices(graph)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(verts))
    shadow = _ShadowEdges(graph, rng)
    kinds = np.zeros(n, dtype=np.uint8)
    us = np.zeros(n, dtype=np.int64)
    vs = np.zeros(n, dtype=np.int64)
    pos = 0
    while pos < n:
        run = min(probe_len, n - pos)
        idx = _zipf_indices(run, len(verts), skew, rng)
        us[pos:pos + run] = verts[perm[idx]]
        vs[pos:pos + run] = verts[rng.integers(0, len(verts), run)]
        pos += run
        storm = min(storm_len, n - pos)
        for i in range(storm):
            if i % 2 == 0:
                edge = shadow.draw_insert()
                kinds[pos] = OP_INSERT
            else:
                edge = shadow.draw_delete()
                if edge is None:
                    edge = shadow.draw_insert()
                    kinds[pos] = OP_INSERT
                else:
                    kinds[pos] = OP_DELETE
            us[pos], vs[pos] = edge
            pos += 1
    return WorkloadStream(
        "churn", kinds, us, vs,
        {"seed": seed, "n": n, "skew": skew, "probe_len": probe_len,
         "storm_len": storm_len})


def mixed_stream(graph: Graph, n: int, seed: int = 0, skew: float = 1.0,
                 write_ratio: float = 0.05) -> WorkloadStream:
    """Fine-grained read/write interleaving at ``write_ratio``.

    Unlike :func:`churn_stream`'s long runs, writes land anywhere, so
    probe runs are short — the worst case for batch-serving layers and
    the closest analogue of online transactional traffic.
    """
    if not 0.0 <= write_ratio <= 1.0:
        raise ValueError("write_ratio must be within [0, 1]")
    verts = _stored_vertices(graph)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(verts))
    shadow = _ShadowEdges(graph, rng)
    writes = rng.random(n) < write_ratio
    idx = _zipf_indices(n, len(verts), skew, rng)
    kinds = np.zeros(n, dtype=np.uint8)
    us = verts[perm[idx]].copy()
    vs = verts[rng.integers(0, len(verts), n)]
    toggle = True
    for pos in np.flatnonzero(writes).tolist():
        if toggle:
            edge = shadow.draw_insert()
            kinds[pos] = OP_INSERT
        else:
            edge = shadow.draw_delete()
            if edge is None:
                edge = shadow.draw_insert()
                kinds[pos] = OP_INSERT
            else:
                kinds[pos] = OP_DELETE
        us[pos], vs[pos] = edge
        toggle = not toggle
    return WorkloadStream(
        "mixed", kinds, us, vs,
        {"seed": seed, "n": n, "skew": skew, "write_ratio": write_ratio})


#: Named constructors for the CLI / bench (`--workload <kind>`).
STREAM_KINDS = {
    "random": uniform_stream,
    "zipfian": zipfian_stream,
    "edges": edge_stream,
    "churn": churn_stream,
    "mixed": mixed_stream,
}


def make_stream(kind: str, graph: Graph, n: int, seed: int = 0,
                **kwargs) -> WorkloadStream:
    """Build a stream by registry name (raises on unknown kinds)."""
    try:
        ctor = STREAM_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown workload {kind!r}; expected one of "
                         f"{sorted(STREAM_KINDS)}") from None
    return ctor(graph, n, seed=seed, **kwargs)
