"""Edge-query engine over disk storage with optional VEND filtering.

This is Fig. 1's architecture: queries first consult the in-memory
NDF; only pairs the filter cannot certify as NEpairs reach the
disk-resident adjacency store.  The engine's statistics (filtered
count, executed count, disk reads) drive the Fig. 9 experiment.

Two execution paths share the same statistics:

- :meth:`EdgeQueryEngine.has_edge` / :meth:`EdgeQueryEngine.run` —
  the scalar path, one Python dispatch per pair;
- :meth:`EdgeQueryEngine.has_edge_batch` / :meth:`EdgeQueryEngine.run_batch`
  — the batched pipeline: one vectorized NDF pass over the whole pair
  array, survivors grouped by left endpoint, one deduplicated
  multi-get against storage, and membership answered by a single
  ``searchsorted`` sweep.  Prefer it whenever pairs arrive in bulk.

Attribution is receipt-scoped: every storage call made on behalf of a
query threads its own :class:`~repro.obs.ReadReceipt`, so an engine's
``cache_served``/``disk_served`` counters book exactly the I/O *its*
queries caused — never another engine's traffic or an index-maintenance
fetch that happened to touch the same shared store (the historical
diff-the-shared-globals pattern misattributed both).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..core.base import NonedgeFilter, endpoint_arrays, nonedge_batch_mask
from ..core.batch import shard_slices, warm_batch_snapshot
from ..devtools.witness import wrap_lock
from ..obs import QueryStats, ReadReceipt, default_tracer
from ..storage import GraphStore, ShardedGraphStore

__all__ = ["QueryStats", "EdgeQueryEngine", "ParallelEdgeQueryEngine"]


class EdgeQueryEngine:
    """Answers edge queries, short-circuiting through a VEND filter.

    Parameters
    ----------
    store:
        The disk-backed adjacency store (source of truth).
    nonedge_filter:
        Any :class:`~repro.core.base.NonedgeFilter` (VEND solution,
        columnar snapshot, or Bloom comparator), or None for the
        paper's Non-VEND baseline.
    """

    def __init__(self, store: GraphStore,
                 nonedge_filter: NonedgeFilter | None = None):
        self.store = store
        self.nonedge_filter = nonedge_filter
        self.stats = QueryStats(store=store)
        registry = self.stats.registry
        self._latency = registry.histogram(
            "repro_query_latency_seconds",
            "Wall-clock latency of engine query calls",
        )

    def _observe_latency(self, path: str, seconds: float) -> None:
        self._latency.labels(engine=self.stats.scope, path=path).observe(
            seconds)

    def has_edge(self, u: int, v: int) -> bool:
        """One edge query: NDF first, storage only when undetermined."""
        tracer = default_tracer()
        start = time.perf_counter()
        try:
            with tracer.span("query", engine=self.stats.scope):
                self.stats.inc("total")
                if self.nonedge_filter is not None:
                    with tracer.span("ndf_filter"):
                        certain = self.nonedge_filter.is_nonedge(u, v)
                    if certain:
                        self.stats.inc("filtered")
                        return False
                self.stats.inc("executed")
                receipt = ReadReceipt()
                exists = self.store.has_edge(u, v, receipt=receipt)
                self.stats.inc("cache_served", receipt.cache_hits)
                self.stats.inc("disk_served", receipt.disk_reads)
                if exists:
                    self.stats.inc("positives")
                return exists
        finally:
            self._observe_latency("scalar", time.perf_counter() - start)

    def has_edge_batch(self, pairs_u, pairs_v=None) -> np.ndarray:
        """Answer a pair batch through the vectorized pipeline.

        Accepts aligned endpoint arrays or a sequence of ``(u, v)``
        tuples; returns a bool array of edge-existence answers and
        accumulates the same :class:`QueryStats` the scalar path does.
        Because surviving left endpoints are deduplicated before the
        multi-get, ``cache_served + disk_served`` may be smaller than
        ``executed`` — that gap is exactly the I/O batching saved.
        """
        tracer = default_tracer()
        start = time.perf_counter()
        try:
            return self._has_edge_batch(tracer, pairs_u, pairs_v)
        finally:
            self._observe_latency("batch", time.perf_counter() - start)

    def _has_edge_batch(self, tracer, pairs_u, pairs_v) -> np.ndarray:
        with tracer.span("query_batch", engine=self.stats.scope):
            us, vs = endpoint_arrays(pairs_u, pairs_v)
            n = len(us)
            self.stats.inc("total", n)
            answers = np.zeros(n, dtype=bool)
            if n == 0:
                return answers
            if self.nonedge_filter is not None:
                with tracer.span("ndf_filter"):
                    certain = nonedge_batch_mask(self.nonedge_filter, us, vs)
                self.stats.inc("filtered", int(certain.sum()))
                survivors = ~certain
            else:
                survivors = np.ones(n, dtype=bool)
            count = int(survivors.sum())
            if count:
                self.stats.inc("executed", count)
                receipt = ReadReceipt()
                exists = self.store.probe_edges(us[survivors],
                                                vs[survivors],
                                                receipt=receipt)
                self.stats.inc("cache_served", receipt.cache_hits)
                self.stats.inc("disk_served", receipt.disk_reads)
                self.stats.inc("positives", int(exists.sum()))
                answers[survivors] = exists
            return answers

    def run(self, pairs: list[tuple[int, int]]) -> QueryStats:
        """Answer a batch one pair at a time (scalar reference path)."""
        start = time.perf_counter()
        for u, v in pairs:
            self.has_edge(u, v)
        self.stats.inc("elapsed_seconds", time.perf_counter() - start)
        return self.stats

    def run_batch(self, pairs, pairs_v=None) -> QueryStats:
        """Answer a batch through the vectorized pipeline, timed."""
        start = time.perf_counter()
        self.has_edge_batch(pairs, pairs_v)
        self.stats.inc("elapsed_seconds", time.perf_counter() - start)
        return self.stats


class ParallelEdgeQueryEngine(EdgeQueryEngine):
    """Shard-parallel batch execution over a :class:`ShardedGraphStore`.

    :meth:`run_batch` partitions the pair array by the shard owning
    each left endpoint, fans the per-shard work — vectorized NDF
    filtering plus the segment's deduplicated multi-get — out to a
    ``ThreadPoolExecutor``, and merges verdicts back in input order.
    The numpy kernels and file reads release the GIL, so shard tasks
    overlap where the machine allows it; on a single core the shard
    path still wins through the blob-native probe and bulk-booked
    stats.

    Correctness under threads rests on three rules, all enforced here:

    - **No shared mutable counters across threads.**  Pool tasks write
      only task-local state (a private :class:`ReadReceipt` and local
      arrays); every ``stats.inc`` happens on the coordinator thread
      after the join barrier, under ``_book_lock``.  ``CounterSeries``
      increments are read-modify-write and must never race.
    - **Snapshots are warmed before fan-out.**  Solutions rebuild their
      batch snapshot lazily after maintenance; the coordinator forces
      that rebuild on its own thread so pool threads only ever read a
      frozen snapshot.
    - **Verdicts are merged by original position.**  Each slice carries
      its input-order index array, so the answer array is bitwise
      identical to the serial pipeline's regardless of task completion
      order.

    Attribution stays exact: per-shard :class:`QueryStats` (labeled
    ``shard="<i>"`` under this engine's scope) are booked from the same
    task receipts as the aggregate, so the per-shard
    ``cache_served + disk_served`` totals sum to the engine totals by
    construction.
    """

    def __init__(self, store: ShardedGraphStore,
                 nonedge_filter: NonedgeFilter | None = None,
                 workers: int | None = None):
        super().__init__(store, nonedge_filter)
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers or store.num_shards
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix=f"{self.stats.scope}-shard",
        )
        self._book_lock = wrap_lock(threading.Lock(),
                                    "ParallelEdgeQueryEngine._book_lock")
        self._store_generation = store.generation  # guarded-by: self._book_lock
        self.shard_stats = self._build_shard_stats()  # guarded-by: self._book_lock

    def _build_shard_stats(self) -> list[QueryStats]:
        return [
            QueryStats(store=segment, scope=self.stats.scope, shard=str(i))
            for i, segment in enumerate(self.store.segments)
        ]

    def _sync_generation(self) -> None:
        """Refresh per-shard bookkeeping after a topology change.

        ``store.generation`` bumps when an online reshard begins (the
        routable segment space grows to old + new) and again at the
        flip (it shrinks to the new layout).  Callers hold the shared
        guard, so the topology cannot move again mid-sync.  Per-shard
        series are label-keyed (engine scope + shard index), so shard
        ``i`` of the new layout continues the series of shard ``i`` of
        the old one — aggregate totals are unaffected.
        """
        generation = self.store.generation
        if generation == self._store_generation:
            return
        with self._book_lock:
            if generation == self._store_generation:
                return
            self.shard_stats = self._build_shard_stats()
            self._store_generation = generation

    def shard_ledgers(self) -> list[QueryStats]:
        """The per-shard ledgers of the store's current topology.

        Synced under the shared guard like a query, so the list matches
        the layout right after a reshard, before any query has run.
        """
        with self.store.read_guard():
            self._sync_generation()
            with self._book_lock:
                return list(self.shard_stats)

    def has_edge(self, u: int, v: int) -> bool:
        """Scalar query routed to the owning shard, dual-booked."""
        tracer = default_tracer()
        start = time.perf_counter()
        try:
            with self.store.read_guard():
                self._sync_generation()
                return self._has_edge_guarded(tracer, u, v)
        finally:
            self._observe_latency("scalar", time.perf_counter() - start)

    def _has_edge_guarded(self, tracer, u: int, v: int) -> bool:
        shard = self.store.router.shard_of(u)
        stats = self.shard_stats[shard]
        with tracer.span("query", engine=self.stats.scope,
                         shard=str(shard)), self._book_lock:
            self.stats.inc("total")
            stats.inc("total")
            if self.nonedge_filter is not None:
                with tracer.span("ndf_filter"):
                    certain = self.nonedge_filter.is_nonedge(u, v)
                if certain:
                    self.stats.inc("filtered")
                    stats.inc("filtered")
                    return False
            self.stats.inc("executed")
            stats.inc("executed")
            receipt = ReadReceipt()
            exists = self.store.has_edge(u, v, receipt=receipt)
            for view in (self.stats, stats):
                view.inc("cache_served", receipt.cache_hits)
                view.inc("disk_served", receipt.disk_reads)
                if exists:
                    view.inc("positives")
            return exists

    def _query_slice(self, shard: int, us: np.ndarray, vs: np.ndarray):
        """One pool task: NDF + storage probe for one shard's pairs.

        Touches nothing shared and mutable — results and the private
        receipt travel back to the coordinator for booking.
        """
        with default_tracer().span("query_shard", shard=str(shard)):
            n = len(us)
            answers = np.zeros(n, dtype=bool)
            receipt = ReadReceipt()
            if self.nonedge_filter is not None:
                with default_tracer().span("ndf_filter", shard=str(shard)):
                    certain = nonedge_batch_mask(self.nonedge_filter, us, vs)
                survivors = ~certain
            else:
                survivors = np.ones(n, dtype=bool)
            executed = int(survivors.sum())
            if executed:
                exists = self.store.probe_shard(
                    shard, us[survivors], vs[survivors], receipt=receipt)
                answers[survivors] = exists
            return answers, n - executed, executed, receipt

    def _has_edge_batch(self, tracer, pairs_u, pairs_v) -> np.ndarray:
        with tracer.span("query_batch", engine=self.stats.scope):
            us, vs = endpoint_arrays(pairs_u, pairs_v)
            n = len(us)
            answers = np.zeros(n, dtype=bool)
            if n == 0:
                return answers
            if self.nonedge_filter is not None:
                warm_batch_snapshot(self.nonedge_filter)
            # The shared guard spans partition → fan-out → merge, so a
            # mutation or reshard flip cannot move a vertex between the
            # routing decision and the per-segment probe.  Pool tasks
            # rely on the coordinator's hold; they take no locks.
            with self.store.read_guard():
                self._sync_generation()
                slices = list(shard_slices(self.store.router, us, vs))
                futures = [
                    (shard, idx,
                     self._pool.submit(self._query_slice, shard, su, sv))
                    for shard, idx, su, sv in slices
                ]
                # Join every future *before* taking the booking lock:
                # waiting on pool tasks under self._book_lock would
                # stall the scalar path behind the slowest shard probe.
                results = [(shard, idx, future.result())
                           for shard, idx, future in futures]
                with self._book_lock:
                    self.stats.inc("total", n)
                    for shard, idx, result in results:
                        slice_answers, filtered, executed, receipt = result
                        answers[idx] = slice_answers
                        positives = int(slice_answers.sum())
                        shard_view = self.shard_stats[shard]
                        shard_view.inc("total", len(idx))
                        for view in (self.stats, shard_view):
                            view.inc("filtered", filtered)
                            view.inc("executed", executed)
                            view.inc("cache_served", receipt.cache_hits)
                            view.inc("disk_served", receipt.disk_reads)
                            view.inc("positives", positives)
                return answers

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelEdgeQueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
