"""Traced runs: timing wrappers around each layer's public functions,
installed from outside the program, and the per-layer metrics derived
from their spans and from the program's own counters.

Each wrapper is patched where the name is looked up (a module-level
function imported by name into its caller is patched in the caller's
module).  A span records its layer, start, end, thread, parent span and
the id of the batch (root span) it belongs to.  Spans on shard pool
threads have no parent on their own thread; their parent is the root
span in flight on the calling thread.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

from repro.apps import VendGraphDB
from repro.apps import edge_query
from repro.core import columnar
from repro.core.hybrid import HybridVend
from repro.storage import graphstore, kvstore
from repro.storage.hotcache import HotSetCache
from repro.storage.kvstore import DiskKVStore
from repro.storage.sharding import ShardedGraphStore

#: (layer, owner, attribute, role).  Role "root" starts a batch id;
#: "items" also records ``len(args[1])`` (pairs or records handled);
#: "list" drains a generator inside the span.
TARGETS = (
    ("apps.batch", VendGraphDB, "has_edge_batch", "root"),
    ("apps.write", VendGraphDB, "add_edge", "root"),
    ("apps.write", VendGraphDB, "remove_edge", "root"),
    ("apps.rebuild_index", VendGraphDB, "rebuild_index", "root"),
    ("core.ndf", edge_query, "nonedge_batch_mask", "items"),
    ("core.columnar_build", columnar, "ColumnarIndex", None),
    ("core.maintenance", HybridVend, "insert_edge", None),
    ("core.maintenance", HybridVend, "delete_edge", None),
    ("sharding.route", edge_query, "shard_slices", "list"),
    ("sharding.probe_shard", ShardedGraphStore, "probe_shard", None),
    ("sharding.write", ShardedGraphStore, "insert_edge", None),
    ("sharding.write", ShardedGraphStore, "delete_edge", None),
    ("hotcache.probe", HotSetCache, "probe_verdicts", None),
    ("hotcache.admit", HotSetCache, "admit", None),
    ("kvstore.packed_get", DiskKVStore, "get_many_packed", None),
    ("kvstore.put", DiskKVStore, "put", None),
    ("kvstore.open", DiskKVStore, "__init__", None),
    ("graphstore.sweep", graphstore, "membership_sweep", None),
    ("simd.decode", kvstore, "decode_blobs_packed", "items"),
)

#: Every per-layer metric: (name, unit, better).
PER_LAYER = (
    ("server.requests", "count", "higher"),
    ("server.coalesced_batches", "count", "lower"),
    ("server.pairs_per_batch", "pairs", "higher"),
    ("server.rejected", "count", "lower"),
    ("server.engine_s", "s", "lower"),
    ("server.non_engine_ms", "ms", "lower"),
    ("apps.batch_calls", "count", "higher"),
    ("apps.batch_s", "s", "lower"),
    ("apps.self_s", "s", "lower"),
    ("apps.write_s", "s", "lower"),
    ("apps.rebuild_index_s", "s", "lower"),
    ("core.ndf_s", "s", "lower"),
    ("core.ndf_pairs", "count", "higher"),
    ("core.filter_rate", "1", "higher"),
    ("core.nonedge_refute_rate", "1", "higher"),
    ("core.columnar_builds", "count", "lower"),
    ("core.columnar_build_s", "s", "lower"),
    ("core.maintenance_s", "s", "lower"),
    ("core.maintenance_reads", "count", "lower"),
    ("sharding.route_s", "s", "lower"),
    ("sharding.probe_shard_s", "s", "lower"),
    ("sharding.shard_imbalance", "1", "lower"),
    ("sharding.write_s", "s", "lower"),
    ("hotcache.hits", "count", "higher"),
    ("hotcache.misses", "count", "lower"),
    ("hotcache.hit_rate", "1", "higher"),
    ("hotcache.invalidations", "count", "lower"),
    ("hotcache.bytes", "B", "lower"),
    ("hotcache.probe_s", "s", "lower"),
    ("hotcache.admit_s", "s", "lower"),
    ("kvstore.packed_get_s", "s", "lower"),
    ("kvstore.logical_reads", "count", "lower"),
    ("kvstore.physical_reads", "count", "lower"),
    ("kvstore.bytes_read", "B", "lower"),
    ("kvstore.reads_per_survivor", "1", "lower"),
    ("kvstore.put_s", "s", "lower"),
    ("kvstore.bytes_written_per_write", "B", "lower"),
    ("kvstore.open_s", "s", "lower"),
    ("kvstore.compression_ratio", "1", "higher"),
    ("graphstore.sweep_s", "s", "lower"),
    ("simd.decode_s", "s", "lower"),
    ("simd.records_decoded", "count", "lower"),
    ("bench.trace_overhead", "1", "lower"),
    ("bench.layer_coverage", "1", "higher"),
    ("bench.late_p99_ms", "ms", "lower"),
)


class SpanRecorder:
    """Installs the wrappers and keeps every span in memory."""

    def __init__(self):
        # (span id, layer, start, end, thread, parent, batch, items)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._saved: list[tuple] = []
        self._threads: dict[int, str] = {}

    def _wrap(self, layer: str, fn, role):
        rec = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(rec._local, "stack", None)
            if stack is None:
                stack = rec._local.stack = []
            if stack and stack[-1][1] == layer:
                # Re-entry into the same layer belongs to the outer span.
                return fn(*args, **kwargs)
            sid = next(rec._ids)
            parent = stack[-1][0] if stack else rec._root
            is_root = role == "root" and not stack
            if is_root:
                rec._root = sid
            batch = rec._root
            items = len(args[1]) if role == "items" else 0
            stack.append((sid, layer))
            start = time.perf_counter()
            try:
                if role == "list":
                    return list(fn(*args, **kwargs))
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    rec._root = 0
                rec.spans.append((sid, layer, start, end,
                                  threading.get_ident(), parent, batch,
                                  items))
        return timed

    def install(self) -> None:
        for layer, owner, attr, role in TARGETS:
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, role))

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def note_threads(self) -> None:
        """Remember the names of the live threads (pool threads are gone
        by the time the spans are written)."""
        self._threads.update((t.ident, t.name) for t in threading.enumerate())

    def dump(self, path, extra: dict) -> None:
        """Write the spans (column-wise) plus ``extra`` as JSON."""
        self.note_threads()
        cols = list(zip(*self.spans)) if self.spans else [[]] * 8
        doc = dict(extra)
        doc["threads"] = {str(k): v for k, v in self._threads.items()}
        doc["spans"] = {
            key: list(col) for key, col in zip(
                ("id", "layer", "start", "end", "thread", "parent",
                 "batch", "items"), cols)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def span_summary(spans: list[tuple], window: tuple[float, float]):
    """Inclusive and self time per layer, items per layer, and each
    thread's covered share of ``window``.

    Self time is computed per thread: a span's self time is its
    duration minus the spans nested under it on the same thread, so a
    batch waiting on pool threads keeps the wait as its own time.
    """
    child_time: dict[int, float] = defaultdict(float)
    thread_of = {s[0]: s[4] for s in spans}
    for sid, _layer, start, end, tid, parent, _b, _i in spans:
        if parent and thread_of.get(parent) == tid:
            child_time[parent] += end - start
    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    items: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    covered: dict[int, float] = defaultdict(float)
    batch_time: dict[int, float] = defaultdict(float)
    lo, hi = window
    for sid, layer, start, end, tid, parent, _b, n in spans:
        dur = end - start
        incl[layer] += dur
        own[layer] += dur - child_time[sid]
        items[layer] += n
        calls[layer] += 1
        if layer == "apps.batch":
            batch_time[tid] += dur
        if thread_of.get(parent) != tid:
            # Roots of this thread's span forest: the sum of their
            # clipped durations equals the sum of self times inside
            # the window.
            covered[tid] += max(0.0, min(end, hi) - max(start, lo))
    wall = max(hi - lo, 1e-12)
    coverage = {tid: t / wall for tid, t in covered.items()}
    caller = max(batch_time, key=batch_time.get, default=None)
    return incl, own, items, calls, coverage, caller


def counters(db) -> dict:
    """The program's own counters that the per-layer metrics difference."""
    qs = db.query_stats
    st = db.storage_stats
    hot = db.hot_caches()
    return {
        "total": int(qs.total),
        "filtered": int(qs.filtered),
        "executed": int(qs.executed),
        "disk_reads": int(st.disk_reads),
        "bytes_read": int(st.bytes_read),
        "bytes_written": int(st.bytes_written),
        "hot_hits": sum(int(c.stats.hits) for c in hot),
        "hot_misses": sum(int(c.stats.misses) for c in hot),
        "hot_invalidations": sum(int(c.stats.invalidations) for c in hot),
        "hot_bytes": sum(int(c.size_bytes) for c in hot),
        "maintenance_reads": int(db.maintenance_reads),
        "shard_executed": [int(s.executed) for s in db.shard_query_stats],
        "compression_ratio": float(st.compression_ratio),
    }


def layer_metrics(spans, window, before: dict, probed: dict, after: dict,
                  *, writes: int, nonedges: int, ops_traced: float,
                  ops_untraced: float, server: dict | None = None,
                  late_p99_ms: float = 0.0) -> tuple[dict, dict]:
    """Every per-layer metric as ``{name: value}``, plus per-thread
    coverage for the trace file.

    Counter snapshots: ``before`` the traced probe phase, ``probed``
    right after it, and ``after`` the writes that follow it.  Read-side
    counts come from the probe phase alone; write-side counts
    (bytes written, maintenance reads, invalidations) span both.

    ``kvstore.physical_reads`` is derived: the store books a hot-cache
    serve as a logical ``disk_reads`` (so verdicts and counters stay
    identical with the cache on or off), hence physical reads are
    logical reads minus hot-cache hits.
    """
    incl, own, items, calls, coverage, caller = span_summary(spans, window)

    def delta(end, key):
        return end[key] - before[key]

    reads = delta(probed, "disk_reads")
    hits = delta(probed, "hot_hits")
    misses = delta(probed, "hot_misses")
    total = delta(probed, "total")
    filtered = delta(probed, "filtered")
    executed = delta(probed, "executed")
    shard = (np.asarray(probed["shard_executed"], dtype=np.float64)
             - np.asarray(before["shard_executed"], dtype=np.float64))
    server = server or {}
    m = {
        "server.requests": server.get("requests", 0),
        "server.coalesced_batches": server.get("coalesced_batches", 0),
        "server.pairs_per_batch": server.get("pairs_per_batch", 0.0),
        "server.rejected": server.get("rejected", 0),
        "server.engine_s": server.get("engine_s", 0.0),
        "server.non_engine_ms": server.get("non_engine_ms", 0.0),
        "apps.batch_calls": calls["apps.batch"],
        "apps.batch_s": incl["apps.batch"],
        "apps.self_s": own["apps.batch"],
        "apps.write_s": incl["apps.write"],
        "apps.rebuild_index_s": incl["apps.rebuild_index"],
        "core.ndf_s": incl["core.ndf"],
        "core.ndf_pairs": items["core.ndf"],
        "core.filter_rate": filtered / total if total else 0.0,
        "core.nonedge_refute_rate": filtered / nonedges if nonedges else 0.0,
        "core.columnar_builds": calls["core.columnar_build"],
        "core.columnar_build_s": incl["core.columnar_build"],
        "core.maintenance_s": incl["core.maintenance"],
        "core.maintenance_reads": delta(after, "maintenance_reads"),
        "sharding.route_s": incl["sharding.route"],
        "sharding.probe_shard_s": incl["sharding.probe_shard"],
        "sharding.shard_imbalance": (float(shard.max() / shard.mean())
                                     if shard.size and shard.mean() > 0
                                     else 0.0),
        "sharding.write_s": incl["sharding.write"],
        "hotcache.hits": hits,
        "hotcache.misses": misses,
        "hotcache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "hotcache.invalidations": delta(after, "hot_invalidations"),
        "hotcache.bytes": probed["hot_bytes"],
        "hotcache.probe_s": incl["hotcache.probe"],
        "hotcache.admit_s": incl["hotcache.admit"],
        "kvstore.packed_get_s": incl["kvstore.packed_get"],
        "kvstore.logical_reads": reads,
        "kvstore.physical_reads": reads - hits,
        "kvstore.bytes_read": delta(probed, "bytes_read"),
        "kvstore.reads_per_survivor": reads / executed if executed else 0.0,
        "kvstore.put_s": incl["kvstore.put"],
        "kvstore.bytes_written_per_write": (
            delta(after, "bytes_written") / writes if writes else 0.0),
        "kvstore.open_s": incl["kvstore.open"],
        "kvstore.compression_ratio": after["compression_ratio"],
        "graphstore.sweep_s": incl["graphstore.sweep"],
        "simd.decode_s": incl["simd.decode"],
        "simd.records_decoded": items["simd.decode"],
        "bench.trace_overhead": (ops_untraced / ops_traced - 1.0
                                 if ops_traced else 0.0),
        "bench.layer_coverage": coverage.get(caller, 0.0),
        "bench.late_p99_ms": late_p99_ms,
    }
    return m, coverage
