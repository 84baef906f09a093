"""Sharded parallel batch queries vs the PR 1 serial read path.

The ISSUE 5 acceptance bar: the 4-shard / 4-worker
:class:`ParallelEdgeQueryEngine` must answer the seeded 100k-pair
workload at >= 2x the throughput of the PR 1 batch pipeline, with
bitwise-identical verdicts.  The PR 1 baseline is reconstructed
faithfully below — one ``pread`` per record in offset order, no span
coalescing, no packed numpy assembly, no checksums (PR 2 added those)
— and installed onto a real disk store, so the comparison isolates
exactly the read-path and shard-layer work this PR adds.

Workload: one probe per distinct vertex of a 100k-vertex powerlaw
graph, each against its first sorted neighbor.  Every probe is a true
edge, so the NDF filters nothing and every pair pays a storage read —
the disk-bound regime the shard layer exists for.  Hub-skewed pair
sampling would collapse to ~33k distinct left endpoints and understate
the multi-get volume; one-probe-per-vertex keeps all ~100k adjacency
lists in play.

Emits the shard/worker sweep (throughput, p50/p99 batch latency) to
``benchmarks/results/throughput_sharded.json`` and, via the
``bench_report`` fixture, to ``BENCH_PR5.json`` at the repo root.
"""

import json
import os
import time

import numpy as np

from repro.apps import EdgeQueryEngine, ParallelEdgeQueryEngine
from repro.bench import make_solution, results_dir
from repro.graph import powerlaw_graph
from repro.storage import GraphStore, ShardedGraphStore
from repro.storage.kvstore import pack_in_order

N_VERTICES = 100_000
AVG_DEGREE = 8
K = 6
METHOD = "hyb+"
ROUNDS = 7
MIN_SPEEDUP = 2.0
SWEEP = [(1, 1), (2, 1), (2, 4), (4, 1), (4, 4)]


def _one_probe_per_vertex(graph):
    """``(v, first sorted neighbor of v)`` for every non-isolated v."""
    edges = np.asarray(sorted(graph.edges()), dtype=np.int64)
    both = np.concatenate([edges, edges[:, [1, 0]]])
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    firsts = both[np.unique(both[:, 0], return_index=True)[1]]
    return firsts[:, 0].copy(), firsts[:, 1].copy()


def _install_pr1_read_path(store):
    """Regress a disk store's multi-get to the PR 1 implementation.

    PR 1's ``get_many`` walked the offset-sorted pending list issuing
    one ``pread`` per record — no coalesced spans, no packed buffer,
    no checksum validation (checksums arrived in PR 2).  Stats booking
    matches the modern path (one logical disk read per distinct stored
    key) so engine counters stay comparable.
    """
    kv = store._kv

    def pr1_get_many(keys, receipt=None):
        result = {}
        pending = []
        for key in keys:
            key = int(key)
            if key in result:
                continue
            loc = kv._index.get(key)
            if loc is None:
                result[key] = None
                continue
            result[key] = None
            pending.append((loc[0], loc[1], key))
        pending.sort()
        if kv._pending_flush and pending:
            kv._file.flush()
            kv._pending_flush = False
        disk_reads = bytes_read = 0
        for offset, size, key in pending:
            value = os.pread(kv._read_fd, size, offset)
            disk_reads += 1
            bytes_read += len(value)
            result[key] = value
        if disk_reads:
            kv.stats.inc("disk_reads", disk_reads)
            kv.stats.inc("bytes_read", bytes_read)
            if receipt is not None:
                receipt.count_disk_reads(disk_reads, bytes_read)
        return result

    kv.get_many = pr1_get_many
    # PR 1 had no packed read: probe_edges gets the dict multi-get's
    # blobs joined in key order.
    kv.get_many_packed = (lambda keys, receipt=None: pack_in_order(
        keys, pr1_get_many(keys, receipt=receipt)))
    return store


def _timed_rounds(run_batch):
    """Best-of / percentile batch latencies over ``ROUNDS`` warm runs."""
    run_batch()  # warm: page cache + first-touch checksum arming
    laps = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        run_batch()
        laps.append(time.perf_counter() - start)
    laps = np.asarray(laps, dtype=np.float64)
    return {
        "best_seconds": round(float(laps.min()), 4),
        "p50_seconds": round(float(np.percentile(laps, 50)), 4),
        "p99_seconds": round(float(np.percentile(laps, 99)), 4),
    }


def test_sharded_parallel_speedup(tmp_path, bench_report):
    graph = powerlaw_graph(N_VERTICES, avg_degree=AVG_DEGREE, seed=1)
    solution = make_solution(METHOD, K, graph)
    us, vs = _one_probe_per_vertex(graph)
    num_pairs = len(us)
    solution.is_nonedge_batch([(int(us[0]), int(vs[0]))])  # warm snapshot

    # PR 1 baseline: serial engine over the regressed read path.
    pr1_store = GraphStore(tmp_path / "pr1.db", cache_bytes=0)
    pr1_store.bulk_load(graph)
    _install_pr1_read_path(pr1_store)
    pr1 = EdgeQueryEngine(pr1_store, nonedge_filter=solution)
    want = pr1.has_edge_batch(us, vs)
    assert want.all()  # every probe is a real edge: nothing filtered
    pr1_timing = _timed_rounds(lambda: pr1.has_edge_batch(us, vs))
    pr1_ops = num_pairs / pr1_timing["best_seconds"]

    # Current serial engine (coalesced + packed read path, 1 store).
    serial_store = GraphStore(tmp_path / "serial.db", cache_bytes=0)
    serial_store.bulk_load(graph)
    serial = EdgeQueryEngine(serial_store, nonedge_filter=solution)
    assert (serial.has_edge_batch(us, vs) == want).all()
    serial_timing = _timed_rounds(lambda: serial.has_edge_batch(us, vs))
    serial_ops = num_pairs / serial_timing["best_seconds"]

    # Shard/worker sweep over the parallel engine.
    sweep = []
    for shards, workers in SWEEP:
        store = ShardedGraphStore(tmp_path / f"s{shards}.db",
                                  num_shards=shards, cache_bytes=0)
        if not store.num_vertices:
            store.bulk_load(graph)
        with ParallelEdgeQueryEngine(store, nonedge_filter=solution,
                                     workers=workers) as engine:
            assert (engine.has_edge_batch(us, vs) == want).all()
            timing = _timed_rounds(lambda: engine.has_edge_batch(us, vs))
        ops = num_pairs / timing["best_seconds"]
        sweep.append({"shards": shards, "workers": workers,
                      "ops_per_sec": round(ops),
                      "speedup_vs_pr1": round(ops / pr1_ops, 2),
                      **timing})

    headline = next(row for row in sweep
                    if row["shards"] == 4 and row["workers"] == 4)
    payload = {
        "workload": {"pairs": num_pairs, "kind": "one-probe-per-vertex",
                     "graph": f"powerlaw(n={N_VERTICES}, "
                              f"avg_degree={AVG_DEGREE}, seed=1)",
                     "solution": f"{METHOD}(k={K})",
                     "store": "disk, cache_bytes=0", "rounds": ROUNDS},
        "pr1_serial_baseline": {"ops_per_sec": round(pr1_ops),
                                **pr1_timing},
        "serial_current": {"ops_per_sec": round(serial_ops),
                           "speedup_vs_pr1": round(serial_ops / pr1_ops, 2),
                           **serial_timing},
        "sweep": sweep,
        "headline_speedup_vs_pr1": headline["speedup_vs_pr1"],
    }
    out = results_dir() / "throughput_sharded.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    bench_report("sharded_parallel", payload, report="BENCH_PR5.json")
    print(f"\npr1 {pr1_ops:,.0f} ops/s, serial {serial_ops:,.0f} ops/s, "
          f"4x4 {headline['ops_per_sec']:,.0f} ops/s "
          f"({headline['speedup_vs_pr1']:.2f}x) -> {out}")

    assert headline["speedup_vs_pr1"] >= MIN_SPEEDUP, (
        f"4-shard/4-worker engine only {headline['speedup_vs_pr1']:.2f}x "
        f"the PR 1 batch path (need {MIN_SPEEDUP}x)"
    )
