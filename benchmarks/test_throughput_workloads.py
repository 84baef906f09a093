"""Streaming workloads against the hot-set decode cache (ISSUE 10).

The PR 6 report crowned compressed + mmap storage behind the 4-shard
thread engine as the best probe configuration.  This benchmark replays
seeded workload streams through that exact configuration twice — hot
cache off (the PR 6 best config, rebuilt on this host) and on — and
records per-scenario rows:

- ``uniform`` — no hot set; the no-regression guard (within 5%);
- ``zipfian`` — skewed left endpoints, random right endpoints: the
  NDF filter absorbs most probes, the cache sees the storage residue;
- ``zipfian_hot_set`` — the headline: Zipf(1.0)-weighted probes of
  real edges, every probe survives the filter and lands on storage
  decode.  Acceptance: the hot cache answers at >= 1.5x the cold
  path's throughput with bitwise-identical verdicts;
- ``churn`` — probe runs alternating with write storms: invalidation
  and re-warm under mutation, verdict-checked hot vs cold;
- ``mixed`` — fine-grained read/write interleaving (short batches).

Cold and hot engines are timed in *alternating* best-of rounds inside
one process, so CPU frequency drift hits both sides equally — the
ratio is stable run to run even when absolute ops/sec wander.

Emits ``benchmarks/results/throughput_workloads.json`` and, via
``bench_report``, the ``BENCH_PR10.json`` section at the repo root.
"""

import json
import time

import numpy as np

from repro.apps.database import VendGraphDB
from repro.bench import results_dir
from repro.graph import powerlaw_graph
from repro.workloads import make_stream
from repro.workloads.runner import run_stream

N_VERTICES = 20_000
AVG_DEGREE = 48
K = 6
METHOD = "hyb+"
SHARDS = 4
PROBE_OPS = 200_000
CHURN_OPS = 60_000
MIXED_OPS = 20_000
HOT_BYTES = 64 << 20
WARM_PASSES = 8
ROUNDS = 5
MIN_HOT_SPEEDUP = 1.5
MAX_UNIFORM_REGRESSION = 0.95


def _alternating_best(dbs, us, vs):
    """Best wall time per engine over interleaved timed rounds."""
    want = None
    for db in dbs.values():
        for _ in range(WARM_PASSES):
            got = np.asarray(db.has_edge_batch(us, vs), dtype=bool)
        if want is None:
            want = got
        assert np.array_equal(got, want)  # hot/cold verdict parity
    best = dict.fromkeys(dbs, float("inf"))
    for _ in range(ROUNDS):
        for tag, db in dbs.items():
            t0 = time.perf_counter()
            db.has_edge_batch(us, vs)
            best[tag] = min(best[tag], time.perf_counter() - t0)
    return best, want


def _cache_digest(db):
    caches = db.hot_caches()
    counts = [c.stats.snapshot() for c in caches]
    return {
        "entries": sum(len(c) for c in caches),
        "size_bytes": sum(c.size_bytes for c in caches),
        "hits": sum(s["hits"] for s in counts),
        "misses": sum(s["misses"] for s in counts),
        "invalidations": sum(s["invalidations"] for s in counts),
    }


def test_workload_sweep_hot_cache(tmp_path, bench_report):
    graph = powerlaw_graph(N_VERTICES, avg_degree=AVG_DEGREE, seed=1)
    dbs = {}
    for tag, hot in (("cold", 0), ("hot", HOT_BYTES)):
        db = VendGraphDB(tmp_path / f"{tag}.db", k=K, method=METHOD,
                         shards=SHARDS, compress=True, use_mmap=True,
                         hot_cache_bytes=hot)
        db.load_graph(graph)
        dbs[tag] = db

    rows = []

    # Probe-only scenarios, shared warmed stores, alternating rounds.
    probe_only = [
        ("uniform", "random", {}),
        ("zipfian", "zipfian", {"skew": 1.0}),
        ("zipfian_hot_set", "edges", {"skew": 1.0}),
    ]
    for scenario, kind, kwargs in probe_only:
        stream = make_stream(kind, graph, PROBE_OPS, seed=2, **kwargs)
        best, verdicts = _alternating_best(dbs, stream.us, stream.vs)
        rows.append({
            "scenario": scenario, "kind": kind, **kwargs,
            "ops": PROBE_OPS, "writes": 0,
            "positives": int(verdicts.sum()),
            "cold_ops_per_sec": round(PROBE_OPS / best["cold"]),
            "hot_ops_per_sec": round(PROBE_OPS / best["hot"]),
            "hot_speedup": round(best["cold"] / best["hot"], 3),
            "verdicts_identical": True,  # asserted in _alternating_best
            "hot_cache": _cache_digest(dbs["hot"]),
        })

    # Write-bearing scenarios: the same stream of inserts/deletes is
    # applied to both stores (verdicts stay comparable), probes timed
    # by the runner.  Each write invalidates the shards' lazy probe
    # structures, so every probe segment after a write pays a rebuild;
    # mixed interleaves at ~1% write ratio and is kept short because
    # that rebuild tax — not the cache — dominates its wall time.
    write_bearing = [
        ("churn", CHURN_OPS, {}),
        ("mixed", MIXED_OPS, {"write_ratio": 0.01}),
    ]
    for scenario, ops, kwargs in write_bearing:
        stream = make_stream(scenario, graph, ops, seed=3, **kwargs)
        results = {tag: run_stream(db, stream) for tag, db in dbs.items()}
        cold, hot = results["cold"], results["hot"]
        assert np.array_equal(cold.verdicts, hot.verdicts), (
            f"{scenario}: hot verdicts diverged from cold")
        counts = stream.op_counts()
        rows.append({
            "scenario": scenario, "kind": scenario,
            "ops": len(stream), "writes": counts["insert"] + counts["delete"],
            "positives": cold.positives,
            "cold_ops_per_sec": round(cold.probe_throughput),
            "hot_ops_per_sec": round(hot.probe_throughput),
            "hot_speedup": round(hot.probe_throughput
                                 / cold.probe_throughput, 3)
            if cold.probe_throughput else 0.0,
            "verdicts_identical": True,
            "hot_cache": _cache_digest(dbs["hot"]),
        })

    for db in dbs.values():
        db.close()

    by_scenario = {row["scenario"]: row for row in rows}
    headline = by_scenario["zipfian_hot_set"]["hot_speedup"]
    payload = {
        "workload": {
            "graph": f"powerlaw(n={N_VERTICES}, avg_degree={AVG_DEGREE}, "
                     "seed=1)",
            "solution": f"{METHOD}(k={K})",
            "engine": f"thread, shards={SHARDS}, compress+mmap "
                      "(BENCH_PR6 best config)",
            "hot_cache_bytes": HOT_BYTES,
            "probe_ops": PROBE_OPS, "churn_ops": CHURN_OPS,
            "mixed_ops": MIXED_OPS,
            "rounds": ROUNDS, "warm_passes": WARM_PASSES,
        },
        "scenarios": rows,
        "headline_hot_speedup": headline,
    }
    out = results_dir() / "throughput_workloads.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    bench_report("workloads_hot_cache", payload, report="BENCH_PR10.json")
    print("\n" + "  ".join(
        f"{row['scenario']}={row['hot_speedup']:.2f}x" for row in rows)
        + f" -> {out}")

    assert headline >= MIN_HOT_SPEEDUP, (
        f"hot cache only {headline:.2f}x on the Zipf hot-set workload "
        f"(need {MIN_HOT_SPEEDUP}x)")
    uniform = by_scenario["uniform"]["hot_speedup"]
    assert uniform >= MAX_UNIFORM_REGRESSION, (
        f"hot cache regressed the uniform sweep to {uniform:.2f}x "
        f"(floor {MAX_UNIFORM_REGRESSION}x)")
