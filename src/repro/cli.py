"""Command-line interface: ``python -m repro <command>``.

Commands cover the basic operational loop of a VEND deployment:

- ``generate`` — synthesize a graph (named analogue or custom
  power-law) as an edge-list file;
- ``build`` — encode a graph into a persistent VEND index;
- ``info`` — describe an index file;
- ``query`` — run one NEpair determination;
- ``score`` — evaluate the VEND score on a sampled workload;
- ``analyze`` — index statistics and per-pair-class score breakdown;
- ``lint`` — the VEND invariant linter (rules R001–R006, DESIGN.md §9);
  ``--concurrency`` adds the lock-discipline/lifetime rules
  (R007–R012, DESIGN.md §14), ``--format json|github`` emits
  machine-readable output or workflow annotations;
- ``audit`` — seeded differential soundness sweep over registered
  solutions (zero false no-edge verdicts, scalar/batch agreement,
  post-maintenance validity); ``--chaos`` adds the kill-a-shard
  failover + online-reshard sweep over a replicated store;
- ``stats`` — run a seeded end-to-end workload and export every
  counter from the metrics registry (text, ``--json``, or
  ``--prometheus``); ``--filter PREFIX`` restricts the export to
  metric families whose name starts with ``PREFIX``;
- ``trace`` — the same workload with the span tracer enabled,
  printing the ``query → ndf_filter → storage_get → cache`` trees;
- ``bench`` — batched-query throughput, a one-segment store vs an
  S-segment store, with ``--check-speedup`` as a CI gate;
  ``--workload`` selects the probe mix (``random``/``edges`` pair
  batches, or the streaming ``zipfian``/``churn``/``mixed`` kinds from
  :mod:`repro.workloads`), and ``--check-hot-speedup`` gates the
  hot-set decode cache (``--hot-cache-bytes``) against a cold run of
  the same configuration;
- ``serve`` — the asyncio HTTP/JSON edge-query server (DESIGN.md §15):
  ``/v1/edges:probe``, ``/v1/neighbors``, ``/v1/mutations``,
  ``/healthz``, ``/metrics``, with cross-client probe coalescing,
  token-bucket admission (``--rate``/``--burst``) and backpressure;
- ``fuzz`` — the schema-driven fuzz harness against a ``serve``
  instance (or a self-hosted empty one): hypothesis-generated
  mutate/probe sequences vs a shadow ground truth, then a concurrent
  hammer phase; exits non-zero on any false no-edge verdict, 5xx, or
  malformed payload that was not answered with a 4xx.

``stats``, ``trace``, ``audit`` and ``bench`` accept
``--shards``/``--workers``/``--replicas`` (defaults: the
``REPRO_SHARDS``/``REPRO_WORKERS``/``REPRO_REPLICAS`` env vars) to
set the segment count, pool threads and replica copies of the
hash-partitioned store every database runs on, plus the storage-tier
switches ``--compress`` (StreamVByte v3 adjacency records, default
``$REPRO_COMPRESS``), ``--mmap`` (mmap-served packed reads, default
``$REPRO_MMAP``), and ``--hot-cache-bytes`` (default
``$REPRO_HOT_CACHE`` or 0) budgeting the shard-local decoded-blob hot
cache (DESIGN.md §16).  The hot cache needs the block cache off:
``stats``, ``trace`` and ``bench`` exit with a usage error unless
``--cache-bytes 0`` comes with it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .core import (
    HybPlusVend,
    HybridVend,
    index_statistics,
    score_breakdown,
    vend_score,
)
from .core.persistence import load_index, save_index
from .datasets import dataset_names
from .datasets import load as load_dataset
from .graph import powerlaw_graph, read_edge_list, write_edge_list
from .workloads import common_neighbor_pairs, random_pairs

__all__ = ["main", "build_parser"]


def _env_flag(name: str) -> bool:
    """Truthiness of an environment switch (``1``/``true``/``yes``/``on``)."""
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes",
                                                        "on")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VEND: vertex encoding for edge nonexistence determination",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="synthesize a graph as an edge-list file"
    )
    generate.add_argument("--out", required=True, type=Path)
    source = generate.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", choices=dataset_names())
    source.add_argument("--powerlaw", nargs=2, metavar=("N", "AVG_DEGREE"))
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=0)

    build = commands.add_parser("build", help="encode a graph into an index")
    build.add_argument("--graph", required=True, type=Path)
    build.add_argument("--out", required=True, type=Path)
    build.add_argument("--method", choices=["hybrid", "hyb+"],
                       default="hyb+")
    build.add_argument("--k", type=int, default=8)
    build.add_argument("--id-bits", type=int, default=None)

    info = commands.add_parser("info", help="describe an index file")
    info.add_argument("index", type=Path)

    query = commands.add_parser("query", help="one NEpair determination")
    query.add_argument("index", type=Path)
    query.add_argument("u", type=int)
    query.add_argument("v", type=int)

    score = commands.add_parser("score", help="evaluate the VEND score")
    score.add_argument("--index", required=True, type=Path)
    score.add_argument("--graph", required=True, type=Path)
    score.add_argument("--pairs", type=int, default=100_000)
    score.add_argument("--workload", choices=["random", "common"],
                       default="random")
    score.add_argument("--seed", type=int, default=0)

    analyze = commands.add_parser(
        "analyze", help="index statistics and score breakdown"
    )
    analyze.add_argument("--index", required=True, type=Path)
    analyze.add_argument("--graph", required=True, type=Path)
    analyze.add_argument("--pairs", type=int, default=50_000)
    analyze.add_argument("--seed", type=int, default=0)

    lint = commands.add_parser(
        "lint", help="run the VEND invariant linter (R001-R006)"
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--rules", default=None,
                      help="comma-separated subset, e.g. R001,R003")
    lint.add_argument("--concurrency", action="store_true",
                      help="also run the concurrency-contract rules "
                           "(R007-R012, DESIGN.md §14)")
    lint.add_argument("--format", default="text",
                      choices=("text", "json", "github"),
                      help="text (default), json (machine-readable), or "
                           "github (::error workflow annotations)")

    audit = commands.add_parser(
        "audit", help="seeded soundness sweep over registered solutions"
    )
    audit.add_argument("--solutions", default="all",
                       help='comma-separated names or "all" (the registry)')
    audit.add_argument("--seed", type=int,
                       default=int(os.environ.get("REPRO_AUDIT_SEED", "0")))
    audit.add_argument("--vertices", type=int, default=300)
    audit.add_argument("--avg-degree", type=float, default=8.0)
    audit.add_argument("--k", type=int, default=6)
    audit.add_argument("--pairs", type=int, default=2000)
    audit.add_argument("--updates", type=int, default=50)
    audit.add_argument("--no-maintenance", action="store_true",
                       help="skip the insert+delete maintenance phase")
    audit.add_argument("--chaos", action="store_true",
                       help="kill-a-shard failover + online-reshard sweep "
                            "(needs --shards > 1; uses --replicas, default "
                            "1, and seeds injectors from $REPRO_FAULT_SEED)")
    audit.add_argument("--reshard-to", type=int, default=None,
                       help="online-reshard target for --chaos "
                            "(default: shards // 2)")
    audit.add_argument("--stream", default=None,
                       choices=["random", "zipfian", "edges", "churn",
                                "mixed"],
                       help="also run the streaming differential audit: "
                            "replay a seeded op stream against hot-cache-on "
                            "and hot-cache-off engines and require bitwise "
                            "identical verdicts and counters")
    audit.add_argument("--stream-ops", type=int, default=6000,
                       help="ops in the --stream audit (default 6000)")

    def add_shard_args(sub) -> None:
        sub.add_argument("--shards", type=int,
                         default=int(os.environ.get("REPRO_SHARDS", "1")),
                         help="storage segments (default: $REPRO_SHARDS "
                              "or 1)")
        sub.add_argument("--workers", type=int,
                         default=int(os.environ.get("REPRO_WORKERS", "0"))
                         or None,
                         help="query pool threads (default: $REPRO_WORKERS "
                              "or one per shard)")
        sub.add_argument("--replicas", type=int,
                         default=int(os.environ.get("REPRO_REPLICAS", "0")),
                         help="replica copies per shard (default: "
                              "$REPRO_REPLICAS or 0; >0 enables read "
                              "failover + repair)")
        sub.add_argument("--compress", action="store_true",
                         default=_env_flag("REPRO_COMPRESS"),
                         help="store adjacency blobs as StreamVByte v3 "
                              "records (default: $REPRO_COMPRESS)")
        sub.add_argument("--mmap", action="store_true",
                         default=_env_flag("REPRO_MMAP"),
                         help="serve packed reads from an mmap of the log "
                              "(default: $REPRO_MMAP)")
        sub.add_argument("--hot-cache-bytes", type=int,
                         default=int(os.environ.get("REPRO_HOT_CACHE", "0")),
                         help="decoded-blob hot-cache budget, split across "
                              "shards (default: $REPRO_HOT_CACHE or 0 — "
                              "disabled); needs --cache-bytes 0 where the "
                              "command has a block cache")

    add_shard_args(audit)

    def add_workload_args(sub) -> None:
        sub.add_argument("--vertices", type=int, default=300)
        sub.add_argument("--avg-degree", type=float, default=8.0)
        sub.add_argument("--k", type=int, default=6)
        sub.add_argument("--method", choices=["hybrid", "hyb+"],
                         default="hyb+")
        sub.add_argument("--pairs", type=int, default=2000)
        sub.add_argument("--updates", type=int, default=50)
        sub.add_argument("--cache-bytes", type=int, default=1 << 16)
        sub.add_argument("--seed", type=int, default=0)
        add_shard_args(sub)

    stats = commands.add_parser(
        "stats", help="run a seeded workload and export all metrics"
    )
    add_workload_args(stats)
    fmt = stats.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="emit the registry as JSON")
    fmt.add_argument("--prometheus", action="store_true",
                     help="emit Prometheus text exposition format")
    stats.add_argument("--filter", default=None, metavar="PREFIX",
                       help="only export metric families whose name starts "
                            "with PREFIX (e.g. repro_hot, repro_cache); "
                            "applies to all three output formats")

    trace = commands.add_parser(
        "trace", help="run a seeded workload with span tracing enabled"
    )
    add_workload_args(trace)
    trace.add_argument("--json", action="store_true",
                       help="emit traces as JSON")
    trace.add_argument("--limit", type=int, default=5,
                       help="number of most recent root traces to print")

    bench = commands.add_parser(
        "bench", help="batched-query throughput: one segment vs S segments"
    )
    bench.add_argument("--vertices", type=int, default=2000)
    bench.add_argument("--avg-degree", type=float, default=8.0)
    bench.add_argument("--k", type=int, default=6)
    bench.add_argument("--method", choices=["hybrid", "hyb+"],
                       default="hyb+")
    bench.add_argument("--pairs", type=int, default=100_000)
    bench.add_argument("--cache-bytes", type=int, default=0,
                       help="block-cache budget (default 0: every probe "
                            "pays real storage reads)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--workload",
                       choices=["random", "edges", "zipfian", "churn",
                                "mixed"],
                       default="random",
                       help="random pairs (NDF-bound), sampled edges "
                            "(storage-bound: nothing filters, every pair "
                            "pays a read — the regime sharding targets), "
                            "or a streaming kind: zipfian (skewed hot-set "
                            "probes — the regime the hot cache targets), "
                            "churn (probe runs + write storms), mixed "
                            "(interleaved reads and writes)")
    bench.add_argument("--skew", type=float, default=None,
                       help="Zipf exponent for the edges/zipfian/churn/"
                            "mixed workloads (default: each stream's own — "
                            "1.0 for the streaming kinds, 0.0 for edges)")
    bench.add_argument("--rounds", type=int, default=3,
                       help="timed rounds per config after one warm-up, "
                            "best round wins (probe-only workloads; the "
                            "write-bearing churn/mixed streams replay once "
                            "and report probe throughput)")
    add_shard_args(bench)
    bench.add_argument("--check-speedup", type=float, default=None,
                       metavar="X",
                       help="exit 1 unless sharded throughput >= X * the "
                            "one-segment store's (the CI smoke gate)")
    bench.add_argument("--check-hot-speedup", type=float, default=None,
                       metavar="X",
                       help="exit 1 unless the sharded config with the hot "
                            "cache on reaches X * the same config with it "
                            "off (budget: --hot-cache-bytes, or 4 MiB if "
                            "unset)")

    serve = commands.add_parser(
        "serve", help="serve a VendGraphDB over HTTP/JSON (DESIGN.md §15)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0: ephemeral, printed at start)")
    serve.add_argument("--graph", type=Path, default=None,
                       help="edge-list file to load (default: a seeded "
                            "power-law graph, or nothing with --empty)")
    serve.add_argument("--empty", action="store_true",
                       help="start with an empty graph (the fuzz target: "
                            "ground truth is built from mutations)")
    serve.add_argument("--vertices", type=int, default=300)
    serve.add_argument("--avg-degree", type=float, default=8.0)
    serve.add_argument("--k", type=int, default=6)
    serve.add_argument("--method", choices=["hybrid", "hyb+"],
                       default="hyb+")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--batch-window", type=float, default=0.002,
                       help="probe-coalescing window in seconds (0: drain "
                            "whatever is queued, never wait)")
    serve.add_argument("--rate", type=float, default=0.0,
                       help="per-client admission tokens/s; probes cost "
                            "one token per pair (default 0: disabled)")
    serve.add_argument("--burst", type=float, default=10000.0,
                       help="per-client token-bucket capacity")
    serve.add_argument("--max-queue-pairs", type=int, default=65536,
                       help="in-flight probe-pair bound before 429s")
    add_shard_args(serve)

    fuzz = commands.add_parser(
        "fuzz", help="schema-driven fuzz of the edge-query server"
    )
    fuzz.add_argument("--url", default=None,
                      help="fuzz a running server (must have started "
                           "empty, e.g. `repro serve --empty`); default: "
                           "self-host one")
    fuzz.add_argument("--seed", type=int,
                      default=int(os.environ.get("REPRO_FUZZ_SEED", "0")))
    fuzz.add_argument("--examples", type=int, default=40,
                      help="hypothesis examples in the sequential phase")
    fuzz.add_argument("--clients", type=int, default=64,
                      help="concurrent fuzz clients in the hammer phase")
    fuzz.add_argument("--per-client", type=int, default=20,
                      help="requests each concurrent client issues")
    fuzz.add_argument("--universe", type=int, default=24,
                      help="vertex-id universe size the fuzzer draws from")
    fuzz.add_argument("--check-metrics", action="store_true",
                      help="also verify /metrics counters move by exact "
                           "integers around a known request count")
    fuzz.add_argument("--k", type=int, default=6)
    add_shard_args(fuzz)

    return parser


def _cmd_generate(args) -> int:
    if args.dataset:
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    else:
        n, avg_degree = int(args.powerlaw[0]), float(args.powerlaw[1])
        graph = powerlaw_graph(round(n * args.scale), avg_degree,
                               seed=args.seed)
    lines = write_edge_list(graph, args.out)
    print(f"wrote {args.out}: |V|={graph.num_vertices} |E|={lines} "
          f"(avg degree {graph.average_degree():.1f})")
    return 0


def _cmd_build(args) -> int:
    graph = read_edge_list(args.graph)
    cls = HybridVend if args.method == "hybrid" else HybPlusVend
    solution = cls(k=args.k, id_bits=args.id_bits)
    start = time.perf_counter()
    solution.build(graph)
    elapsed = time.perf_counter() - start
    size = save_index(solution, args.out)
    print(f"built {args.method} (k={args.k}, k*={solution.k_star}, "
          f"I'={solution.id_bits}) over {graph} in {elapsed:.1f}s")
    print(f"wrote {args.out}: {size} bytes for {solution.num_codes} codes")
    return 0


def _cmd_info(args) -> int:
    solution = load_index(args.index)
    print(f"index: {args.index}")
    print(f"  solution : {solution.name}")
    print(f"  k        : {solution.k} ({solution.total_bits} bits/code)")
    print(f"  I'       : {solution.id_bits} bits per stored ID")
    print(f"  k*       : {solution.k_star}")
    print(f"  codes    : {solution.num_codes}")
    print(f"  memory   : {solution.memory_bytes()} bytes")
    return 0


def _cmd_query(args) -> int:
    solution = load_index(args.index)
    if solution.is_nonedge(args.u, args.v):
        print(f"({args.u}, {args.v}): NO EDGE (certain; skip the database)")
    else:
        print(f"({args.u}, {args.v}): UNDETERMINED (execute the edge query)")
    return 0


def _cmd_score(args) -> int:
    solution = load_index(args.index)
    graph = read_edge_list(args.graph)
    if args.workload == "random":
        pairs = random_pairs(graph, args.pairs, seed=args.seed)
    else:
        pairs = common_neighbor_pairs(graph, args.pairs, seed=args.seed)
    report = vend_score(solution, graph, pairs)
    print(f"workload  : {args.workload} x {args.pairs}")
    print(f"NEpairs   : {report.nepairs}")
    print(f"detected  : {report.detected}")
    print(f"score     : {report.score:.4f}")
    print(f"false pos : {report.false_positives}")
    return 1 if report.false_positives else 0


def _cmd_analyze(args) -> int:
    solution = load_index(args.index)
    graph = read_edge_list(args.graph)
    stats = index_statistics(solution)
    print(f"codes          : {stats.num_codes}")
    print(f"decodable      : {stats.decodable_codes} "
          f"({stats.decodable_fraction:.1%})")
    print(f"exact          : {stats.exact_codes}")
    print(f"block kinds    : {stats.block_kind_counts}")
    print(f"mean block size: {stats.mean_block_size:.1f}")
    print(f"slot occupancy : {stats.mean_slot_occupancy:.1%}")
    print(f"mean NT frac   : {stats.mean_nt_fraction:.3f}")
    pairs = common_neighbor_pairs(graph, args.pairs, seed=args.seed)
    split = score_breakdown(solution, graph, pairs)
    print("score by pair class (common-neighbor workload):")
    print(f"  dec-dec  : {split.decodable_decodable:.3f}")
    print(f"  mixed    : {split.mixed:.3f}")
    print(f"  core-core: {split.core_core:.3f}")
    print(f"  counts   : {split.class_counts}")
    return 0


def _cmd_lint(args) -> int:
    import json

    from .devtools import lint_paths

    rules = None
    if args.rules:
        rules = {r.strip() for r in args.rules.split(",") if r.strip()}
    findings = lint_paths(args.paths, rules=rules,
                          concurrency=args.concurrency)
    if args.format == "json":
        print(json.dumps([{"path": f.path, "line": f.line, "col": f.col,
                           "rule": f.rule, "message": f.message}
                          for f in findings], indent=2))
        return 1 if findings else 0
    if args.format == "github":
        for f in findings:
            # GitHub's annotation grammar: %, CR, LF must be escaped in
            # the message body.
            message = (f.message.replace("%", "%25")
                       .replace("\r", "%0D").replace("\n", "%0A"))
            print(f"::error file={f.path},line={f.line},"
                  f"col={f.col + 1},title={f.rule}::{message}")
        return 1 if findings else 0
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    print("lint: clean")
    return 0


def _cmd_audit(args) -> int:
    from .core import available_solutions, create_solution
    from .devtools import SoundnessAuditor
    from .graph import powerlaw_graph

    if args.solutions == "all":
        names = available_solutions()
    else:
        names = [n.strip() for n in args.solutions.split(",") if n.strip()]
    graph = powerlaw_graph(args.vertices, args.avg_degree, seed=args.seed)
    print(f"audit graph: |V|={graph.num_vertices} |E|={graph.num_edges} "
          f"seed={args.seed}")
    auditor = SoundnessAuditor(graph, seed=args.seed, pairs=args.pairs,
                               updates=args.updates)
    failed = 0
    for name in names:
        solution = create_solution(name, k=args.k)
        report = auditor.audit(solution,
                               maintenance=not args.no_maintenance)
        print(report.summary())
        for violation in report.violations:
            print(f"  {violation.format()}")
        failed += 0 if report.ok else 1
    if args.shards > 1:
        from .devtools import audit_parallel_engine

        print(f"parallel engine sweep: shards={args.shards} "
              f"workers={args.workers or args.shards} "
              f"compress={args.compress} mmap={args.mmap}")
        for name in names:
            report = audit_parallel_engine(
                graph, create_solution(name, k=args.k),
                shards=args.shards, workers=args.workers or args.shards,
                seed=args.seed, pairs=args.pairs, updates=args.updates,
                compress=args.compress, use_mmap=args.mmap,
            )
            print(report.summary())
            failed += 0 if report.ok else 1
    if args.stream:
        from .devtools import audit_stream

        hot = args.hot_cache_bytes or (1 << 20)
        print(f"stream audit: kind={args.stream} ops={args.stream_ops} "
              f"shards={args.shards} workers={args.workers or args.shards} "
              f"hot_cache_bytes={hot}")
        for name in names:
            report = audit_stream(
                graph, create_solution(name, k=args.k),
                stream_kind=args.stream, shards=args.shards,
                workers=args.workers or args.shards, seed=args.seed,
                ops=args.stream_ops, hot_cache_bytes=hot,
                compress=args.compress, use_mmap=args.mmap,
            )
            print(report.summary())
            failed += 0 if report.ok else 1
    if args.chaos:
        from .devtools import audit_chaos
        from .storage.faults import FAULT_SEED_ENV

        fault_seed = int(os.environ.get(FAULT_SEED_ENV, str(args.seed)))
        replicas = max(1, args.replicas)
        print(f"chaos sweep: shards={args.shards} replicas={replicas} "
              f"reshard_to={args.reshard_to or max(1, args.shards // 2)} "
              f"fault_seed={fault_seed}")
        for name in names:
            report = audit_chaos(
                graph, create_solution(name, k=args.k),
                shards=args.shards, replicas=replicas,
                workers=args.workers or args.shards, seed=fault_seed,
                pairs=args.pairs, updates=args.updates,
                reshard_to=args.reshard_to,
            )
            print(report.summary())
            failed += 0 if report.ok else 1
    if failed:
        print(f"audit: {failed} audit(s) FAILED")
        return 1
    print(f"audit: all {len(names)} solutions sound")
    return 0


def _obs_workload(args) -> None:
    """One seeded end-to-end pass that exercises every counter family.

    Builds a power-law graph in an in-memory :class:`VendGraphDB`,
    answers half the pair workload through the scalar path and half
    through the batched pipeline, then applies a few edge updates so
    maintenance counters (and ``maintenance_reads``) move too.  The
    storage-tier switches (``--compress``/``--mmap``) need a real log
    file, so either flips the workload to a disk-backed temporary
    directory.
    """
    import contextlib
    import tempfile

    from .apps import VendGraphDB
    from .graph import powerlaw_graph

    graph = powerlaw_graph(args.vertices, args.avg_degree, seed=args.seed)
    compress = getattr(args, "compress", False)
    use_mmap = getattr(args, "mmap", False)
    hot_bytes = getattr(args, "hot_cache_bytes", 0)
    with contextlib.ExitStack() as stack:
        if compress or use_mmap or hot_bytes:
            # The hot cache lives in the disk tier, so asking for it
            # implies a disk-backed store just like the other switches.
            tmp = stack.enter_context(tempfile.TemporaryDirectory())
            path = Path(tmp) / "adjacency.log"
        else:
            path = None
        db = VendGraphDB(path, k=args.k, method=args.method,
                         cache_bytes=args.cache_bytes,
                         shards=args.shards, workers=args.workers,
                         compress=compress, use_mmap=use_mmap,
                         replicas=getattr(args, "replicas", 0),
                         hot_cache_bytes=hot_bytes)
        db.load_graph(graph)
        edges = sorted(graph.edges())[:args.updates]
        for u, v in edges:
            db.remove_edge(u, v)
        for u, v in edges:
            db.add_edge(u, v)
        pairs = random_pairs(graph, args.pairs, seed=args.seed)
        half = len(pairs) // 2
        for u, v in pairs[:half]:
            db.has_edge(u, v)
        if pairs[half:]:
            db.has_edge_batch(pairs[half:])
        db.close()


def _prom_family_name(line: str) -> str:
    """Metric-family name a Prometheus exposition line belongs to."""
    if line.startswith("#"):
        parts = line.split(None, 3)
        return parts[2] if len(parts) >= 3 else ""
    return line.split("{", 1)[0].split(None, 1)[0]


def _cmd_stats(args) -> int:
    from .obs import default_registry

    registry = default_registry()
    _obs_workload(args)
    prefix = args.filter
    if args.json:
        import json

        doc = registry.to_json()
        if prefix:
            doc["metrics"] = [family for family in doc["metrics"]
                              if family["name"].startswith(prefix)]
        print(json.dumps(doc, indent=2))
        return 0
    if args.prometheus:
        text = registry.to_prometheus()
        if prefix:
            kept = [line for line in text.splitlines()
                    if _prom_family_name(line).startswith(prefix)]
            text = "".join(f"{line}\n" for line in kept)
        print(text, end="")
        return 0
    for name, value in sorted(registry.snapshot().items()):
        if prefix and not name.startswith(prefix):
            continue
        print(f"{name} {value}")
    return 0


def _cmd_trace(args) -> int:
    from .obs import default_tracer

    tracer = default_tracer()
    tracer.enabled = True
    try:
        _obs_workload(args)
    finally:
        tracer.enabled = False
    if args.json:
        import json

        print(json.dumps(tracer.to_json(limit=args.limit), indent=2))
        return 0
    print(tracer.format_traces(limit=args.limit), end="")
    return 0


def _timed_batch(db, us, vs) -> float:
    start = time.perf_counter()
    db.has_edge_batch(us, vs)
    return time.perf_counter() - start


def _cmd_bench(args) -> int:
    import tempfile

    from .apps import VendGraphDB
    from .graph import powerlaw_graph
    from .workloads import make_stream, run_stream

    graph = powerlaw_graph(args.vertices, args.avg_degree, seed=args.seed)
    stream_kwargs = {}
    if args.skew is not None and args.workload != "random":
        stream_kwargs["skew"] = args.skew
    stream = make_stream(args.workload, graph, args.pairs,
                         seed=args.seed + 1, **stream_kwargs)
    counts = stream.op_counts()
    probe_only = counts.get("insert", 0) == 0 and counts.get("delete", 0) == 0

    def throughput(shards: int, workers: int | None,
                   hot_bytes: int | None = None) -> float:
        hot = args.hot_cache_bytes if hot_bytes is None else hot_bytes
        with tempfile.TemporaryDirectory() as tmp:
            db = VendGraphDB(Path(tmp) / "adjacency.log", k=args.k,
                             method=args.method,
                             cache_bytes=args.cache_bytes,
                             shards=shards, workers=workers,
                             compress=args.compress, use_mmap=args.mmap,
                             replicas=args.replicas,
                             hot_cache_bytes=hot)
            db.load_graph(graph)
            if probe_only:
                us, vs = stream.us, stream.vs
                # Warm-up: page cache, first-touch checksums, hot-cache
                # admission (the sketch needs one pass of traffic).
                db.has_edge_batch(us, vs)
                best = min(_timed_batch(db, us, vs)
                           for _ in range(max(args.rounds, 1)))
                rate = len(stream) / best
            else:
                # Writes mutate state, so best-of-rounds over the same
                # stream would time a different database each round:
                # warm with a probe pass over the opening pairs, then
                # one faithful replay, scored on probe wall time.
                warm = min(len(stream), 4096)
                db.has_edge_batch(stream.us[:warm], stream.vs[:warm])
                result = run_stream(db, stream)
                rate = result.probe_throughput
            db.close()
        return rate

    probes = int(counts.get("probe", len(stream)))
    print(f"bench graph: |V|={graph.num_vertices} |E|={graph.num_edges} "
          f"workload={stream.name} ops={len(stream)} probes={probes} "
          f"seed={args.seed} compress={args.compress} mmap={args.mmap} "
          f"hot={args.hot_cache_bytes}")
    one_segment = throughput(1, None)
    print(f"sharded s=1 w=1     : {one_segment:>12.0f} pairs/s")
    shards = max(args.shards, 2)
    sharded = throughput(shards, args.workers)
    speedup = sharded / one_segment
    print(f"sharded s={shards} w={args.workers or shards}     : "
          f"{sharded:>12.0f} pairs/s  ({speedup:.2f}x)")
    failed = False
    if args.check_speedup is not None and speedup < args.check_speedup:
        print(f"bench: FAIL speedup {speedup:.2f}x < "
              f"required {args.check_speedup:.2f}x")
        failed = True
    if args.check_hot_speedup is not None:
        budget = args.hot_cache_bytes or (4 << 20)
        if args.hot_cache_bytes:
            hot, cold = sharded, throughput(shards, args.workers,
                                            hot_bytes=0)
        else:
            hot = throughput(shards, args.workers, hot_bytes=budget)
            cold = sharded
        hot_speedup = hot / cold if cold else 0.0
        print(f"hot cache {budget >> 10}KiB    : {hot:>12.0f} pairs/s  "
              f"({hot_speedup:.2f}x vs cold)")
        if hot_speedup < args.check_hot_speedup:
            print(f"bench: FAIL hot-cache speedup {hot_speedup:.2f}x < "
                  f"required {args.check_hot_speedup:.2f}x")
            failed = True
    return 1 if failed else 0


def _server_db(args, empty: bool):
    """A ``VendGraphDB`` for ``serve``/``fuzz`` from the shard args."""
    from .apps import VendGraphDB
    from .graph import Graph

    db = VendGraphDB(k=args.k, method=getattr(args, "method", "hyb+"),
                     shards=args.shards, workers=args.workers,
                     replicas=getattr(args, "replicas", 0))
    if empty:
        db.load_graph(Graph())
    elif getattr(args, "graph", None):
        db.load_graph(read_edge_list(args.graph))
    else:
        db.load_graph(powerlaw_graph(args.vertices, args.avg_degree,
                                     seed=args.seed))
    return db


def _cmd_serve(args) -> int:
    import threading

    from .server import ServerConfig, serve_in_thread

    db = _server_db(args, empty=args.empty)
    config = ServerConfig(host=args.host, port=args.port,
                          batch_window=args.batch_window,
                          rate=args.rate, burst=args.burst,
                          max_queue_pairs=args.max_queue_pairs)
    handle = serve_in_thread(db, config)
    print(f"serving {db.num_vertices} vertices on {handle.url} "
          f"(shards={db.num_shards}, replicas={db.replicas}, "
          f"window={args.batch_window * 1000:.1f}ms, "
          f"admission={'off' if args.rate <= 0 else f'{args.rate}/s'})",
          flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        handle.stop()
        db.close()
    return 0


def _cmd_fuzz(args) -> int:
    from urllib.parse import urlparse

    from .devtools import run_fuzz

    handle = db = None
    if args.url:
        parsed = urlparse(args.url)
        host, port = parsed.hostname, parsed.port or 80
    else:
        from .server import ServerConfig, serve_in_thread

        db = _server_db(args, empty=True)
        handle = serve_in_thread(db, ServerConfig())
        host, port = handle.address
        print(f"self-hosted fuzz target on {handle.url} "
              f"(shards={db.num_shards})")
    try:
        report = run_fuzz(host, port, seed=args.seed,
                          examples=args.examples, clients=args.clients,
                          per_client=args.per_client,
                          universe=args.universe,
                          check_metrics=args.check_metrics)
    finally:
        if handle is not None:
            handle.stop()
        if db is not None:
            db.close()
    print(report.summary())
    if not report.ok:
        print(report.details())
        return 1
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "build": _cmd_build,
    "info": _cmd_info,
    "query": _cmd_query,
    "score": _cmd_score,
    "analyze": _cmd_analyze,
    "lint": _cmd_lint,
    "audit": _cmd_audit,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "fuzz": _cmd_fuzz,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    wants_hot = (getattr(args, "hot_cache_bytes", 0) > 0
                 or getattr(args, "check_hot_speedup", None) is not None)
    if wants_hot and getattr(args, "cache_bytes", 0) > 0:
        # DiskKVStore refuses the pair (it would not stay
        # stats-transparent); say so before any workload is built.
        parser.error("the hot cache needs the block cache off: "
                     "pass --cache-bytes 0")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
