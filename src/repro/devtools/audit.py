"""Runtime soundness auditing — the ``repro audit`` sweep.

The linter (:mod:`repro.devtools.linter`) checks invariants statically;
this module checks them *differentially* at runtime.  A
:class:`SoundnessAuditor` wraps any registered solution and verifies,
against ground truth adjacency, the three properties VEND's value rests
on:

(a) **zero false no-edge verdicts** — ``is_nonedge(u, v)`` must never
    return True for an existing edge (Definition 4's one-sided
    contract), checked over every current edge *and* seeded
    RandPair/CommPair workloads;
(b) **scalar/batch agreement** — ``is_nonedge_batch`` must answer
    exactly like the scalar NDF, which catches stale batch snapshots
    (the R003 bug class) at runtime;
(c) **post-maintenance validity** — after a seeded insert+delete phase
    the same checks must still hold: solutions with maintenance hooks
    (``supports_maintenance``) are mutated in place, static baselines
    are rebuilt against the mutated graph (their documented maintenance
    story).

Everything is seeded; ``repro audit --seed N`` reproduces a sweep
bit-for-bit, and CI rotates ``REPRO_AUDIT_SEED`` over several seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.base import VendSolution, nonedge_batch_mask
from ..graph import Graph
from ..workloads import common_neighbor_pairs, random_pairs
from ..workloads.updates import sample_deletions, sample_insertions

__all__ = [
    "AuditViolation",
    "AuditReport",
    "SoundnessAuditor",
    "ParallelAuditReport",
    "audit_parallel_engine",
    "ChaosAuditReport",
    "audit_chaos",
    "StreamAuditReport",
    "audit_stream",
]


@dataclass(frozen=True)
class AuditViolation:
    """One broken invariant, with the offending pair and phase."""

    check: str   # "false-nonedge" | "batch-mismatch" | "maintenance-error"
    phase: str   # "static" | "maintenance"
    pair: tuple[int, int]
    detail: str

    def format(self) -> str:
        u, v = self.pair
        return f"[{self.phase}] {self.check} on ({u}, {v}): {self.detail}"


@dataclass
class AuditReport:
    """Outcome of one solution's audit."""

    solution: str
    seed: int
    edges_checked: int = 0
    pairs_checked: int = 0
    detections: int = 0
    maintenance_mode: str = "skipped"   # "hooks" | "rebuild" | "skipped"
    inserts_applied: int = 0
    deletes_applied: int = 0
    deleted_pairs_detected: int = 0
    violations: list[AuditViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"FAIL ({len(self.violations)} violations)"
        return (
            f"{self.solution:<10} seed={self.seed} "
            f"edges={self.edges_checked} pairs={self.pairs_checked} "
            f"detections={self.detections} "
            f"maintenance={self.maintenance_mode} "
            f"(+{self.inserts_applied}/-{self.deletes_applied}) {status}"
        )


class SoundnessAuditor:
    """Differential checker for VEND solutions over a ground-truth graph.

    Parameters
    ----------
    graph:
        Ground truth.  The auditor works on a private copy, so the
        caller's graph is never mutated by the maintenance phase.
    seed:
        Master seed for every sampled workload.
    pairs:
        RandPair/CommPair sample size per phase.
    updates:
        Insertions *and* deletions applied in the maintenance phase.
    scalar_sample:
        Pairs re-checked with the scalar NDF for batch agreement (the
        batch path is checked on every pair).
    max_violations:
        Recording cap per audit; checking stops early once reached.
    """

    def __init__(self, graph: Graph, seed: int = 0, pairs: int = 2000,
                 updates: int = 50, scalar_sample: int = 500,
                 max_violations: int = 20):
        self._edges = sorted(graph.edges())
        self.seed = seed
        self.pairs = pairs
        self.updates = updates
        self.scalar_sample = scalar_sample
        self.max_violations = max_violations

    # ------------------------------------------------------------------ audit

    def audit(self, solution: VendSolution,
              maintenance: bool = True) -> AuditReport:
        """Build ``solution`` on the graph and run every check phase."""
        graph = Graph(self._edges)
        report = AuditReport(solution=getattr(solution, "name", "?"),
                             seed=self.seed)
        solution.build(graph)
        self._check_phase(solution, graph, "static", report)
        if maintenance and not self._full(report):
            self._maintenance_phase(solution, graph, report)
        return report

    # ------------------------------------------------------------------ phases

    def _check_phase(self, solution, graph: Graph, phase: str,
                     report: AuditReport) -> None:
        self._check_edges(solution, graph, phase, report)
        offset = 0 if phase == "static" else 1000
        workload = random_pairs(graph, self.pairs, seed=self.seed + offset)
        workload += common_neighbor_pairs(graph, self.pairs,
                                          seed=self.seed + offset + 1)
        self._check_pairs(solution, graph, workload, phase, report)

    def _check_edges(self, solution, graph: Graph, phase: str,
                     report: AuditReport) -> None:
        """(a) on every current edge, via the batch path + a scalar sample."""
        edges = sorted(graph.edges())
        if not edges:
            return
        mask = nonedge_batch_mask(solution, edges)
        report.edges_checked += len(edges)
        for (u, v), wrong in zip(edges, mask.tolist()):
            if wrong and not self._full(report):
                report.violations.append(AuditViolation(
                    "false-nonedge", phase, (u, v),
                    "batch NDF certifies an existing edge as an NEpair",
                ))
        step = max(1, len(edges) // self.scalar_sample)
        for u, v in edges[::step]:
            if self._full(report):
                break
            for a, b in ((u, v), (v, u)):
                if solution.is_nonedge(a, b):
                    report.violations.append(AuditViolation(
                        "false-nonedge", phase, (a, b),
                        "scalar NDF certifies an existing edge as an NEpair",
                    ))

    def _check_pairs(self, solution, graph: Graph, workload, phase: str,
                     report: AuditReport) -> None:
        """(a) + (b) over a seeded mixed workload."""
        if not workload:
            return
        mask = nonedge_batch_mask(solution, workload)
        report.pairs_checked += len(workload)
        report.detections += int(mask.sum())
        for (u, v), certain in zip(workload, mask.tolist()):
            if certain and graph.has_edge(u, v) and not self._full(report):
                report.violations.append(AuditViolation(
                    "false-nonedge", phase, (u, v),
                    "batch NDF certifies an existing edge as an NEpair",
                ))
        step = max(1, len(workload) // self.scalar_sample)
        for index in range(0, len(workload), step):
            if self._full(report):
                break
            u, v = workload[index]
            scalar = solution.is_nonedge(u, v)
            if scalar != bool(mask[index]):
                report.violations.append(AuditViolation(
                    "batch-mismatch", phase, (u, v),
                    f"scalar NDF says {scalar} but the batch path says "
                    f"{bool(mask[index])} (stale snapshot?)",
                ))

    def _maintenance_phase(self, solution, graph: Graph,
                           report: AuditReport) -> None:
        """(c): seeded insert+delete phase, then re-run every check."""
        insertions = sample_insertions(graph, self.updates,
                                       seed=self.seed + 7)
        deletions = sample_deletions(graph, self.updates,
                                     seed=self.seed + 8)
        use_hooks = bool(getattr(solution, "supports_maintenance", False))
        report.maintenance_mode = "hooks" if use_hooks else "rebuild"
        try:
            for u, v in insertions:
                graph.add_edge(u, v)
                if use_hooks:
                    solution.insert_edge(u, v, graph.sorted_neighbors)
                report.inserts_applied += 1
            for u, v in deletions:
                if not graph.has_edge(u, v):
                    continue  # deleted transitively / sampled twice
                graph.remove_edge(u, v)
                if use_hooks:
                    solution.delete_edge(u, v, graph.sorted_neighbors)
                report.deletes_applied += 1
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            report.violations.append(AuditViolation(
                "maintenance-error", "maintenance", (-1, -1),
                f"{type(exc).__name__}: {exc}",
            ))
            return
        if not use_hooks:
            solution.build(graph)
        # Inserted edges are the sharpest probe: a stale snapshot or a
        # broken insert path shows up here first.
        for u, v in insertions:
            if self._full(report):
                break
            if solution.is_nonedge(u, v):
                report.violations.append(AuditViolation(
                    "false-nonedge", "maintenance", (u, v),
                    "freshly inserted edge still certified as an NEpair",
                ))
        for u, v in deletions:
            if not graph.has_edge(u, v) and solution.is_nonedge(u, v):
                report.deleted_pairs_detected += 1
        self._check_phase(solution, graph, "maintenance", report)

    def _full(self, report: AuditReport) -> bool:
        return len(report.violations) >= self.max_violations


@dataclass
class ParallelAuditReport:
    """Outcome of one sharded-engine differential audit."""

    solution: str
    shards: int
    workers: int
    seed: int
    pairs_checked: int = 0
    false_noedges: int = 0
    verdict_mismatches: int = 0
    stats_mismatches: list[str] = field(default_factory=list)
    attribution_mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (not self.false_noedges and not self.verdict_mismatches
                and not self.stats_mismatches
                and not self.attribution_mismatches)

    def summary(self) -> str:
        status = "OK" if self.ok else (
            f"FAIL (false_noedges={self.false_noedges} "
            f"mismatches={self.verdict_mismatches} "
            f"stats={self.stats_mismatches} "
            f"attribution={self.attribution_mismatches})"
        )
        return (
            f"{self.solution:<10} shards={self.shards} workers={self.workers} "
            f"seed={self.seed} pairs={self.pairs_checked} {status}"
        )


_PARITY_FIELDS = ("total", "filtered", "executed", "cache_served",
                  "disk_served", "positives")


def _load_mixed_log(open_store, graph: Graph, compress: bool,
                    use_mmap: bool):
    """Load ``graph`` so the log mixes record formats when compressing.

    The first half of the vertices is written through a plain v2
    (raw-record) store; the store is then closed and reopened with the
    audit's target configuration for the second half.  With
    ``compress`` on, the resulting log replays raw v2 records and
    StreamVByte v3 records side by side — the mixed-format regime the
    compressed read tier must serve bit-for-bit.
    """
    verts = sorted(graph.vertices())
    half = len(verts) // 2
    store = open_store(False, False)
    for v in verts[:half]:
        store.put_neighbors(v, graph.sorted_neighbors(v))
    store.close()
    store = open_store(compress, use_mmap)
    for v in verts[half:]:
        store.put_neighbors(v, graph.sorted_neighbors(v))
    return store


def audit_parallel_engine(graph: Graph, solution: VendSolution,
                          shards: int = 4, workers: int = 4,
                          seed: int = 0, pairs: int = 2000,
                          updates: int = 25, compress: bool = False,
                          use_mmap: bool = False,
                          workdir=None) -> ParallelAuditReport:
    """Differential audit of the shard-parallel engine vs the serial one.

    Runs the same seeded workload through a serial
    :class:`~repro.apps.EdgeQueryEngine` over a single-file store and a
    :class:`~repro.apps.ParallelEdgeQueryEngine` over a hash-partitioned
    store, both loaded from the same ground-truth graph, and checks:

    - **soundness** — zero false no-edge verdicts from the sharded
      engine against ground truth (Definition 4 survives threading);
    - **verdict equivalence** — bitwise-identical answer arrays,
      including after a seeded insert+delete maintenance phase;
    - **stats parity** — the parallel engine's aggregate counters match
      the serial engine's exactly (per-shard dedup == global dedup);
    - **attribution** — per-shard ``cache_served + disk_served`` series
      sum exactly to the engine totals despite thread fan-out.

    ``compress``/``use_mmap`` sweep the PR 6 storage tier:
    either switches both sides to disk-backed stores (under
    ``workdir``, or a temporary directory) whose logs are loaded in two
    halves — raw v2 records first, then the target format — so a
    compressed audit always replays a mixed v2→v3 log.
    """
    import contextlib
    import tempfile
    from pathlib import Path

    import numpy as np

    from ..apps.edge_query import EdgeQueryEngine, ParallelEdgeQueryEngine
    from ..storage import GraphStore, ShardedGraphStore

    stack = contextlib.ExitStack()
    if compress or use_mmap:
        if workdir is None:
            workdir = stack.enter_context(tempfile.TemporaryDirectory())
        base = Path(workdir)
        serial_store = _load_mixed_log(
            lambda c, m: GraphStore(base / "serial.log", compress=c,
                                    use_mmap=m),
            graph, compress, use_mmap)
        sharded_store = _load_mixed_log(
            lambda c, m: ShardedGraphStore(base / "sharded.log",
                                           num_shards=shards, compress=c,
                                           use_mmap=m),
            graph, compress, use_mmap)
    else:
        serial_store = GraphStore()
        serial_store.bulk_load(graph)
        sharded_store = ShardedGraphStore(num_shards=shards)
        sharded_store.bulk_load(graph)
    serial = EdgeQueryEngine(serial_store, solution)
    parallel = ParallelEdgeQueryEngine(sharded_store, solution,
                                       workers=workers)
    report = ParallelAuditReport(
        solution=getattr(solution, "name", "?"), shards=shards,
        workers=workers, seed=seed,
    )

    def run_phase(phase_graph: Graph, offset: int) -> None:
        workload = random_pairs(phase_graph, pairs, seed=seed + offset)
        workload += common_neighbor_pairs(phase_graph, pairs,
                                          seed=seed + offset + 1)
        workload += sorted(phase_graph.edges())
        us = np.asarray([u for u, _ in workload], dtype=np.int64)
        vs = np.asarray([v for _, v in workload], dtype=np.int64)
        expected = serial.has_edge_batch(us, vs)
        got = parallel.has_edge_batch(us, vs)
        report.pairs_checked += len(workload)
        report.verdict_mismatches += int((expected != got).sum())
        truth = np.fromiter(
            (phase_graph.has_edge(int(u), int(v)) for u, v in workload),
            dtype=bool, count=len(workload),
        )
        report.false_noedges += int((truth & ~got).sum())

    run_phase(graph, 0)

    # Maintenance: mutate both stores in step with the graph copy,
    # rebuild the (shared) filter, and re-check equivalence.
    mutated = Graph(sorted(graph.edges()))
    for u, v in sample_insertions(mutated, updates, seed=seed + 7):
        mutated.add_edge(u, v)
        serial_store.insert_edge(u, v)
        sharded_store.insert_edge(u, v)
    for u, v in sample_deletions(mutated, updates, seed=seed + 8):
        if mutated.has_edge(u, v):
            mutated.remove_edge(u, v)
            serial_store.delete_edge(u, v)
            sharded_store.delete_edge(u, v)
    solution.build(mutated)
    run_phase(mutated, 1000)

    for name in _PARITY_FIELDS:
        serial_value = getattr(serial.stats, name)
        parallel_value = getattr(parallel.stats, name)
        if serial_value != parallel_value:
            report.stats_mismatches.append(
                f"{name}: serial={serial_value} parallel={parallel_value}")
        shard_sum = sum(getattr(s, name) for s in parallel.shard_stats)
        if shard_sum != parallel_value:
            report.attribution_mismatches.append(
                f"{name}: shard_sum={shard_sum} engine={parallel_value}")
    parallel.close()
    serial_store.close()
    sharded_store.close()
    stack.close()
    return report


@dataclass
class ChaosAuditReport:
    """Outcome of the kill-a-shard + online-reshard chaos sweep."""

    solution: str
    shards: int
    replicas: int
    seed: int
    pairs_checked: int = 0
    false_noedges: int = 0
    verdict_mismatches: int = 0
    failovers: int = 0
    repairs: int = 0
    reshard_to: int = 0
    reshard_rounds: int = 0
    degraded_after_heal: bool = False
    store_divergence: int = 0
    soundness_violations: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (not self.false_noedges and not self.verdict_mismatches
                and not self.degraded_after_heal and not self.store_divergence
                and not self.soundness_violations and not self.errors
                and self.failovers > 0)

    def summary(self) -> str:
        status = "OK" if self.ok else (
            f"FAIL (false_noedges={self.false_noedges} "
            f"mismatches={self.verdict_mismatches} "
            f"failovers={self.failovers} "
            f"degraded_after_heal={self.degraded_after_heal} "
            f"divergence={self.store_divergence} "
            f"soundness={self.soundness_violations} "
            f"errors={self.errors})"
        )
        return (
            f"{self.solution:<10} chaos shards={self.shards}"
            f"->{self.reshard_to} replicas={self.replicas} seed={self.seed} "
            f"pairs={self.pairs_checked} failovers={self.failovers} "
            f"repairs={self.repairs} {status}"
        )


def audit_chaos(graph: Graph, solution: VendSolution, shards: int = 4,
                replicas: int = 1, workers: int = 4, seed: int = 0,
                pairs: int = 1000, updates: int = 20,
                reshard_to: int | None = None) -> ChaosAuditReport:
    """Kill a shard mid-workload, heal it, then reshard online — and
    require correct answers throughout.

    The sweep drives a serial reference engine and a replicated sharded
    :class:`~repro.apps.ParallelEdgeQueryEngine` through four phases,
    checking after every batch that the sharded verdicts match the
    serial ones bitwise and never contradict ground truth:

    1. **baseline** — a clean seeded workload;
    2. **kill** — shard 0's primary starts failing every read (its
       :class:`~repro.storage.faults.FaultInjectingKVStore` is turned
       up to ``read_error_rate=1.0``); reads must fail over to a
       replica with zero wrong answers, and ``failovers`` must move;
    3. **heal** — fault rates drop to zero and
       ``store.reset_degraded()`` repairs + reinstates; the store must
       come back non-degraded;
    4. **online reshard** — ``begin_reshard(reshard_to)`` (default
       ``max(1, shards // 2)``), with migration chunks interleaved
       against live query batches *and* seeded insert/delete traffic,
       then the generation flip.  The post-migration store is read back
       whole and compared record-for-record against the mutated ground
       truth, and a :class:`SoundnessAuditor` pass on the final graph
       gates the result.

    The primary injectors are seeded from ``seed`` (CI rotates
    ``REPRO_FAULT_SEED`` into it), so every run is reproducible.
    """
    import numpy as np

    from ..apps.edge_query import EdgeQueryEngine, ParallelEdgeQueryEngine
    from ..storage import (
        FaultConfig,
        FaultInjectingKVStore,
        GraphStore,
        ShardedGraphStore,
    )
    from ..storage.kvstore import InMemoryKVStore

    if reshard_to is None:
        reshard_to = max(1, shards // 2)
    report = ChaosAuditReport(
        solution=getattr(solution, "name", "?"), shards=shards,
        replicas=max(1, replicas), seed=seed, reshard_to=reshard_to,
    )

    # Wrap every *primary* in a seeded fault injector; replicas stay
    # clean.  ``_build_segment`` calls the factory primary-first for
    # each shard (and again for each new generation), so a global call
    # counter modulo the copy count identifies the primary.
    copies_per_shard = report.replicas + 1
    primary_injectors: list[FaultInjectingKVStore] = []
    calls = [0]

    def kv_factory(seg_path, shard):
        is_primary = calls[0] % copies_per_shard == 0
        calls[0] += 1
        inner = InMemoryKVStore()
        if not is_primary:
            return inner
        injector = FaultInjectingKVStore(
            inner, FaultConfig(seed=seed + len(primary_injectors)))
        primary_injectors.append(injector)
        return injector

    serial_store = GraphStore()
    serial_store.bulk_load(graph)
    sharded_store = ShardedGraphStore(num_shards=shards,
                                      kv_factory=kv_factory,
                                      replicas=report.replicas)
    sharded_store.bulk_load(graph)
    serial = EdgeQueryEngine(serial_store, solution)
    parallel = ParallelEdgeQueryEngine(sharded_store, solution,
                                       workers=workers)
    mutated = Graph(sorted(graph.edges()))

    def run_phase(offset: int, phase: str, count: int = pairs) -> None:
        workload = random_pairs(mutated, count, seed=seed + offset)
        workload += common_neighbor_pairs(mutated, count,
                                          seed=seed + offset + 1)
        workload += sorted(mutated.edges())
        us = np.asarray([u for u, _ in workload], dtype=np.int64)
        vs = np.asarray([v for _, v in workload], dtype=np.int64)
        try:
            expected = serial.has_edge_batch(us, vs)
            got = parallel.has_edge_batch(us, vs)
        except Exception as exc:  # noqa: BLE001 - a crash is a finding
            report.errors.append(f"[{phase}] {type(exc).__name__}: {exc}")
            return
        report.pairs_checked += len(workload)
        report.verdict_mismatches += int((expected != got).sum())
        truth = np.fromiter(
            (mutated.has_edge(int(u), int(v)) for u, v in workload),
            dtype=bool, count=len(workload),
        )
        report.false_noedges += int((truth & ~got).sum())

    def mutate(offset: int, count: int) -> None:
        for u, v in sample_insertions(mutated, count, seed=seed + offset):
            mutated.add_edge(u, v)
            serial_store.insert_edge(u, v)
            sharded_store.insert_edge(u, v)
        for u, v in sample_deletions(mutated, count, seed=seed + offset + 1):
            if mutated.has_edge(u, v):
                mutated.remove_edge(u, v)
                serial_store.delete_edge(u, v)
                sharded_store.delete_edge(u, v)
        solution.build(mutated)

    def failover_count() -> int:
        return sum(seg.replication_stats.failovers
                   for seg in sharded_store.segments
                   if getattr(seg, "is_replicated", False))

    # Phase 1: baseline.
    run_phase(0, "baseline")

    # Phase 2: kill shard 0's primary mid-workload.
    primary_injectors[0].config.read_error_rate = 1.0
    run_phase(100, "kill")
    if failover_count() == 0:
        report.errors.append(
            "[kill] no failover recorded with the primary dead")

    # Phase 3: heal and repair.
    primary_injectors[0].config.read_error_rate = 0.0
    sharded_store.reset_degraded()
    report.repairs = sum(seg.replication_stats.repairs
                         for seg in sharded_store.segments
                         if getattr(seg, "is_replicated", False))
    if sharded_store.degraded:
        report.degraded_after_heal = True
    run_phase(200, "healed")
    # Book failovers now: the reshard flip retires the generation whose
    # replica sets absorbed the kill.
    report.failovers = failover_count()

    # Phase 4: online reshard under concurrent reads and writes.
    chunk = max(16, sharded_store.num_vertices // 8)
    sharded_store.begin_reshard(reshard_to)
    while True:
        moved = sharded_store.migrate_step(chunk)
        mutate(300 + 10 * report.reshard_rounds, max(1, updates // 4))
        run_phase(400 + 10 * report.reshard_rounds, "resharding",
                  count=max(1, pairs // 4))
        report.reshard_rounds += 1
        if moved == 0 or report.reshard_rounds >= 8:
            break
    sharded_store.finish_reshard()
    if sharded_store.num_shards != reshard_to:
        report.errors.append(
            f"[reshard] flip landed on {sharded_store.num_shards} shards, "
            f"wanted {reshard_to}")
    run_phase(900, "post-reshard")

    # Post-migration: the flipped store must hold exactly the mutated
    # ground truth, record for record.
    stored = {}
    for v in sharded_store.vertices():
        stored[v] = list(sharded_store.get_neighbors(v))
    expected_adj = {v: mutated.sorted_neighbors(v)
                    for v in mutated.vertices()}
    for v, neighbors in expected_adj.items():
        if stored.get(v) != neighbors:
            report.store_divergence += 1
    report.store_divergence += sum(1 for v in stored
                                   if v not in expected_adj)

    # Gate on the soundness auditor against the final graph.
    auditor = SoundnessAuditor(mutated, seed=seed, pairs=pairs,
                               updates=updates)
    sound = auditor.audit(solution)
    report.soundness_violations = len(sound.violations)

    parallel.close()
    serial_store.close()
    sharded_store.close()
    return report


@dataclass
class StreamAuditReport:
    """Outcome of one hot-cache-on-vs-off streaming differential audit."""

    solution: str
    stream: str
    shards: int
    seed: int
    ops: int = 0
    probes_checked: int = 0
    inserts: int = 0
    deletes: int = 0
    false_noedges: int = 0
    verdict_mismatches: int = 0
    stats_mismatches: list[str] = field(default_factory=list)
    hot_hits: int = 0
    hot_invalidations: int = 0

    @property
    def ok(self) -> bool:
        return (not self.false_noedges and not self.verdict_mismatches
                and not self.stats_mismatches)

    def summary(self) -> str:
        status = "OK" if self.ok else (
            f"FAIL (false_noedges={self.false_noedges} "
            f"mismatches={self.verdict_mismatches} "
            f"stats={self.stats_mismatches})"
        )
        return (
            f"{self.solution:<10} stream={self.stream} shards={self.shards} "
            f"seed={self.seed} probes={self.probes_checked} "
            f"writes={self.inserts}+{self.deletes} "
            f"hot_hits={self.hot_hits} "
            f"hot_invalidations={self.hot_invalidations} {status}"
        )


_STORAGE_PARITY_FIELDS = ("disk_reads", "bytes_read", "disk_writes",
                          "bytes_written")


def audit_stream(graph: Graph, solution: VendSolution,
                 stream_kind: str = "churn", shards: int = 4,
                 workers: int = 4, seed: int = 0, ops: int = 6000,
                 hot_cache_bytes: int = 1 << 20, compress: bool = True,
                 use_mmap: bool = True) -> StreamAuditReport:
    """Churn-storm differential audit: hot cache on vs off, bit for bit.

    Replays one seeded :func:`~repro.workloads.streams.make_stream`
    workload through two identically configured shard-parallel engines
    — the only difference being ``hot_cache_bytes`` — applying every
    write to both stores and to a shadow ground-truth graph.  After
    every probe run it checks:

    - **verdict equivalence** — the hot engine answers bitwise
      identically to the cold one (the stats-transparency contract
      survives write storms, i.e. invalidation actually works);
    - **soundness** — neither engine produces a false no-edge verdict
      against the shadow graph;
    - **stats parity** — at end of stream, query counters *and*
      logical storage counters (``disk_reads``/``bytes_read``/…) agree
      exactly between the two configurations.

    The filter is shared and rebuilt from the shadow graph after each
    write storm, so probe verdicts isolate the storage tier — a stale
    hot-cache entry has nowhere to hide behind filter noise.
    """
    import contextlib
    import tempfile
    from pathlib import Path

    import numpy as np

    from ..apps.edge_query import ParallelEdgeQueryEngine
    from ..storage import ShardedGraphStore
    from ..workloads.streams import OP_INSERT, OP_PROBE, make_stream

    stream = make_stream(stream_kind, graph, ops, seed=seed)
    report = StreamAuditReport(
        solution=getattr(solution, "name", "?"), stream=stream.name,
        shards=shards, seed=seed, ops=len(stream),
    )
    shadow = Graph(sorted(graph.edges()))
    solution.build(shadow)
    with contextlib.ExitStack() as stack:
        base = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        stores = []
        engines = []
        for tag, hot in (("cold", 0), ("hot", hot_cache_bytes)):
            store = ShardedGraphStore(base / f"{tag}.log", num_shards=shards,
                                      compress=compress, use_mmap=use_mmap,
                                      hot_cache_bytes=hot)
            store.bulk_load(graph)
            stores.append(store)
            engines.append(ParallelEdgeQueryEngine(store, solution,
                                                   workers=workers))
        cold_store, hot_store = stores
        cold, hot = engines
        filter_stale = False
        for kind, start, end in stream.segments():
            if kind == OP_PROBE:
                if filter_stale:
                    solution.build(shadow)
                    filter_stale = False
                us = stream.us[start:end]
                vs = stream.vs[start:end]
                expected = cold.has_edge_batch(us, vs)
                got = hot.has_edge_batch(us, vs)
                report.probes_checked += end - start
                report.verdict_mismatches += int((expected != got).sum())
                truth = np.fromiter(
                    (shadow.has_edge(int(u), int(v))
                     for u, v in zip(us, vs)),
                    dtype=bool, count=end - start,
                )
                report.false_noedges += int((truth & ~got).sum())
                report.false_noedges += int((truth & ~expected).sum())
                continue
            for i in range(start, end):
                u, v = int(stream.us[i]), int(stream.vs[i])
                if kind == OP_INSERT:
                    shadow.add_edge(u, v)
                    cold_store.insert_edge(u, v)
                    hot_store.insert_edge(u, v)
                    report.inserts += 1
                else:
                    shadow.remove_edge(u, v)
                    cold_store.delete_edge(u, v)
                    hot_store.delete_edge(u, v)
                    report.deletes += 1
            filter_stale = True
        for name in _PARITY_FIELDS:
            cold_value = getattr(cold.stats, name)
            hot_value = getattr(hot.stats, name)
            if cold_value != hot_value:
                report.stats_mismatches.append(
                    f"query.{name}: cold={cold_value} hot={hot_value}")
        for name in _STORAGE_PARITY_FIELDS:
            cold_value = getattr(cold_store.stats, name)
            hot_value = getattr(hot_store.stats, name)
            if cold_value != hot_value:
                report.stats_mismatches.append(
                    f"storage.{name}: cold={cold_value} hot={hot_value}")
        for cache in hot_store.hot_caches():
            report.hot_hits += cache.stats.hits
            report.hot_invalidations += cache.stats.invalidations
        for engine in engines:
            engine.close()
        for store in stores:
            store.close()
    return report
