"""Replica shards: primary + R copies with read failover and repair.

A single fault-latched segment used to degrade a sharded store forever:
``degraded`` latched True and there was no recovery path short of
rebuilding the deployment.  :class:`ReplicatedShard` gives each shard
the failover story a serving layer needs:

- **Writes** are applied synchronously to the primary *and* every
  healthy replica, so any copy can serve the latest write
  (read-your-writes holds on failover by construction).
- **Reads** go to the active copy — normally the primary.  When the
  active copy has latched ``degraded`` (a
  :class:`~repro.storage.faults.FaultInjectingKVStore` that needed
  retries), or a read raises after exhausting its retries, the shard
  **fails over** to the next healthy copy and re-serves the read there.
  Each failover increments the ``repro_shard_failovers_total`` counter.
- **Repair** resynchronizes stale or failed copies record-by-record
  from the active copy, clears their fault latches, and **reinstates**
  the home primary as the active copy.  ``reset_degraded()`` is the
  operational entry point — the aggregate reset the sharded store and
  ``VendGraphDB`` expose routes here.

Copies that miss a write (their ``put`` raised) are marked *stale* and
are never failed over to until repaired: a replica may be behind, but a
serving copy never is.

``KeyError`` (a vertex that simply is not stored) is domain behaviour,
not a fault — it propagates without touching the failover machinery.
"""

from __future__ import annotations

import logging

import numpy as np

from ..obs import ReadReceipt, StatsView, StorageStats
from .faults import SimulatedCrashError
from .graphstore import GraphStore

__all__ = ["ReplicationStats", "ReplicatedShard"]

logger = logging.getLogger(__name__)

#: Exception classes that mean "this copy is failing", as opposed to
#: domain errors (KeyError) that must propagate to the caller.
_COPY_FAILURES = (OSError, SimulatedCrashError)


class ReplicationStats(StatsView):
    """Failover/repair bookkeeping for one replicated shard.

    The counter Prometheus name for ``failovers`` is
    ``repro_shard_failovers_total`` — the gauge dashboards alert on.
    """

    _PREFIX = "repro_shard"
    _SCOPE = "replica_set"
    _COUNTERS = ("failovers", "failed_reads", "failed_writes", "repairs",
                 "reinstatements")
    _GAUGES = ("active_copy", "healthy_copies")
    _HELP = {
        "failovers": "Reads moved to another copy after the active one "
                     "degraded or failed",
        "failed_reads": "Read attempts a copy failed with an IO error",
        "failed_writes": "Write attempts a copy failed with an IO error",
        "repairs": "Copies resynchronized from the active copy",
        "reinstatements": "Times the home primary was reinstated as "
                          "the active copy",
        "active_copy": "Index of the copy currently serving reads "
                       "(0 = home primary)",
        "healthy_copies": "Copies that are neither failed nor stale",
    }


class ReplicatedShard:
    """One shard as a primary + R replica ``GraphStore`` copies.

    Implements the segment-facing slice of the ``GraphStore`` interface
    (half-edge updates, adjacency reads, the blob-native batched probe,
    flush/close/stats), so it drops into
    :class:`~repro.storage.sharding.ShardedGraphStore` wherever a bare
    segment would go.

    Parameters
    ----------
    copies:
        ``[primary, replica_1, ..., replica_R]``.  Index 0 is the home
        primary; it is preferred whenever healthy and is reinstated by
        :meth:`repair`.
    shard:
        Label for the stats scope (purely observational).
    """

    #: Duck-typing flag: the differential audit uses this to find the
    #: replicated segments whose copies it cross-checks.
    is_replicated = True

    def __init__(self, copies: list[GraphStore], shard: int | str = "?"):
        if not copies:
            raise ValueError("a replicated shard needs at least one copy")
        self._copies = list(copies)
        self._active = 0
        self._failed = [False] * len(copies)
        self._stale = [False] * len(copies)
        self.replication_stats = ReplicationStats(shard=str(shard))
        self._update_gauges()

    # -- introspection -----------------------------------------------------

    @property
    def copies(self) -> list[GraphStore]:
        """All copies, home primary first (exposed for tests/repair)."""
        return self._copies

    @property
    def num_replicas(self) -> int:
        return len(self._copies) - 1

    @property
    def active_copy(self) -> int:
        """Index of the copy currently serving reads."""
        return self._active

    @property
    def primary(self) -> GraphStore:
        return self._copies[0]

    @property
    def stats(self) -> StorageStats:
        """The active copy's physical I/O counters."""
        return self._copies[self._active].stats

    @property
    def _kv(self):
        """Active copy's KV store (aggregate compression-ratio hook)."""
        return self._copies[self._active]._kv

    @property
    def degraded(self) -> bool:
        """True while *any* copy needs attention (failed, stale, or its
        backing store latched a fault) — the repair-me signal, even
        when failover keeps reads healthy."""
        return (any(self._failed) or any(self._stale)
                or any(copy.degraded for copy in self._copies))

    def _healthy(self, idx: int) -> bool:
        return not self._failed[idx] and not self._stale[idx]

    def _update_gauges(self) -> None:
        stats = self.replication_stats
        stats.set_gauge("active_copy", self._active)
        stats.set_gauge("healthy_copies",
                        sum(self._healthy(i)
                            for i in range(len(self._copies))))

    # -- failover ----------------------------------------------------------

    def _fail_over(self, idx: int, mark_failed: bool = True) -> bool:
        """Move the active role off copy ``idx``; True when it moved."""
        if mark_failed:
            self._failed[idx] = True
        candidates = [i for i in range(len(self._copies))
                      if i != idx and self._healthy(i)
                      and not self._copies[i].degraded]
        if not candidates:
            # Last resort: a stale-free copy that merely latched
            # degraded still has every write; serve from it.
            candidates = [i for i in range(len(self._copies))
                          if i != idx and self._healthy(i)]
        if not candidates:
            self._update_gauges()
            return False
        self._active = candidates[0]
        self.replication_stats.inc("failovers")
        self._update_gauges()
        logger.warning("shard failover: copy %d -> copy %d", idx,
                       self._active)
        return True

    def _read(self, op: str, *args, **kwargs):
        """Serve a read from the active copy, failing over on faults."""
        active = self._active
        if self._copies[active].degraded:
            # Proactive failover: the active copy latched `degraded`
            # (it needed retries); move reads off it before they pay
            # the retry tax or fail outright.
            self._fail_over(active)
        last_exc: Exception | None = None
        for _ in range(len(self._copies)):
            idx = self._active
            try:
                return getattr(self._copies[idx], op)(*args, **kwargs)
            except _COPY_FAILURES as exc:
                last_exc = exc
                self.replication_stats.inc("failed_reads")
                if not self._fail_over(idx):
                    break
        raise last_exc  # every copy failed: surface the fault

    def _write(self, op: str, *args):
        """Apply a write to every serving copy (read-your-writes).

        A copy whose write raises is marked stale (it missed the write)
        and, if it was active, the active role fails over.  The write
        succeeds as long as at least one copy took it.
        """
        result = None
        applied = False
        last_exc: Exception | None = None
        for idx, copy in enumerate(self._copies):
            if self._failed[idx] or self._stale[idx]:
                self._stale[idx] = True  # missed this write too
                continue
            try:
                outcome = getattr(copy, op)(*args)
            except _COPY_FAILURES as exc:
                last_exc = exc
                self.replication_stats.inc("failed_writes")
                self._stale[idx] = True
                if idx == self._active:
                    self._fail_over(idx)
                else:
                    self._failed[idx] = True
                    self._update_gauges()
                continue
            if not applied:
                result = outcome
                applied = True
        if not applied:
            raise last_exc if last_exc is not None else OSError(
                "no serving copy available")
        return result

    # -- repair / reinstate ------------------------------------------------

    def repair(self) -> int:
        """Resync every failed/stale/degraded copy from the active one.

        Returns the number of copies repaired.  After the sweep the
        home primary is reinstated as the active copy when healthy.
        A copy whose backing store is still failing stays marked and
        is skipped — call again once the fault clears.

        Locking contract (DESIGN.md §14): the shard itself has no
        lock — callers must exclude writers for the duration.  The
        sharded store does so by fanning out ``reset_degraded()``
        under the exclusive side of its reshard lock, accepting the
        resync's fsync latency there on purpose: a copy resynced
        while writes were admitted would be marked clean with writes
        it never saw, and a later failover would serve unsound
        answers.
        """
        source = self._copies[self._active]
        repaired = 0
        for idx, copy in enumerate(self._copies):
            if idx == self._active:
                continue
            needs = (self._failed[idx] or self._stale[idx]
                     or copy.degraded)
            if not needs:
                continue
            try:
                self._resync(source, copy)
            except _COPY_FAILURES as exc:
                logger.warning("repair of copy %d failed: %s", idx, exc)
                self._failed[idx] = True
                continue
            copy.reset_degraded()
            self._failed[idx] = self._stale[idx] = False
            self.replication_stats.inc("repairs")
            repaired += 1
        # The active copy served every write; its degraded latch is
        # historical once the operator asks for repair.
        source.reset_degraded()
        if self._active != 0 and self._healthy(0):
            self._active = 0
            self.replication_stats.inc("reinstatements")
            logger.info("home primary reinstated as the active copy")
        self._update_gauges()
        return repaired

    @staticmethod
    def _resync(source: GraphStore, target: GraphStore) -> None:
        """Make ``target`` record-identical to ``source``."""
        live = set(source.vertices())
        for v in list(target.vertices()):
            if v not in live:
                target.remove_vertex_record(v)
        for v in live:
            target.put_neighbors(v, source.get_neighbors(v))
        target.flush(sync=True)

    def reset_degraded(self) -> None:
        """Operational recovery: repair stale copies, clear every fault
        latch, reinstate the primary.  The sharded store's aggregate
        ``reset_degraded()`` fans out to this per shard."""
        self.repair()

    # -- reads -------------------------------------------------------------

    def get_neighbors(self, v: int,
                      receipt: ReadReceipt | None = None) -> list[int]:
        return self._read("get_neighbors", v, receipt=receipt)

    def get_neighbors_array(self, v: int,
                            receipt: ReadReceipt | None = None) -> np.ndarray:
        return self._read("get_neighbors_array", v, receipt=receipt)

    def get_neighbors_many(self, vertices,
                           receipt: ReadReceipt | None = None):
        return self._read("get_neighbors_many", vertices, receipt=receipt)

    def has_vertex(self, v: int) -> bool:
        return self._read("has_vertex", v)

    def has_edge(self, u: int, v: int,
                 receipt: ReadReceipt | None = None) -> bool:
        return self._read("has_edge", u, v, receipt=receipt)

    def probe_edges(self, us, vs,
                    receipt: ReadReceipt | None = None) -> np.ndarray:
        return self._read("probe_edges", us, vs, receipt=receipt)

    def vertices(self):
        # Key enumeration is in-memory index state — no disk access,
        # so no failover path is needed.
        return self._copies[self._active].vertices()

    @property
    def num_vertices(self) -> int:
        return self._copies[self._active].num_vertices

    # -- writes ------------------------------------------------------------

    def put_neighbors(self, v: int, neighbors: list[int]) -> None:
        self._write("put_neighbors", v, neighbors)

    def insert_half_edge(self, a: int, b: int) -> bool:
        return self._write("insert_half_edge", a, b)

    def remove_half_edge(self, a: int, b: int) -> bool:
        return self._write("remove_half_edge", a, b)

    def remove_vertex_record(self, v: int) -> bool:
        return self._write("remove_vertex_record", v)

    # -- lifecycle ---------------------------------------------------------

    def flush(self, sync: bool = False) -> None:
        for idx, copy in enumerate(self._copies):
            if self._failed[idx]:
                continue
            try:
                copy.flush(sync)
            except _COPY_FAILURES as exc:
                logger.warning("flush of copy %d failed: %s", idx, exc)
                self._failed[idx] = True
        self._update_gauges()

    def close(self) -> None:
        for copy in self._copies:
            try:
                copy.close()
            except _COPY_FAILURES as exc:  # crashed copies close noisily
                logger.warning("close of a shard copy failed: %s", exc)

    def __enter__(self) -> "ReplicatedShard":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
