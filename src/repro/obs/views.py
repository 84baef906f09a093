"""Stats facades: the public counter objects, backed by the registry.

``StorageStats``, ``QueryStats``, ``MaintenanceStats``, ``FaultStats``
and friends keep their historical field names (``stats.disk_reads``,
``stats.filtered``, …) so no caller breaks, but every field is now a
labeled series in the :mod:`~repro.obs.registry` — reading an
attribute reads the live series, and mutation goes through
:meth:`StatsView.inc`, never bare ``+= 1`` (linter rule R006).  One
view instance = one scope label (``store="store0"``,
``engine="engine1"``), which is what makes ``repro stats`` able to
tell two engines on one shared store apart.
"""

from __future__ import annotations

from .registry import MetricsRegistry, default_registry

__all__ = [
    "StatsView",
    "StorageStats",
    "QueryStats",
    "CacheStats",
    "MaintenanceStats",
    "FaultStats",
    "DatabaseStats",
]


class StatsView:
    """Field-per-series facade over registry counters (and gauges).

    Subclasses declare ``_PREFIX`` (metric-name prefix), ``_SCOPE``
    (the instance label name), ``_COUNTERS`` and optionally
    ``_GAUGES``.  Counter fields are exported as
    ``<prefix>_<field>_total``; gauges as ``<prefix>_<field>``.

    Attribute reads return live series values; attribute writes and
    ``reset()`` exist for backwards compatibility with the dataclass
    era and route to the same series.  New code mutates through
    :meth:`inc` / :meth:`set_gauge`.
    """

    _PREFIX = "repro"
    _SCOPE = "instance"
    _COUNTERS: tuple[str, ...] = ()
    _GAUGES: tuple[str, ...] = ()
    _HELP: dict[str, str] = {}

    def __init__(self, registry: MetricsRegistry | None = None,
                 scope: str | None = None, **labels: str):
        registry = registry or default_registry()
        scope = scope or registry.scope(self._SCOPE)
        bound = {self._SCOPE: scope, **{k: str(v) for k, v in labels.items()}}
        series = {}
        for name in self._COUNTERS:
            counter = registry.counter(f"{self._PREFIX}_{name}_total",
                                       self._HELP.get(name, ""))
            series[name] = counter.labels(**bound)
        gauges = {}
        for name in self._GAUGES:
            gauge = registry.gauge(f"{self._PREFIX}_{name}",
                                   self._HELP.get(name, ""))
            gauges[name] = gauge.labels(**bound)
        self.__dict__.update(
            _registry=registry, _scope=scope, _label_values=bound,
            _series=series, _gauges=gauges,
        )

    # -- identity ----------------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        return self.__dict__["_registry"]

    @property
    def scope(self) -> str:
        """This instance's label value (e.g. ``"store0"``)."""
        return self.__dict__["_scope"]

    # -- field access ------------------------------------------------------

    def __getattr__(self, name: str):
        series = self.__dict__.get("_series", {})
        if name in series:
            return series[name].value
        gauges = self.__dict__.get("_gauges", {})
        if name in gauges:
            return gauges[name].value
        raise AttributeError(
            f"{type(self).__name__!s} has no field {name!r}"
        )

    def __setattr__(self, name: str, value) -> None:
        series = self.__dict__.get("_series", {})
        if name in series:
            series[name].set(value)
            return
        gauges = self.__dict__.get("_gauges", {})
        if name in gauges:
            gauges[name].set(value)
            return
        object.__setattr__(self, name, value)

    # -- mutation ----------------------------------------------------------

    def inc(self, field: str, amount: int | float = 1) -> None:
        """Bump counter ``field`` — the one sanctioned mutation path."""
        self.__dict__["_series"][field].inc(amount)

    def set_gauge(self, field: str, value: int | float) -> None:
        self.__dict__["_gauges"][field].set(value)

    def reset(self) -> None:
        """Zero this instance's series (other scopes are untouched)."""
        for series in self.__dict__["_series"].values():
            series.set(0)
        for gauge in self.__dict__["_gauges"].values():
            gauge.set(0)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict[str, int | float]:
        out = {name: s.value for name, s in self.__dict__["_series"].items()}
        out.update(
            (name, g.value) for name, g in self.__dict__["_gauges"].items()
        )
        return out

    def diff(self, before: dict[str, int | float]) -> dict[str, int | float]:
        """Field deltas of this view since a :meth:`snapshot`."""
        return {name: value - before.get(name, 0)
                for name, value in self.snapshot().items()}

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"{type(self).__name__}({fields})"


class StorageStats(StatsView):
    """Counters for physical storage activity (one KV store)."""

    _PREFIX = "repro_storage"
    _SCOPE = "store"
    _COUNTERS = ("disk_reads", "disk_writes", "bytes_read", "bytes_written",
                 "cache_hits", "cache_misses", "checksum_failures",
                 "compressed_puts", "blob_bytes_raw", "blob_bytes_stored")
    _GAUGES = ("compression_ratio",)
    _HELP = {
        "disk_reads": "Record reads the block cache did not absorb: log "
                      "file reads plus hot-cache serves, booked alike",
        "disk_writes": "Records appended to the log file",
        "bytes_read": "Payload bytes of the reads counted in disk_reads",
        "bytes_written": "Record bytes appended to the log file",
        "cache_hits": "Reads absorbed by the block cache",
        "cache_misses": "Reads the block cache could not serve",
        "checksum_failures": "Records failing CRC or size validation",
        "compressed_puts": "Puts stored under a StreamVByte blob record",
        "blob_bytes_raw": "Uncompressed bytes of compressed-put payloads",
        "blob_bytes_stored": "On-log bytes of compressed-put payloads",
        "compression_ratio": "Live raw bytes / live stored bytes "
                             "(1.0 when nothing is stored)",
    }


class QueryStats(StatsView):
    """Aggregate outcome of an engine's query traffic.

    ``degraded`` is no longer a latched copy: it is derived from the
    backing store at read time, so it appears while the store is
    degraded and clears when the store recovers — ``reset()`` cannot
    lie about a store that is still failing.
    """

    _PREFIX = "repro_query"
    _SCOPE = "engine"
    _COUNTERS = ("total", "filtered", "executed", "positives",
                 "cache_served", "disk_served", "elapsed_seconds")
    _HELP = {
        "total": "Edge queries answered",
        "filtered": 'Queries answered "no edge" by the NDF alone',
        "executed": "Queries that required a storage lookup",
        "positives": "Queried edges that actually existed",
        "cache_served": "This engine's lookups absorbed by the block cache",
        "disk_served": "This engine's lookups that paid a physical read",
        "elapsed_seconds": "Wall-clock seconds spent answering queries",
    }

    def __init__(self, store=None, registry: MetricsRegistry | None = None,
                 scope: str | None = None, **labels: str):
        super().__init__(registry=registry, scope=scope, **labels)
        self.__dict__["_store"] = store

    @property
    def degraded(self) -> bool:
        """Live view of the backing store's fault state."""
        return bool(getattr(self.__dict__.get("_store"), "degraded", False))

    @property
    def filter_rate(self) -> float:
        total = self.total
        return self.filtered / total if total else 0.0


class CacheStats(StatsView):
    """LRU block-cache churn counters plus occupancy gauges."""

    _PREFIX = "repro_cache"
    _SCOPE = "cache"
    _COUNTERS = ("hits", "misses", "evictions", "invalidations")
    _GAUGES = ("entries", "size_bytes")
    _HELP = {
        "hits": "Cache lookups that returned a value",
        "misses": "Cache lookups that found nothing",
        "evictions": "Entries displaced by capacity pressure",
        "invalidations": "Entries dropped deliberately (updates, clears)",
        "entries": "Entries currently cached",
        "size_bytes": "Bytes currently cached",
    }


class MaintenanceStats(StatsView):
    """Counters for VEND update-path behaviour (the Fig. 10 bench)."""

    _PREFIX = "repro_vend"
    _SCOPE = "solution"
    _COUNTERS = ("inserts_noop", "inserts_fast", "inserts_rebuild",
                 "deletes_noop", "deletes_rebuild", "vertex_rebuilds",
                 "alpha_demotions")
    _HELP = {
        "inserts_noop": "Edge inserts where F(u,v) was already 0",
        "inserts_fast": "Inserts appended into an unfilled decodable code",
        "inserts_rebuild": "Inserts that re-encoded one vector",
        "deletes_noop": "Edge deletes that required no re-encoding",
        "deletes_rebuild": "Vectors re-encoded on deletion, or queued "
                           "for a complete re-encode",
        "vertex_rebuilds": "Vectors re-encoded by vertex deletion, or "
                           "queued for a complete re-encode",
        "alpha_demotions": "Exactness bits cleared on conversions",
    }


class FaultStats(StatsView):
    """What the fault injector actually did (assertions and reports)."""

    _PREFIX = "repro_faults"
    _SCOPE = "injector"
    _COUNTERS = ("operations", "injected_read_errors",
                 "injected_write_errors", "torn_writes", "retries", "gave_up")
    _HELP = {
        "operations": "Operations routed through the fault injector",
        "injected_read_errors": "Read attempts failed on purpose",
        "injected_write_errors": "Write attempts failed on purpose",
        "torn_writes": "Puts torn mid-record by a simulated crash",
        "retries": "Attempts retried after a transient failure",
        "gave_up": "Operations that exhausted their retry budget",
    }


class DatabaseStats(StatsView):
    """``VendGraphDB`` facade counters: maintenance I/O and rebuilds.

    ``maintenance_reads`` is the counter that keeps index-reconstruction
    fetches out of the query books: every adjacency fetch the VEND
    index performs (insert/delete reconstruction, full rebuilds) lands
    here instead of in any engine's ``cache_served``/``disk_served``.
    """

    _PREFIX = "repro_db"
    _SCOPE = "db"
    _COUNTERS = ("maintenance_reads", "maintenance_disk_reads",
                 "index_rebuilds")
    _HELP = {
        "maintenance_reads": "Adjacency fetches performed for index "
                             "maintenance: insert reconstruction, the "
                             "batched re-encode of deletes queued before "
                             "a read, full rebuilds (cache- or "
                             "disk-served)",
        "maintenance_disk_reads": "Maintenance fetches that paid a "
                                  "physical read",
        "index_rebuilds": "Full index rebuilds (every rebuild_index: "
                          "reopen or ID capacity growth)",
    }
