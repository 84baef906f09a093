"""repro.obs — the observability subsystem (DESIGN.md §10).

Three small pieces that together make every counter in the repo
trustworthy and exportable:

- :mod:`~repro.obs.registry` — named counters, gauges and
  bounded-bucket histograms with label support, JSON and Prometheus
  export, and the ``snapshot()``/``diff()`` API the bench harness uses;
- :mod:`~repro.obs.tracer` — a lightweight nestable span tracer for
  the ``query → ndf_filter → storage_get → cache`` path;
- :mod:`~repro.obs.receipt` + :mod:`~repro.obs.views` — per-operation
  I/O provenance (the cross-engine attribution fix) and the public
  stats facades every layer exposes.
"""

from .receipt import ReadReceipt
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from .tracer import Span, Tracer, default_tracer
from .views import (
    CacheStats,
    DatabaseStats,
    FaultStats,
    MaintenanceStats,
    QueryStats,
    StatsView,
    StorageStats,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "default_registry",
    "Span",
    "Tracer",
    "default_tracer",
    "ReadReceipt",
    "StatsView",
    "StorageStats",
    "QueryStats",
    "CacheStats",
    "MaintenanceStats",
    "FaultStats",
    "DatabaseStats",
]
