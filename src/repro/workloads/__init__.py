"""Query and update workload generators for the experiments.

Two layers: the Section VII-B pair/update samplers (``pairs.py``,
``updates.py``) used by the original experiments, and the streaming
engine (``streams.py`` + ``runner.py``) that drives the hot-cache
benchmarks with ordered, seeded, read/write op streams.
"""

from .pairs import common_neighbor_pairs, mixed_pairs, random_pairs
from .runner import RunResult, run_stream
from .streams import (
    OP_DELETE,
    OP_INSERT,
    OP_PROBE,
    STREAM_KINDS,
    WorkloadStream,
    churn_stream,
    edge_stream,
    make_stream,
    mixed_stream,
    uniform_stream,
    zipfian_stream,
)
from .updates import sample_deletions, sample_insertions

__all__ = [
    "random_pairs",
    "common_neighbor_pairs",
    "mixed_pairs",
    "sample_deletions",
    "sample_insertions",
    "OP_PROBE",
    "OP_INSERT",
    "OP_DELETE",
    "WorkloadStream",
    "STREAM_KINDS",
    "make_stream",
    "uniform_stream",
    "zipfian_stream",
    "edge_stream",
    "churn_stream",
    "mixed_stream",
    "RunResult",
    "run_stream",
]
