"""Stream execution against a :class:`~repro.apps.database.VendGraphDB`.

The runner is the piece that turns a :class:`~repro.workloads.streams.
WorkloadStream` into actual traffic, preserving the property the
benchmarks lean on: **batching follows the stream, not the runner.**
Consecutive probe ops are served through vectorized ``has_edge_batch``
calls (chunked at ``batch_size``); a write op ends the run.  A churn
stream with 2048-probe runs gets long batches, a mixed stream gets
short ones — the runner never reorders across a write, so verdicts are
exactly what a serial client would have seen.

Writes go through the database facade (``add_edge`` / ``remove_edge``),
which maintains the VEND index and defers delete re-encodes to one
batch before the next probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .streams import OP_DELETE, OP_INSERT, OP_PROBE, WorkloadStream

__all__ = ["RunResult", "run_stream"]


@dataclass
class RunResult:
    """What one stream execution did and answered."""

    stream: str
    probes: int = 0
    positives: int = 0
    inserts: int = 0
    deletes: int = 0
    batches: int = 0
    elapsed: float = 0.0
    probe_elapsed: float = 0.0
    verdicts: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=bool))

    @property
    def probe_throughput(self) -> float:
        """Probes answered per second of probe wall time."""
        return self.probes / self.probe_elapsed if self.probe_elapsed else 0.0

    def verdict_checksum(self) -> str:
        """Digest of the verdict sequence (determinism assertions)."""
        import hashlib
        return hashlib.sha256(
            np.packbits(self.verdicts).tobytes()).hexdigest()


def run_stream(db, stream: WorkloadStream,
               batch_size: int = 4096) -> RunResult:
    """Execute ``stream`` against ``db`` and return the tally."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    result = RunResult(stream=stream.name)
    verdict_chunks: list[np.ndarray] = []
    t0 = time.perf_counter()
    for kind, start, end in stream.segments():
        if kind == OP_PROBE:
            p0 = time.perf_counter()
            for lo in range(start, end, batch_size):
                hi = min(lo + batch_size, end)
                verdicts = db.has_edge_batch(stream.us[lo:hi],
                                             stream.vs[lo:hi])
                verdict_chunks.append(np.asarray(verdicts, dtype=bool))
                result.probes += hi - lo
                result.positives += int(verdict_chunks[-1].sum())
                result.batches += 1
            result.probe_elapsed += time.perf_counter() - p0
            continue
        for i in range(start, end):
            u, v = int(stream.us[i]), int(stream.vs[i])
            if kind == OP_INSERT:
                db.add_edge(u, v)
                result.inserts += 1
            elif kind == OP_DELETE:
                db.remove_edge(u, v)
                result.deletes += 1
    result.elapsed = time.perf_counter() - t0
    result.verdicts = (np.concatenate(verdict_chunks) if verdict_chunks
                       else np.zeros(0, dtype=bool))
    return result
