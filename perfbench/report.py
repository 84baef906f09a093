"""Percentiles, memory, the host stamp, and the result line."""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.workloads import OP_DELETE, OP_INSERT

from . import config

ROOT = Path(__file__).resolve().parent.parent


def median(samples) -> float:
    return float(np.median(samples)) if len(samples) else 0.0


def kind_median(samples, kinds, kind: int) -> float:
    """Median of the samples whose write kind is ``kind``."""
    return median([x for x, k in zip(samples, kinds) if k == kind])


def percentile(samples, pct: float) -> float:
    return float(np.percentile(samples, pct)) if len(samples) else 0.0


def tail(samples) -> tuple[float, float, int]:
    """``(value, percentile, n)``: p99, or the highest percentile that
    still has at least ten samples beyond it when there are fewer than
    1000 samples."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0
    pct = min(99.0, max(0.0, 100.0 * (1.0 - 10.0 / n)))
    return float(np.percentile(samples, pct)), pct, n


def freeze_inputs() -> None:
    """Move the benchmark's own objects (the Python graph, the streams)
    out of the collector's reach before the DB is opened, so full
    collections during the run scan the program's heap and not the
    harness's: the input graph alone otherwise triples each pause."""
    gc.collect()
    gc.freeze()


def rss_bytes() -> int:
    """Resident set size of this process after a full collection and a
    ``malloc_trim``, so that it counts live memory rather than what the
    allocator happens to keep on its free lists."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):  # not glibc
        pass
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE")


def cpu_times() -> list[int]:
    """The host's aggregate CPU times (``/proc/stat``), in ticks."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return []


def steal_share(before: list[int]) -> float:
    """Share of the host's CPU time since ``before`` that the hypervisor
    gave to other guests (steal), which slows every timed call; 0 when
    the host does not report it."""
    after = cpu_times()
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else 0.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over ``src/`` (path + bytes), for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_stamp(workload: str, seed: int, gi) -> dict:
    """Host and input identity attached to every result."""
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "dataset": f"{config.DATASET}@{config.SCALE}",
        "vertices": gi.num_vertices,
        "edges": gi.num_edges,
        "decoded_adjacency_bytes": gi.decoded_bytes,
        "hot_cache_bytes": config.DB_CONFIG["hot_cache_bytes"],
        "db_config": config.DB_CONFIG,
        "batch_pairs": config.BATCH,
        "serve_rate_rps": config.SERVE_RATE,
        "serve_pairs_per_request": config.SERVE_PAIRS_PER_REQUEST,
        "flush_policy": "no fsync until close; reopen after a clean close",
    }


_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/cpu-s",
    "insert_p50_ms": "ms", "delete_p50_ms": "ms", "reopen_s": "s",
    "index_bytes_per_vertex": "B", "stored_bytes_per_edge": "B",
    "db_rss_mb": "MiB",
}


def emit(stamp: dict, metrics: dict[str, tuple[float, str]],
         notes: dict, attempted: int, failed: int, correct: bool) -> None:
    """Print the stamp, one line per metric, then the result object as
    the last line of standard output."""
    print(json.dumps({"stamp": stamp, "notes": notes}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {stamp['workload']:>12} {name:<34} {value:>14.6g} {unit}")
    if "probe_p50_ms" in notes:  # printed, not gated
        for name, remark in (
                ("probe_p50_ms", f"of {notes['probe_samples']}"),
                ("probe_p90_ms", f"of {notes['probe_samples']}"),
                ("probe_p99_ms", f"p{notes['probe_tail_percentile']:.4g} "
                                 f"of {notes['probe_samples']}"),
                ("write_p99_ms", f"p{notes['write_tail_percentile']:.4g} "
                                 f"of {notes['write_samples']}")):
            print(f"# {stamp['workload']:>12} {name:<34} "
                  f"{notes[name]:>14.6g} ms  ({remark}; not gated)")
    ratio = failed / attempted if attempted else 1.0
    print(f"# {stamp['workload']:>12} {'failed_ratio':<34} {ratio:>14.6g} 1"
          f"  ({failed} of {attempted})")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(result))
    sys.stdout.flush()


def end_to_end(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Attach units to the end-to-end metric values, in a fixed order."""
    return {name: (values[name], unit) for name, unit in _UNITS.items()}


def summarize(gi, *, setups, reopens, probe_lat, ops_per_s, write_lat,
              write_kinds, index_bytes, log_bytes, live_edges, rss_growth,
              tally) -> tuple[dict[str, float], dict]:
    """The end-to-end values of one run and the notes printed beside
    them, from the raw samples every workload collects.  Latencies are
    in seconds, sizes in bytes."""
    p99, p99_pct, n_probe = tail(probe_lat)
    w99, w99_pct, n_write = tail(write_lat)
    values = {
        "setup_s": median(setups),
        "ops_per_s": ops_per_s,
        "insert_p50_ms": kind_median(write_lat, write_kinds, OP_INSERT) * 1e3,
        "delete_p50_ms": kind_median(write_lat, write_kinds, OP_DELETE) * 1e3,
        "reopen_s": median(reopens),
        "index_bytes_per_vertex": index_bytes / gi.num_vertices,
        "stored_bytes_per_edge": log_bytes / (2 * live_edges),
        "db_rss_mb": rss_growth / (1 << 20),
    }
    notes = {
        "setup_samples_s": list(setups), "reopen_samples_s": list(reopens),
        "probe_p50_ms": median(probe_lat) * 1e3,
        "probe_p90_ms": percentile(probe_lat, 90) * 1e3,
        "probe_p99_ms": p99 * 1e3, "probe_samples": n_probe,
        "probe_tail_percentile": p99_pct,
        "write_p99_ms": w99 * 1e3,
        "write_samples": n_write, "write_tail_percentile": w99_pct,
        "wrong_verdicts": tally.wrong,
        "errors": tally.errors[:20],
    }
    return values, notes
