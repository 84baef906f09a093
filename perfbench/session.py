"""DB lifecycle shared by the in-process runs and the serve child:
open + load + warm-up, close + reopen + rebuild, and the verdict tally."""

from __future__ import annotations

import gc
import time
from pathlib import Path

import numpy as np

from repro.apps import VendGraphDB

from . import config


class Tally:
    """Attempted operations and failures (errors, refusals, timeouts and
    wrong verdicts)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []

    def check(self, got, want) -> None:
        got = np.asarray(got, dtype=bool)
        want = np.asarray(want, dtype=bool)
        self.attempted += len(want)
        if got.shape != want.shape:
            self.fail(len(want), f"verdict shape {got.shape} != {want.shape}")
            return
        bad = int(np.count_nonzero(got != want))
        self.wrong += bad
        self.failed += bad

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(reason)


def open_db(directory: Path) -> VendGraphDB:
    """The shared config on segment logs ``<directory>/g.shard<N>``."""
    return VendGraphDB(str(directory / "g"), **config.DB_CONFIG)


def set_up(gi, directory: Path, warm, batches: int,
           tally: Tally) -> VendGraphDB:
    """Open a fresh DB in ``directory``, load the graph, and run the
    verified warm-up pass of ``batches`` calls over the ``warm`` pool."""
    directory.mkdir(parents=True)
    db = open_db(directory)
    db.load_graph(gi.graph)
    for i in range(batches):
        us, vs, truth, _ = warm.get(i)
        tally.check(db.has_edge_batch(us, vs), truth)
    return db


def reopen(db: VendGraphDB, directory: Path, us, vs
           ) -> tuple[VendGraphDB, float, np.ndarray]:
    """Close, reopen on the same segment files, rebuild the index and
    answer one probe batch; returns the new DB, the seconds taken and
    the batch's verdicts (checked by the caller, outside the timing)."""
    gc.collect()  # every timed reopen starts from the same collector state
    start = time.perf_counter()
    db.close()
    db = open_db(directory)
    db.rebuild_index()
    verdicts = db.has_edge_batch(us, vs)
    return db, time.perf_counter() - start, verdicts


def log_bytes(directory: Path) -> int:
    """Total size of the segment logs."""
    return sum(p.stat().st_size for p in directory.glob("g.shard*"))


def visibility_pairs(writes) -> tuple[np.ndarray, np.ndarray]:
    """Both orientations of every pair a write touched."""
    pairs = {(u, v) for _k, u, v in writes} | {(v, u) for _k, u, v in writes}
    arr = np.asarray(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]
