"""The process hosting the DB and its HTTP server on the serve workload.

Started by ``perfbench/serve.py``; speaks JSON lines (commands on
standard input, events on standard output).  The server is started
through ``serve_in_thread`` with the shared deployment config, because
the ``repro serve`` command builds an in-memory store.

Commands: ``setup`` (open + load + warm-up + listen), ``teardown``,
``cpu`` (the process's CPU seconds so far), ``trace`` (install the
timing wrappers), ``mark`` (end of the traced probe phase),
``time_writes`` (time each ``add_edge``/``remove_edge`` call the server
makes, until the reopen), ``reopen`` (stop serving, close + reopen +
rebuild + first probe batch, check the writes, serve again; replies
with the timed writes), ``finish`` (report), ``quit``.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from repro.server import ServerConfig, serve_in_thread
from repro.workloads import OP_DELETE, OP_INSERT

from . import config, inputs, report, session
from .tracing import SpanRecorder, counters, layer_metrics


def send(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def time_writes(db, timed: list) -> None:
    """Shadow ``db``'s write methods with ones that append ``(kind,
    seconds)`` per call to ``timed``: a write's latency on the serving
    side, as the in-process workloads time it, without the HTTP round
    trip whose thread hand-offs the host's steal time inflates."""
    for kind, name in ((OP_INSERT, "add_edge"), (OP_DELETE, "remove_edge")):
        def timed_call(u, v, _call=getattr(db, name), _kind=kind):
            start = time.perf_counter()
            try:
                return _call(u, v)
            finally:
                timed.append((_kind, time.perf_counter() - start))
        setattr(db, name, timed_call)


def main(seed: int, base: Path) -> int:
    gi = inputs.GraphInputs()
    batches = config.WARM_BATCHES
    warm = inputs.probe_pool(gi, "serve", seed, batches, stream=1)
    tally = session.Tally()
    report.freeze_inputs()
    rss0 = report.rss_bytes()
    send({"event": "ready"})
    db = handle = recorder = None
    reps = 0
    directory = base
    window = [0.0, 0.0]
    before = probed = after = None
    timed: list[tuple[int, float]] = []
    for line in sys.stdin:
        cmd = json.loads(line)
        op = cmd["cmd"]
        if op == "setup":
            directory = base / f"db{reps}"
            reps += 1
            db = session.set_up(gi, directory, warm, batches, tally)
            handle = serve_in_thread(db, ServerConfig(port=0))
            send({"event": "listening", "port": handle.server.port})
        elif op == "teardown":
            handle.stop()
            db.close()
            shutil.rmtree(directory)
            send({"event": "down"})
        elif op == "cpu":
            send({"event": "cpu", "cpu_s": time.process_time()})
        elif op == "trace":
            recorder = SpanRecorder()
            before = counters(db)
            recorder.install()
            window[0] = time.perf_counter()
            send({"event": "tracing"})
        elif op == "mark":
            window[1] = time.perf_counter()
            probed = counters(db)
            recorder.note_threads()
            send({"event": "marked"})
        elif op == "time_writes":
            time_writes(db, timed)
            send({"event": "timing"})
        elif op == "reopen":
            handle.stop()
            if recorder is not None and after is None:
                after = counters(db)
            us = np.asarray(cmd["check_us"], dtype=np.int64)
            vs = np.asarray(cmd["check_vs"], dtype=np.int64)
            db, reopen_s, verdicts = session.reopen(db, directory, us, vs)
            if recorder is not None and recorder.installed:
                # The traced window ends with the reopen.
                recorder.uninstall()
            wus = np.asarray(cmd["visible_us"], dtype=np.int64)
            wvs = np.asarray(cmd["visible_vs"], dtype=np.int64)
            visible = db.has_edge_batch(wus, wvs)
            handle = serve_in_thread(db, ServerConfig(port=0))
            send({"event": "reopened", "reopen_s": reopen_s,
                  "port": handle.server.port,
                  "check": verdicts.tolist(), "visible": visible.tolist(),
                  "writes": timed})
            timed = []
        elif op == "finish":
            handle.stop()
            doc = {
                "event": "finished",
                "log_bytes": session.log_bytes(directory),
                "index_bytes": db.index_memory_bytes(),
                "rss_growth": report.rss_bytes() - rss0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "wrong": tally.wrong,
                "errors": tally.errors,
            }
            db.close()
            if recorder is not None:
                doc["per_layer"] = _layers(recorder, tuple(window), before,
                                           probed, after, cmd)
            send(doc)
        elif op == "quit":
            break
    return 0


def _layers(recorder: SpanRecorder, window, before, probed, after,
            cmd) -> dict:
    """Per-layer metrics of the traced window; the engine time per
    coalesced batch comes from the ``has_edge_batch`` spans on the db
    thread inside the traced probe phase."""
    lo, hi = window
    engine = [s[3] - s[2] for s in recorder.spans
              if s[1] == "apps.batch" and lo <= s[2] and s[3] <= hi]
    server = dict(cmd["server"])
    mean_engine_ms = 1e3 * (sum(engine) / len(engine)) if engine else 0.0
    server["engine_s"] = sum(engine)
    server["non_engine_ms"] = cmd["mean_request_ms"] - mean_engine_ms
    layer, coverage = layer_metrics(
        recorder.spans, window, before, probed, after, writes=cmd["writes"],
        nonedges=cmd["nonedges"], ops_traced=cmd["ops_traced"],
        ops_untraced=cmd["ops_untraced"], server=server,
        late_p99_ms=cmd["late_p99_ms"])
    recorder.dump(report.ROOT / ".perfbench" / "traces"
                  / f"serve-seed{cmd['seed']}.json",
                  {"per_layer": layer,
                   "coverage_by_thread": {str(k): v
                                          for k, v in coverage.items()}})
    return layer


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), Path(sys.argv[2])))
