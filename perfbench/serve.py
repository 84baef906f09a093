"""The serve workload: open-loop HTTP on loopback at a fixed rate, then
a closed-loop saturation phase on the same connections.

The DB and its server live in a child process (``serve_child.py``);
this process is the load generator.  Requests are due at a fixed rate
(``config.SERVE_RATE``) and spread round-robin over
``SERVE_CONNECTIONS`` keep-alive connections, each on its own thread.
A request's latency is timed from when it was due, so a stall also
charges the requests queued behind it; how late the generator sent
each request is reported as ``bench.late_p99_ms``.  Every response is
checked against the ground truth.  A run is made of rounds as in
``inproc.py``: set-up, an open-loop phase and a saturation phase (whose
rate is ``ops_per_s``), a write block over HTTP (timed in the child,
around each DB call), a reopen.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import shutil
import subprocess
import sys
import threading
import time

import numpy as np

from repro.workloads import OP_INSERT

from . import config, inputs, report, session
from .tracing import PER_LAYER

_TIMEOUT = 120.0


class Child:
    """The DB process, driven over JSON lines with a reply timeout."""

    def __init__(self, seed: int, base):
        env = dict(os.environ)
        # One malloc arena, so the RSS growth of this many-threaded
        # process measures the program rather than arena scatter.
        env["MALLOC_ARENA_MAX"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(report.ROOT / "src"), str(report.ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.serve_child", str(seed),
             str(base)],
            cwd=report.ROOT, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def recv(self, event: str) -> dict:
        line = self._lines.get(timeout=_TIMEOUT)
        if line is None:
            raise RuntimeError("serve child exited early")
        doc = json.loads(line)
        if doc.get("event") != event:
            raise RuntimeError(f"serve child sent {doc!r}, expected {event}")
        return doc

    def send(self, doc: dict) -> None:
        self.proc.stdin.write(json.dumps(doc) + "\n")
        self.proc.stdin.flush()

    def call(self, cmd: str, event: str, **kw) -> dict:
        self.send({"cmd": cmd, **kw})
        return self.recv(event)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.send({"cmd": "quit"})
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


def _get(port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _server_counters(port: int) -> dict[str, float]:
    """Sums of the server series this benchmark reads from ``/metrics``."""
    status, body = _get(port, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    out = {"requests": 0.0, "coalesced_batches": 0.0,
           "coalesced_pairs": 0.0, "rejected": 0.0}
    for line in body.decode().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name_labels, value = line.rsplit(" ", 1)
        name = name_labels.split("{", 1)[0]
        if name == "repro_server_requests_total":
            if 'endpoint="/v1/edges:probe"' in name_labels:
                out["requests"] += float(value)
        elif name == "repro_server_coalesced_batches_total":
            out["coalesced_batches"] += float(value)
        elif name == "repro_server_coalesced_pairs_total":
            out["coalesced_pairs"] += float(value)
        elif name == "repro_server_rejected_total":
            out["rejected"] += float(value)
    return out


class Load:
    """One open-loop phase: ``count`` requests due at ``rate``."""

    def __init__(self, count: int):
        self.due = np.zeros(count)
        self.sent = np.zeros(count)
        self.done = np.zeros(count)
        self.ok = np.zeros(count, dtype=bool)
        self.wrong = np.zeros(count, dtype=np.int64)
        self.nonedges = 0
        self.errors: list[str] = []

    def latency_from_due(self) -> np.ndarray:
        return (self.done - self.due)[self.ok]

    def latency_from_send(self) -> np.ndarray:
        return (self.done - self.sent)[self.ok]

    def lateness(self) -> np.ndarray:
        return self.sent - self.due


def open_loop(port: int, bodies, truth) -> Load:
    """Send every request, each due at its slot of the fixed rate."""
    count = len(bodies)
    load = Load(count)
    k = config.SERVE_CONNECTIONS
    headers = {"Content-Type": "application/json"}
    start = time.perf_counter() + 0.05

    def worker(c: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            for i in range(c, count, k):
                due = start + i / config.SERVE_RATE
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                try:
                    conn.request("POST", "/v1/edges:probe", bodies[i],
                                 headers)
                    resp = conn.getresponse()
                    data = resp.read()
                    status = resp.status
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=30)
                    status, data = 0, repr(exc).encode()
                done = time.perf_counter()
                load.due[i], load.sent[i], load.done[i] = due, sent, done
                if status != 200:
                    if len(load.errors) < 20:
                        load.errors.append(f"probe {status}: {data[:200]!r}")
                    continue
                got = np.asarray(json.loads(data)["results"], dtype=bool)
                load.wrong[i] = int(np.count_nonzero(got != truth[i]))
                load.ok[i] = True
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(c,)) for c in range(k)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    load.nonedges = int((~truth).sum())
    return load


class Saturation:
    """One closed-loop phase: every connection sends its next request as
    soon as the previous one is answered."""

    def __init__(self):
        self.answered = 0
        self.wrong = 0
        self.failed = 0
        self.wall = 0.0
        self.cpu_s = 0.0  # the serving process's, over the phase
        self.batches = 0.0  # engine calls the server coalesced them into
        self.errors: list[str] = []

    @property
    def pairs(self) -> int:
        return self.answered * config.SERVE_PAIRS_PER_REQUEST


def closed_loop(port: int, bodies, truth, seconds: float) -> Saturation:
    """Cycle through ``bodies`` on ``SERVE_CONNECTIONS`` connections, one
    request in flight on each, for ``seconds``."""
    sat = Saturation()
    k = config.SERVE_CONNECTIONS
    headers = {"Content-Type": "application/json"}
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def worker(c: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        answered = wrong = failed = 0
        i = c
        try:
            while time.perf_counter() < deadline:
                j = i % len(bodies)
                i += k
                conn.request("POST", "/v1/edges:probe", bodies[j], headers)
                resp = conn.getresponse()
                data = resp.read()
                if resp.status != 200:
                    failed += 1
                    with lock:
                        if len(sat.errors) < 20:
                            sat.errors.append(
                                f"probe {resp.status}: {data[:200]!r}")
                    continue
                got = np.asarray(json.loads(data)["results"], dtype=bool)
                wrong += int(np.count_nonzero(got != truth[j]))
                answered += 1
        except (OSError, http.client.HTTPException, ValueError,
                KeyError) as exc:  # a broken reply ends this connection
            failed += 1
            with lock:
                sat.errors.append(f"probe: {exc!r}")
        finally:
            conn.close()
            with lock:
                sat.answered += answered
                sat.wrong += wrong
                sat.failed += failed

    threads = [threading.Thread(target=worker, args=(c,)) for c in range(k)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    sat.wall = time.perf_counter() - start
    return sat


def _tally_load(load: Load, tally: session.Tally) -> None:
    per = config.SERVE_PAIRS_PER_REQUEST
    tally.attempted += len(load.ok) * per
    tally.failed += int((~load.ok).sum()) * per + int(load.wrong.sum())
    tally.wrong += int(load.wrong.sum())
    tally.errors.extend(load.errors[:max(0, 20 - len(tally.errors))])


def _tally_saturation(sat: Saturation, tally: session.Tally) -> None:
    per = config.SERVE_PAIRS_PER_REQUEST
    tally.attempted += (sat.answered + sat.failed) * per
    tally.failed += sat.failed * per + sat.wrong
    tally.wrong += sat.wrong
    tally.errors.extend(sat.errors[:max(0, 20 - len(tally.errors))])


def _writes(port: int, ops, shadow: inputs.Shadow, tally: session.Tally
            ) -> tuple[list, list]:
    """One write block, one mutation per request; each write's expected
    outcome comes from the shadow, which replays it."""
    lat, done = [], []
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    headers = {"Content-Type": "application/json"}
    try:
        for kind, u, v in zip(*(a.tolist() for a in ops)):
            verb = "add_edge" if kind == OP_INSERT else "remove_edge"
            expected = shadow.apply(kind, u, v)
            body = json.dumps({"ops": [{"op": verb, "u": u, "v": v}]})
            start = time.perf_counter()
            conn.request("POST", "/v1/mutations", body, headers)
            resp = conn.getresponse()
            data = resp.read()
            elapsed = time.perf_counter() - start
            tally.attempted += 1
            if resp.status != 200:
                tally.fail(1, f"mutation {resp.status}: {data[:200]!r}")
                continue
            lat.append(elapsed)
            done.append((kind, u, v))
            if json.loads(data)["results"][0]["applied"] != expected:
                tally.wrong += 1
                tally.fail(1, f"write {verb}({u}, {v}) applied != {expected}")
    finally:
        conn.close()
    return lat, done


def _setup(child: Child) -> tuple[int, float]:
    """One set-up, timed until the server answers ``/healthz``."""
    start = time.perf_counter()
    port = child.call("setup", "listening")["port"]
    while _get(port, "/healthz")[0] != 200:
        time.sleep(0.01)
    return port, time.perf_counter() - start


def run(seed: int, seconds: float, trace: bool) -> int:
    gi = inputs.GraphInputs()
    stamp = report.host_stamp("serve", seed, gi)
    tally = session.Tally()
    # A traced run has two rounds: the untraced reference for
    # bench.trace_overhead, then the traced round.  Every round sends
    # the same requests.
    rounds = 2 if trace else config.ROUNDS
    # An untraced round splits its share of --seconds between the open
    # loop and the closed-loop saturation phase.
    open_s = seconds / rounds * (1.0 if trace else config.SERVE_OPEN_SHARE)
    closed_s = seconds / rounds - open_s
    count = max(1, round(config.SERVE_RATE * open_s))
    us, vs, truth = inputs.serve_requests(gi, seed, count)
    bodies = [json.dumps({"pairs": np.stack([u, v], axis=1).tolist()})
              for u, v in zip(us, vs)]
    blocks = inputs.write_blocks(gi, seed, rounds)
    cus, cvs = inputs.probe_pool(gi, "serve", seed, 1, stream=2).get(0)[:2]
    report.freeze_inputs()
    base = report.ROOT / ".perfbench" / f"serve-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    steal0 = report.cpu_times()
    child = Child(seed, base)
    setups, reopens, loads, write_lat, write_kinds = [], [], [], [], []
    http_write_lat = []
    batches_total = 0.0
    sats: list[Saturation] = []
    cpu_s = 0.0
    try:
        child.recv("ready")
        for rnd in range(rounds):
            port, elapsed = _setup(child)
            setups.append(elapsed)
            traced = trace and rnd == rounds - 1
            if traced:
                child.call("trace", "tracing")
            before = _server_counters(port)
            cpu_s -= child.call("cpu", "cpu")["cpu_s"]
            load = open_loop(port, bodies, truth)
            cpu_s += child.call("cpu", "cpu")["cpu_s"]
            loads.append(load)
            _tally_load(load, tally)
            if traced:
                child.call("mark", "marked")
            after = _server_counters(port)
            batches_total += (after["coalesced_batches"]
                              - before["coalesced_batches"])
            if closed_s > 0:
                c0 = child.call("cpu", "cpu")["cpu_s"]
                sat = closed_loop(port, bodies, truth, closed_s)
                sat.cpu_s = child.call("cpu", "cpu")["cpu_s"] - c0
                sat.batches = (_server_counters(port)["coalesced_batches"]
                               - after["coalesced_batches"])
                sats.append(sat)
                _tally_saturation(sat, tally)

            # A write block over /v1/mutations, then the reopen in the
            # child; the shadow replays every executed write.  Write
            # latency is timed around each call on the serving side
            # (untraced rounds only: the traced round has its own
            # wrappers), and over HTTP for the notes.
            shadow = gi.shadow()
            if not traced:
                child.call("time_writes", "timing")
            lat, writes = _writes(port, blocks[rnd], shadow, tally)
            http_write_lat += lat
            wus, wvs = session.visibility_pairs(writes)
            reply = child.call("reopen", "reopened",
                               check_us=cus.tolist(), check_vs=cvs.tolist(),
                               visible_us=wus.tolist(),
                               visible_vs=wvs.tolist())
            reopens.append(reply["reopen_s"])
            write_kinds += [kind for kind, _s in reply["writes"]]
            write_lat += [sec for _k, sec in reply["writes"]]
            tally.check(reply["check"], shadow.contains(cus, cvs))
            tally.check(reply["visible"], shadow.contains(wus, wvs))
            if rnd < rounds - 1:
                child.call("teardown", "down")

        request = {}
        if trace:
            req_ms = 1e3 * load.latency_from_send().mean()
            ref_ms = 1e3 * loads[0].latency_from_send().mean()
            batches = after["coalesced_batches"] - before["coalesced_batches"]
            pairs = after["coalesced_pairs"] - before["coalesced_pairs"]
            request.update({
                "seed": seed, "writes": len(writes),
                "nonedges": load.nonedges,
                # Open loop: the rate is fixed, so overhead is read off
                # mean request latency (1/latency stands in for ops/s).
                "ops_traced": 1.0 / req_ms, "ops_untraced": 1.0 / ref_ms,
                "mean_request_ms": req_ms,
                "late_p99_ms": 1e3 * report.tail(load.lateness())[0],
                "server": {
                    "requests": after["requests"] - before["requests"],
                    "coalesced_batches": batches,
                    "pairs_per_batch": pairs / batches if batches else 0.0,
                    "rejected": after["rejected"] - before["rejected"],
                },
            })
        fin = child.call("finish", "finished", **request)
        tally.attempted += fin["attempted"]
        tally.failed += fin["failed"]
        tally.wrong += fin["wrong"]
        tally.errors.extend(fin["errors"])
    finally:
        child.close()
        shutil.rmtree(base, ignore_errors=True)

    per = config.SERVE_PAIRS_PER_REQUEST
    completed = sum(int(x.ok.sum()) for x in loads) * per
    values, notes = report.summarize(
        gi, setups=setups, reopens=reopens,
        probe_lat=np.concatenate([x.latency_from_due() for x in loads]),
        ops_per_s=report.median([x.pairs / x.cpu_s for x in sats]),
        write_lat=write_lat, write_kinds=write_kinds,
        index_bytes=fin["index_bytes"], log_bytes=fin["log_bytes"],
        live_edges=shadow.num_edges, rss_growth=fin["rss_growth"],
        tally=tally)
    wall = sum(float(x.done.max() - x.due.min()) for x in loads)
    notes.update({
        "saturation_rps": (sum(x.answered for x in sats)
                           / sum(x.wall for x in sats)) if sats else 0.0,
        "sat_pairs_per_wall_s": [x.pairs / x.wall for x in sats],
        "sat_pairs_per_cpu_s": [x.pairs / x.cpu_s for x in sats],
        "sat_requests_per_batch": [x.answered / x.batches if x.batches
                                   else 0.0 for x in sats],
        "open_pairs_per_cpu_s": completed / cpu_s if cpu_s > 0 else 0.0,
        "server_cpu_s": cpu_s,
        "pairs_per_wall_s": completed / wall if wall else 0.0,
        "write_source": ("the write block of each round, over "
                         "/v1/mutations, timed around each call on the "
                         "serving side"),
        "http_write_p50_ms": 1e3 * report.median(http_write_lat),
        "requests": sum(len(x.ok) for x in loads),
        "coalesced_batches": batches_total,
        "rate_rps": config.SERVE_RATE,
        "host_steal_share": report.steal_share(steal0),
        "late_p99_ms": 1e3 * report.tail(np.concatenate(
            [x.lateness() for x in loads]))[0],
    })
    if trace:
        layer = fin["per_layer"]
        metrics = {name: (layer[name], unit) for name, unit, _ in PER_LAYER}
    else:
        metrics = report.end_to_end(values)
    report.emit(stamp, metrics, notes, tally.attempted, tally.failed,
                tally.failed == 0)
    return 0 if tally.failed == 0 else 1
