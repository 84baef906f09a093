"""The server API suite: correctness, coalescing, admission,
backpressure, health, and the malformed-input contract (DESIGN.md §15).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading

import pytest

from repro.apps import VendGraphDB
from repro.graph import Graph
from repro.server import ServerConfig, serve_in_thread
from repro.server.admission import AdmissionController, TokenBucket
from repro.server.schemas import ENDPOINTS, check_mutation_op, validate
from repro.storage.faults import FaultConfig, FaultInjectingKVStore

EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 6)]
NUM_VERTICES = 8


def build_graph() -> Graph:
    g = Graph()
    for v in range(NUM_VERTICES):
        g.add_vertex(v)
    for u, v in EDGES:
        g.add_edge(u, v)
    return g


def make_db(**kwargs) -> VendGraphDB:
    kwargs.setdefault("k", 4)
    db = VendGraphDB(**kwargs)
    db.load_graph(build_graph())
    return db


class Client:
    """Tiny synchronous test client over one keep-alive connection."""

    def __init__(self, handle, client_id: str = "test"):
        host, port = handle.address
        self.conn = http.client.HTTPConnection(host, port, timeout=30)
        self.client_id = client_id

    def request(self, method: str, path: str, body=None,
                raw: bytes | None = None):
        data = raw if raw is not None else (
            json.dumps(body).encode() if body is not None else None)
        self.conn.request(method, path, body=data,
                          headers={"X-Client-Id": self.client_id})
        response = self.conn.getresponse()
        payload = response.read()
        doc = None
        if payload and response.headers.get_content_type() == \
                "application/json":
            doc = json.loads(payload)
        return response.status, doc, response.headers

    def post(self, path: str, body):
        status, doc, _headers = self.request("POST", path, body)
        return status, doc

    def close(self):
        self.conn.close()


@pytest.fixture
def server():
    db = make_db(shards=2)
    handle = serve_in_thread(db, ServerConfig())
    client = Client(handle)
    yield handle, db, client
    client.close()
    handle.stop()
    db.close()


# -- probe correctness -------------------------------------------------------


class TestProbe:
    def test_verdicts_in_input_order(self, server):
        _handle, _db, client = server
        pairs = [[0, 1], [0, 3], [3, 2], [6, 1], [5, 0], [6, 0], [0, 1]]
        status, doc = client.post("/v1/edges:probe", {"pairs": pairs})
        assert status == 200
        expected = [(min(u, v), max(u, v)) in
                    {tuple(sorted(e)) for e in EDGES}
                    for u, v in pairs]
        assert doc["results"] == expected

    def test_unknown_vertices_answer_false_not_500(self, server):
        _handle, _db, client = server
        pairs = [[0, 1], [999, 1], [0, 998], [997, 996], [2, 3]]
        status, doc = client.post("/v1/edges:probe", {"pairs": pairs})
        assert status == 200
        assert doc["results"] == [True, False, False, False, True]

    def test_empty_pairs(self, server):
        _handle, _db, client = server
        status, doc = client.post("/v1/edges:probe", {"pairs": []})
        assert status == 200
        assert doc["results"] == []

    def test_verdicts_track_mutations(self, server):
        _handle, _db, client = server
        status, doc = client.post("/v1/mutations", {"ops": [
            {"op": "add_edge", "u": 3, "v": 6},
            {"op": "remove_edge", "u": 0, "v": 1},
        ]})
        assert status == 200
        assert [r["applied"] for r in doc["results"]] == [True, True]
        status, doc = client.post("/v1/edges:probe",
                                  {"pairs": [[3, 6], [0, 1]]})
        assert status == 200
        assert doc["results"] == [True, False]

    def test_vertex_lifecycle(self, server):
        _handle, _db, client = server
        ops = [{"op": "add_vertex", "v": 41},
               {"op": "add_vertex", "v": 41},
               {"op": "add_edge", "u": 41, "v": 0},
               {"op": "remove_vertex", "v": 41}]
        status, doc = client.post("/v1/mutations", {"ops": ops})
        assert status == 200
        assert [r["applied"] for r in doc["results"]] == [
            True, False, True, True]
        status, doc = client.post("/v1/edges:probe",
                                  {"pairs": [[41, 0]]})
        assert doc["results"] == [False]


class TestNeighbors:
    def test_known_vertex(self, server):
        _handle, _db, client = server
        status, doc = client.post("/v1/neighbors", {"vertex": 0})
        assert status == 200
        assert doc == {"vertex": 0, "exists": True,
                       "neighbors": [1, 2, 5]}

    def test_unknown_vertex(self, server):
        _handle, _db, client = server
        status, doc = client.post("/v1/neighbors", {"vertex": 12345})
        assert status == 200
        assert doc == {"vertex": 12345, "exists": False, "neighbors": []}


# -- coalescing and stats attribution ---------------------------------------


def _probe_concurrently(db) -> None:
    """N concurrent clients; coalesced engine calls; every client still
    gets its own answers back in its own order, and the coalesced
    traffic lands in the engine and per-shard ledgers exactly."""
    # A wide window guarantees concurrent arrivals share a batch.
    handle = serve_in_thread(db, ServerConfig(batch_window=0.05))
    from repro.obs import default_registry
    batches = default_registry().counter(
        "repro_server_coalesced_batches_total")
    pairs_counter = default_registry().counter(
        "repro_server_coalesced_pairs_total")
    batches_before = batches.total()
    pairs_before = pairs_counter.total()
    engine_before = db.query_stats.total

    edge_set = {tuple(sorted(e)) for e in EDGES}
    requests = [
        [[i % NUM_VERTICES, (i + j) % NUM_VERTICES]
         for j in range(1, 4)]
        for i in range(8)
    ]
    results: list = [None] * len(requests)

    def worker(idx: int) -> None:
        client = Client(handle, client_id=f"c{idx}")
        try:
            results[idx] = client.post("/v1/edges:probe",
                                       {"pairs": requests[idx]})
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(requests))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    try:
        total_pairs = 0
        for request, outcome in zip(requests, results):
            status, doc = outcome
            assert status == 200
            expected = [tuple(sorted((u, v))) in edge_set and u != v
                        for u, v in request]
            assert doc["results"] == expected
            total_pairs += len(request)
        batch_calls = batches.total() - batches_before
        assert 1 <= batch_calls < len(requests), (
            f"{len(requests)} concurrent requests produced "
            f"{batch_calls} engine batches — no coalescing happened")
        assert pairs_counter.total() - pairs_before == total_pairs
        # Attribution: coalesced traffic still lands in the engine
        # ledger, and the per-shard ledgers sum to it exactly.
        engine_delta = db.query_stats.total - engine_before
        assert engine_delta == total_pairs
        assert len(db.shard_query_stats) == db.num_shards
        for field in ("total", "filtered", "executed", "cache_served",
                      "disk_served", "positives"):
            shard_sum = sum(getattr(s, field) for s in db.shard_query_stats)
            assert shard_sum == getattr(db.query_stats, field)
    finally:
        handle.stop()


class TestCoalescing:
    def test_concurrent_probes_coalesce_and_stay_correct(self):
        db = make_db(shards=2)
        try:
            _probe_concurrently(db)
        finally:
            db.close()

    def test_one_shard_books_one_ledger_and_one_hot_cache(self, tmp_path):
        db = make_db(path=tmp_path / "db", shards=1,
                     hot_cache_bytes=1 << 16)
        try:
            _probe_concurrently(db)
            assert len(db.shard_query_stats) == 1
            assert len(db.hot_caches()) == 1
        finally:
            db.close()


# -- admission and backpressure ---------------------------------------------


class TestAdmission:
    def test_over_rate_client_gets_429_with_retry_after(self):
        db = make_db()
        handle = serve_in_thread(
            db, ServerConfig(rate=0.001, burst=3.0))
        hot = Client(handle, client_id="hot")
        fresh = Client(handle, client_id="fresh")
        try:
            statuses = []
            for _ in range(6):
                status, _doc, headers = hot.request(
                    "POST", "/v1/edges:probe", {"pairs": [[0, 1]]})
                statuses.append(status)
                if status == 429:
                    assert float(headers["Retry-After"]) > 0
            assert statuses[0] == 200
            assert 429 in statuses
            # Admission is per client: a fresh id has a fresh bucket.
            status, doc = fresh.post("/v1/edges:probe",
                                     {"pairs": [[0, 1]]})
            assert status == 200 and doc["results"] == [True]
        finally:
            hot.close()
            fresh.close()
            handle.stop()
            db.close()

    def test_batch_pairs_priced_like_single_probes(self):
        db = make_db()
        handle = serve_in_thread(db, ServerConfig(rate=0.001, burst=8.0))
        client = Client(handle, client_id="bulk")
        try:
            # 6 pairs fit the 8-token burst; the next 6 cannot.
            status, _doc = client.post("/v1/edges:probe",
                                       {"pairs": [[0, 1]] * 6})
            assert status == 200
            status, doc, headers = client.request(
                "POST", "/v1/edges:probe", {"pairs": [[0, 1]] * 6})
            assert status == 429
            assert doc["error"]["code"] == 429
            assert float(headers["Retry-After"]) > 0
        finally:
            client.close()
            handle.stop()
            db.close()

    def test_degraded_store_turns_writes_and_probes_away(self, server):
        _handle, db, client = server
        # The kv attribute is the latch the storage tier itself uses.
        db.store.segments[0]._kv.degraded = True
        try:
            status, doc, headers = client.request(
                "POST", "/v1/edges:probe", {"pairs": [[0, 1]]})
            assert status == 429
            assert "Retry-After" in headers
            assert "degraded" in doc["error"]["message"]
        finally:
            db.store.segments[0]._kv.degraded = False
        status, doc = client.post("/v1/edges:probe", {"pairs": [[0, 1]]})
        assert status == 200 and doc["results"] == [True]

    def test_queue_bound_rejects_overflow(self):
        import time

        db = make_db()
        handle = serve_in_thread(
            db, ServerConfig(max_queue_pairs=4, batch_window=0.5))
        first = Client(handle, client_id="a")
        second = Client(handle, client_id="b")
        try:
            # Fill the queue asynchronously: the wide window parks the
            # first request inside the batcher for 500ms.
            outcome = {}

            def fill():
                outcome["first"] = first.post(
                    "/v1/edges:probe", {"pairs": [[0, 1]] * 4})

            filler = threading.Thread(target=fill)
            filler.start()
            try:
                # healthz bypasses the queue: wait until the 4 pairs
                # are genuinely in flight before probing the bound.
                for _ in range(400):
                    _s, doc, _h = second.request("GET", "/healthz")
                    if doc["inflight_pairs"] >= 4:
                        break
                    time.sleep(0.002)
                else:
                    pytest.fail("first request never became in-flight")
                status, doc = second.post(
                    "/v1/edges:probe", {"pairs": [[1, 2]] * 3})
                assert status == 429, "queue bound never engaged"
                assert "queue full" in doc["error"]["message"]
            finally:
                filler.join(timeout=30)
            assert outcome["first"][0] == 200
        finally:
            first.close()
            second.close()
            handle.stop()
            db.close()


# -- health under chaos ------------------------------------------------------


class TestHealth:
    def test_healthz_ok(self, server):
        _handle, _db, client = server
        status, doc, _headers = client.request("GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["shards"] == 2

    def test_healthz_flips_during_chaos_and_heals(self):
        """Kill a replica primary mid-serve: reads fail over, the
        degraded latch trips, /healthz flips to 503; repair + reset
        brings 200 back.  The chaos sequence mirrors audit_chaos."""
        db = make_db(shards=2, replicas=1)
        handle = serve_in_thread(db, ServerConfig())
        client = Client(handle)
        try:
            status, doc, _h = client.request("GET", "/healthz")
            assert status == 200 and doc["replicas"] == 1

            shard = db.store.segments[0]
            primary = shard.copies[0]
            injector = FaultInjectingKVStore(
                primary._kv,
                FaultConfig(read_error_rate=1.0, max_retries=0, seed=7))
            primary._kv = injector

            # Drive storage reads through the API until failover trips
            # the latch (the NDF filters some pairs, so probe edges —
            # they always execute).
            for _ in range(10):
                status, _doc = client.post(
                    "/v1/edges:probe",
                    {"pairs": [list(e) for e in EDGES]})
                if db.degraded:
                    break
            assert db.degraded, "failover never latched degraded"

            status, doc, _h = client.request("GET", "/healthz")
            assert status == 503
            assert doc["status"] == "degraded"
            # Serving endpoints shed load while degraded.
            status, _doc, headers = client.request(
                "POST", "/v1/edges:probe", {"pairs": [[0, 1]]})
            assert status == 429 and "Retry-After" in headers

            # Heal: stop injecting, repair the replica set, reset.
            injector.config.read_error_rate = 0.0
            db.reset_degraded()
            status, doc, _h = client.request("GET", "/healthz")
            assert status == 200 and doc["status"] == "ok"
            status, doc = client.post("/v1/edges:probe",
                                      {"pairs": [[0, 1]]})
            assert status == 200 and doc["results"] == [True]
        finally:
            client.close()
            handle.stop()
            db.close()


# -- the malformed-input contract -------------------------------------------


MALFORMED = [
    ("POST", "/v1/edges:probe", b"not json at all"),
    ("POST", "/v1/edges:probe", b"\xff\xfe\xfd"),
    ("POST", "/v1/edges:probe", b""),
    ("POST", "/v1/edges:probe", b"[1, 2]"),
    ("POST", "/v1/edges:probe", b'{"pairs": {"u": 1}}'),
    ("POST", "/v1/edges:probe", b'{"pairs": [[1]]}'),
    ("POST", "/v1/edges:probe", b'{"pairs": [[1, 2, 3]]}'),
    ("POST", "/v1/edges:probe", b'{"pairs": [[-1, 2]]}'),
    ("POST", "/v1/edges:probe", b'{"pairs": [[1, true]]}'),
    ("POST", "/v1/edges:probe", b'{"pairs": [[1, 2]], "x": 1}'),
    ("POST", "/v1/neighbors", b"{}"),
    ("POST", "/v1/neighbors", b'{"vertex": []}'),
    ("POST", "/v1/neighbors", b'{"vertex": 9999999999999999999999}'),
    ("POST", "/v1/mutations", b'{"ops": []}'),
    ("POST", "/v1/mutations", b'{"ops": [{"op": "nope", "v": 1}]}'),
    ("POST", "/v1/mutations", b'{"ops": [{"op": "add_edge", "u": 1}]}'),
    ("POST", "/v1/mutations",
     b'{"ops": [{"op": "add_edge", "u": 2, "v": 2}]}'),
    ("POST", "/v1/mutations",
     b'{"ops": [{"op": "add_vertex", "u": 1, "v": 2}]}'),
]


class TestMalformedInput:
    @pytest.mark.parametrize("method,path,raw", MALFORMED)
    def test_structured_4xx_never_5xx(self, server, method, path, raw):
        _handle, _db, client = server
        status, doc, _headers = client.request(method, path, raw=raw)
        assert 400 <= status < 500, f"{raw!r} → HTTP {status}"
        assert "error" in doc and doc["error"]["code"] == status
        assert doc["error"]["details"] or doc["error"]["message"]

    def test_unknown_path_404(self, server):
        _handle, _db, client = server
        status, doc, _headers = client.request("POST", "/v2/everything",
                                               {"x": 1})
        assert status == 404 and doc["error"]["code"] == 404

    def test_wrong_method_405(self, server):
        _handle, _db, client = server
        status, doc, _headers = client.request("GET", "/v1/edges:probe")
        assert status == 405 and doc["error"]["code"] == 405

    def test_oversized_body_413(self, server):
        handle, _db, _client = server
        host, port = handle.address
        declared = ServerConfig().max_body + 1
        # The server answers 413 from the Content-Length alone — the
        # oversized body never needs to be transmitted (or buffered).
        with socket.create_connection((host, port), timeout=10) as s:
            s.sendall(b"POST /v1/edges:probe HTTP/1.1\r\n"
                      b"Content-Length: " + str(declared).encode() +
                      b"\r\n\r\n")
            reply = s.recv(4096)
        assert reply.startswith(b"HTTP/1.1 413")
        assert b'"code": 413' in reply or b'"code":413' in reply

    def test_garbage_framing_gets_400(self, server):
        handle, _db, _client = server
        host, port = handle.address
        for junk in (b"GET\r\n\r\n",
                     b"FETCH /v1/edges:probe HTTP/9.9\r\n\r\n",
                     b"POST /healthz HTTP/1.1\r\nbadheader\r\n\r\n",
                     b"POST /v1/neighbors HTTP/1.1\r\n"
                     b"Content-Length: banana\r\n\r\n"):
            with socket.create_connection((host, port), timeout=10) as s:
                s.sendall(junk)
                reply = s.recv(4096)
            assert reply.startswith(b"HTTP/1.1 4"), (junk, reply)

    def test_transfer_encoding_rejected_as_411(self, server):
        handle, _db, _client = server
        host, port = handle.address
        with socket.create_connection((host, port), timeout=10) as s:
            s.sendall(b"POST /v1/neighbors HTTP/1.1\r\n"
                      b"Transfer-Encoding: chunked\r\n\r\n")
            reply = s.recv(4096)
        assert reply.startswith(b"HTTP/1.1 411")


# -- /metrics through the server --------------------------------------------


class TestMetricsEndpoint:
    def test_scrape_and_exact_counter_delta(self, server):
        handle, _db, client = server
        scope = handle.server._scope  # this instance's series only

        def scrape() -> dict[str, str]:
            client.conn.request("GET", "/metrics")
            response = client.conn.getresponse()
            assert response.status == 200
            assert response.headers.get_content_type() == "text/plain"
            samples = {}
            for line in response.read().decode().splitlines():
                if line.startswith("#") or not line.strip():
                    continue
                name, _, value = line.rpartition(" ")
                samples[name] = value
            return samples

        before = scrape()
        probes = 5
        for _ in range(probes):
            status, _doc = client.post("/v1/edges:probe",
                                       {"pairs": [[0, 1], [0, 3]]})
            assert status == 200
        after = scrape()
        key = next(k for k in after
                   if k.startswith("repro_server_requests_total")
                   and 'endpoint="/v1/edges:probe"' in k
                   and 'code="200"' in k
                   and f'server="{scope}"' in k)
        assert int(after[key]) - int(before.get(key, "0")) == probes
        for name, value in after.items():
            assert "e+" not in value and "E+" not in value, (name, value)


# -- admission units ---------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=4.0, now=0.0)
        assert bucket.try_take(4.0, now=0.0) == 0.0
        retry = bucket.try_take(1.0, now=0.0)
        assert retry == pytest.approx(0.5)
        assert bucket.try_take(1.0, now=0.6) == 0.0

    def test_cost_above_burst_is_affordable_eventually(self):
        bucket = TokenBucket(rate=1.0, burst=2.0, now=0.0)
        bucket.try_take(2.0, now=0.0)
        retry = bucket.try_take(10.0, now=0.0)
        assert retry == pytest.approx(2.0)  # capped at burst

    def test_controller_is_per_client_and_prunable(self):
        clock = {"now": 0.0}
        ctl = AdmissionController(rate=1.0, burst=1.0,
                                  clock=lambda: clock["now"])
        assert ctl.admit("a") == 0.0
        assert ctl.admit("a") > 0.0
        assert ctl.admit("b") == 0.0  # b's bucket is untouched by a
        clock["now"] = AdmissionController.IDLE_SECONDS + 1.0
        ctl._prune(clock["now"])
        assert len(ctl) == 0

    def test_disabled_controller_admits_everything(self):
        ctl = AdmissionController(rate=0.0, burst=1.0)
        assert not ctl.enabled
        assert all(ctl.admit("x") == 0.0 for _ in range(100))


# -- schema sanity -----------------------------------------------------------


class TestSchemas:
    def test_minimal_valid_documents_pass(self):
        from repro.server.schemas import (MUTATIONS_REQUEST,
                                          NEIGHBORS_REQUEST, PROBE_REQUEST)
        assert validate(PROBE_REQUEST, {"pairs": []}) == []
        assert validate(PROBE_REQUEST, {"pairs": [[0, 1]]}) == []
        assert validate(NEIGHBORS_REQUEST, {"vertex": 0}) == []
        assert validate(MUTATIONS_REQUEST, {"ops": [
            {"op": "add_vertex", "v": 3}]}) == []
        assert all(ENDPOINTS[key] is None or isinstance(ENDPOINTS[key],
                                                        dict)
                   for key in ENDPOINTS)

    def test_validate_pinpoints_the_field(self):
        from repro.server.schemas import PROBE_REQUEST
        errors = validate(PROBE_REQUEST, {"pairs": [[0, 1], [2, "x"]]})
        assert len(errors) == 1
        assert errors[0].startswith("$.pairs[1][1]: expected integer")

    def test_self_loop_is_cross_field_error(self):
        assert check_mutation_op({"op": "add_edge", "u": 3, "v": 3})
        assert not check_mutation_op({"op": "add_edge", "u": 3, "v": 4})
