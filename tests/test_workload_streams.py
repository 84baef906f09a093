"""Streaming workload generators: determinism, validity, execution.

The streams exist to drive the hot cache and the benchmarks reproducibly,
so the first-class property is *byte determinism*: the same seed must
yield the identical stream on any run, process, and ``PYTHONHASHSEED``.
The second is *validity*: churn/mixed writes must be applicable in
stream order (inserts of non-edges, deletes of live edges) without
reference to the store executing them.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.database import VendGraphDB
from repro.graph import Graph, powerlaw_graph
from repro.workloads.runner import run_stream
from repro.workloads.streams import (
    OP_DELETE,
    OP_INSERT,
    OP_PROBE,
    STREAM_KINDS,
    edge_stream,
    make_stream,
    zipfian_stream,
)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(200, avg_degree=6, seed=7)


class TestDeterminism:
    @pytest.mark.parametrize("kind", sorted(STREAM_KINDS))
    def test_same_seed_same_stream(self, graph, kind):
        a = make_stream(kind, graph, 2000, seed=5)
        b = make_stream(kind, graph, 2000, seed=5)
        assert a.checksum() == b.checksum()
        c = make_stream(kind, graph, 2000, seed=6)
        assert a.checksum() != c.checksum()

    @given(seed=st.integers(0, 2**31 - 1),
           kind=st.sampled_from(sorted(STREAM_KINDS)))
    @settings(max_examples=20, deadline=None)
    def test_checksum_is_a_pure_function_of_seed(self, graph, seed, kind):
        a = make_stream(kind, graph, 300, seed=seed)
        b = make_stream(kind, graph, 300, seed=seed)
        assert a.checksum() == b.checksum()
        assert np.array_equal(a.kinds, b.kinds)
        assert np.array_equal(a.us, b.us)
        assert np.array_equal(a.vs, b.vs)

    def test_hash_seed_independent(self, graph):
        """Checksums must not vary with PYTHONHASHSEED: generators use
        numpy RNG and sorted vertex order, never Python ``hash()``."""
        edges = sorted(graph.edges())
        code = (
            "from repro.graph import Graph;"
            "from repro.workloads.streams import make_stream;"
            f"g = Graph({edges!r});"
            "print([make_stream(k, g, 400, seed=9).checksum()"
            "       for k in ('random','zipfian','edges','churn','mixed')])"
        )
        outs = set()
        for seed in ("0", "1", "31337"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
            )
            outs.add(out.stdout.strip())
        assert len(outs) == 1


class TestStreamShape:
    def test_op_counts_total(self, graph):
        stream = make_stream("churn", graph, 3000, seed=1)
        counts = stream.op_counts()
        assert sum(counts.values()) == len(stream) == 3000
        assert counts["insert"] > 0 and counts["delete"] > 0

    def test_segments_partition_the_stream(self, graph):
        stream = make_stream("mixed", graph, 1500, seed=2)
        covered = 0
        for kind, start, end in stream.segments():
            assert end > start == covered
            assert (stream.kinds[start:end] == kind).all()
            covered = end
        assert covered == len(stream)

    def test_unknown_kind_raises(self, graph):
        with pytest.raises(ValueError, match="unknown workload"):
            make_stream("nope", graph, 10)

    def test_zipfian_burst_and_rotation(self, graph):
        burst = zipfian_stream(graph, 1000, seed=3, burst_len=10)
        # Bursts repeat the drawn key back-to-back.
        assert (burst.us[:10] == burst.us[0]).all()
        drift = zipfian_stream(graph, 1000, seed=3, rotate_every=100)
        static = zipfian_stream(graph, 1000, seed=3)
        assert not np.array_equal(drift.us, static.us)
        # Zipf skew concentrates mass: the top key dominates uniform.
        top_share = np.bincount(static.us).max() / len(static)
        assert top_share > 5.0 / len(np.unique(static.us))

    def test_edge_stream_probes_only_real_edges(self, graph):
        stream = edge_stream(graph, 800, seed=4)
        assert (stream.kinds == OP_PROBE).all()
        assert all(graph.has_edge(int(u), int(v))
                   for u, v in zip(stream.us, stream.vs))


class TestWriteValidity:
    @pytest.mark.parametrize("kind", ["churn", "mixed"])
    def test_writes_apply_cleanly_in_order(self, graph, kind):
        """Replay against a shadow graph: every insert is a fresh
        non-edge, every delete hits a live edge, at its stream position."""
        stream = make_stream(kind, graph, 4000, seed=8)
        shadow = Graph(sorted(graph.edges()))
        for k, u, v in zip(stream.kinds.tolist(), stream.us.tolist(),
                           stream.vs.tolist()):
            if k == OP_INSERT:
                assert not shadow.has_edge(u, v)
                shadow.add_edge(u, v)
            elif k == OP_DELETE:
                assert shadow.has_edge(u, v)
                shadow.remove_edge(u, v)


class TestRunner:
    def test_run_stream_matches_ground_truth(self, tmp_path, graph):
        stream = make_stream("mixed", graph, 2500, seed=10)
        with VendGraphDB(tmp_path / "run.log", shards=2, compress=True,
                         use_mmap=True, hot_cache_bytes=1 << 20) as db:
            db.load_graph(graph)
            result = run_stream(db, stream, batch_size=512)
        counts = stream.op_counts()
        assert result.probes == counts["probe"]
        assert result.inserts == counts["insert"]
        assert result.deletes == counts["delete"]
        assert len(result.verdicts) == counts["probe"]
        # Ground truth: replay the same stream against a shadow graph.
        shadow = Graph(sorted(graph.edges()))
        expected = []
        for k, u, v in zip(stream.kinds.tolist(), stream.us.tolist(),
                           stream.vs.tolist()):
            if k == OP_PROBE:
                expected.append(shadow.has_edge(u, v))
            elif k == OP_INSERT:
                shadow.add_edge(u, v)
            else:
                shadow.remove_edge(u, v)
        assert result.verdicts.tolist() == expected
        assert result.positives == sum(expected)

    def test_same_seed_same_verdict_checksum(self, tmp_path, graph):
        checksums = set()
        for run in range(2):
            stream = make_stream("churn", graph, 2000, seed=11)
            with VendGraphDB(tmp_path / f"det{run}.log", shards=2,
                             compress=True, use_mmap=True,
                             hot_cache_bytes=1 << 20) as db:
                db.load_graph(graph)
                checksums.add(run_stream(db, stream).verdict_checksum())
        assert len(checksums) == 1
