"""Tests for replica shards: failover, repair/reinstate, degraded reset."""

import pytest

from repro.graph import Graph
from repro.storage import (
    FaultConfig,
    FaultInjectingKVStore,
    GraphStore,
    ReplicatedShard,
    ShardedGraphStore,
)
from repro.storage.kvstore import InMemoryKVStore


def _replicated(replicas=1, primary_config=None, replica_configs=None):
    """A ReplicatedShard over in-memory copies, primary fault-wrapped."""
    injectors = []
    copies = []
    for i in range(replicas + 1):
        config = primary_config if i == 0 else (
            replica_configs[i - 1] if replica_configs else None)
        if config is not None:
            injector = FaultInjectingKVStore(InMemoryKVStore(), config)
            injectors.append(injector)
            copies.append(GraphStore(kv=injector))
        else:
            injectors.append(None)
            copies.append(GraphStore(kv=InMemoryKVStore()))
    return ReplicatedShard(copies, shard=0), injectors


class TestReplicatedShard:
    def test_writes_reach_every_copy(self):
        shard, _ = _replicated(replicas=2)
        shard.put_neighbors(1, [2, 3])
        shard.insert_half_edge(1, 5)
        for copy in shard.copies:
            assert copy.get_neighbors(1) == [2, 3, 5]

    def test_read_your_writes_after_failover(self):
        shard, injectors = _replicated(
            replicas=1, primary_config=FaultConfig(seed=1))
        shard.put_neighbors(7, [8])
        injectors[0].config.read_error_rate = 1.0
        shard.put_neighbors(7, [8, 9])       # write lands while dying
        assert shard.get_neighbors(7) == [8, 9]
        assert shard.active_copy != 0
        assert shard.replication_stats.failovers >= 1

    def test_proactive_failover_on_latched_degraded(self):
        shard, injectors = _replicated(
            replicas=1, primary_config=FaultConfig(seed=2))
        shard.put_neighbors(1, [2])
        injectors[0].degraded = True          # latched by earlier retries
        assert shard.get_neighbors(1) == [2]
        assert shard.active_copy == 1
        assert shard.replication_stats.failovers == 1

    def test_missing_vertex_is_not_a_fault(self):
        shard, _ = _replicated(replicas=1)
        with pytest.raises(KeyError):
            shard.get_neighbors(42)
        assert shard.active_copy == 0
        assert shard.replication_stats.failovers == 0

    def test_repair_resyncs_and_reinstates_primary(self):
        shard, injectors = _replicated(
            replicas=1, primary_config=FaultConfig(seed=3))
        shard.put_neighbors(1, [2])
        injectors[0].config.read_error_rate = 1.0
        shard.get_neighbors(1)                # fails over to the replica
        injectors[0].config.write_error_rate = 1.0
        shard.put_neighbors(1, [2, 4])        # primary misses this write
        injectors[0].config.read_error_rate = 0.0
        injectors[0].config.write_error_rate = 0.0
        shard.reset_degraded()
        assert shard.active_copy == 0
        assert not shard.degraded
        assert shard.replication_stats.reinstatements == 1
        # The reinstated primary caught up on the missed write.
        assert shard.primary.get_neighbors(1) == [2, 4]

    def test_stale_replica_is_never_served(self):
        """A copy that missed a write must not become the active copy:
        a replica may be behind, a serving copy never is."""
        shard, injectors = _replicated(
            replicas=1,
            primary_config=FaultConfig(seed=4),
            replica_configs=[FaultConfig(write_error_rate=1.0, seed=5)])
        shard.put_neighbors(1, [2])           # replica goes stale here
        injectors[0].config.read_error_rate = 1.0
        with pytest.raises(IOError):
            shard.get_neighbors(1)            # no fresh copy left
        assert shard.replication_stats.failed_writes >= 1

    def test_failovers_counter_exports_as_total(self):
        shard, _ = _replicated(replicas=1)
        exposition = shard.replication_stats.registry.to_prometheus()
        assert "repro_shard_failovers_total" in exposition


class TestShardedReplication:
    def test_replica_files_on_disk(self, tmp_path):
        store = ShardedGraphStore(tmp_path / "g.db", num_shards=2,
                                  replicas=1)
        store.bulk_load(Graph([(0, 1), (1, 2)]))
        store.close()
        for shard in range(2):
            assert (tmp_path / f"g.db.shard{shard}").exists()
            assert (tmp_path / f"g.db.shard{shard}.r0").exists()

    def test_store_survives_a_dead_primary(self):
        injectors = {}
        calls = [0]

        def factory(seg_path, shard):
            is_primary = calls[0] % 2 == 0
            calls[0] += 1
            inner = InMemoryKVStore()
            if not is_primary:
                return inner
            injectors[shard] = FaultInjectingKVStore(
                inner, FaultConfig(seed=shard))
            return injectors[shard]

        g = Graph([(i, (i + 1) % 24) for i in range(24)])
        store = ShardedGraphStore(num_shards=3, kv_factory=factory,
                                  replicas=1)
        store.bulk_load(g)
        injectors[0].config.read_error_rate = 1.0
        for v in g.vertices():
            assert store.get_neighbors(v) == g.sorted_neighbors(v)
        assert store.degraded
        injectors[0].config.read_error_rate = 0.0
        store.reset_degraded()
        assert not store.degraded
        for v in g.vertices():
            assert store.get_neighbors(v) == g.sorted_neighbors(v)


class TestResetDegradedPassthrough:
    """Satellite regression: the aggregate `degraded` used to be
    read-only — a recovered deployment could never clear it."""

    def _degraded_store(self, num_shards=2):
        injectors = {}

        def factory(seg_path, shard):
            injectors[shard] = FaultInjectingKVStore(
                InMemoryKVStore(),
                FaultConfig(read_error_rate=0.5, seed=shard))
            return injectors[shard]

        store = ShardedGraphStore(num_shards=num_shards, kv_factory=factory)
        store.bulk_load(Graph([(i, i + 1) for i in range(16)]))
        for v in range(16):
            try:
                store.get_neighbors(v)  # retries latch degraded
            except OSError:
                pass  # no replica here to absorb an exhausted retry
        assert store.degraded
        return store, injectors

    def test_sharded_store_reset(self):
        store, injectors = self._degraded_store()
        for injector in injectors.values():
            injector.config.read_error_rate = 0.0
        store.reset_degraded()
        assert not store.degraded
        assert not any(seg.degraded for seg in store.segments)

    def test_graphstore_reset_is_public(self):
        injector = FaultInjectingKVStore(
            InMemoryKVStore(), FaultConfig(read_error_rate=0.5, seed=9))
        seg = GraphStore(kv=injector)
        seg.put_neighbors(1, [2])
        for _ in range(8):
            seg.get_neighbors(1)
        assert seg.degraded
        injector.config.read_error_rate = 0.0
        seg.reset_degraded()
        assert not seg.degraded

    def test_database_facade_reset(self):
        from repro.apps import VendGraphDB
        from repro.graph import powerlaw_graph

        db = VendGraphDB(shards=2, replicas=1)
        g = powerlaw_graph(60, avg_degree=4, seed=1)
        db.load_graph(g)
        seg = db.store.segments[0]
        seg.copies[0]._kv = FaultInjectingKVStore(
            seg.copies[0]._kv, FaultConfig(seed=0))
        seg.copies[0]._kv.degraded = True
        assert db.degraded
        db.reset_degraded()
        assert not db.degraded
        db.close()

    def test_plain_graphstore_reset_is_a_noop(self):
        seg = GraphStore()
        seg.put_neighbors(1, [2])
        seg.reset_degraded()  # no injector underneath: must not raise
        assert not seg.degraded


class TestPublicFlush:
    """Satellite regression: flush must go through the public
    GraphStore API, not reach into `seg._kv`."""

    def test_sharded_flush_sync_is_durable(self, tmp_path):
        store = ShardedGraphStore(tmp_path / "g.db", num_shards=2)
        store.bulk_load(Graph([(0, 1)]))
        store.put_neighbors(9, [0])
        store.flush(sync=True)
        # A second handle replaying the logs sees the synced record.
        with ShardedGraphStore(tmp_path / "g.db", num_shards=2) as again:
            assert again.get_neighbors(9) == [0]
        store.close()

    def test_graphstore_flush_accepts_sync(self, tmp_path):
        with GraphStore(tmp_path / "p.db") as seg:
            seg.put_neighbors(1, [2, 3])
            seg.flush(sync=True)
            assert seg.get_neighbors(1) == [2, 3]
