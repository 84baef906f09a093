"""Disk storage substrate: log-structured KV store + adjacency store."""

from .cache import LRUCache
from .faults import (
    FaultConfig,
    FaultInjectingKVStore,
    FaultStats,
    InjectedIOError,
    SimulatedCrashError,
)
from .graphstore import GraphStore
from .hotcache import CountMinSketch, HotSetCache
from .kvstore import (
    CorruptRecordError,
    DiskKVStore,
    InMemoryKVStore,
    StorageStats,
)
from .replication import ReplicatedShard, ReplicationStats
from .sharding import ReshardStats, ShardedGraphStore, ShardRouter

__all__ = [
    "LRUCache",
    "HotSetCache",
    "CountMinSketch",
    "GraphStore",
    "ShardRouter",
    "ShardedGraphStore",
    "ReplicatedShard",
    "ReplicationStats",
    "ReshardStats",
    "DiskKVStore",
    "InMemoryKVStore",
    "StorageStats",
    "CorruptRecordError",
    "FaultConfig",
    "FaultStats",
    "FaultInjectingKVStore",
    "InjectedIOError",
    "SimulatedCrashError",
]
