"""The one deployment config and the workload constants every run shares.

The DB config is the best config of the earlier storage and hot-cache
benchmarks, scaled to a 2-core host: hyb+ at k=6, two shards on two
pool threads, StreamVByte-compressed mmap-served segments, no LRU
block cache (so the packed mmap tier serves every cold read), and a
decoded-adjacency hot cache smaller than the decoded adjacency of the
graph (both sizes are stamped on every result).
"""

DATASET = "uk"          # power-law analogue, average degree 40
SCALE = 0.5             # 3000 vertices, 61 106 edges

DB_CONFIG = {
    "k": 6,
    "method": "hyb+",
    "shards": 2,
    "workers": 2,
    "executor": "thread",
    "compress": True,
    "use_mmap": True,
    "cache_bytes": 0,
    "hot_cache_bytes": 256 * 1024,
}

#: Pairs per in-process ``has_edge_batch`` call (every in-process workload).
BATCH = 4096
#: Rounds of an untraced run, each on a freshly set-up DB: set-up, a
#: share of the measured phase, a write block, close + reopen + rebuild.
#: ``setup_s`` and ``reopen_s`` are medians over the rounds, and every
#: other metric pools its samples over them, so each spans the whole run.
ROUNDS = 3
#: ``ops_per_s`` is the median throughput over this many equal slices of
#: each round's measured phase, so a short stall of the host moves one
#: slice and not the figure.
RATE_SLICES = 3
#: Warm-up batches after ``load_graph`` (part of set-up).  The hot
#: cache reaches its steady hit rate well within them: on commpair_hot
#: the hit rate is 0.58 over the first 32 batches and 0.60 from then on.
WARM_BATCHES = 64
#: Batches in the cycled read pools of randpair / commpair_hot.
POOL_BATCHES = 256
#: Zipf exponent of commpair_hot's pivots.
COMMPAIR_SKEW = 1.0
#: Writes of the write sample, one block per round; every workload but
#: churn (which samples its storms) takes its write latencies from it.
#: 256 inserts and 256 deletes per run: the spread of their medians
#: from run to run is the host's, not the sample's.
TAIL_WRITES = 512

#: churn: probe runs of this many batches, then a storm of writes.
CHURN_PROBE_BATCHES = 8
CHURN_STORM_LEN = 64
#: Zipf exponent of churn's probe left endpoints.
CHURN_SKEW = 1.0
#: churn runs a fixed number of whole cycles, this many per requested
#: second split evenly over the rounds (a cycle takes about 1/4 s on a
#: 2-core Intel Xeon host), so log growth and every count depend on the
#: seed alone: a time-bounded run would write more log on a faster
#: commit.
CHURN_CYCLES_PER_S = 4

#: serve: pairs per HTTP request, keep-alive connections, and the fixed
#: open-loop request rate: about half of the lowest closed-loop
#: saturation measured with two connections on a 2-core Intel Xeon host
#: (105 to 250 requests/s from run to run on that shared host).
SERVE_PAIRS_PER_REQUEST = 32
SERVE_CONNECTIONS = 2
SERVE_RATE = 50.0
#: Share of each untraced serve round spent in the open loop; the rest
#: is the closed-loop saturation phase on the same connections.
SERVE_OPEN_SHARE = 0.4

#: Trace runs execute a fixed amount of work (so that counts can repeat
#: exactly), sized per measured second: batches for randpair and
#: commpair_hot, cycles for churn; serve uses its fixed rate.  Half of
#: ``--seconds`` goes to an untraced copy of the same work, for the
#: tracing overhead.
TRACE_WORK_PER_S = {"randpair": 150, "commpair_hot": 100, "churn": 3}
