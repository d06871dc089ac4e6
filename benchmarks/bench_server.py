"""Sharded KV server: what sharding, pipelining, and coalescing buy.

The serving claim of this PR: hash-sharding the durable engine across
worker threads and letting a pipelined client keep many requests in
flight must beat the classic one-connection blocking loop by a wide
margin — not because any single request got faster, but because

* per-shard workers coalesce concurrent in-flight GETs into one
  ``get_many`` (the PR 3 batch read kernels), and
* adjacent writes ride one WAL group commit, and
* request CPU work overlaps network turnarounds.

Acceptance bar: 4-shard pipelined YCSB-C throughput >= 2.5x the
1-shard non-pipelined (one blocking connection) baseline, and the mean
coalesced GET batch under 64-connection load must exceed 1 — i.e. the
concurrency visibly reaches the engine as batches.

Every row drives a real server over loopback TCP through the public
clients; nothing is mocked.
"""

from repro.bench.harness import report, scaled
from repro.server.loadgen import run_benchmark

WORKLOADS = ("C", "A")

CONFIGS = [
    # (label, n_shards, n_connections, depth, pipelined)
    ("1 shard, blocking, 1 conn", 1, 1, 1, False),
    ("1 shard, pipelined, 8 conn x8", 1, 8, 8, True),
    ("4 shards, blocking, 4 conn", 4, 4, 1, False),
    ("4 shards, pipelined, 64 conn x8", 4, 64, 8, True),
]


def run_experiment(tmp_path):
    n_keys = scaled(2000)
    rows = []
    stats = {}
    for workload in WORKLOADS:
        for label, n_shards, n_conns, depth, pipelined in CONFIGS:
            n_ops = scaled(12_000 if pipelined else 4_000)
            result = run_benchmark(
                str(tmp_path / f"kv-{workload}-{n_shards}-{n_conns}-{int(pipelined)}"),
                workload=workload,
                n_keys=n_keys,
                n_ops=n_ops,
                n_shards=n_shards,
                n_connections=n_conns,
                pipeline_depth=depth,
                pipelined=pipelined,
            )
            server = result.server_stats
            get_hist = server["latency"].get("get", {})
            rows.append(
                [
                    f"YCSB-{workload}",
                    label,
                    f"{result.throughput:,.0f}",
                    f"{get_hist.get('p99_us', 0):,.0f}",
                    f"{server['coalesced_gets']['mean']:.1f}",
                    f"{server['coalesced_writes']['mean']:.1f}",
                ]
            )
            stats[(workload, label)] = result
    return rows, stats


def test_server_scaling(benchmark, tmp_path):
    rows, stats = benchmark.pedantic(
        run_experiment, args=(tmp_path,), rounds=1, iterations=1
    )
    report(
        "server",
        "Sharded KV server: throughput under sharding + pipelining",
        [
            "workload",
            "configuration",
            "ops/s",
            "GET p99 (us)",
            "GET batch mean",
            "write batch mean",
        ],
        rows,
    )
    base = stats[("C", "1 shard, blocking, 1 conn")]
    best = stats[("C", "4 shards, pipelined, 64 conn x8")]
    speedup = best.throughput / base.throughput
    # The tentpole claim: sharding + pipelining is a >= 2.5x win on
    # read-only point lookups.
    assert speedup >= 2.5, f"only {speedup:.2f}x over the blocking baseline"
    # And the win must come through the batch read path: concurrent
    # in-flight GETs actually coalesce before they reach the engine.
    mean_batch = best.server_stats["coalesced_gets"]["mean"]
    assert mean_batch > 1.0, f"GET coalescing never engaged ({mean_batch:.2f})"
    # Group commit engages on the write-heavy mix too.
    a_best = stats[("A", "4 shards, pipelined, 64 conn x8")]
    assert a_best.server_stats["coalesced_writes"]["mean"] > 1.0
    # No request was dropped: every issued op completed or was
    # explicitly refused with OVERLOADED and retried by the loadgen.
    assert best.ops_done > 0 and best.server_stats["errors"] == 0
