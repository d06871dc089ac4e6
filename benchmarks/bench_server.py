"""Sharded KV server: what sharding, pipelining, and batching buy.

The serving claim of this PR: hash-sharding the durable engine across
worker threads and letting a pipelined client keep many requests in
flight must beat the classic one-connection blocking loop — by a wide
margin wherever writes are involved — not because any single request
got faster, but because

* the GETs of one pipelined burst are answered with one ``get_many``
  per shard on the event-loop thread (the PR 3 batch read kernels), and
* adjacent writes ride one WAL group commit on the shard's writer
  thread, and
* request CPU work overlaps network turnarounds.

Acceptance bar: on the write-heavy mix (YCSB-A) 4-shard pipelined
throughput >= 2.5x the 1-shard non-pipelined (one blocking connection)
baseline — group commit is what pipelining feeds.  On read-only
YCSB-C the bar used to be the same 2.5x; since point reads are
answered on the event-loop thread a *blocking* GET no longer pays two
cross-thread wake-ups and the baseline itself tripled, so in this
one-interpreter harness (client and server share a GIL) pipelining
must merely not lose to it, and the mean read run under 64-connection
load must be wider than 1 key — i.e. the pipelining visibly reaches
the engine as batches.  The separate-process ledger
(``benchmarks/e2e``, ``wire_c`` / ``wire_a``) is what judges the wire
path's absolute speed.

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
    # Read-only: pipelining must not lose to one blocking connection
    # (whose GETs no longer cross a thread either) ...
    assert speedup >= 1.0, f"only {speedup:.2f}x over the blocking baseline"
    # ... and must reach the engine as batches: the GETs of a
    # pipelined burst are one get_many per shard.
    mean_batch = best.server_stats["coalesced_gets"]["mean"]
    assert mean_batch > 1.0, (
        f"read runs no wider than 1 under pipelining ({mean_batch:.2f})"
    )
    # Write-heavy: the tentpole claim — sharding + pipelining is a
    # >= 2.5x win — now rests on group commit.
    a_base = stats[("A", "1 shard, blocking, 1 conn")]
    a_best = stats[("A", "4 shards, pipelined, 64 conn x8")]
    a_speedup = a_best.throughput / a_base.throughput
    assert a_speedup >= 2.5, f"only {a_speedup:.2f}x over the blocking baseline"
    assert a_best.server_stats["coalesced_writes"]["mean"] > 1.0
    # No request was dropped: every issued op completed or was
    # explicitly refused with OVERLOADED and retried by the loadgen.
    assert best.ops_done > 0 and best.server_stats["errors"] == 0
