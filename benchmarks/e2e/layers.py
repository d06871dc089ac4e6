"""Per-layer metrics from outside: STATS deltas and ``/proc``.

Every function takes STATS snapshots taken before and after the
saturation phase — one dict per node of the system, the primary (or
the only server) first — and returns metrics named after the module
that does the work.  ``lib_read`` has no server, so it passes the
engine's own ``info()`` dict in the same ``{"shards": [...]}`` shape.
"""

from __future__ import annotations

from typing import Any, Sequence

Stats = Sequence[dict[str, Any]]  # one STATS dict per node


def _hist_delta(before: Stats, after: Stats, ops: Sequence[str]):
    """(count, total µs, buckets) of the named ops between two snapshots."""
    count, total_us, buckets = 0, 0.0, None
    for node0, node1 in zip(before, after):
        for op in ops:
            h1 = node1.get("latency", {}).get(op)
            if h1 is None:
                continue
            h0 = node0.get("latency", {}).get(op) or {
                "count": 0, "mean_us": 0.0, "buckets": [0] * len(h1["buckets"])
            }
            count += h1["count"] - h0["count"]
            total_us += h1["mean_us"] * h1["count"] - h0["mean_us"] * h0["count"]
            delta = [b1 - b0 for b0, b1 in zip(h0["buckets"], h1["buckets"])]
            buckets = delta if buckets is None else [a + b for a, b in zip(buckets, delta)]
    return count, total_us, buckets or []


def _mean(count: int, total_us: float) -> float:
    return total_us / count if count else 0.0


def mean_us(before: Stats, after: Stats, read_ops: Sequence[str],
            write_ops: Sequence[str]) -> float:
    """Mean server-side time per client op: reads on any node, writes
    on the primary (followers' applies are not client ops)."""
    reads = _hist_delta(before, after, read_ops)
    writes = _hist_delta(before[:1], after[:1], write_ops)
    return _mean(reads[0] + writes[0], reads[1] + writes[1])


def _bucket_p99(count: int, buckets: Sequence[int]) -> float:
    """Upper edge of the power-of-two bucket holding the 99th
    percentile — as coarse as the server's own histogram."""
    if not count:
        return 0.0
    target, seen = max(int(count * 0.99), 1), 0
    for i, n in enumerate(buckets):
        seen += n
        if seen >= target:
            return float(1 << i)
    return float(1 << len(buckets))


def _delta(before: Stats, after: Stats, path: Sequence[str]) -> float:
    def dig(node: dict) -> float:
        value: Any = node
        for part in path:
            value = value.get(part, 0) if isinstance(value, dict) else 0
        return value or 0

    return sum(dig(n1) - dig(n0) for n0, n1 in zip(before, after))


def _shard_sum(nodes: Stats, field: str) -> float:
    return sum(s.get(field, 0) or 0 for n in nodes for s in n.get("shards", []))


def serving_layers(before: Stats, after: Stats) -> dict[str, float]:
    """``server.*`` and ``shard.*``.  Reads are merged over every node
    (followers answer GET_AT); writes are the primary's."""
    gets = _hist_delta(before, after, ("get", "get_at"))
    puts = _hist_delta(before[:1], after[:1], ("put",))
    shard_gets = _hist_delta(before, after, ("shard_get",))
    shard_writes = _hist_delta(before[:1], after[:1], ("shard_write",))
    get_calls = _delta(before, after, ("coalesced_gets", "calls"))
    write_calls = _delta(before[:1], after[:1], ("coalesced_writes", "calls"))
    return {
        "server.get.mean_us": _mean(gets[0], gets[1]),
        "server.get.p99_us": _bucket_p99(gets[0], gets[2]),
        "server.put.mean_us": _mean(puts[0], puts[1]),
        "server.put.p99_us": _bucket_p99(puts[0], puts[2]),
        "server.overloads": _delta(before, after, ("overloads",)),
        "server.errors": _delta(before, after, ("errors",)),
        "server.dispatch_us": _mean(gets[0], gets[1]) - _mean(shard_gets[0], shard_gets[1]),
        "shard.get.mean_us": _mean(shard_gets[0], shard_gets[1]),
        "shard.write.mean_us": _mean(shard_writes[0], shard_writes[1]),
        "shard.get_batch_mean": (
            _delta(before, after, ("coalesced_gets", "items")) / get_calls if get_calls else 0.0
        ),
        "shard.write_batch_mean": (
            _delta(before[:1], after[:1], ("coalesced_writes", "items")) / write_calls
            if write_calls else 0.0
        ),
        # Cumulative since the server started (it cannot be reset from
        # outside), so it includes the bulk load at the same depth.
        "shard.queue_high_water": float(max(
            (d for n in after for d in n.get("queue_high_water", {}).values()), default=0
        )),
    }


def served_ops(before: Stats, after: Stats) -> tuple[int, int]:
    """(reads, writes) the system served between the two snapshots."""
    reads = _hist_delta(before, after, ("get", "get_at"))[0]
    writes = _hist_delta(before[:1], after[:1], ("put",))[0]
    return reads, writes


def lsm_layer(before: Stats, after: Stats, reads: int, puts: int,
              disk_write_bytes: float | None) -> dict[str, float | None]:
    """``lsm.*`` counters summed over every shard of every node."""
    def d(field: str) -> float:
        return _shard_sum(after, field) - _shard_sum(before, field)

    block_reads, hits = d("block_reads"), d("cache_hits")
    probes, negatives = d("filter_probes"), d("filter_negatives")
    return {
        "lsm.block_reads_per_read": block_reads / reads if reads else 0.0,
        "lsm.cache_hit_rate": hits / (hits + block_reads) if hits + block_reads else 0.0,
        "lsm.filter_probes_per_read": probes / reads if reads else 0.0,
        "lsm.filter_negative_rate": negatives / probes if probes else 0.0,
        "lsm.flushes": d("flushes"),
        "lsm.compactions": d("compactions"),
        "lsm.stalls": d("stalls"),
        "lsm.slowdowns": d("slowdowns"),
        "lsm.stall_s": d("stall_seconds"),
        "lsm.tables_end": _shard_sum(after, "tables"),
        "lsm.disk_write_bytes_per_put": (
            None if disk_write_bytes is None else disk_write_bytes / puts if puts else 0.0
        ),
    }


def cluster_layer(snapshots: Sequence[Stats], before: Stats, after: Stats) -> dict[str, float]:
    """``cluster.*`` from the primary's STATS.  ``snapshots`` are all
    the STATS sets taken during the run (lag is the worst one seen)."""
    puts = _hist_delta(before[:1], after[:1], ("put",))
    shard_writes = _hist_delta(before[:1], after[:1], ("shard_write",))
    lag = 0
    for nodes in snapshots:
        repl = nodes[0].get("cluster", {}).get("replication", {})
        ends = {s: v["end_seq"] for s, v in repl.get("shards", {}).items()}
        for link in repl.get("links", []):
            for shard, durable in link.get("durable", {}).items():
                lag = max(lag, ends.get(shard, durable) - durable)
    repl_end = after[0].get("cluster", {}).get("replication", {})
    return {
        "cluster.ack_wait_us": _mean(puts[0], puts[1]) - _mean(shard_writes[0], shard_writes[1]),
        "cluster.follower_lag_seq_max": float(lag),
        "cluster.log_bytes_end": float(sum(
            v.get("buffered_bytes", 0) for v in repl_end.get("shards", {}).values()
        )),
    }


def settled(nodes: Stats) -> bool:
    """No frozen memtable waiting and no level over its limit, anywhere."""
    return all(
        s.get("immutables", 0) == 0 and s.get("compaction_backlog", 0) == 0
        for n in nodes for s in n.get("shards", [])
    )
