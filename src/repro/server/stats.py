"""Serving-layer counters: latency histograms, coalescing, backpressure.

Workers update these from their own threads, so every mutator takes the
stats lock; the costs are two dict updates per request, which is noise
next to a network round trip.  :meth:`ServerStats.snapshot` folds in
the per-shard engine counters (block cache, filter probes, queue
depths) so one STATS request describes the whole process.
"""

from __future__ import annotations

import threading
from typing import Any


class LatencyHistogram:
    """Power-of-two microsecond buckets: cheap, mergeable, quantile-able.

    Bucket ``i`` counts samples in ``[2**i, 2**(i+1))`` microseconds
    (bucket 0 absorbs sub-microsecond samples).  28 buckets reach ~2.2
    minutes, far beyond any sane request latency.
    """

    N_BUCKETS = 28

    def __init__(self) -> None:
        self.buckets = [0] * self.N_BUCKETS
        self.count = 0
        self.total_seconds = 0.0

    def record(self, seconds: float) -> None:
        micros = max(int(seconds * 1e6), 0)
        self.buckets[min(micros.bit_length(), self.N_BUCKETS - 1)] += 1
        self.count += 1
        self.total_seconds += seconds

    def quantile_us(self, q: float) -> float:
        """Upper edge (µs) of the bucket holding the q-quantile sample."""
        if not self.count:
            return 0.0
        target = max(int(self.count * q), 1)
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= target:
                return float(1 << i)
        return float(1 << (self.N_BUCKETS - 1))

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "mean_us": (self.total_seconds / self.count * 1e6) if self.count else 0.0,
            "p50_us": self.quantile_us(0.50),
            "p99_us": self.quantile_us(0.99),
            "buckets": list(self.buckets),
        }


class _BatchSizeStat:
    """Count/sum/max of coalesced batch sizes (one sample per engine call)."""

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.max_size = 0

    def record(self, size: int) -> None:
        self.calls += 1
        self.items += size
        self.max_size = max(self.max_size, size)

    @property
    def mean(self) -> float:
        return self.items / self.calls if self.calls else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "calls": self.calls,
            "items": self.items,
            "mean": self.mean,
            "max": self.max_size,
        }


class ServerStats:
    """Process-wide serving counters, safe to update from any thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.ops: dict[str, int] = {}
        self.latency: dict[str, LatencyHistogram] = {}
        self.coalesced_gets = _BatchSizeStat()
        self.coalesced_writes = _BatchSizeStat()
        self.queue_high_water: dict[int, int] = {}
        self.overloads = 0
        self.errors = 0
        self.connections_opened = 0
        self.connections_closed = 0

    # -- mutators (worker / server threads) --------------------------------

    def record_op(self, op: str, seconds: float) -> None:
        with self._lock:
            self.ops[op] = self.ops.get(op, 0) + 1
            hist = self.latency.get(op)
            if hist is None:
                hist = self.latency[op] = LatencyHistogram()
            hist.record(seconds)

    def record_get_batch(self, size: int) -> None:
        with self._lock:
            self.coalesced_gets.record(size)

    def record_write_batch(self, size: int) -> None:
        with self._lock:
            self.coalesced_writes.record(size)

    def record_queue_depth(self, shard_id: int, depth: int) -> None:
        with self._lock:
            if depth > self.queue_high_water.get(shard_id, 0):
                self.queue_high_water[shard_id] = depth

    def record_overload(self) -> None:
        with self._lock:
            self.overloads += 1

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_connection(self, opened: bool) -> None:
        with self._lock:
            if opened:
                self.connections_opened += 1
            else:
                self.connections_closed += 1

    # -- snapshot ----------------------------------------------------------

    def snapshot(self, per_shard: list[dict[str, Any]] | None = None) -> dict[str, Any]:
        """One JSON-ready view of the serving layer and its engines.

        ``per_shard`` carries the shard entries collected via each
        worker's ``info`` op (see ``ShardWorker.snapshot_info``): the
        stats object never reaches into an engine from another thread.
        """
        with self._lock:
            out: dict[str, Any] = {
                "ops": dict(self.ops),
                "total_ops": sum(self.ops.values()),
                "latency": {op: h.to_dict() for op, h in self.latency.items()},
                "coalesced_gets": self.coalesced_gets.to_dict(),
                "coalesced_writes": self.coalesced_writes.to_dict(),
                "queue_high_water": dict(self.queue_high_water),
                "overloads": self.overloads,
                "errors": self.errors,
                "connections": {
                    "opened": self.connections_opened,
                    "closed": self.connections_closed,
                },
            }
        if per_shard is not None:
            out["shards"] = per_shard
        return out
