"""Serving-layer counters: latency histograms, coalescing, backpressure.

Shard workers and the event loop update these from their own threads,
so every mutator takes the stats lock — once per answered *burst* on
the hot path (:meth:`ServerStats.record_burst`), not once per request.
:meth:`ServerStats.snapshot` folds in the per-shard engine counters
(block cache, filter probes, queue depths) so one STATS request
describes the whole process.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Sequence


class LatencyHistogram:
    """Power-of-two microsecond buckets: cheap, mergeable, quantile-able.

    Bucket ``i`` counts samples in ``[2**(i-1), 2**i)`` microseconds
    (bucket 0 absorbs sub-microsecond samples).  28 buckets reach ~2.2
    minutes, far beyond any sane request latency.
    """

    N_BUCKETS = 28

    def __init__(self) -> None:
        self.buckets = [0] * self.N_BUCKETS
        self.count = 0
        self.total_seconds = 0.0

    def record(self, seconds: float) -> None:
        self.record_many(seconds, 1)

    def record_many(self, seconds: float, n: int) -> None:
        """``n`` samples of ``seconds`` each (one burst's requests)."""
        micros = max(int(seconds * 1e6), 0)
        self.buckets[min(micros.bit_length(), self.N_BUCKETS - 1)] += n
        self.count += n
        self.total_seconds += seconds * n

    def quantile_us(self, q: float) -> float:
        """Upper edge (µs) of the bucket holding the q-quantile sample,
        taken by nearest rank: the ``ceil(q * count)``-th smallest."""
        if not self.count:
            return 0.0
        target = max(math.ceil(self.count * q), 1)
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
    """Count/sum/max of batch sizes (one sample per engine call or burst)."""

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
        #: Frames per burst: how much of what the clients pipeline one
        #: ``read()`` actually delivers.
        self.burst_frames = _BatchSizeStat()
        self.queue_high_water: dict[int, int] = {}
        self.overloads = 0
        self.errors = 0
        self.connections_opened = 0
        self.connections_closed = 0

    # -- mutators (worker / server threads) --------------------------------

    def record_op(self, op: str, seconds: float) -> None:
        self.record_burst([(op, 1, seconds)])

    def record_burst(
        self,
        samples: Sequence[tuple[str, int, float]],
        get_batches: Sequence[int] = (),
        errors: int = 0,
        overloads: int = 0,
        frames: int = 0,
        write_batch: int = 0,
    ) -> None:
        """Everything one answered burst — or one committed write batch
        — has to report, under one lock acquisition: ``(op, n,
        seconds)`` latency samples, the width of each inline
        ``get_many`` call, refusal counts, how many ``frames`` the burst
        held (0: not a whole burst) and the entries of a ``write_batch``
        call (0: none)."""
        with self._lock:
            if frames:
                self.burst_frames.record(frames)
            if write_batch:
                self.coalesced_writes.record(write_batch)
            for op, n, seconds in samples:
                self.ops[op] = self.ops.get(op, 0) + n
                hist = self.latency.get(op)
                if hist is None:
                    hist = self.latency[op] = LatencyHistogram()
                hist.record_many(seconds, n)
            for size in get_batches:
                self.coalesced_gets.record(size)
            self.errors += errors
            self.overloads += overloads

    def record_queue_depth(self, shard_id: int, depth: int) -> None:
        with self._lock:
            if depth > self.queue_high_water.get(shard_id, 0):
                self.queue_high_water[shard_id] = depth

    def record_overload(self) -> None:
        self.record_burst((), overloads=1)

    def record_error(self) -> None:
        self.record_burst((), errors=1)

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
                "burst_frames": self.burst_frames.to_dict(),
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
