"""YCSB-driven load generator for the sharded server.

Drives a running server over real TCP connections with the operation
streams produced by :mod:`repro.workloads.ycsb`, in one of two modes:

* ``pipelined=False`` — one blocking :class:`KVClient` per connection
  (one thread each), one request in flight per connection.  This is
  the baseline configuration of the serving benchmarks.
* ``pipelined=True`` — one :class:`AsyncKVClient` per connection with
  ``pipeline_depth`` coroutines issuing requests concurrently, so each
  connection keeps up to that many requests in flight.  The GETs of
  one pipelined burst are what the server answers with one
  :meth:`LSMTree.get_many` per shard.

``run_benchmark`` wraps the whole experiment (start in-process server,
load keys, run the mix, collect a stats snapshot, drain) and is shared
by ``python -m repro.server bench`` and ``benchmarks/bench_server.py``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..workloads import ycsb
from ..workloads.keys import random_u64_keys
from .client import AsyncKVClient, KVClient, Pipeline, ServerOverloadedError
from .server import KVServer, ServerThread

#: Value stored for every PUT the generator issues.
DEFAULT_VALUE_SIZE = 100


@dataclass
class LoadResult:
    """Outcome of one load-generation run against a server."""

    workload: str
    mode: str  # "sync" | "pipelined"
    n_connections: int
    pipeline_depth: int
    ops_done: int
    elapsed: float
    overloads: int = 0
    #: OVERLOADED responses absorbed by client backoff (not failures).
    retries: int = 0
    server_stats: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return self.ops_done / self.elapsed if self.elapsed > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "mode": self.mode,
            "n_connections": self.n_connections,
            "pipeline_depth": self.pipeline_depth,
            "ops_done": self.ops_done,
            "elapsed_s": self.elapsed,
            "throughput_ops_s": self.throughput,
            "overloads": self.overloads,
            "retries": self.retries,
            "server_stats": self.server_stats,
        }


def _issue(client: Pipeline, op: ycsb.Operation, value: bytes) -> Any:
    """Issue ``op`` on either client (they share one op table): its
    result from :class:`KVClient`, an awaitable from :class:`AsyncKVClient`."""
    if op.op == "read":
        return client.get(op.key)
    if op.op in ("update", "insert"):
        return client.put(op.key, value)
    if op.op == "scan":
        return client.scan(op.key, op.scan_len or 50)
    raise ValueError(f"unsupported op {op.op!r}")


def run_sync_load(
    host: str,
    port: int,
    streams: Sequence[Sequence[ycsb.Operation]],
    value: bytes,
    duration: float | None = None,
) -> tuple[int, int, float]:
    """One blocking connection (thread) per stream; returns
    ``(ops_done, overloads, retries, elapsed)``.

    All connections are opened before the clock starts so the elapsed
    time covers steady-state request traffic only, in both modes.
    ``overloads`` counts operations that failed even after the client's
    bounded backoff; ``retries`` counts the refusals the backoff
    absorbed (those operations succeeded).
    """
    done = [0] * len(streams)
    overloads = [0] * len(streams)
    clients = [KVClient(host, port) for _ in streams]

    def worker(
        idx: int, client: KVClient, ops: Sequence[ycsb.Operation],
        deadline: float | None,
    ) -> None:
        for op in ops:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            try:
                _issue(client, op, value)
            except ServerOverloadedError:
                overloads[idx] += 1
                continue
            done[idx] += 1

    try:
        started = time.perf_counter()
        deadline = started + duration if duration is not None else None
        threads = [
            threading.Thread(
                target=worker, args=(i, client, ops, deadline), daemon=True
            )
            for i, (client, ops) in enumerate(zip(clients, streams))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - started
        retries = sum(client.retries for client in clients)
    finally:
        for client in clients:
            client.close()
    return sum(done), sum(overloads), retries, elapsed


async def run_pipelined_load(
    host: str,
    port: int,
    streams: Sequence[Sequence[ycsb.Operation]],
    value: bytes,
    depth: int = 8,
    duration: float | None = None,
) -> tuple[int, int, float]:
    """One pipelined connection per stream, ``depth`` requests in
    flight each; returns ``(ops_done, overloads, retries, elapsed)``.

    Connections open before the clock starts (matching
    :func:`run_sync_load`); each connection's stream is pre-split into
    ``depth`` slices issued by concurrent coroutines.
    """
    done = [0] * len(streams)
    overloads = [0] * len(streams)
    clients = list(
        await asyncio.gather(
            *(AsyncKVClient.connect(host, port) for _ in streams)
        )
    )

    async def issue(
        idx: int,
        client: AsyncKVClient,
        my_ops: Sequence[ycsb.Operation],
        deadline: float | None,
    ) -> None:
        for op in my_ops:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            try:
                await _issue(client, op, value)
            except ServerOverloadedError:
                overloads[idx] += 1
                continue
            done[idx] += 1

    try:
        started = time.perf_counter()
        deadline = started + duration if duration is not None else None
        await asyncio.gather(
            *(
                issue(i, client, piece, deadline)
                for i, (client, ops) in enumerate(zip(clients, streams))
                for piece in ycsb.partition(ops, depth)
            )
        )
        elapsed = time.perf_counter() - started
        retries = sum(client.retries for client in clients)
    finally:
        for client in clients:
            await client.close()
    return sum(done), sum(overloads), retries, elapsed


async def load_keys_async(
    host: str, port: int, keys: Sequence[bytes], value: bytes, depth: int = 64
) -> None:
    """Bulk-load the key set through one pipelined connection."""
    client = await AsyncKVClient.connect(host, port)
    slices = [keys[i::depth] for i in range(depth)]

    async def issue(my_keys: Sequence[bytes]) -> None:
        for key in my_keys:
            while True:
                try:
                    await client.put(key, value)
                    break
                except ServerOverloadedError:
                    await asyncio.sleep(0.005)

    try:
        await asyncio.gather(*(issue(s) for s in slices))
        await client.sync()
    finally:
        await client.close()


def run_benchmark(
    path: str,
    workload: str = "C",
    n_keys: int = 2000,
    n_ops: int = 5000,
    n_shards: int = 4,
    n_connections: int = 8,
    pipeline_depth: int = 8,
    pipelined: bool = True,
    duration: float | None = None,
    value_size: int = DEFAULT_VALUE_SIZE,
    seed: int = 42,
    engine_config: dict | None = None,
    fs: Any = None,
) -> LoadResult:
    """Full serving experiment: start a server at ``path``, bulk-load,
    run the YCSB mix, snapshot stats, drain gracefully.

    With ``duration`` set, the operation streams are repeated until the
    deadline passes (so short CI runs and fixed-op benchmark runs share
    one code path).
    """
    keys = random_u64_keys(n_keys, seed=seed)
    plan = ycsb.generate(workload, keys, n_ops, seed=seed)
    value = b"v" * value_size

    server = KVServer(
        path,
        n_shards=n_shards,
        fs=fs,
        engine_config=engine_config or {},
    )
    runner = ServerThread(server).start()
    try:
        host, port = server.host, server.port
        asyncio.run(load_keys_async(host, port, plan.load_keys, value))

        operations = list(plan.operations)
        if duration is not None:
            # Repeat the mix enough to outlast the deadline.
            reps = 50
            operations = operations * reps
        streams = ycsb.partition(operations, n_connections)

        if pipelined:
            ops_done, overloads, retries, elapsed = asyncio.run(
                run_pipelined_load(
                    host, port, streams, value,
                    depth=pipeline_depth, duration=duration,
                )
            )
        else:
            ops_done, overloads, retries, elapsed = run_sync_load(
                host, port, streams, value, duration=duration
            )

        with KVClient(host, port) as client:
            stats = client.stats()
    finally:
        runner.stop()

    return LoadResult(
        workload=workload,
        mode="pipelined" if pipelined else "sync",
        n_connections=n_connections,
        pipeline_depth=pipeline_depth if pipelined else 1,
        ops_done=ops_done,
        elapsed=elapsed,
        overloads=overloads,
        retries=retries,
        server_stats=stats,
    )
