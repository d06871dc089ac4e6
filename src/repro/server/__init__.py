"""Sharded asynchronous key-value serving layer over the durable LSM engine.

The subsystem turns the single-process :class:`repro.lsm.LSMTree` into
a network service: keys are hash-sharded across N independent durable
engines, an asyncio front-end speaks a length-prefixed binary protocol
with per-connection pipelining: each burst's point reads become one
batch lookup per shard on the event-loop thread, and per-shard
single-writer worker threads turn adjacent writes into WAL group
commits.

Entry points::

    python -m repro.server serve --path DIR --shards 4 --port 4440
    python -m repro.server bench --workload C --shards 4

See :mod:`repro.server.protocol` for the wire format and
:mod:`repro.server.client` for the blocking and pipelined clients.
"""

from .client import (
    AsyncKVClient,
    FencedError,
    FollowerLaggingError,
    KVClient,
    NotOwnerError,
    NotPrimaryError,
    ServerError,
    ServerOverloadedError,
    ServerShuttingDownError,
    WatermarkReply,
)
from .server import KVServer, ServerThread, shard_of
from .shard import ShardDown, ShardWorker
from .stats import LatencyHistogram, ServerStats

__all__ = [
    "AsyncKVClient",
    "FencedError",
    "FollowerLaggingError",
    "KVClient",
    "NotOwnerError",
    "WatermarkReply",
    "KVServer",
    "LatencyHistogram",
    "NotPrimaryError",
    "ServerError",
    "ServerOverloadedError",
    "ServerShuttingDownError",
    "ServerStats",
    "ServerThread",
    "ShardDown",
    "ShardWorker",
    "shard_of",
]
