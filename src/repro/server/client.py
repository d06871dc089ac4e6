"""Clients for the sharded key-value server.

Two flavours share the wire codec from :mod:`repro.server.protocol`:

* :class:`KVClient` — blocking, one request in flight at a time.  The
  simplest correct client; also the *non-pipelined baseline* for the
  serving benchmarks.
* :class:`AsyncKVClient` — asyncio, fully pipelined: every call
  returns as soon as the frame is written and a reader task resolves
  futures in arrival order (the server guarantees in-order responses).
  Many coroutines sharing one connection keep dozens of requests in
  flight, which is exactly what feeds the server's per-burst read
  batches and write group commit.

Both clients absorb transient ``OVERLOADED`` backpressure with a
bounded exponential-backoff retry (full jitter, so a thundering herd
of clients decorrelates instead of re-arriving in lockstep).  The
retry count is exposed as ``client.retries`` and surfaces in loadgen
stats; ``max_retries=0`` restores the old raise-immediately behaviour.

Write acks carry the committed sequence number (``put`` returns it) —
the causal token :meth:`KVClient.get_at` hands to a replication
follower to demand read-your-writes.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Sequence

from . import protocol

#: Backoff schedule for OVERLOADED retries: full jitter over an
#: exponentially growing cap, starting at 1 ms and saturating at 100 ms.
RETRY_BASE_DELAY = 0.001
RETRY_MAX_DELAY = 0.1
DEFAULT_MAX_RETRIES = 8


def _retry_delay(attempt: int) -> float:
    """Full-jitter exponential backoff: uniform over [0, min(cap, base*2^n)]."""
    return random.uniform(
        0.0, min(RETRY_MAX_DELAY, RETRY_BASE_DELAY * (2 ** attempt))
    )


class ServerError(Exception):
    """Non-OK response status from the server."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(
            f"{protocol.STATUS_NAMES.get(status, status)}: {message}"
        )
        self.status = status


class ServerOverloadedError(ServerError):
    """Backpressure: a bounded shard queue was full (and the bounded
    retry schedule, if any, was exhausted)."""


class ServerShuttingDownError(ServerError):
    """The server is draining; no new work is accepted."""


class FollowerLaggingError(ServerError):
    """GET_AT: the follower has not applied the requested sequence yet."""


class NotPrimaryError(ServerError):
    """A write was sent to a follower; re-route to the primary."""


class NotOwnerError(ServerError):
    """The node does not serve this shard (it migrated away, is still
    migrating in, or never lived here).  ``owner`` names the owning
    group when the node knows it — the router updates its placement
    map and retries."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(status, message)
        self.owner = message or None


class FencedError(ServerError):
    """A replication/lease message carried a stale term: a higher-term
    primary exists.  The sender must stop acting as primary."""


@dataclass
class WatermarkReply:
    """WATERMARK response: role, election term, and per-hosted-shard
    ``(dispatched, applied)`` replication watermarks."""

    is_primary: bool
    term: int
    marks: dict[int, tuple[int, int]]

    def applied_total(self) -> int:
        """Sum of durably applied sequences — the election's
        caught-up-ness score."""
        return sum(applied for _, applied in self.marks.values())


def _raise_for(status: int, body: bytes) -> None:
    message = body.decode("utf-8", "replace")
    if status == protocol.OVERLOADED:
        raise ServerOverloadedError(status, message)
    if status == protocol.SHUTTING_DOWN:
        raise ServerShuttingDownError(status, message)
    if status == protocol.LAGGING:
        raise FollowerLaggingError(status, message)
    if status == protocol.NOT_PRIMARY:
        raise NotPrimaryError(status, message)
    if status == protocol.NOT_OWNER:
        raise NotOwnerError(status, message)
    if status == protocol.FENCED:
        raise FencedError(status, message)
    raise ServerError(status, message)


class KVClient:
    """Blocking client: send one frame, read one frame."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rb")
        self._next_id = 0
        self._max_retries = max_retries
        #: OVERLOADED responses absorbed by the retry schedule.
        self.retries = 0

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "KVClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, opcode: int, body: bytes = b"") -> tuple[int, bytes]:
        self._next_id = (self._next_id + 1) & 0xFFFFFFFF
        request_id = self._next_id
        self._sock.sendall(protocol.frame(request_id, opcode, body))
        prefix = self._file.read(4)
        if len(prefix) < 4:
            raise ConnectionError("server closed the connection")
        length = protocol.parse_length(prefix)
        payload = self._file.read(length)
        if len(payload) < length:
            raise ConnectionError("truncated response")
        echoed, status, rbody = protocol.parse_payload(payload)
        if echoed != request_id:
            raise protocol.ProtocolError(
                f"response id {echoed} does not match request id {request_id}"
            )
        return status, rbody

    def _call_retrying(self, opcode: int, body: bytes = b"") -> tuple[int, bytes]:
        """One request, with bounded backoff across OVERLOADED answers.

        Retrying is safe here because OVERLOADED is answered *before*
        any engine work is queued — the request never happened.
        """
        attempt = 0
        while True:
            status, rbody = self._call(opcode, body)
            if status != protocol.OVERLOADED or attempt >= self._max_retries:
                return status, rbody
            self.retries += 1
            time.sleep(_retry_delay(attempt))
            attempt += 1

    # -- operations --------------------------------------------------------

    def get(self, key: bytes) -> Any | None:
        status, body = self._call_retrying(protocol.GET, protocol.encode_key(key))
        if status == protocol.NOT_FOUND:
            return None
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_value_body(body)

    def put(self, key: bytes, value: Any) -> int | None:
        """Store ``value``; returns the committed sequence number (the
        causal token for :meth:`get_at`), or None from older servers."""
        status, body = self._call_retrying(
            protocol.PUT, protocol.encode_key_value(key, value)
        )
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_u64_body(body) if len(body) == 8 else None

    def delete(self, key: bytes) -> int | None:
        status, body = self._call_retrying(protocol.DELETE, protocol.encode_key(key))
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_u64_body(body) if len(body) == 8 else None

    def get_many(self, keys: Sequence[bytes], missing: Any = None) -> list[Any]:
        status, body = self._call_retrying(
            protocol.BATCH_GET, protocol.encode_keys(keys)
        )
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_maybe_values(body, missing=missing)

    def scan(self, low: bytes, count: int) -> list[tuple[bytes, Any]]:
        status, body = self._call_retrying(
            protocol.SCAN, protocol.encode_scan(low, count)
        )
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_pairs(body)

    def count(self, low: bytes, high: bytes) -> int:
        status, body = self._call_retrying(
            protocol.COUNT, protocol.encode_range(low, high)
        )
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_u64_body(body)

    def sync(self) -> None:
        status, body = self._call_retrying(protocol.SYNC)
        if status != protocol.OK:
            _raise_for(status, body)

    def stats(self) -> dict:
        status, body = self._call(protocol.STATS)
        if status != protocol.OK:
            _raise_for(status, body)
        return json.loads(body.decode())

    def shutdown_server(self) -> None:
        status, body = self._call(protocol.SHUTDOWN)
        if status != protocol.OK:
            _raise_for(status, body)

    # -- cluster operations ------------------------------------------------

    def get_at(self, key: bytes, min_seq: int) -> Any | None:
        """Read ``key`` from a node that has applied at least
        ``min_seq`` (a token from :meth:`put`).  Raises
        :class:`FollowerLaggingError` when the node is behind."""
        status, body = self._call_retrying(
            protocol.GET_AT, protocol.encode_get_at(key, min_seq)
        )
        if status == protocol.NOT_FOUND:
            return None
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_value_body(body)

    def watermark(self) -> WatermarkReply:
        """The node's role, term, and per-shard (dispatched, applied)
        replication watermarks."""
        status, body = self._call(protocol.WATERMARK)
        if status != protocol.OK:
            _raise_for(status, body)
        return WatermarkReply(*protocol.decode_watermarks(body))

    def promote(self, new_term: int | None = None) -> int:
        """Flip a follower to primary (drains queued applies first).
        Returns the node's term after the flip."""
        status, body = self._call(protocol.PROMOTE, protocol.encode_promote(new_term))
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_u64_body(body) if len(body) == 8 else 0

    def repl_apply(self, term: int, shard: int, frames: bytes) -> int:
        """Ship verbatim WAL frames to a follower shard; returns its
        durable applied watermark.  Used by the replication sender."""
        status, body = self._call(
            protocol.REPL_APPLY, protocol.encode_repl_apply(term, shard, frames)
        )
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_u64_body(body)

    # -- membership operations (PR 10) --------------------------------------

    def snap_begin(self, term: int, shard: int, doc: bytes) -> None:
        status, body = self._call(
            protocol.SNAP_BEGIN, protocol.encode_snap_begin(term, shard, doc)
        )
        if status != protocol.OK:
            _raise_for(status, body)

    def snap_chunk(
        self, term: int, shard: int, name: str, offset: int, data: bytes
    ) -> None:
        status, body = self._call(
            protocol.SNAP_CHUNK,
            protocol.encode_snap_chunk(term, shard, name, offset, data),
        )
        if status != protocol.OK:
            _raise_for(status, body)

    def snap_commit(self, term: int, shard: int, snap_seq: int) -> int:
        """Install the staged snapshot; returns the installed sequence."""
        status, body = self._call(
            protocol.SNAP_COMMIT,
            protocol.encode_snap_commit(term, shard, snap_seq),
        )
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_u64_body(body)

    def migrate(
        self, shard: int, dst_group: str, targets: Sequence[tuple[str, int]]
    ) -> int:
        """Drive the source side of a live shard migration; returns the
        handoff sequence once every target holds the shard through it."""
        status, body = self._call(
            protocol.MIGRATE, protocol.encode_migrate(shard, dst_group, targets)
        )
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_u64_body(body)

    def migrate_commit(self, shard: int, handoff_seq: int) -> None:
        status, body = self._call(
            protocol.MIGRATE_COMMIT,
            protocol.encode_migrate_commit(shard, handoff_seq),
        )
        if status != protocol.OK:
            _raise_for(status, body)

    def shard_detach(self, shard: int, forward_group: str = "") -> None:
        status, body = self._call(
            protocol.SHARD_DETACH,
            protocol.encode_shard_detach(shard, forward_group),
        )
        if status != protocol.OK:
            _raise_for(status, body)

    def lease(self, term: int, ttl_ms: int) -> None:
        """Primary heartbeat: grant a lease for ``ttl_ms``.  Raises
        :class:`FencedError` when the receiver knows a higher term."""
        status, body = self._call(
            protocol.LEASE, protocol.encode_lease(term, ttl_ms)
        )
        if status != protocol.OK:
            _raise_for(status, body)


class AsyncKVClient:
    """Pipelined asyncio client over one connection.

    Safe for many coroutines on the same event loop: frame writes are
    atomic (single ``write`` call) and the reader task resolves pending
    futures strictly in send order, matching the server's in-order
    response guarantee.
    """

    def __init__(self, max_retries: int = DEFAULT_MAX_RETRIES) -> None:
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pending: asyncio.Queue = asyncio.Queue()
        self._reader_task: asyncio.Task | None = None
        self._next_id = 0
        self._conn_error: BaseException | None = None
        self._max_retries = max_retries
        #: OVERLOADED responses absorbed by the retry schedule.
        self.retries = 0

    @classmethod
    async def connect(
        cls, host: str, port: int, max_retries: int = DEFAULT_MAX_RETRIES
    ) -> "AsyncKVClient":
        client = cls(max_retries=max_retries)
        client._reader, client._writer = await asyncio.open_connection(host, port)
        sock = client._writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        client._reader_task = asyncio.create_task(client._read_loop())
        return client

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except Exception:
                pass
            self._writer = None

    async def _read_loop(self) -> None:
        assert self._reader is not None
        # Bulk-read + buffer parse: under pipelining the server packs
        # trains of responses per segment; resolve them all per wakeup.
        buf = bytearray()
        try:
            while True:
                data = await self._reader.read(1 << 16)
                if not data:
                    raise ConnectionError("server closed the connection")
                buf += data
                frames: list[tuple[int, int, bytes]] = []
                try:
                    del buf[: protocol.parse_frames(buf, frames)]
                finally:
                    # Frames ahead of an unframeable one still resolve.
                    for echoed, status, body in frames:
                        expected_id, future = self._pending.get_nowait()
                        if future.cancelled():
                            continue
                        if echoed != expected_id:
                            future.set_exception(
                                protocol.ProtocolError(
                                    f"response id {echoed} != expected {expected_id}"
                                )
                            )
                            continue
                        future.set_result((status, body))
        except (asyncio.CancelledError, GeneratorExit):
            self._fail_pending(ConnectionError("client closed"))
            raise
        except BaseException as exc:
            self._conn_error = exc
            self._fail_pending(exc)

    def _fail_pending(self, exc: BaseException) -> None:
        while True:
            try:
                _, future = self._pending.get_nowait()
            except asyncio.QueueEmpty:
                return
            if not future.done():
                future.set_exception(
                    ConnectionError(f"connection lost: {exc}")
                )

    async def _call(self, opcode: int, body: bytes = b"") -> tuple[int, bytes]:
        if self._writer is None:
            raise ConnectionError("client is closed")
        if self._conn_error is not None:
            raise ConnectionError(f"connection lost: {self._conn_error}")
        self._next_id = (self._next_id + 1) & 0xFFFFFFFF
        request_id = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        # Enqueue before writing so the reader can never see a response
        # for a request it does not know about.
        self._pending.put_nowait((request_id, future))
        self._writer.write(protocol.frame(request_id, opcode, body))
        await self._writer.drain()
        return await future

    async def _call_retrying(self, opcode: int, body: bytes = b"") -> tuple[int, bytes]:
        """Bounded backoff across OVERLOADED answers.  A retry is a
        fresh request at the back of the pipeline — ordering relative to
        other in-flight requests is already undefined under backpressure
        (the original was refused), so resending is safe."""
        attempt = 0
        while True:
            status, rbody = await self._call(opcode, body)
            if status != protocol.OVERLOADED or attempt >= self._max_retries:
                return status, rbody
            self.retries += 1
            await asyncio.sleep(_retry_delay(attempt))
            attempt += 1

    # -- operations --------------------------------------------------------

    async def get(self, key: bytes) -> Any | None:
        status, body = await self._call_retrying(
            protocol.GET, protocol.encode_key(key)
        )
        if status == protocol.NOT_FOUND:
            return None
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_value_body(body)

    async def put(self, key: bytes, value: Any) -> int | None:
        status, body = await self._call_retrying(
            protocol.PUT, protocol.encode_key_value(key, value)
        )
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_u64_body(body) if len(body) == 8 else None

    async def delete(self, key: bytes) -> int | None:
        status, body = await self._call_retrying(
            protocol.DELETE, protocol.encode_key(key)
        )
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_u64_body(body) if len(body) == 8 else None

    async def get_many(
        self, keys: Sequence[bytes], missing: Any = None
    ) -> list[Any]:
        status, body = await self._call_retrying(
            protocol.BATCH_GET, protocol.encode_keys(keys)
        )
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_maybe_values(body, missing=missing)

    async def scan(self, low: bytes, count: int) -> list[tuple[bytes, Any]]:
        status, body = await self._call_retrying(
            protocol.SCAN, protocol.encode_scan(low, count)
        )
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_pairs(body)

    async def count(self, low: bytes, high: bytes) -> int:
        status, body = await self._call_retrying(
            protocol.COUNT, protocol.encode_range(low, high)
        )
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_u64_body(body)

    async def sync(self) -> None:
        status, body = await self._call_retrying(protocol.SYNC)
        if status != protocol.OK:
            _raise_for(status, body)

    async def get_at(self, key: bytes, min_seq: int) -> Any | None:
        status, body = await self._call_retrying(
            protocol.GET_AT, protocol.encode_get_at(key, min_seq)
        )
        if status == protocol.NOT_FOUND:
            return None
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_value_body(body)

    async def watermark(self) -> WatermarkReply:
        status, body = await self._call(protocol.WATERMARK)
        if status != protocol.OK:
            _raise_for(status, body)
        return WatermarkReply(*protocol.decode_watermarks(body))

    async def promote(self, new_term: int | None = None) -> int:
        status, body = await self._call(
            protocol.PROMOTE, protocol.encode_promote(new_term)
        )
        if status != protocol.OK:
            _raise_for(status, body)
        return protocol.decode_u64_body(body) if len(body) == 8 else 0

    async def stats(self) -> dict:
        status, body = await self._call(protocol.STATS)
        if status != protocol.OK:
            _raise_for(status, body)
        return json.loads(body.decode())

    async def shutdown_server(self) -> None:
        status, body = await self._call(protocol.SHUTDOWN)
        if status != protocol.OK:
            _raise_for(status, body)
